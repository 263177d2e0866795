import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from chbs import spaces
from chbs.errors import NumericalError
from chbs.spaces import (DualPair, FieldPair, apply_F, as_functional, form_a,
                         inner_H, inner_V, mean, norm_V0_star,
                         norm_V_star, pairing, poincare_constant,
                         project_zero_mean, solve_F_inverse, subgrad_phi)

# frozen from the dense QZ oracle below (relative difference 1.6e-3)
CP_N8 = 0.7816819922756
CP_N16 = 0.7829519410650


def random_zero_mean(dom, rng):
    return project_zero_mean(FieldPair.from_bulk(dom, rng.standard_normal(dom.n_bulk)))


def dense_operators(dom):
    """Dense coupled stiffness, combined lumped mass, and V-norm matrix."""
    nb, ng = dom.n_bulk, dom.n_boundary
    S = np.zeros((ng, nb))
    S[np.arange(ng), dom.boundary_chain] = 1.0
    A = dom.K_bulk.toarray() + S.T @ dom.K_surf.toarray() @ S
    gc = dom.M_bulk + S.T @ dom.M_surf
    return A, gc


def dense_bordered_solve(dom, rhs):
    """Oracle for the mean-constrained solve: the dense saddle system that
    borders A with the mass column, the multiplier its last unknown."""
    A, gc = dense_operators(dom)
    nb = dom.n_bulk
    aug = np.zeros((nb + 1, nb + 1))
    aug[:nb, :nb] = A
    aug[:nb, nb] = gc
    aug[nb, :nb] = gc
    return np.linalg.solve(aug, np.concatenate([rhs, [0.0]]))[:nb]


# --- inner products ---------------------------------------------------------

def test_inner_H_of_ones_is_total_measure(domain_cache):
    dom = domain_cache(4)
    one = FieldPair.constant(dom, 1.0)
    assert inner_H(one, one) == pytest.approx(5.0, abs=1e-12)


def test_form_a_kills_constants(domain_cache, rng):
    dom = domain_cache(5)
    const = FieldPair.constant(dom, 2.5)
    z = FieldPair.from_bulk(dom, rng.standard_normal(dom.n_bulk))
    assert form_a(const, z) == pytest.approx(0.0, abs=1e-12)


def test_inner_V_dominates_inner_H(domain_cache, rng):
    dom = domain_cache(5)
    for _ in range(10):
        z = FieldPair.from_bulk(dom, rng.standard_normal(dom.n_bulk))
        assert inner_V(z, z) >= inner_H(z, z)
        assert form_a(z, z) <= inner_V(z, z)


# --- mean and projection ------------------------------------------------------

def test_mean_of_constant(domain_cache):
    dom = domain_cache(4)
    assert mean(FieldPair.constant(dom, -1.3)) == pytest.approx(-1.3, abs=1e-13)


def test_mean_weights_bulk_and_boundary(domain_cache):
    # bulk 1, boundary 0: (|bulk| * 1 + |bnd| * 0) / 5
    dom = domain_cache(4)
    z = FieldPair(np.ones(dom.n_bulk), np.zeros(dom.n_boundary), dom)
    assert mean(z) == pytest.approx(0.2, abs=1e-13)


def test_projection_properties(domain_cache, rng):
    dom = domain_cache(5)
    assert np.abs(project_zero_mean(FieldPair.constant(dom, 4.0)).bulk).max() < 1e-14
    z = FieldPair(rng.standard_normal(dom.n_bulk),
                  rng.standard_normal(dom.n_boundary), dom)
    pz = project_zero_mean(z)
    assert abs(mean(pz)) < 1e-12
    ppz = project_zero_mean(pz)
    np.testing.assert_allclose(ppz.bulk, pz.bulk, rtol=0, atol=1e-14)
    zm = random_zero_mean(dom, rng)
    np.testing.assert_allclose(project_zero_mean(zm).bulk, zm.bulk, rtol=0, atol=1e-13)


def test_projection_identity_for_zero_mean_functionals(domain_cache, rng):
    # (z*, P zt)_H = (z*, zt)_H whenever z* has zero combined mean
    dom = domain_cache(5)
    for _ in range(20):
        zstar = project_zero_mean(FieldPair(rng.standard_normal(dom.n_bulk),
                                            rng.standard_normal(dom.n_boundary), dom))
        zt = FieldPair(rng.standard_normal(dom.n_bulk),
                       rng.standard_normal(dom.n_boundary), dom)
        lhs = inner_H(zstar, project_zero_mean(zt))
        assert lhs == pytest.approx(inner_H(zstar, zt), abs=1e-11)


# --- duality operator ----------------------------------------------------------

def test_apply_F_zero(domain_cache):
    dom = domain_cache(3)
    ell = apply_F(FieldPair.zeros(dom))
    assert np.abs(ell.bulk).max() == 0.0 and np.abs(ell.boundary).max() == 0.0


def test_apply_F_symmetric(domain_cache, rng):
    dom = domain_cache(5)
    for _ in range(10):
        z, w = random_zero_mean(dom, rng), random_zero_mean(dom, rng)
        assert pairing(apply_F(z), w) == pytest.approx(pairing(apply_F(w), z), abs=1e-10)
        assert pairing(apply_F(z), z) == pytest.approx(form_a(z, z), abs=1e-10)


def test_apply_F_requires_zero_mean(domain_cache):
    dom = domain_cache(3)
    with pytest.raises(ValueError):
        apply_F(FieldPair.constant(dom, 1.0))


def test_apply_F_concrete_n3_dense_oracle(domain_cache, rng):
    dom = domain_cache(3)
    z = random_zero_mean(dom, rng)
    ell = apply_F(z)
    np.testing.assert_allclose(ell.bulk, dom.K_bulk.toarray() @ z.bulk,
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(ell.boundary, dom.K_surf.toarray() @ z.boundary,
                               rtol=0, atol=1e-13)


def test_solve_F_inverse_zero(domain_cache):
    dom = domain_cache(3)
    w = solve_F_inverse(DualPair(np.zeros(dom.n_bulk), np.zeros(dom.n_boundary), dom))
    assert np.abs(w.bulk).max() == 0.0


def test_solve_F_inverse_roundtrip(domain_cache, rng):
    dom = domain_cache(6)
    for _ in range(25):
        z = random_zero_mean(dom, rng)
        back = solve_F_inverse(apply_F(z))
        assert np.abs(back.bulk - z.bulk).max() <= 1e-8


def test_saddle_solve_rejects_nan_right_hand_side(domain_cache):
    dom = domain_cache(5)
    rhs = np.zeros(dom.n_bulk)
    rhs[3] = np.nan
    with pytest.raises(NumericalError, match="lost accuracy"):
        spaces._saddle_solve(dom, rhs)


def test_solve_F_inverse_rejects_nonzero_mean(domain_cache):
    dom = domain_cache(3)
    ell = as_functional(FieldPair.constant(dom, 1.0))
    with pytest.raises(ValueError):
        solve_F_inverse(ell)


def test_solve_F_inverse_n3_dense_augmented_oracle(domain_cache, rng):
    dom = domain_cache(3)
    z = random_zero_mean(dom, rng)
    ell = as_functional(z)
    got = solve_F_inverse(ell)
    rhs_c = ell.bulk.copy()
    rhs_c[dom.boundary_chain] += ell.boundary
    np.testing.assert_allclose(got.bulk, dense_bordered_solve(dom, rhs_c), rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [3, 9])
def test_saddle_solve_with_nonzero_sum_dense_bordered_oracle(domain_cache, rng, n):
    # a right-hand side that does not annihilate constants takes the closed-form
    # multiplier sum(r)/sum(Mc), as the exact step residual r1 does with R1
    dom = domain_cache(n)
    gc = dom.combined_mass
    for shift in (1.0, -40.0):
        rhs = rng.standard_normal(dom.n_bulk) + shift * gc
        assert abs(rhs.sum()) > 0.1
        oracle = dense_bordered_solve(dom, rhs)
        w = spaces._saddle_solve(dom, rhs)
        np.testing.assert_allclose(w, oracle, rtol=0, atol=1e-10 * np.abs(oracle).max())
        assert abs(gc @ w) <= 1e-13 * np.abs(w).max()


# --- norms -----------------------------------------------------------------------

def test_norms_vanish_on_zero(domain_cache):
    dom = domain_cache(3)
    z = FieldPair.zeros(dom)
    assert math.sqrt(form_a(z, z)) == 0.0
    assert norm_V0_star(DualPair(np.zeros(dom.n_bulk), np.zeros(dom.n_boundary), dom)) == 0.0


def test_dual_norm_matches_primal_through_F(domain_cache, rng):
    dom = domain_cache(5)
    for _ in range(10):
        z = random_zero_mean(dom, rng)
        assert norm_V0_star(apply_F(z)) == pytest.approx(math.sqrt(form_a(z, z)), rel=1e-10)


def test_dual_norm_positive_on_n3(domain_cache, rng):
    dom = domain_cache(3)
    ell = as_functional(random_zero_mean(dom, rng))
    val = norm_V0_star(ell)
    assert val > 0.0
    # dense oracle for the same quantity
    rhs_c = ell.bulk.copy()
    rhs_c[dom.boundary_chain] += ell.boundary
    assert val == pytest.approx(np.sqrt(rhs_c @ dense_bordered_solve(dom, rhs_c)), rel=1e-10)


def test_cauchy_schwarz_in_duality(domain_cache, rng):
    dom = domain_cache(5)
    for _ in range(20):
        z, w = random_zero_mean(dom, rng), random_zero_mean(dom, rng)
        bound = math.sqrt(form_a(z, z)) * math.sqrt(form_a(w, w))
        assert abs(pairing(apply_F(z), w)) <= bound * (1 + 1e-12)


def test_v_star_norm_dense_oracle(domain_cache, rng):
    dom = domain_cache(4)
    A, gc = dense_operators(dom)
    f = FieldPair(rng.standard_normal(dom.n_bulk),
                  rng.standard_normal(dom.n_boundary), dom)
    ell = as_functional(f)
    rhs_c = ell.bulk.copy()
    rhs_c[dom.boundary_chain] += ell.boundary
    oracle = np.sqrt(rhs_c @ np.linalg.solve(np.diag(gc) + A, rhs_c))
    assert norm_V_star(ell) == pytest.approx(oracle, rel=1e-10)


# --- coercivity constant ------------------------------------------------------------

def qz_poincare_oracle(dom):
    """Independent route: SVD null-space basis + QZ on the reduced pencil."""
    A, gc = dense_operators(dom)
    B = np.diag(gc) + A
    _, _, vt = np.linalg.svd(gc[None, :])
    Z = vt[1:].T
    vals = scipy.linalg.eig(Z.T @ A @ Z, Z.T @ B @ Z, right=False)
    vals = np.real(vals[np.abs(np.imag(vals)) < 1e-10])
    return float(vals.min())


def test_poincare_constant_of_a_replaced_stiffness(domain_cache):
    # a copy with another stiffness builds its own factors: doubling Ac
    # doubles mu2, so c_p = 2 mu2/(1 + 2 mu2) with mu2 = c_p/(1 - c_p)
    dom = domain_cache(9)
    cp = poincare_constant(dom)
    doubled = poincare_constant(replace(dom, coupled_stiffness=2.0 * dom.coupled_stiffness))
    mu2 = 2.0 * cp / (1.0 - cp)
    assert doubled == pytest.approx(mu2 / (1.0 + mu2), rel=1e-12)
    assert doubled == pytest.approx(0.8777058435270991, rel=1e-12)


@pytest.mark.parametrize("n", [5, 8])
def test_poincare_constant_positive_below_one(domain_cache, n):
    cp = poincare_constant(domain_cache(n))
    assert 0.0 < cp <= 1.0


def test_poincare_matches_qz_oracle(domain_cache):
    dom = domain_cache(8)
    assert poincare_constant(dom) == pytest.approx(qz_poincare_oracle(dom), rel=1e-9)


def test_poincare_frozen_values_and_stability(domain_cache):
    cp8 = poincare_constant(domain_cache(8))
    cp16 = poincare_constant(domain_cache(16))
    assert cp8 == pytest.approx(CP_N8, rel=1e-10)
    assert cp16 == pytest.approx(CP_N16, rel=1e-10)
    assert abs(cp8 - cp16) / cp8 <= 5e-3


def test_poincare_sampled_inequality(domain_cache, rng):
    dom = domain_cache(8)
    cp = poincare_constant(dom)
    worst = np.inf
    for _ in range(1000):
        z = random_zero_mean(dom, rng)
        nrm = np.sqrt(inner_V(z, z))
        z = z * (1.0 / nrm)
        worst = min(worst, form_a(z, z) - cp * inner_V(z, z))
    assert worst >= -1e-9


def dense_poincare_reference(dom):
    """Dense route: orthonormal zero-mean basis and a symmetric-definite eigensolve."""
    A, gc = dense_operators(dom)
    Q = scipy.linalg.null_space(gc[None, :])
    vals = scipy.linalg.eigh(Q.T @ A @ Q, Q.T @ (np.diag(gc) + A) @ Q,
                             eigvals_only=True, subset_by_index=[0, 0])
    return float(vals[0])


def test_poincare_matches_dense_reference_n33(domain_cache):
    dom = domain_cache(33)
    assert poincare_constant(dom) == pytest.approx(dense_poincare_reference(dom), rel=1e-9)


def test_poincare_repeats_bit_for_bit(domain_cache):
    # ARPACK's default start vector changes between calls in one process
    dom = domain_cache(17)
    assert poincare_constant(dom) == poincare_constant(dom)


def test_poincare_stable_under_refinement(domain_cache):
    cp65 = poincare_constant(domain_cache(65))
    cp129 = poincare_constant(domain_cache(129))
    assert abs(cp65 - cp129) / cp129 <= 1e-4


def test_poincare_eigensolve_failure_is_numerical_error(domain_cache, monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0),
                                  np.empty((0, 0)))

    monkeypatch.setattr(spaces, "eigsh", stalled)
    with pytest.raises(NumericalError, match=r"did not converge at n = 5"):
        poincare_constant(domain_cache(5))


@pytest.mark.parametrize("top", [np.nan, np.inf, 0.0, -0.5])
def test_poincare_rejects_nonfinite_or_nonpositive_eigenvalue(domain_cache, monkeypatch, top):
    monkeypatch.setattr(spaces, "eigsh",
                        lambda *args, **kwargs: (np.array([top]), np.ones((25, 1))))
    with pytest.raises(NumericalError, match=r"at n = 5"):
        poincare_constant(domain_cache(5))


# --- weak Laplacian pair --------------------------------------------------------------

def test_subgrad_phi_zero(domain_cache):
    dom = domain_cache(3)
    out = subgrad_phi(FieldPair.zeros(dom))
    assert np.abs(out.bulk).max() == 0.0


def test_subgrad_phi_adjointness(domain_cache, rng):
    dom = domain_cache(6)
    for _ in range(30):
        z = random_zero_mean(dom, rng)
        w = random_zero_mean(dom, rng)
        assert inner_H(subgrad_phi(z), w) == pytest.approx(form_a(z, w), abs=1e-10)


def test_subgrad_phi_requires_zero_mean(domain_cache):
    dom = domain_cache(3)
    with pytest.raises(ValueError):
        subgrad_phi(FieldPair.constant(dom, 1.0))


def test_subgrad_phi_kills_constants(domain_cache):
    # constants are the zero element of the quotient space: projecting a
    # constant pair and applying the weak Laplacian pair gives zero
    dom = domain_cache(4)
    out = subgrad_phi(project_zero_mean(FieldPair.constant(dom, 2.0)))
    assert np.abs(out.bulk).max() < 1e-13
    assert np.abs(out.boundary).max() < 1e-13


def test_subgrad_phi_approximates_laplacian(domain_cache):
    # z = cos(pi x) cos(pi y) has zero normal derivative on the square and
    # -Laplace z = 2 pi^2 z; interior error of the weak realization is O(h^2)
    errs, hs = [], []
    for n in (9, 17, 33):
        dom = domain_cache(n)
        x, y = dom.coords[:, 0], dom.coords[:, 1]
        field = np.cos(np.pi * x) * np.cos(np.pi * y)
        z = project_zero_mean(FieldPair.from_bulk(dom, field))
        out = subgrad_phi(z)
        target = 2.0 * np.pi ** 2 * (z.bulk)
        interior = (x > 0.01) & (x < 0.99) & (y > 0.01) & (y < 0.99)
        errs.append(np.abs(out.bulk - target)[interior].max())
        hs.append(1.0 / (n - 1))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)
