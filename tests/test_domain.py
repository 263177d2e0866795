import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from chbs import domain, scheme
from chbs.domain import build_unit_square, count_negative_eigenvalues
from chbs.errors import ConfigError, NumericalError
from chbs.monotone import GraphPair, polynomial_graph
from chbs.spaces import DualPair, norm_V_star


def test_counting_n3(domain_cache):
    dom = domain_cache(3)
    assert dom.n_bulk == 9
    assert dom.n_boundary == 8
    assert dom.M_bulk.sum() == pytest.approx(1.0, abs=1e-12)
    assert dom.M_surf.sum() == pytest.approx(4.0, abs=1e-12)


def test_rejects_tiny_mesh():
    with pytest.raises(ConfigError):
        build_unit_square(2)


def test_constants_in_stiffness_kernel_exactly_on_dyadic_mesh(domain_cache):
    # h = 1/2 keeps every element entry exact, so the kernel is bit-exact
    dom = domain_cache(3)
    assert np.abs(dom.K_bulk @ np.ones(dom.n_bulk)).max() == 0.0
    assert np.abs(dom.K_surf @ np.ones(dom.n_boundary)).max() == 0.0


@pytest.mark.parametrize("n", [4, 7, 9])
def test_constants_in_stiffness_kernel(domain_cache, n):
    dom = domain_cache(n)
    assert np.abs(dom.K_bulk @ np.ones(dom.n_bulk)).max() <= 1e-12
    assert np.abs(dom.K_surf @ np.ones(dom.n_boundary)).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 5])
def test_stiffness_symmetric_mass_positive(domain_cache, n):
    dom = domain_cache(n)
    assert abs(dom.K_bulk - dom.K_bulk.T).max() == 0.0
    assert abs(dom.K_surf - dom.K_surf.T).max() == 0.0
    assert dom.M_bulk.min() > 0.0
    assert dom.M_surf.min() > 0.0


def test_surface_stiffness_is_scaled_circulant(domain_cache):
    # hand-assembled oracle: 12-node closed chain of uniform segments
    dom = domain_cache(4)
    ng = dom.n_boundary
    assert ng == 12
    h_gamma = 1.0 / 3.0
    oracle = np.zeros((ng, ng))
    for k in range(ng):
        nxt = (k + 1) % ng
        oracle[k, k] += 1.0 / h_gamma
        oracle[nxt, nxt] += 1.0 / h_gamma
        oracle[k, nxt] -= 1.0 / h_gamma
        oracle[nxt, k] -= 1.0 / h_gamma
    np.testing.assert_allclose(dom.K_surf.toarray(), oracle, rtol=0, atol=1e-13)


def test_boundary_chain_is_cyclic_and_on_boundary(domain_cache):
    dom = domain_cache(5)
    pts = dom.coords[dom.boundary_chain]
    on_edge = (np.isclose(pts, 0.0) | np.isclose(pts, 1.0)).any(axis=1)
    assert on_edge.all()
    assert len(set(dom.boundary_chain.tolist())) == dom.n_boundary
    steps = np.diff(np.vstack([pts, pts[:1]]), axis=0)
    seg = np.hypot(steps[:, 0], steps[:, 1])
    np.testing.assert_allclose(seg, 0.25, rtol=0, atol=1e-14)


def test_integrate_constants(domain_cache):
    dom = domain_cache(6)
    assert float(dom.M_bulk @ np.ones(dom.n_bulk)) == pytest.approx(1.0, abs=1e-12)
    assert float(dom.M_surf @ np.ones(dom.n_boundary)) == pytest.approx(4.0, abs=1e-12)


def test_integrate_linear_field_exact(domain_cache):
    # lumped P1 quadrature integrates linears exactly: int x over the square
    dom = domain_cache(6)
    assert float(dom.M_bulk @ dom.coords[:, 0]) == pytest.approx(0.5, abs=1e-12)


def _a_form(dom, z_bulk):
    z_bnd = z_bulk[dom.boundary_chain]
    return float(z_bulk @ (dom.K_bulk @ z_bulk) + z_bnd @ (dom.K_surf @ z_bnd))


def test_form_symmetric_and_nonnegative(domain_cache, rng):
    dom = domain_cache(5)
    for _ in range(20):
        z = rng.standard_normal(dom.n_bulk)
        w = rng.standard_normal(dom.n_bulk)
        zb, wb = z[dom.boundary_chain], w[dom.boundary_chain]
        azw = z @ (dom.K_bulk @ w) + zb @ (dom.K_surf @ wb)
        awz = w @ (dom.K_bulk @ z) + wb @ (dom.K_surf @ zb)
        assert azw == pytest.approx(awz, abs=1e-11)
        assert _a_form(dom, z) >= 0.0


def test_patch_constant_field(domain_cache, rng):
    dom = domain_cache(5)
    const = np.full(dom.n_bulk, 3.7)
    w = rng.standard_normal(dom.n_bulk)
    val = const @ (dom.K_bulk @ w) \
        + const[dom.boundary_chain] @ (dom.K_surf @ w[dom.boundary_chain])
    assert abs(val) < 1e-12


def test_refinement_second_order(domain_cache):
    # a(z, z) of the interpolant of z = x^2 approaches the exact value 4
    # (bulk 4/3, three nontrivial edges 4/3 each) at second order in h
    exact = 4.0
    errs, hs = [], []
    for n in (5, 9, 17):
        dom = domain_cache(n)
        z = dom.coords[:, 0] ** 2
        errs.append(abs(_a_form(dom, z) - exact))
        hs.append(1.0 / (n - 1))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_combined_operators_consistent(domain_cache, rng):
    dom = domain_cache(5)
    z = rng.standard_normal(dom.n_bulk)
    direct = _a_form(dom, z)
    assert z @ (dom.coupled_stiffness @ z) == pytest.approx(direct, abs=1e-11)
    gc = dom.M_bulk.copy()
    gc[dom.boundary_chain] += dom.M_surf
    np.testing.assert_allclose(dom.combined_mass, gc, rtol=0, atol=0)


# --- sparse factors ----------------------------------------------------------------

def _step_system(dom, eps, tau):
    config = scheme.SchemeConfig(eps=eps, tau=tau, t_end=tau,
                                 graphs=GraphPair(polynomial_graph(), polynomial_graph()))
    return scheme._StepSystem(dom, config, 0.0, np.zeros(dom.n_bulk), None)


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def test_step_solver_factors_with_the_domain_order():
    assert scheme.splu is domain.splu


def test_minimum_degree_order_bounds_the_fill(domain_cache):
    # SuperLU's default COLAMD order stores 223,700 and 232,152 nonzeros here
    dom = domain_cache(65)
    (lu,) = _step_system(dom, 0.02, 1e-3).lu
    assert _fill(lu) <= 150_000
    assert _fill(dom.pinned_lu) <= 135_000


def test_every_factor_solves_to_rounding(domain_cache, rng):
    dom = domain_cache(33)
    gc, A = dom.combined_mass, dom.coupled_stiffness
    # the mean-constrained solve pins the first node
    cases = [(A[1:, 1:], dom.pinned_lu), (sp.diags(gc) + A, dom.vnorm_lu)]
    for eps, tau in [(0.02, 1e-3), (0.5, 1e-2)]:  # one complex shift, a real pair
        system = _step_system(dom, eps, tau)
        cases += list(zip(system.picard_matrix(), system.lu))
    assert len(cases) == 5
    for matrix, lu in cases:
        b = rng.standard_normal(matrix.shape[0])
        assert np.linalg.norm(matrix @ lu.solve(b) - b) <= 1e-13 * np.linalg.norm(b)


def test_vnorm_factor_is_built_on_first_use(rng):
    dom = build_unit_square(9)
    assert not {"pinned_lu", "vnorm_lu", "mu2_lower", "lambda_upper"} & set(vars(dom))
    # a copy with a doubled stiffness builds its own bound on the largest eigenvalue
    top = dom.lambda_upper
    doubled = dataclasses.replace(dom, coupled_stiffness=2.0 * dom.coupled_stiffness)
    assert "lambda_upper" not in vars(doubled)
    assert doubled.lambda_upper == 2.0 * top and vars(dom)["lambda_upper"] == top
    ell = DualPair(rng.standard_normal(dom.n_bulk), rng.standard_normal(dom.n_boundary), dom)
    norm = norm_V_star(ell)
    assert "vnorm_lu" in vars(dom)
    # oracle: SciPy's default-ordered factor of Mc + Ac
    c = ell.bulk.copy()
    c[dom.boundary_chain] += ell.boundary
    vnorm = (sp.diags(dom.combined_mass) + dom.coupled_stiffness).tocsc()
    oracle = float(np.sqrt(c @ scipy.sparse.linalg.splu(vnorm).solve(c)))
    assert norm == pytest.approx(oracle, rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [9, 17])
def test_inertia_count_matches_dense_eigenvalues(domain_cache, n):
    dom = domain_cache(n)
    A, M = dom.coupled_stiffness, sp.diags(dom.combined_mass)
    lam = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    # k = 1 lies below mu2, k = 2 inside the close pair mu2 ~ mu3 (3.608 and
    # 3.610 at n = 17), k = 3 above it; then between the 4th and 5th and the
    # 20th and 21st eigenvalues
    for k in (1, 2, 3, 4, 20):
        assert lam[k] - lam[k - 1] > 1e-4 * lam[k]  # the shift is well separated
        shifted = A - 0.5 * (lam[k - 1] + lam[k]) * M
        dense = np.count_nonzero(scipy.linalg.eigvalsh(shifted.toarray()) < 0.0)
        assert count_negative_eigenvalues(shifted) == dense == k


@pytest.mark.parametrize("matrix", [[[0.0, 1.0], [1.0, 0.0]],  # forces an off-diagonal pivot
                                    [[1.0, 1.0], [1.0, 1.0]]])  # singular
def test_inertia_count_refuses_a_wrong_count(matrix):
    with pytest.raises(NumericalError):
        count_negative_eigenvalues(sp.csc_matrix(np.array(matrix)))


def test_inertia_count_refuses_a_non_finite_pivot():
    with pytest.raises(NumericalError, match="not finite"):
        count_negative_eigenvalues(sp.csc_matrix(np.array([[1.0, 0.0], [0.0, np.inf]])))


def test_mu2_lower_is_built_on_first_use():
    dom = build_unit_square(5)
    assert "mu2_lower" not in vars(dom)
    mu = dom.mu2_lower
    assert vars(dom)["mu2_lower"] == mu


@pytest.mark.parametrize("n, expected", [(3, 1.75), (5, 3.5), (9, 3.5), (17, 3.5)])
def test_mu2_lower_is_certified_below_the_dense_mu2(domain_cache, n, expected):
    # mu2 is 3.208, 3.510, 3.589 and 3.608: 3.5 passes at n >= 5, and n = 3
    # halves once
    dom = domain_cache(n)
    A, gc = dom.coupled_stiffness, dom.combined_mass
    mu = dom.mu2_lower
    assert mu == expected
    assert count_negative_eigenvalues(A - sp.diags(mu * gc)) == 1
    mu2 = scipy.linalg.eigh(A.toarray(), np.diag(gc), eigvals_only=True)[1]
    assert 0.5 * mu2 < mu <= mu2


@pytest.mark.parametrize("n", [3, 9])
def test_lambda_upper_bounds_the_dense_largest_eigenvalue(domain_cache, n):
    # the Gershgorin bound is 8/h^2, from the interior rows; the largest
    # eigenvalue is 20.8 of 32 at n = 3 and 492.8 of 512 at n = 9
    dom = domain_cache(n)
    top = scipy.linalg.eigh(dom.coupled_stiffness.toarray(), np.diag(dom.combined_mass),
                            eigvals_only=True)[-1]
    assert top <= dom.lambda_upper
    assert dom.lambda_upper == pytest.approx(8.0 * (n - 1) ** 2, rel=1e-14)
