"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The shared 500-step reference run covers the conservation,
energy-decay, and weak-residual criteria.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from chbs.domain import build_unit_square
from chbs.monotone import (GraphPair, beta_hat, envelope, minimal_section,
                           obstacle_graph, polynomial_graph, logarithmic_graph,
                           yosida)
from chbs.scheme import SchemeConfig, run, weak_residuals
from chbs.spaces import (FieldPair, apply_F, as_functional, form_a, inner_H,
                         inner_V, norm_V0_star, poincare_constant, project_zero_mean,
                         solve_F_inverse, subgrad_phi)
from chbs.verify import continuous_dependence_experiment, vanishing_eps_study

DOUBLE_WELL = GraphPair(polynomial_graph(), polynomial_graph())


def report(name, passed, detail=""):
    print(f"{'PASS' if passed else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def reference_run():
    """n=17, tau=1e-3, T=0.5, prototype double-well, seeded random init."""
    dom = build_unit_square(17)
    cfg = SchemeConfig(eps=0.1, tau=1e-3, t_end=0.5, graphs=DOUBLE_WELL)
    rng = np.random.Generator(np.random.Philox(42))
    noise = FieldPair.from_bulk(dom, 2.0 * rng.random(dom.n_bulk) - 1.0)
    u0 = 0.2 * project_zero_mean(noise)
    start = time.perf_counter()
    traj = run(cfg, u0)
    elapsed = time.perf_counter() - start
    assert not traj.aborted
    return dom, cfg, traj, elapsed


def test_mass_conservation(reference_run):
    _, _, traj, elapsed = reference_run
    mass0 = traj.records[0].total_mass
    drift = max(abs(r.total_mass - mass0) for r in traj.records)
    report("mass conservation over 500 steps",
           drift <= 1e-9 and elapsed <= 60.0,
           f"drift {drift:.3e}, runtime {elapsed:.1f}s")


def test_energy_decay(reference_run):
    _, _, traj, _ = reference_run
    energies = [r.energy for r in traj.records]
    worst = max(b - a for a, b in zip(energies, energies[1:]))
    report("energy decay at every step", worst <= 1e-10,
           f"worst increment {worst:.3e}")


def test_weak_residuals_every_step(reference_run):
    _, cfg, traj, _ = reference_run
    worst = 0.0
    for k in range(1, len(traj.states)):
        r1, r2 = weak_residuals(traj.states[k - 1], traj.states[k], cfg, None)
        worst = max(worst, r1, r2)
    report("weak residuals below 10*newton_tol after every step",
           worst <= 10.0 * cfg.newton_tol, f"worst {worst:.3e}")


def test_carried_norms_match_the_solves(reference_run):
    # an accepted step has r1 <= 10 newton_tol and drops tau F^-1 R1 from the
    # carried z, so the carried |v|_V0* is within 10 newton_tol t of the
    # solved one; a(v, v) and a(mu, mu) are exact up to rounding
    _, cfg, traj, _ = reference_run
    worst = 0.0
    for state, rec in zip(traj.states, traj.records):
        solved = norm_V0_star(as_functional(state.v))
        bound = 10.0 * cfg.newton_tol * state.t + 1e-12 * solved
        worst = max(worst, abs(rec.norm_v_V0star - solved) / bound)
        assert state.a_vv == pytest.approx(form_a(state.v, state.v), rel=1e-12)
        assert state.a_mumu == pytest.approx(form_a(state.mu, state.mu), rel=1e-12)
    report("carried V0* norm within its drift bound at every level", worst <= 1.0,
           f"worst error {worst:.3e} of the bound")


def test_yosida_property_suite():
    kinds = {
        "polynomial": (polynomial_graph(), (-10.0, 10.0), (-5.0, 5.0)),
        "logarithmic": (logarithmic_graph(), (-1 + 1e-6, 1 - 1e-6), (-0.95, 0.95)),
        "obstacle": (obstacle_graph(), (-1.0, 1.0), (-0.9, 0.9)),
    }
    rng = np.random.Generator(np.random.Philox(3))
    ok = True
    detail = []
    for name, (g, window, smooth_window) in kinds.items():
        for eps in (1.0, 0.1, 0.01):
            r_dom = np.sort(window[0] + (window[1] - window[0]) * rng.random(1000))
            r_wide = np.sort(-3.0 + 6.0 * rng.random(1000))
            y = yosida(g, eps, r_wide)
            slopes = np.diff(y) / np.diff(r_wide)
            monotone = np.all(slopes >= -1e-9)
            lipschitz = np.all(slopes <= 1.0 / eps + 1e-8)
            dominated = np.all(np.abs(yosida(g, eps, r_dom))
                               <= np.abs(minimal_section(g, r_dom)) + 1e-12)
            env = envelope(g, eps, r_dom)
            env_bounds = np.all(env >= 0.0) and np.all(env <= beta_hat(g, r_dom) + 1e-12)
            r_s = smooth_window[0] + (smooth_window[1] - smooth_window[0]) * rng.random(1000)
            h = 1e-5
            fd = (envelope(g, eps, r_s + h) - envelope(g, eps, r_s - h)) / (2 * h)
            deriv = np.max(np.abs(fd - yosida(g, eps, r_s))) <= 1e-6
            good = monotone and lipschitz and dominated and env_bounds and deriv
            ok = ok and good
            if not good:
                detail.append(f"{name}/eps={eps}")
    report("regularized-graph property suite", ok, ",".join(detail) or "all kinds")


def test_compatibility_equal_graphs():
    # |beta_eps| <= rho*|beta_bnd_eps*rho| + c0 holds with c0 = 0 for one kind at rho = 1
    eps, r = 0.5, np.linspace(-10.0, 10.0, 4001)
    slack = (DOUBLE_WELL.rho * np.abs(yosida(DOUBLE_WELL.boundary, eps * DOUBLE_WELL.rho, r))
             - np.abs(yosida(DOUBLE_WELL.bulk, eps, r)))
    worst = float(slack.min())
    report("domination bound for the equal-graph pair", worst >= 0.0,
           f"worst slack {worst:.3e}")


def test_coercivity_constant():
    dom8 = build_unit_square(8)
    dom16 = build_unit_square(16)
    cp8 = poincare_constant(dom8)
    cp16 = poincare_constant(dom16)
    rng = np.random.Generator(np.random.Philox(9))
    worst = np.inf
    for _ in range(1000):
        z = project_zero_mean(FieldPair.from_bulk(dom8, rng.standard_normal(dom8.n_bulk)))
        z = z * (1.0 / np.sqrt(inner_V(z, z)))
        worst = min(worst, form_a(z, z) - cp8 * inner_V(z, z))
    stable = abs(cp8 - cp16) / cp8 <= 5e-3
    report("coercivity constant positive, sampled, refinement-stable",
           cp8 > 0.0 and worst >= -1e-9 and stable,
           f"c_p(8)={cp8:.6f}, c_p(16)={cp16:.6f}, worst slack {worst:.2e}")


def test_subgradient_adjointness_with_negative_control():
    dom = build_unit_square(8)
    rng = np.random.Generator(np.random.Philox(17))

    def worst_error(d):
        worst = 0.0
        for _ in range(100):
            z = project_zero_mean(FieldPair.from_bulk(d, rng.standard_normal(d.n_bulk)))
            w = project_zero_mean(FieldPair.from_bulk(d, rng.standard_normal(d.n_bulk)))
            worst = max(worst, abs(inner_H(subgrad_phi(z), w) - form_a(z, w)))
        return worst

    clean = worst_error(dom)
    bad_K = dom.K_surf.tolil(copy=True)
    bad_K[0, 1] += 0.25
    corrupted = replace(dom, K_surf=bad_K.tocsr())
    broken = worst_error(corrupted)
    report("weak-Laplacian adjointness with negative control",
           clean <= 1e-10 and broken > 1e-10,
           f"clean {clean:.2e}, corrupted {broken:.2e}")


def test_duality_roundtrip():
    dom = build_unit_square(6)
    rng = np.random.Generator(np.random.Philox(23))
    worst = 0.0
    for _ in range(100):
        z = project_zero_mean(FieldPair.from_bulk(dom, rng.standard_normal(dom.n_bulk)))
        back = solve_F_inverse(apply_F(z))
        worst = max(worst, np.abs(back.bulk - z.bulk).max())

    dom3 = build_unit_square(3)
    z3 = project_zero_mean(FieldPair.from_bulk(dom3, rng.standard_normal(dom3.n_bulk)))
    ell = as_functional(z3)
    got = solve_F_inverse(ell).bulk
    nb = dom3.n_bulk
    S = np.zeros((dom3.n_boundary, nb))
    S[np.arange(dom3.n_boundary), dom3.boundary_chain] = 1.0
    A = dom3.K_bulk.toarray() + S.T @ dom3.K_surf.toarray() @ S
    gc = dom3.M_bulk + S.T @ dom3.M_surf
    aug = np.zeros((nb + 1, nb + 1))
    aug[:nb, :nb] = A
    aug[:nb, nb] = gc
    aug[nb, :nb] = gc
    rhs_c = ell.bulk.copy()
    rhs_c[dom3.boundary_chain] += ell.boundary
    oracle = np.linalg.solve(aug, np.concatenate([rhs_c, [0.0]]))[:nb]
    oracle_err = np.abs(got - oracle).max()
    report("duality-map roundtrip and dense-oracle agreement",
           worst <= 1e-8 and oracle_err <= 1e-10,
           f"roundtrip {worst:.2e}, oracle {oracle_err:.2e}")


def test_two_run_stability_experiment():
    start = time.perf_counter()
    dom = build_unit_square(9)
    cfg = SchemeConfig(eps=0.1, tau=1e-3, t_end=0.1, graphs=DOUBLE_WELL)
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    u0 = project_zero_mean(FieldPair.from_bulk(
        dom, 0.1 * np.cos(np.pi * x) * np.cos(np.pi * y)))
    bump = FieldPair.from_bulk(dom, np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))

    def forcing(scale):
        f = scale * bump
        return lambda t: f

    identical = continuous_dependence_experiment(cfg, (u0, None), (u0, None),
                                                 tau_levels=1)
    ratios = {}
    for s in (1e-2, 1e-3):
        rep = continuous_dependence_experiment(cfg, (u0, None), (u0, forcing(s)),
                                               tau_levels=1)
        ratios[s] = rep.sup_ratio
    scale_var = abs(ratios[1e-2] - ratios[1e-3]) / min(ratios.values())
    sweep = continuous_dependence_experiment(cfg, (u0, None), (u0, forcing(1e-2)),
                                             tau_levels=3)
    elapsed = time.perf_counter() - start
    report("two-run stability: degenerate, scale, and time-step sweeps",
           identical.degenerate and identical.sup_ratio == 0.0
           and scale_var < 0.2 and sweep.variation < 0.3 and elapsed <= 300.0,
           f"scale var {scale_var:.2%}, tau var {sweep.variation:.2%}, "
           f"runtime {elapsed:.0f}s")


def test_vanishing_regularization_study():
    dom = build_unit_square(9)
    cfg = SchemeConfig(eps=0.5, tau=1e-3, t_end=0.2, graphs=DOUBLE_WELL)
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    f = FieldPair.from_bulk(dom, 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y))
    rep = vanishing_eps_study(cfg, (0.5, 0.25, 0.125, 0.0625),
                              FieldPair.zeros(dom), lambda t: f)
    cauchy = all(b <= 1.1 * a for a, b in zip(rep.d_h0, rep.d_h0[1:]))
    report("vanishing-regularization Cauchy study with uniform bounds",
           cauchy and rep.bounded_pass and not rep.partial,
           f"distances {[f'{d:.2e}' for d in rep.d_h0]}")


def test_solver_matches_dense_fixed_point_oracle():
    from test_scheme import dense_picard_step
    dom = build_unit_square(5)
    cfg = SchemeConfig(eps=0.1, tau=1e-3, t_end=1e-3, graphs=DOUBLE_WELL,
                       newton_tol=1e-12)
    rng = np.random.Generator(np.random.Philox(31))
    noise = FieldPair.from_bulk(dom, 2.0 * rng.random(dom.n_bulk) - 1.0)
    u0 = 0.3 * project_zero_mean(noise)
    traj = run(cfg, u0)
    w_ref, mu_ref = dense_picard_step(dom, cfg, traj.m0, traj.states[0].v.bulk)
    err = max(np.abs(traj.states[1].v.bulk - w_ref).max(),
              np.abs(traj.states[1].mu.bulk - mu_ref).max())
    report("one step agrees with the dense fixed-point oracle",
           err <= 1e-8, f"max component error {err:.2e}")
