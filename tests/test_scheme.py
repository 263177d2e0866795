import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.linalg
from scipy.optimize import brentq

from chbs import monotone, spaces
from chbs.domain import build_unit_square
from chbs import scheme as scheme_module
from chbs.errors import CompatibilityError, ConfigError, NumericalError, StepError
from chbs.monotone import (GraphPair, envelope, logarithmic_graph, obstacle_graph,
                           polynomial_graph, resolvent, yosida)
from chbs.scheme import (SchemeConfig, initialize, monitor_record, run, step,
                         weak_residuals)
from chbs.spaces import (FieldPair, _dual_norm_collapsed, as_functional, form_a, inner_H,
                         is_trace_consistent, mean, norm_V0_star, project_zero_mean)

POLY_PAIR = GraphPair(polynomial_graph(), polynomial_graph())
OBST_PAIR = GraphPair(obstacle_graph(), obstacle_graph())
LOG_PAIR = GraphPair(logarithmic_graph(), logarithmic_graph())


def make_config(**kw):
    base = dict(eps=0.1, tau=1e-3, t_end=0.01, graphs=POLY_PAIR)
    base.update(kw)
    return SchemeConfig(**base)


def random_u0(dom, rng, amplitude=0.2, m0=0.0):
    noise = FieldPair.from_bulk(dom, 2.0 * rng.random(dom.n_bulk) - 1.0)
    return m0 * FieldPair.constant(dom, 1.0) + amplitude * project_zero_mean(noise)


# --- config validation --------------------------------------------------------

def test_config_rejects_bad_eps():
    with pytest.raises(ConfigError):
        make_config(eps=0.0)
    with pytest.raises(ConfigError):
        make_config(eps=1.5)


@pytest.mark.parametrize("kw", [dict(t_end=1e300, tau=1e-300),  # t_end/tau overflows
                                dict(t_end=0.0, tau=1e-320),    # 1/tau overflows
                                dict(tau=1e-160)])              # (eps/tau)^2 overflows
def test_config_rejects_tau_that_overflows(kw):
    with pytest.raises(ConfigError, match="tau is too small"):
        make_config(**kw)


@pytest.mark.parametrize("kw", [dict(eps=1e-320), dict(eps=1e-300),
                                # the boundary graph's parameter eps*rho is the smaller
                                dict(graphs=GraphPair(polynomial_graph(), obstacle_graph(),
                                                      rho=1e-250)),
                                # and 3 eps rho underflows to 0
                                dict(eps=1e-30, graphs=GraphPair(polynomial_graph(),
                                                                 obstacle_graph(), rho=1e-300))],
                         ids=["eps-1e-320", "eps-1e-300", "eps-rho-1e-251", "eps-rho-0"])
def test_config_rejects_eps_that_overflows(kw):
    with pytest.raises(ConfigError, match="eps is too small"):
        make_config(**kw)


@pytest.mark.parametrize("eps, rho", [(0.1, 1e217), (0.1, 1e300), (1.0, 1e308)],
                         ids=["rho-1e217", "rho-1e300", "3-eps-rho-overflows"])
def test_config_rejects_rho_whose_resolvent_scale_underflows(eps, rho):
    # (3 eps rho)^(-3/2) = 0 makes the cubic resolvent divide 0 by 0 at r = 0
    with pytest.raises(ConfigError, match="rho is too large"):
        make_config(eps=eps, graphs=GraphPair(polynomial_graph(), polynomial_graph(), rho=rho))


def test_rho_at_its_bound_runs_without_warnings(domain_cache):
    # at eps = 0.1 the scale (3 eps rho)^(-3/2) is the least subnormal at rho = 1e216
    cfg = make_config(t_end=0.002, graphs=GraphPair(polynomial_graph(), polynomial_graph(),
                                                    rho=1e216))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(cfg, FieldPair.constant(domain_cache(5), 0.0))
    assert not traj.aborted and len(traj.states) == 3


@pytest.mark.parametrize("pair", [POLY_PAIR, OBST_PAIR], ids=["polynomial", "obstacle"])
def test_eps_just_above_its_bound_runs_without_warnings(domain_cache, rng, pair):
    # (3 eps)^(-3/2) overflows below eps = 1.0465e-206
    cfg = make_config(eps=1.1e-206, t_end=0.005, graphs=pair)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(cfg, random_u0(domain_cache(5), rng, amplitude=0.3))
    assert not traj.aborted and len(traj.states) == 6


@pytest.mark.parametrize("pair", [
    GraphPair(polynomial_graph(40.0), polynomial_graph()),
    GraphPair(obstacle_graph(), obstacle_graph(1e-3))], ids=["bulk", "boundary"])
def test_config_rejects_increasing_perturbation(pair):
    with pytest.raises(ConfigError, match="convex split needs a nonincreasing perturbation"):
        make_config(graphs=pair)
    make_config(graphs=GraphPair(obstacle_graph(0.0), obstacle_graph(0.0)))


def test_config_equality_includes_pi_slope():
    a = make_config(graphs=GraphPair(polynomial_graph(-1.0), polynomial_graph(-1.0)))
    b = make_config(graphs=GraphPair(polynomial_graph(-1.0), polynomial_graph(-40.0)))
    assert a != b
    assert a == make_config(graphs=GraphPair(polynomial_graph(-1.0), polynomial_graph(-1.0)))


def _cubic_init(value):
    dom = build_unit_square(3)
    return initialize(make_config(), FieldPair.constant(dom, value))


@pytest.mark.parametrize("build, error, message", [
    (lambda: make_config(newton_tol=math.inf), ConfigError, "newton_tol must be positive and finite"),
    (lambda: make_config(t_end=math.nan), ConfigError, "t_end must be nonnegative and finite"),
    (lambda: make_config(t_end=math.inf), ConfigError, "t_end must be nonnegative and finite"),
    (lambda: make_config(tau=math.inf), ConfigError, "tau must be positive and finite"),
    (lambda: GraphPair(polynomial_graph(), polynomial_graph(), rho=math.inf), ValueError,
     "rho must be positive and finite"),
    (lambda: logarithmic_graph(c=math.nan), ValueError, "c must be positive and finite"),
    (lambda: polynomial_graph(pi_slope=-math.inf), ValueError, "pi_slope must be finite"),
    (lambda: _cubic_init(1e100), CompatibilityError,
     r"initial value 1e\+100 at bulk node 0 has a non-finite convex primitive of the bulk graph"),
], ids=["newton_tol-inf", "t_end-nan", "t_end-inf", "tau-inf", "rho-inf",
        "log_c-nan", "pi_slope-inf", "cubic-init-1e100"])
def test_non_finite_value_is_rejected_naming_its_field(build, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and without an overflow warning on the way
        with pytest.raises(error, match=message):
            build()


# --- initialization --------------------------------------------------------------

def test_initialize_constant_data(domain_cache):
    dom = domain_cache(5)
    state = initialize(make_config(), FieldPair.constant(dom, 0.4))
    assert state.m0 == pytest.approx(0.4, abs=1e-13)
    assert np.abs(state.v.bulk).max() < 1e-13
    assert state.t == 0.0


def test_initialize_splits_mean_and_fluctuation(domain_cache, rng):
    dom = domain_cache(5)
    w = project_zero_mean(FieldPair.from_bulk(dom, rng.standard_normal(dom.n_bulk)))
    u0 = 0.2 * FieldPair.constant(dom, 1.0) + w
    state = initialize(make_config(), u0)
    assert state.m0 == pytest.approx(0.2, abs=1e-12)
    np.testing.assert_allclose(state.v.bulk, w.bulk, rtol=0, atol=1e-12)


def test_initialize_rejects_out_of_domain_value(domain_cache):
    dom = domain_cache(5)
    u0 = FieldPair.constant(dom, 0.0)
    u0.bulk[7] = 1.5
    u0.boundary[:] = u0.bulk[dom.boundary_chain]
    with pytest.raises(CompatibilityError, match="node 7"):
        initialize(make_config(graphs=OBST_PAIR), u0)


def test_initialize_rejects_mean_on_domain_edge(domain_cache):
    dom = domain_cache(5)
    with pytest.raises(CompatibilityError):
        initialize(make_config(graphs=OBST_PAIR), FieldPair.constant(dom, 1.0))


def test_initialize_records_yosida_pair(domain_cache, rng):
    dom = domain_cache(5)
    cfg = make_config()
    u0 = random_u0(dom, rng)
    state = initialize(cfg, u0)
    np.testing.assert_allclose(state.xi.bulk,
                               yosida(cfg.graphs.bulk, cfg.eps, u0.bulk),
                               rtol=0, atol=1e-14)


def test_initialize_refuses_a_non_finite_initial_energy(domain_cache, rng, monkeypatch):
    # the potential norm's refusal is exercised end to end in test_cli.py
    energy = scheme_module._energy
    monkeypatch.setattr(scheme_module, "_energy",
                        lambda state, config: (-math.inf,) + energy(state, config)[1:])
    with pytest.raises(ConfigError, match=r"initial energy is not finite \(-inf\)"):
        initialize(make_config(), random_u0(domain_cache(5), rng))


@pytest.mark.parametrize("pair", [POLY_PAIR, LOG_PAIR, OBST_PAIR],
                         ids=["polynomial", "logarithmic", "obstacle"])
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_initial_potential_solves_the_potential_equation(domain_cache, rng, pair, forced):
    # mu0 is trace-consistent and satisfies Mc mu0 = Ac v0 + N + P - F, the
    # potential equation of a step with a zero time derivative, to rounding
    dom = domain_cache(9)
    cfg = make_config(graphs=pair)
    f0 = None
    if forced:  # a forcing pair that is not trace-consistent
        f0 = FieldPair(rng.standard_normal(dom.n_bulk), rng.standard_normal(dom.n_boundary), dom)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3, m0=0.1), f0)
    assert is_trace_consistent(state.mu)
    system = scheme_module._StepSystem(dom, cfg, state.m0, state.v.bulk, f0)
    it = system.residual(state.v.bulk, state.mu.bulk)
    scale = max(scheme_module._h_norm(dom, t) for t in it.terms2)
    assert it.r2 <= 1e-14 * scale
    assert weak_residuals(state, state, cfg, f0)[1] == it.r2


# --- single step ------------------------------------------------------------------

def test_step_preserves_equilibrium(domain_cache):
    dom = domain_cache(5)
    cfg = make_config()
    state = initialize(cfg, FieldPair.constant(dom, 0.0))
    nxt = step(state, cfg, FieldPair.zeros(dom))
    assert np.abs(nxt.v.bulk).max() < 1e-13
    assert nxt.newton_iters == 0


def test_step_conserves_mean(domain_cache, rng):
    dom = domain_cache(7)
    cfg = make_config()
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3))
    nxt = step(state, cfg, FieldPair.zeros(dom))
    assert abs(mean(nxt.v)) <= 1e-10


def test_step_xi_matches_nodewise_yosida_and_domination(domain_cache, rng):
    dom = domain_cache(7)
    pair = GraphPair(polynomial_graph(), obstacle_graph(), rho=1.0)
    cfg = make_config(graphs=pair)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.4))
    nxt = step(state, cfg, FieldPair.zeros(dom))
    u_b = nxt.v.bulk + nxt.m0
    np.testing.assert_allclose(nxt.xi.bulk, yosida(pair.bulk, cfg.eps, u_b),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(nxt.xi.boundary,
                               yosida(pair.boundary, cfg.eps * pair.rho,
                                      u_b[dom.boundary_chain]),
                               rtol=0, atol=1e-14)
    # the kept resolvent pair is the one the Yosida pair came from
    np.testing.assert_array_equal(nxt.j.bulk, resolvent(pair.bulk, cfg.eps, u_b))
    np.testing.assert_array_equal(nxt.xi.bulk, (u_b - nxt.j.bulk) / cfg.eps)
    trace_xi = nxt.xi.bulk[dom.boundary_chain]
    c0 = 1.0  # |beta°(1)| of the cubic, against the zero section of the obstacle
    assert np.all(np.abs(trace_xi) <= pair.rho * np.abs(nxt.xi.boundary) + c0 + 1e-10)


# --- dense fixed-point oracle -------------------------------------------------------

def _yosida_oracle(g, e, r):
    """Independent pointwise Yosida: cubic roots / projection / brentq."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if g.kind == "obstacle":
        return (r - np.clip(r, -1.0, 1.0)) / e
    out = np.empty_like(r)
    for i, ri in enumerate(r):
        if g.kind == "polynomial":
            roots = np.roots([e, 0.0, 1.0, -ri])
            real = roots[np.abs(roots.imag) < 1e-9].real
            j = real[np.argmin(np.abs(real - ri))]
        else:
            j = brentq(lambda s: s + e * (np.log1p(s) - np.log1p(-s)) - ri,
                       -1 + 1e-14, 1 - 1e-14, xtol=1e-15)
        out[i] = (ri - j) / e
    return out


def dense_picard_step(dom, cfg, m0, w_prev, f_pair=None, tol=1e-12):
    """Dense fixed-point solve of the one-step system, independent of Newton."""
    nb, ng = dom.n_bulk, dom.n_boundary
    chain = dom.boundary_chain
    S = np.zeros((ng, nb))
    S[np.arange(ng), chain] = 1.0
    A = dom.K_bulk.toarray() + S.T @ dom.K_surf.toarray() @ S
    gc = dom.M_bulk + S.T @ dom.M_surf
    tau, eps, pair = cfg.tau, cfg.eps, cfg.graphs

    def weighted(u, fn_bulk, fn_bnd):
        out = dom.M_bulk * fn_bulk(u)
        out[chain] += dom.M_surf * fn_bnd(u[chain])
        return out

    def nonlin(u):
        return weighted(u, lambda v: _yosida_oracle(pair.bulk, eps, v),
                        lambda v: _yosida_oracle(pair.boundary, eps * pair.rho, v))

    def perturb(u):
        return weighted(u, lambda v: pair.bulk.pi_slope * v,
                        lambda v: pair.boundary.pi_slope * v)

    fvec = np.zeros(nb)
    if f_pair is not None:
        fvec = dom.M_bulk * f_pair.bulk
        fvec[chain] += dom.M_surf * f_pair.boundary

    system = np.block([[np.diag(gc / tau), A],
                       [-(eps * np.diag(gc / tau) + A), np.diag(gc)]])
    pi_prev = perturb(w_prev + m0)
    w = w_prev.copy()
    mu = np.zeros(nb)
    for _ in range(2000):
        u = w + m0
        rhs = np.concatenate([gc * w_prev / tau,
                              nonlin(u) + pi_prev - fvec - eps * gc * w_prev / tau])
        sol = np.linalg.solve(system, rhs)
        w_new, mu_new = sol[:nb], sol[nb:]
        done = np.abs(w_new - w).max() <= tol
        w, mu = w_new, mu_new
        if done:
            return w, mu
    raise AssertionError("oracle fixed point did not converge")


# eps = 0.1, tau = 1e-3 gives a real pair of Schur shifts, eps = 0.02 a complex one
@pytest.mark.parametrize("eps", [0.1, 0.02], ids=["convex_split", "convex_split-complex"])
def test_step_agrees_with_dense_picard_oracle(domain_cache, rng, eps):
    dom = domain_cache(5)
    cfg = make_config(eps=eps, newton_tol=1e-12)
    u0 = random_u0(dom, rng, amplitude=0.3)
    state = initialize(cfg, u0)
    nxt = step(state, cfg, FieldPair.zeros(dom))
    w_ref, mu_ref = dense_picard_step(dom, cfg, state.m0, state.v.bulk)
    assert np.abs(nxt.v.bulk - w_ref).max() <= 1e-8
    assert np.abs(nxt.mu.bulk - mu_ref).max() <= 1e-8


def test_obstacle_step_agrees_with_dense_picard_oracle(domain_cache, rng):
    dom = domain_cache(5)
    cfg = make_config(graphs=OBST_PAIR, newton_tol=1e-12)
    u0 = random_u0(dom, rng, amplitude=0.6)
    state = initialize(cfg, u0)
    nxt = step(state, cfg, FieldPair.zeros(dom))
    w_ref, mu_ref = dense_picard_step(dom, cfg, state.m0, state.v.bulk)
    assert np.abs(nxt.v.bulk - w_ref).max() <= 1e-8


@pytest.mark.parametrize("pair", [POLY_PAIR, OBST_PAIR], ids=["polynomial", "obstacle"])
def test_picard_fallback_agrees_with_dense_oracle(domain_cache, rng, monkeypatch, pair):
    # a zero Newton direction never lowers the merit, so the line search
    # fails at the first iterate and the step falls back to Picard
    dom = domain_cache(5)
    cfg = make_config(graphs=pair, newton_tol=1e-12)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.6))
    zero = np.zeros(dom.n_bulk)
    monkeypatch.setattr(scheme_module, "_newton_direction",
                        lambda system, it, rtol: (zero, 0))
    picard_calls = []
    solve_picard = scheme_module._solve_picard

    def counted(*args):
        picard_calls.append(1)
        return solve_picard(*args)

    monkeypatch.setattr(scheme_module, "_solve_picard", counted)
    nxt = step(state, cfg, FieldPair.zeros(dom))
    assert picard_calls == [1]
    assert nxt.newton_iters > 1
    w_ref, mu_ref = dense_picard_step(dom, cfg, state.m0, state.v.bulk)
    assert np.abs(nxt.v.bulk - w_ref).max() <= 1e-8
    assert np.abs(nxt.mu.bulk - mu_ref).max() <= 1e-8
    r1, r2 = weak_residuals(state, nxt, cfg, FieldPair.zeros(dom))
    assert r1 <= 10.0 * cfg.newton_tol
    assert r2 <= 10.0 * cfg.newton_tol
    assert abs(mean(nxt.v)) <= 1e-12


@pytest.mark.parametrize("pair", [POLY_PAIR, LOG_PAIR, OBST_PAIR],
                         ids=["polynomial", "logarithmic", "obstacle"])
@pytest.mark.parametrize("eps, tau, factors", [(0.02, 1e-3, 1), (0.5, 1e-2, 2)],
                         ids=["complex-shifts", "real-shifts"])
def test_cg_direction_matches_dense_solve(domain_cache, rng, pair, eps, tau, factors):
    dom = domain_cache(7)
    cfg = make_config(graphs=pair, eps=eps, tau=tau)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.6))
    system = scheme_module._StepSystem(dom, cfg, state.m0, state.v.bulk, None)
    assert len(system.lu) == factors
    # a perturbed iterate that leaves [-1, 1], so D is nonzero for the obstacle too
    w = state.v.bulk + 0.9 * (2.0 * rng.random(dom.n_bulk) - 1.0)
    it = system.residual(w, state.mu.bulk + rng.standard_normal(dom.n_bulk))
    dw, n_lin = scheme_module._newton_direction(system, it)
    assert n_lin > 0
    ref = np.linalg.solve(system.jacobian(it).toarray(), system.reduce(-it.R1, -it.R2))
    assert np.abs(dw - ref).max() <= 1e-10 * np.abs(ref).max()


def test_forcing_rule_keeps_newton_iterations_and_saves_cg(domain_cache, rng, monkeypatch):
    # a phase-separating run with the forcing rule against the same run with
    # every Newton direction solved to the full CG tolerance
    dom = domain_cache(9)
    cfg = make_config(graphs=CUBIC_40, eps=0.02, tau=1e-3, t_end=0.02)
    u0 = random_u0(dom, rng, amplitude=0.3)
    forced = run(cfg, u0)
    newton_direction = scheme_module._newton_direction
    monkeypatch.setattr(scheme_module, "_newton_direction",
                        lambda system, it, rtol: newton_direction(system, it))
    full = run(cfg, u0)
    assert not forced.aborted and not full.aborted and len(forced.states) == 21
    assert [s.newton_iters for s in forced.states] == [s.newton_iters for s in full.states]
    assert sum(s.lin_iters for s in forced.states) < sum(s.lin_iters for s in full.states)
    for a, b in zip(forced.states, full.states):
        assert np.abs(a.v.bulk - b.v.bulk).max() <= 1e-11
        assert np.abs(a.mu.bulk - b.mu.bulk).max() <= 1e-11


def test_cg_stall_falls_back_to_picard(domain_cache, rng, monkeypatch):
    dom = domain_cache(7)
    cfg = make_config(newton_tol=1e-12)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.6))
    monkeypatch.setattr(scheme_module, "_newton_direction", lambda system, it, rtol: None)
    picard_calls = []
    solve_picard = scheme_module._solve_picard

    def counted(*args):
        picard_calls.append(1)
        return solve_picard(*args)

    monkeypatch.setattr(scheme_module, "_solve_picard", counted)
    nxt = step(state, cfg, FieldPair.zeros(dom))
    assert picard_calls == [1]
    assert nxt.lin_iters == 0 and nxt.newton_iters > 0
    r1, r2 = weak_residuals(state, nxt, cfg, FieldPair.zeros(dom))
    assert r1 <= 10.0 * cfg.newton_tol
    assert r2 <= 10.0 * cfg.newton_tol
    assert abs(mean(nxt.v)) <= 1e-12


def test_newton_update_keeps_mean_exact_for_any_solver_error(domain_cache, rng, monkeypatch):
    # a linear solver that adds a constant to dw: the mass shift removes it
    dom = domain_cache(7)
    cfg = make_config(newton_tol=1e-12)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3))
    clean = step(state, cfg, FieldPair.zeros(dom))
    newton_direction = scheme_module._newton_direction

    def offset_direction(system, it, rtol):
        dw, n_lin = newton_direction(system, it, rtol)
        return dw + 1e-3, n_lin

    monkeypatch.setattr(scheme_module, "_newton_direction", offset_direction)
    nxt = step(state, cfg, FieldPair.zeros(dom))
    assert nxt.newton_iters == clean.newton_iters  # no Picard fallback
    assert abs(mean(nxt.v)) <= 1e-15
    assert np.abs(nxt.v.bulk - clean.v.bulk).max() <= 1e-12


def test_default_start_is_the_old_state(domain_cache, rng):
    # the old state already has the conserved mean: its shift is exactly 0
    dom = domain_cache(9)
    cfg = make_config()
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3, m0=0.1))
    lone = step(state, cfg, None)
    given = step(state, cfg, None, start=(state.v.bulk, state.mu.bulk))
    for name in ("v", "mu", "xi", "j"):
        for part in ("bulk", "boundary"):
            a, b = getattr(getattr(lone, name), part), getattr(getattr(given, name), part)
            assert a.tobytes() == b.tobytes()
    assert (lone.omega, lone.t, lone.newton_iters, lone.lin_iters) == \
        (given.omega, given.t, given.newton_iters, given.lin_iters)


def test_given_start_is_shifted_to_the_previous_mean(domain_cache, rng):
    # a start at the solution but with its combined mean off by 1e-3: the
    # shift restores the mean, so the step converges at its start
    dom = domain_cache(9)
    cfg = make_config()
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3))
    cold = step(state, cfg, FieldPair.zeros(dom))
    nxt = step(state, cfg, FieldPair.zeros(dom), start=(cold.v.bulk + 1e-3, cold.mu.bulk))
    assert nxt.newton_iters == 0
    assert abs(mean(nxt.v) - mean(state.v)) <= 1e-14
    assert np.abs(nxt.v.bulk - cold.v.bulk).max() <= 1e-15


def test_step_converged_by_its_last_newton_update_is_accepted(domain_cache, rng):
    # this step takes 3 Newton updates: with newton_max = 3 the loop tests
    # the third for convergence before it tests the cap, and accepts it
    dom = domain_cache(9)
    cfg = make_config(graphs=CUBIC_40, eps=0.02, tau=1e-3)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3))
    free = step(state, cfg, None)
    assert free.newton_iters == 3
    last = step(state, replace(cfg, newton_max=3), None)
    assert (last.newton_iters, last.lin_iters) == (free.newton_iters, free.lin_iters)
    assert last.v.bulk.tobytes() == free.v.bulk.tobytes()
    assert last.mu.bulk.tobytes() == free.mu.bulk.tobytes()
    with pytest.raises(StepError, match=r"Newton did not converge in 2 iterations"):
        step(state, replace(cfg, newton_max=2), None)


@pytest.mark.filterwarnings("error")
def test_step_with_non_finite_merit_fails_before_any_newton_direction(domain_cache, rng,
                                                                      monkeypatch):
    # an infinite r2 makes the merit infinite, which every line-search trial
    # would undercut; the step has to end at its start instead
    dom = domain_cache(9)
    cfg = make_config()
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3))
    calls = []
    newton_direction = scheme_module._newton_direction
    monkeypatch.setattr(scheme_module, "_newton_direction",
                        lambda *args: calls.append(1) or newton_direction(*args))
    monkeypatch.setattr(scheme_module, "_h_norm", lambda dom, vec: math.inf)
    with pytest.raises(StepError, match=r"^Newton did not converge in 0 iterations "
                                        r"\(residuals \d\.\d{3}e[-+]\d+, inf\)$"):
        step(state, cfg, None)
    assert calls == []


@pytest.mark.parametrize("pair", [POLY_PAIR, LOG_PAIR, OBST_PAIR],
                         ids=["polynomial", "logarithmic", "obstacle"])
@pytest.mark.parametrize("eps, tau", [(0.02, 1e-3), (0.5, 1e-2)],
                         ids=["complex-shifts", "real-shifts"])
@pytest.mark.parametrize("mu_shift", [0.0, 1e3], ids=["mu", "shifted-mu"])
def test_r1_terms_match_the_solves_they_replace(domain_cache, rng, pair, eps, tau, mu_shift):
    # the V0* norms of Ac mu and Mc dw/tau by the Riesz identity against
    # one mean-constrained solve each
    dom = domain_cache(9)
    cfg = make_config(graphs=pair, eps=eps, tau=tau)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3))
    system = scheme_module._StepSystem(dom, cfg, state.m0, state.v.bulk, None)
    w = state.v.bulk + 0.3 * (2.0 * rng.random(dom.n_bulk) - 1.0)
    it = system.residual(w, state.mu.bulk + rng.standard_normal(dom.n_bulk) + mu_shift)
    a_mu_sq, dw_sq = system.r1_terms(it, _dual_norm_collapsed(dom, it.R1))
    got = np.sqrt(np.maximum([a_mu_sq, dw_sq], 0.0))
    ref = np.array([_dual_norm_collapsed(dom, it.a_mu),
                    _dual_norm_collapsed(dom, it.R1 - it.a_mu)])
    assert np.abs(got - ref).max() <= 1e-10 * ref.max()


def _exact_converged(system, it):
    """The convergence test at the exact r1 and both full scales, with no bound."""
    tol = system.cfg.newton_tol
    r1 = _dual_norm_collapsed(system.dom, it.R1)
    s1 = min(math.sqrt(max(1.0, *system.r1_terms(it, r1))), 10.0)
    s2 = min(max([1.0] + [scheme_module._h_norm(system.dom, t) for t in it.terms2]), 10.0)
    return r1 <= tol * s1 and it.r2 <= tol * s2


@pytest.mark.parametrize("n", [3, 9, 17])
@pytest.mark.parametrize("recentre", [False, True], ids=["R1-sum-nonzero", "R1-sum-zero"])
def test_b1_bounds_the_exact_r1(domain_cache, rng, n, recentre):
    # a random w moves the combined mass, so R1 sums to a nonzero value;
    # recentred, it sums to 0 up to rounding
    dom = domain_cache(n)
    gc = dom.combined_mass
    cfg = make_config(graphs=CUBIC_40, eps=0.02)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3))
    system = scheme_module._StepSystem(dom, cfg, state.m0, state.v.bulk, None)
    for _ in range(5):
        w = state.v.bulk + 0.3 * (2.0 * rng.random(dom.n_bulk) - 1.0)
        if recentre:
            w += system.mass_shift(w)
        it = system.residual(w, state.mu.bulk + rng.standard_normal(dom.n_bulk))
        total = float(it.R1.sum())
        assert (abs(total) <= 1e-9 * np.abs(it.R1).sum()) == recentre
        r1 = _dual_norm_collapsed(dom, it.R1)
        assert r1 <= it.b1
        h_sq = float(it.R1 @ (it.R1 / gc)) - total * total / float(gc.sum())
        assert it.b1 == pytest.approx(math.sqrt(h_sq / dom.mu2_lower), rel=1e-10)


def test_b1_is_sharp_up_to_mu2_over_its_bound(domain_cache):
    # R1 = Ac phi2 for the eigenvector phi2 of mu2 attains the coercivity
    # estimate, so there b1/r1 = sqrt(mu2/mu2_lower)
    dom = domain_cache(9)
    A, gc = dom.coupled_stiffness, dom.combined_mass
    lam, vec = scipy.linalg.eigh(A.toarray(), np.diag(gc))
    cfg = make_config()
    system = scheme_module._StepSystem(dom, cfg, 0.0, np.zeros(dom.n_bulk), None)
    it = system.residual(np.zeros(dom.n_bulk), vec[:, 1])
    r1 = _dual_norm_collapsed(dom, it.R1)
    assert it.b1 / r1 == pytest.approx(math.sqrt(lam[1] / dom.mu2_lower), rel=1e-9)


@pytest.mark.parametrize("pair", [POLY_PAIR, LOG_PAIR, OBST_PAIR],
                         ids=["polynomial", "logarithmic", "obstacle"])
def test_converged_makes_the_exact_decision(domain_cache, rng, monkeypatch, pair):
    # iterates near a solved step, moved by dw with mu back-substituted, so
    # that r2 stays at the solution's level while r1 grows with dw; the
    # tolerances put the exact test's threshold on either side of r1 and b1
    dom = domain_cache(9)
    gc = dom.combined_mass
    cfg = make_config(graphs=pair, newton_tol=1e-13)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3))
    nxt = step(state, cfg, None)
    system = scheme_module._StepSystem(dom, cfg, state.m0, state.v.bulk, None)
    base = system.residual(nxt.v.bulk, nxt.mu.bulk)
    y = rng.standard_normal(dom.n_bulk)
    y -= float(gc @ y) / float(gc.sum())
    solves = []
    saddle_solve = spaces._saddle_solve
    monkeypatch.setattr(spaces, "_saddle_solve",
                        lambda *args: solves.append(1) or saddle_solve(*args))
    for delta in (1e-6, 1e-8):
        dw = delta * y
        it = system.residual(nxt.v.bulk + dw,
                             nxt.mu.bulk + system.potential(np.zeros(dom.n_bulk), dw, base.d))
        r1 = _dual_norm_collapsed(dom, it.R1)
        s1 = min(math.sqrt(max(1.0, *system.r1_terms(it, r1))), 10.0)
        s1_lo = system.scales(it)[0]
        assert r1 / s1 < it.b1 / s1_lo
        cases = [(1.5 * it.b1 / s1_lo, True, 0),             # b1 passes
                 (math.sqrt(r1 / s1 * it.b1 / s1_lo), True, 1),  # b1 fails, r1 passes
                 (0.5 * r1 / s1, False, 1),                  # r1 fails
                 (0.05 * it.r2, False, 0)]                   # r2 above 10 newton_tol
        for tol, expected, n_solves in cases:
            at_tol = scheme_module._StepSystem(dom, replace(cfg, newton_tol=tol), state.m0,
                                               state.v.bulk, None)
            assert _exact_converged(at_tol, it) == expected
            solves.clear()
            assert at_tol.converged(it) == expected
            assert len(solves) == n_solves


def test_newton_solves_for_r1_at_most_once_per_step(domain_cache, rng, monkeypatch):
    # b1 decides every iterate that is not about to converge, so the
    # mean-constrained solves inside a step are the converged test's fallback
    counts = {"steps": 0, "solves": 0}
    inside = []
    saddle_solve, solve_step = spaces._saddle_solve, scheme_module._solve_step

    def counted_solve(*args):
        counts["solves"] += bool(inside)
        return saddle_solve(*args)

    def counted_step(*args):
        counts["steps"] += 1
        inside.append(1)
        try:
            return solve_step(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(spaces, "_saddle_solve", counted_solve)
    monkeypatch.setattr(scheme_module, "_solve_step", counted_step)
    dom = domain_cache(9)
    cfg = make_config(graphs=CUBIC_40, eps=0.02, tau=1e-3, t_end=0.02)
    traj = run(cfg, random_u0(dom, rng, amplitude=0.2))
    assert not traj.aborted and counts["steps"] == 20
    assert sum(s.newton_iters for s in traj.states) >= 2 * counts["steps"]
    assert counts["solves"] <= counts["steps"]


# --- Schur factor -------------------------------------------------------------------

@pytest.mark.parametrize("eps, tau, im_over_re", [
    (0.1, 1e-3, None),                   # real pair: eps^2 > 4 tau
    (0.02, 1e-3, 3.0),                   # complex pair 10 +- 30i
    (0.5, 0.0625, None),                 # double root 4: eps^2 = 4 tau exactly
    (0.1, 0.0025 * (1.0 + 1e-10), 1e-5),  # nearly critical complex pair
], ids=["real", "complex", "double", "near_critical"])
def test_schur_factor_inverts_reduced_picard_matrix(domain_cache, rng, eps, tau, im_over_re):
    dom = domain_cache(33)
    gc, A = dom.combined_mass, dom.coupled_stiffness
    system = scheme_module._StepSystem(dom, make_config(eps=eps, tau=tau), 0.0,
                                       np.zeros(dom.n_bulk), None)
    if im_over_re is None:
        assert len(system.lu) == 2
    else:
        (c,) = system.shifts
        assert len(system.lu) == 1
        assert c.imag / c.real == pytest.approx(im_over_re, rel=1e-3)
    s0 = sp.diags(gc / tau) + (eps / tau) * A + A @ sp.diags(1.0 / gc) @ A
    # dense G = S0^-1 Ac Mc^-1 by the spectrum of Mc^-1/2 Ac Mc^-1/2, which
    # keeps the reference accurate at the double root, where solving with
    # the assembled S0 loses two more digits than G itself
    half = 1.0 / np.sqrt(gc)
    lam, vec = np.linalg.eigh((sp.diags(half) @ A @ sp.diags(half)).toarray())
    vec *= half[:, None]
    gram = (vec * (lam / (lam * lam + (eps / tau) * lam + 1.0 / tau))) @ vec.T
    for _ in range(3):
        x = rng.standard_normal(dom.n_bulk)
        y = system.schur_solve(x)
        assert y.dtype == float
        assert np.linalg.norm(s0 @ y - x) <= 1e-11 * np.linalg.norm(x)
        g, ref = system.gram(x), gram @ x
        assert g.dtype == float
        assert np.linalg.norm(g - ref) <= 1e-11 * np.linalg.norm(ref)


def _count_factors(monkeypatch):
    """The matrices the step solver factors from now on, in order."""
    calls, real = [], scheme_module.splu
    monkeypatch.setattr(scheme_module, "splu", lambda m: calls.append(m) or real(m))
    return calls


# each test builds a fresh domain: the one-entry factor cache may still hold
# the factors of a shared one
SHIFT_PAIRS = pytest.mark.parametrize("eps, factors", [(0.02, 1), (0.1, 2)],
                                      ids=["complex-pair", "real-pair"])


@SHIFT_PAIRS
def test_step_loop_factors_once(monkeypatch, rng, eps, factors):
    dom = build_unit_square(7)
    cfg = make_config(eps=eps, tau=1e-3)
    state = initialize(cfg, random_u0(dom, rng))
    calls = _count_factors(monkeypatch)
    for _ in range(10):
        state = step(state, cfg, None)
    assert len(calls) == factors


@SHIFT_PAIRS
def test_run_factors_once(monkeypatch, rng, eps, factors):
    dom = build_unit_square(7)
    calls = _count_factors(monkeypatch)
    traj = run(make_config(eps=eps), random_u0(dom, rng))
    assert not traj.aborted and len(traj.states) == 11
    assert len(calls) == factors


@pytest.mark.parametrize("eps", [0.02, 0.1], ids=["complex-pair", "real-pair"])
def test_zero_horizon_run_factors_nothing(monkeypatch, rng, eps):
    dom = build_unit_square(7)
    calls = _count_factors(monkeypatch)
    traj = run(make_config(eps=eps, t_end=0.0), random_u0(dom, rng))
    assert len(traj.states) == 1 and calls == []


@pytest.mark.parametrize("slot", ["w", "mu"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_iterate_is_step_error(domain_cache, slot, bad):
    dom = domain_cache(5)
    system = scheme_module._StepSystem(dom, make_config(), 0.0, np.zeros(dom.n_bulk), None)
    vals = {"w": np.zeros(dom.n_bulk), "mu": np.zeros(dom.n_bulk)}
    vals[slot][3] = bad
    with pytest.raises(StepError, match="not finite"):
        system.residual(vals["w"], vals["mu"])


# --- run ---------------------------------------------------------------------------

def test_run_zero_horizon_gives_single_record(domain_cache):
    dom = domain_cache(5)
    cfg = make_config(t_end=0.0)
    traj = run(cfg, FieldPair.constant(dom, 0.1))
    assert len(traj.records) == 1
    assert len(traj.states) == 1


def test_run_constant_equilibrium_records_identical(domain_cache):
    dom = domain_cache(5)
    cfg = make_config(t_end=0.005)
    traj = run(cfg, FieldPair.constant(dom, 0.3))
    first = traj.records[0]
    for rec in traj.records[1:]:
        assert rec.total_mass == first.total_mass
        assert rec.energy == first.energy
        assert rec.omega == first.omega
        assert rec.newton_iters == 0


def test_run_samples_forcing_at_each_recorded_time(domain_cache):
    # a level's time accumulates tau, so after 10 steps of 1e-3 it is
    # 0.010000000000000002, not 10 * 1e-3 = 0.01
    dom = domain_cache(5)
    calls = []

    def forcing(t):
        calls.append(t)
        return FieldPair.constant(dom, 0.1)

    traj = run(make_config(t_end=0.01), FieldPair.constant(dom, 0.2), forcing)
    assert len(traj.states) == 11
    assert calls == [s.t for s in traj.states]


def test_run_energy_decay_and_mass(domain_cache, rng):
    dom = domain_cache(7)
    cfg = make_config(t_end=0.05)
    traj = run(cfg, random_u0(dom, rng, amplitude=0.3))
    assert not traj.aborted
    energies = [r.energy for r in traj.records]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))
    mass0 = traj.records[0].total_mass
    assert max(abs(r.total_mass - mass0) for r in traj.records) <= 1e-9


def test_run_flags_partial_trajectory_on_step_failure(domain_cache, rng):
    dom = domain_cache(5)
    # large step, tight regularization, one Newton iteration: cannot converge
    cfg = make_config(eps=0.01, tau=0.5, t_end=1.0, newton_max=1)
    traj = run(cfg, random_u0(dom, rng, amplitude=2.0))
    assert traj.aborted
    assert "converge" in traj.error
    assert len(traj.states) >= 1


CUBIC_40 = GraphPair(polynomial_graph(pi_slope=-40.0), polynomial_graph(pi_slope=-40.0))


def test_run_predictor_saves_newton_iterations(domain_cache, rng):
    # phase separation at pi_slope -40: about 3 Newton iterations per step
    # from the old state
    dom = domain_cache(17)
    cfg = make_config(eps=0.02, t_end=0.05, graphs=CUBIC_40)
    traj = run(cfg, random_u0(dom, rng))
    assert not traj.aborted and len(traj.states) == 51
    # reference: every step started from the old state
    state = traj.states[0]
    cold_iters = 0
    for _ in range(50):
        state = step(state, cfg, FieldPair.zeros(dom))
        cold_iters += state.newton_iters
    assert sum(s.newton_iters for s in traj.states) <= 0.9 * cold_iters
    final = traj.states[-1].v.bulk
    assert np.abs(final - state.v.bulk).max() <= 1e-9 * np.abs(state.v.bulk).max()


@pytest.mark.parametrize("graph", [obstacle_graph(pi_slope=-40.0), logarithmic_graph(c=20.0)],
                         ids=["obstacle", "logarithmic"])
def test_run_with_predictor_outside_graph_domain(domain_cache, rng, graph):
    # the Yosida maps are defined on all of R, so a start outside [-1, 1]
    # is harmless
    dom = domain_cache(9)
    cfg = make_config(eps=0.02, t_end=0.05, graphs=GraphPair(graph, graph))
    traj = run(cfg, random_u0(dom, rng))
    assert not traj.aborted and len(traj.states) == 51
    S = traj.states
    # the starts run extrapolated from the last four levels
    starts = [scheme_module._extrapolate([(s.v.bulk,) for s in S[max(0, k - 3):k + 1]])[0]
              for k in range(1, len(S) - 1)]
    assert max(np.abs(w + S[0].m0).max() for w in starts) > 1.0
    mass0 = traj.records[0].total_mass
    assert max(abs(r.total_mass - mass0) for r in traj.records) <= 1e-9
    energies = [r.energy for r in traj.records]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("tau", [2e-2, 1e-1])
@pytest.mark.parametrize("graph", [polynomial_graph(-40.0), obstacle_graph(-40.0),
                                   logarithmic_graph(c=20.0)],
                         ids=["cubic", "obstacle", "logarithmic"])
def test_energy_decays_at_large_tau(domain_cache, rng, graph, tau):
    # the explicit concave perturbation keeps the energy nonincreasing at
    # every tau, also far above the phase-separation time scale
    dom = domain_cache(9)
    cfg = make_config(eps=0.02, tau=tau, t_end=20 * tau, graphs=GraphPair(graph, graph))
    traj = run(cfg, random_u0(dom, rng))
    assert not traj.aborted and len(traj.states) == 21
    energies = [r.energy for r in traj.records]
    assert max(b - a for a, b in zip(energies, energies[1:])) <= 1e-10


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_extrapolation_reproduces_polynomials_below_its_level_count(levels):
    # levels at t = 0.3, 0.55, ... one tau = 0.25 apart: every polynomial of
    # degree below the level count is continued exactly, to rounding, and
    # one of degree levels is not
    rng = np.random.Generator(np.random.Philox(5))
    times = 0.3 + 0.25 * np.arange(levels + 1)
    for degree in range(levels + 1):
        coeffs = rng.standard_normal((degree + 1, 2, 7))

        def at(t):
            return tuple(sum(c * t ** p for p, c in enumerate(coeffs[:, slot]))
                         for slot in range(2))

        past = [at(t) for t in times[:-1]]
        predicted, exact = scheme_module._extrapolate(past), at(times[-1])
        err = max(np.abs(a - b).max() for a, b in zip(predicted, exact))
        if degree < levels:
            assert err <= 1e-13 * max(np.abs(b).max() for b in exact)
        else:
            assert err > 1e-3


def test_run_starts_from_the_extrapolation_of_the_last_four_levels(domain_cache, rng,
                                                                   monkeypatch):
    # step k starts from the polynomial through the last min(4, k) levels
    starts = []
    real_step = scheme_module.step

    def recording(state, config, f_next, *, start=None):
        starts.append(start)
        return real_step(state, config, f_next, start=start)

    monkeypatch.setattr(scheme_module, "step", recording)
    dom = domain_cache(5)
    traj = run(make_config(eps=0.05, t_end=6e-3), random_u0(dom, rng, amplitude=0.5))
    assert not traj.aborted and len(starts) == 6
    assert starts[0] is None
    weights = {2: (2, -1), 3: (3, -3, 1), 4: (4, -6, 4, -1)}
    for k, start in enumerate(starts[1:], start=1):
        newest_first = traj.states[k::-1][:4]
        for slot, name in enumerate(("v", "mu")):
            expected = sum(c * getattr(s, name).bulk
                           for c, s in zip(weights[len(newest_first)], newest_first))
            assert np.abs(start[slot] - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("graph", [logarithmic_graph(c=20.0), polynomial_graph(pi_slope=-40.0)],
                         ids=["logarithmic", "cubic"])
def test_smooth_run_starts_each_step_near_its_solution(domain_cache, graph):
    # 60 smooth phase-separating steps: extrapolating from two levels takes
    # 120 Newton iterations for either pair, the cubic extrapolation about 90
    dom = domain_cache(9)
    cfg = make_config(eps=0.02, tau=2.5e-4, t_end=0.015, graphs=GraphPair(graph, graph))
    u0 = random_u0(dom, np.random.Generator(np.random.Philox(3)), amplitude=0.2)
    traj = run(cfg, u0)
    assert not traj.aborted and len(traj.states) == 61
    assert sum(s.newton_iters for s in traj.states) <= 100


@pytest.mark.parametrize("tau", [1e-1, 1e-5])
@pytest.mark.parametrize("graph", [polynomial_graph(-1.0), obstacle_graph(-1.0),
                                   logarithmic_graph(c=0.5)],
                         ids=["cubic", "obstacle", "logarithmic"])
def test_extrapolated_starts_are_robust_at_large_and_small_tau(domain_cache, rng, graph, tau):
    # far from smooth in time at tau = 0.1, the extrapolated start may be a
    # poor guess; Newton must still converge and the energy still decay
    dom = domain_cache(9)
    cfg = make_config(eps=0.05, tau=tau, t_end=20 * tau, graphs=GraphPair(graph, graph))
    traj = run(cfg, random_u0(dom, rng, amplitude=0.3))
    assert not traj.aborted and len(traj.states) == 21
    energies = [r.energy for r in traj.records]
    assert max(b - a for a, b in zip(energies, energies[1:])) <= 1e-10


def test_run_is_deterministic(domain_cache, rng):
    dom = domain_cache(5)
    cfg = make_config(t_end=0.01)
    u0 = random_u0(dom, rng)
    t1 = run(cfg, u0)
    t2 = run(cfg, u0)
    for a, b in zip(t1.records, t2.records):
        assert a == b


# --- weak residuals -------------------------------------------------------------------

def test_weak_residuals_at_equilibrium(domain_cache):
    dom = domain_cache(5)
    cfg = make_config()
    state = initialize(cfg, FieldPair.constant(dom, 0.2))
    nxt = step(state, cfg, FieldPair.zeros(dom))
    r1, r2 = weak_residuals(state, nxt, cfg, FieldPair.zeros(dom))
    assert r1 <= 1e-12 and r2 <= 1e-12


def test_weak_residuals_below_tolerance_after_step(domain_cache, rng):
    dom = domain_cache(7)
    cfg = make_config()
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3))
    nxt = step(state, cfg, FieldPair.zeros(dom))
    r1, r2 = weak_residuals(state, nxt, cfg, FieldPair.zeros(dom))
    assert r1 <= 10.0 * cfg.newton_tol
    assert r2 <= 10.0 * cfg.newton_tol


def test_weak_residuals_grow_linearly_in_mu_perturbation(domain_cache, rng):
    dom = domain_cache(5)
    cfg = make_config()
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3))
    nxt = step(state, cfg, FieldPair.zeros(dom))
    direction = rng.standard_normal(dom.n_bulk)
    vals = []
    for s in (1e-4, 2e-4):
        perturbed = replace(nxt, mu=FieldPair.from_bulk(dom, nxt.mu.bulk + s * direction))
        r1, _ = weak_residuals(state, perturbed, cfg, FieldPair.zeros(dom))
        vals.append(r1)
    assert vals[1] / vals[0] == pytest.approx(2.0, rel=0.2)


# --- compactness-interpolation constant --------------------------------------------

def _c_delta(dom, delta, n_modes=20, n_random=50, seed=5):
    """Largest (|z|_H0 - delta |z|_V0) / |z|_V0* over the probe family.

    The extremum lives on the low generalized eigenmodes of the coupled
    stiffness against the combined mass (the modes converge under mesh
    refinement, so the maximized constant is refinement-stable); seeded
    random fields are added as gradient-dominated counter-probes whose
    numerator is negative.
    """
    import scipy.linalg

    A = dom.coupled_stiffness.toarray()
    M = np.diag(dom.combined_mass)
    Q = scipy.linalg.null_space(dom.combined_mass[None, :])
    _, vecs = scipy.linalg.eigh(Q.T @ A @ Q, Q.T @ M @ Q,
                                subset_by_index=[0, n_modes - 1])
    probes = [Q @ vecs[:, k] for k in range(n_modes)]
    rng = np.random.Generator(np.random.Philox(seed))
    probes += [rng.standard_normal(dom.n_bulk) for _ in range(n_random)]
    best = 0.0
    for values in probes:
        z = project_zero_mean(FieldPair.from_bulk(dom, values))
        h0 = np.sqrt(max(inner_H(z, z), 0.0))
        num = h0 - delta * math.sqrt(form_a(z, z))
        if num <= 0:
            continue
        v0s = norm_V0_star(as_functional(z))
        if v0s > 0:
            best = max(best, num / v0s)
    return best


@pytest.mark.parametrize("delta", [0.5, 0.1])
def test_interpolation_constant_finite_and_stable(domain_cache, delta):
    c8 = _c_delta(domain_cache(8), delta)
    c16 = _c_delta(domain_cache(16), delta)
    assert np.isfinite(c8) and np.isfinite(c16)
    assert c8 > 0.0
    assert 0.5 <= c16 / c8 <= 2.0


def test_energy_matches_monitor_record(domain_cache, rng):
    # rho != 1: the boundary envelope must use the parameter eps*rho
    dom = domain_cache(5)
    pair = GraphPair(polynomial_graph(pi_slope=-2.0), polynomial_graph(pi_slope=-0.5),
                     rho=3.0)
    cfg = make_config(graphs=pair, eps=0.2)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.8, m0=0.1))
    for state in (state, step(state, cfg, FieldPair.zeros(dom))):
        rec = monitor_record(state, cfg)
        m0, u = state.m0, state.v + state.m0 * FieldPair.constant(dom, 1.0)
        env_bulk = float(dom.M_bulk @ envelope(pair.bulk, cfg.eps, u.bulk))
        env_surf = float(dom.M_surf @ envelope(pair.boundary, cfg.eps * pair.rho, u.boundary))
        perturbation = sum(float(weights @ (0.5 * g.pi_slope * (vals ** 2 - m0 ** 2)))
                           for weights, g, vals in ((dom.M_bulk, pair.bulk, u.bulk),
                                                    (dom.M_surf, pair.boundary, u.boundary)))
        reference = 0.5 * form_a(state.v, state.v) + env_bulk + env_surf + perturbation
        assert rec.energy == pytest.approx(reference, rel=1e-13)
        assert rec.envelope_integral_bulk == pytest.approx(env_bulk, rel=1e-13)
        assert rec.envelope_integral_surf == pytest.approx(env_surf, rel=1e-13)
        unscaled = float(dom.M_surf @ envelope(pair.boundary, cfg.eps, u.boundary))
        assert abs(unscaled - env_surf) > 1e-6 * env_surf
    assert rec.t == cfg.tau


def _count_graph_evaluations(domain_cache, rng, monkeypatch, pair):
    """(nodes passed to each resolvent call, residual evaluations) of a
    three-step run on the n = 5 mesh."""
    nodes, residuals = [], []
    real_resolvent, real_residual = monotone.resolvent, scheme_module._StepSystem.residual

    def counted_resolvent(g, eps, r):
        nodes.append(np.size(r))
        return real_resolvent(g, eps, r)

    def counted_residual(self, w, mu):
        residuals.append(1)
        return real_residual(self, w, mu)

    monkeypatch.setattr(monotone, "resolvent", counted_resolvent)
    monkeypatch.setattr(scheme_module._StepSystem, "residual", counted_residual)
    dom = domain_cache(5)
    cfg = make_config(eps=0.05, t_end=3e-3, graphs=pair)
    traj = run(cfg, random_u0(dom, rng, amplitude=0.5))
    assert not traj.aborted and len(traj.states) == 4
    assert len(traj.records) == 4
    assert len(residuals) >= 3
    return nodes, len(residuals)


def test_run_solves_each_level_once(domain_cache, rng, monkeypatch):
    # each residual and initialize evaluate the graph of one kind at rho = 1
    # on the bulk values alone, so every node once; monitor records reuse the
    # kept pair
    nodes, residuals = _count_graph_evaluations(domain_cache, rng, monkeypatch, POLY_PAIR)
    assert nodes == [domain_cache(5).n_bulk] * (residuals + 1)


@pytest.mark.parametrize("pair", [
    GraphPair(polynomial_graph(), polynomial_graph(), rho=3.0),
    GraphPair(polynomial_graph(), obstacle_graph(), rho=1.0),
], ids=["rho-3", "mixed-kinds"])
def test_graphs_at_different_parameters_or_kinds_are_evaluated_apart(domain_cache, rng,
                                                                     monkeypatch, pair):
    nodes, residuals = _count_graph_evaluations(domain_cache, rng, monkeypatch, pair)
    dom = domain_cache(5)
    assert nodes == [dom.n_bulk, dom.n_boundary] * (residuals + 1)


_GRAPHS = [polynomial_graph(), logarithmic_graph(), obstacle_graph()]


@pytest.mark.parametrize("graph", _GRAPHS, ids=lambda g: g.kind)
def test_coinciding_graph_terms_are_the_trace_bitwise(domain_cache, rng, graph):
    # the boundary terms of a coinciding pair are gathered from the bulk ones,
    # bitwise those of a separate evaluation on the trace; at rho = 3 the
    # boundary graph is evaluated on the trace at 3 eps
    dom = domain_cache(9)
    chain = dom.boundary_chain
    # beyond +-1, where the log resolvent saturates and the obstacle clips
    u = 3.0 * rng.random(dom.n_bulk) - 1.5
    eps = 0.02
    for rho in (1.0, 3.0):
        terms = scheme_module._graph_terms(dom, GraphPair(graph, graph, rho), eps, u)
        for z, bulk, bnd in zip(terms, monotone.yosida_and_slope(graph, eps, u),
                                monotone.yosida_and_slope(graph, eps * rho, u[chain])):
            assert z.bulk.tobytes() == bulk.tobytes()
            assert z.boundary.tobytes() == bnd.tobytes()
            if rho == 1.0:
                assert z.boundary.tobytes() == z.bulk[chain].tobytes()


@pytest.mark.parametrize("graph", _GRAPHS, ids=lambda g: g.kind)
def test_mass_weighting_matches_the_collapsed_products(domain_cache, rng, graph):
    # Mc b + M_surf (g - b[chain]) on the chain is M_bulk b + M_surf g on
    # trace-consistent tests, for any (b, g), and bitwise Mc b when g is
    # the trace of b, as it is for a coinciding pair
    dom = domain_cache(9)
    u = 3.0 * rng.random(dom.n_bulk) - 1.5
    loose = FieldPair(rng.standard_normal(dom.n_bulk), rng.standard_normal(dom.n_boundary), dom)
    for rho in (1.0, 3.0):
        terms = scheme_module._graph_terms(dom, GraphPair(graph, graph, rho), 0.02, u)
        for z in terms + [loose]:
            got = scheme_module._mass_weighted(z)
            ref = spaces._collapse(dom, dom.M_bulk * z.bulk, dom.M_surf * z.boundary)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            if rho == 1.0 and z is not loose:
                assert got.tobytes() == (dom.combined_mass * z.bulk).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pair", [POLY_PAIR, GraphPair(polynomial_graph(), obstacle_graph())],
                         ids=["coinciding", "mixed-kinds"])
def test_non_finite_yosida_value_ends_the_step_at_its_start(domain_cache, rng, monkeypatch,
                                                            pair):
    # an infinite xi at a chain node makes N, and so the merit, non-finite
    dom = domain_cache(9)
    cfg = make_config(graphs=pair)
    state = initialize(cfg, random_u0(dom, rng, amplitude=0.3))
    real = scheme_module.yosida_and_slope

    def blown(g, eps, r):
        j, xi, slope = real(g, eps, r)
        xi = xi.copy()
        xi[0 if r.shape[0] == dom.n_boundary else dom.boundary_chain[0]] = np.inf
        return j, xi, slope

    monkeypatch.setattr(scheme_module, "yosida_and_slope", blown)
    with pytest.raises(StepError, match=r"^Newton did not converge in 0 iterations "):
        step(state, cfg, None)


@pytest.mark.parametrize("bulk, boundary, rho", [
    ("polynomial", "polynomial", 1.0), ("polynomial", "polynomial", 3.0),
    ("polynomial", "logarithmic", 0.5), ("polynomial", "logarithmic", 1.0),
    ("polynomial", "logarithmic", 3.0), ("polynomial", "obstacle", 0.5),
    ("polynomial", "obstacle", 1.0), ("polynomial", "obstacle", 3.0),
    ("logarithmic", "logarithmic", 1.0), ("logarithmic", "logarithmic", 3.0),
    ("obstacle", "logarithmic", 0.5), ("obstacle", "logarithmic", 1.0),
    ("obstacle", "logarithmic", 3.0), ("obstacle", "obstacle", 0.5),
    ("obstacle", "obstacle", 1.0), ("obstacle", "obstacle", 3.0),
], ids=lambda x: str(x))
def test_every_admissible_graph_pair_conserves_mass_and_decays_energy(domain_cache, rng,
                                                                      bulk, boundary, rho):
    # the 16 pairs GraphPair accepts among the three kinds at rho in
    # {0.5, 1, 3}; all but the four coinciding ones evaluate both graphs
    graphs = {g.kind: g for g in _GRAPHS}
    dom = domain_cache(9)
    cfg = make_config(eps=0.05, t_end=5e-3, graphs=GraphPair(graphs[bulk], graphs[boundary], rho))
    traj = run(cfg, random_u0(dom, rng, amplitude=0.5))
    records = traj.records
    assert not traj.aborted and len(records) == 6
    mass = [r.total_mass for r in records]
    assert max(abs(m - mass[0]) for m in mass) <= 1e-9
    energy = [r.energy for r in records]
    assert max(b - a for a, b in zip(energy, energy[1:])) <= 1e-10


def test_graph_terms_are_never_written_in_place(domain_cache, rng, monkeypatch):
    # the states keep the evaluator's arrays themselves, and a coinciding
    # pair's boundary terms are gathered from them; a write into one would
    # change a kept level, so every caller must leave them alone
    def read_only(g, eps, r):
        out = monotone.yosida_and_slope(g, eps, r)
        for a in out:
            a.flags.writeable = False
        return out

    monkeypatch.setattr(scheme_module, "yosida_and_slope", read_only)
    dom = domain_cache(5)
    cfg = make_config(eps=0.05, t_end=3e-3)
    traj = run(cfg, random_u0(dom, rng, amplitude=0.5), lambda t: FieldPair.constant(dom, t))
    assert not traj.aborted and len(traj.records) == 4
    assert all(not s.xi.bulk.flags.writeable for s in traj.states)
    weak_residuals(traj.states[0], traj.states[1], cfg, FieldPair.constant(dom, cfg.tau))


def test_run_leaves_the_monitor_to_the_first_read_of_records(domain_cache, rng, monkeypatch):
    calls = []
    real = scheme_module.monitor_record

    def counted(state, config):
        calls.append(state.t)
        return real(state, config)

    monkeypatch.setattr(scheme_module, "monitor_record", counted)
    dom = domain_cache(5)
    cfg = make_config(eps=0.05, t_end=3e-3)
    traj = run(cfg, random_u0(dom, rng, amplitude=0.5))
    assert calls == []
    expected = [real(s, cfg) for s in traj.states]
    assert [repr(astuple(r)) for r in traj.records] == [repr(astuple(r)) for r in expected]
    assert calls == [s.t for s in traj.states]
    traj.records
    assert len(calls) == len(traj.states)  # computed once


def test_monitor_failure_at_level_0_propagates_from_records(domain_cache, monkeypatch):
    def broken(ell):
        raise NumericalError("mean-constrained stiffness solve lost accuracy")

    monkeypatch.setattr(scheme_module, "norm_V0_star", broken)
    dom = domain_cache(5)
    traj = run(make_config(t_end=2e-3), FieldPair.constant(dom, 0.1))
    with pytest.raises(NumericalError):
        traj.records
