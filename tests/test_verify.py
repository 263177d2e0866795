import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chbs import scheme, verify
from chbs.domain import build_unit_square
from chbs.errors import ConfigError
from chbs.monotone import GraphPair, logarithmic_graph, polynomial_graph
from chbs.scheme import SchemeConfig, run
from chbs.spaces import (FieldPair, as_functional, form_a, mean, norm_V0_star,
                         norm_V_star, poincare_constant, project_zero_mean)
from chbs.verify import (appendix_checks, apriori_bound_table,
                         continuous_dependence_experiment, vanishing_eps_study)

PAIR = GraphPair(polynomial_graph(), polynomial_graph())


def make_config(**kw):
    base = dict(eps=0.1, tau=1e-3, t_end=0.02, graphs=PAIR)
    base.update(kw)
    return SchemeConfig(**base)


def smooth_u0(dom, amplitude=0.1):
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    return project_zero_mean(FieldPair.from_bulk(
        dom, amplitude * np.cos(np.pi * x) * np.cos(np.pi * y)))


def bump_forcing(dom, scale):
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    f = FieldPair.from_bulk(dom, scale * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    return lambda t: f


# --- continuous dependence -----------------------------------------------------

def test_identical_data_is_degenerate(domain_cache):
    dom = domain_cache(5)
    u0 = smooth_u0(dom)
    rep = continuous_dependence_experiment(make_config(), (u0, None), (u0, None),
                                           tau_levels=1)
    assert rep.degenerate
    assert rep.sup_ratio == 0.0
    assert "ratio: 0 (degenerate)" in rep.summary_lines()[0]


def test_mean_mismatch_rejected(domain_cache):
    dom = domain_cache(5)
    u1 = smooth_u0(dom)
    u2 = u1 + 0.01 * FieldPair.constant(dom, 1.0)
    with pytest.raises(ConfigError):
        continuous_dependence_experiment(make_config(), (u1, None), (u2, None))


def test_ratio_scale_invariance_small_perturbations(domain_cache):
    # both sides are homogeneous of degree 2 in the data difference, so the
    # ratio is scale invariant up to the linearization error of the graph
    dom = domain_cache(5)
    cfg = make_config(t_end=0.01)
    u0 = smooth_u0(dom)
    ratios = {}
    for s in (1e-3, 1e-4):  # s and s/10
        rep = continuous_dependence_experiment(
            cfg, (u0, None), (u0, bump_forcing(dom, s)), tau_levels=1)
        ratios[s] = rep.sup_ratio
    assert ratios[1e-3] == pytest.approx(ratios[1e-4], rel=0.01)


def test_tau_sweep_report_structure(domain_cache):
    dom = domain_cache(5)
    cfg = make_config(t_end=0.008)
    u0 = smooth_u0(dom)
    rep = continuous_dependence_experiment(
        cfg, (u0, None), (u0, bump_forcing(dom, 1e-2)), tau_levels=3)
    assert rep.taus == (cfg.tau, cfg.tau / 2, cfg.tau / 4)
    assert len(rep.sup_ratios) == 3
    assert all(r > 0 for r in rep.sup_ratios)
    assert rep.variation >= 0.0
    assert not rep.aborted


def test_cont_dep_computes_no_monitor_records(domain_cache, monkeypatch):
    calls = []
    real = scheme.monitor_record
    monkeypatch.setattr(scheme, "monitor_record",
                        lambda state, config: calls.append(state.t) or real(state, config))
    dom = domain_cache(5)
    u0 = smooth_u0(dom)
    rep = continuous_dependence_experiment(make_config(t_end=0.004), (u0, None),
                                           (1.1 * u0, None), tau_levels=2)
    assert rep.sup_ratio > 0.0 and not rep.aborted
    assert calls == []


def test_unforced_cont_dep_never_factors_the_v_norm():
    dom = build_unit_square(5)  # fresh: no earlier test has built its factor
    u0 = smooth_u0(dom)
    rep = continuous_dependence_experiment(make_config(t_end=0.004), (u0, None),
                                           (1.1 * u0, None), tau_levels=1)
    assert rep.sup_ratio > 0.0
    assert "vnorm_lu" not in dom.__dict__


@pytest.mark.parametrize("eps, factors", [(0.02, 1), (0.1, 2)],
                         ids=["complex-pair", "real-pair"])
def test_cont_dep_members_share_the_factors_of_each_tau(monkeypatch, eps, factors):
    dom = build_unit_square(5)  # fresh: the factor cache may hold a shared domain's
    calls, real = [], scheme.splu
    monkeypatch.setattr(scheme, "splu", lambda m: calls.append(m) or real(m))
    u0 = smooth_u0(dom)
    rep = continuous_dependence_experiment(make_config(eps=eps, t_end=0.004), (u0, None),
                                           (1.1 * u0, None))
    assert len(rep.taus) == 3 and not rep.aborted
    assert len(calls) == 3 * factors


@pytest.mark.parametrize("levels", [0, -1])
def test_cont_dep_needs_a_tau_level(domain_cache, levels):
    dom = domain_cache(5)
    u0 = smooth_u0(dom)
    with pytest.raises(ConfigError, match="tau_levels"):
        continuous_dependence_experiment(make_config(), (u0, None), (1.1 * u0, None),
                                         tau_levels=levels)


def test_forced_cont_dep_ratio_matches_its_definition(domain_cache):
    # the sup over levels of (|d|_{V0*}^2 + sum tau |d|_{V0}^2)
    # / (|d(0)|_{V0*}^2 + sum tau |f1 - f2|_{V*}^2), d = v1 - v2, with an
    # unforced second run
    dom = domain_cache(5)
    cfg = make_config(t_end=0.004)
    u0, f1 = smooth_u0(dom), bump_forcing(dom, 1e-2)
    rep = continuous_dependence_experiment(cfg, (u0, f1), (1.1 * u0, None), tau_levels=1)
    t1, t2 = run(cfg, u0, f1), run(cfg, 1.1 * u0, None)
    rhs = norm_V0_star(as_functional(t1.states[0].v - t2.states[0].v)) ** 2
    lhs_acc = rhs_acc = 0.0
    sup = 1.0
    for s1, s2 in zip(t1.states[1:], t2.states[1:]):
        d = s1.v - s2.v
        lhs_acc += cfg.tau * form_a(d, d)
        rhs_acc += cfg.tau * norm_V_star(as_functional(f1(s1.t) - FieldPair.zeros(dom))) ** 2
        sup = max(sup, (norm_V0_star(as_functional(d)) ** 2 + lhs_acc) / (rhs + rhs_acc))
    assert rep.sup_ratios == (sup,)


# --- vanishing regularization ----------------------------------------------------

def test_eps_study_validation(domain_cache):
    # a repeated eps gives a zero successive distance and a log-log slope fit
    # through coinciding abscissae, so the sweep must strictly decrease
    dom = domain_cache(5)
    u0 = smooth_u0(dom)
    for eps_list, message in (((0.5, 0.25), "at least 3 entries"),
                              ((0.5, 0.25, 1.5), r"must lie in \(0,1\]"),
                              ((0.5, 0.25, 0.0), r"must lie in \(0,1\]"),
                              ((0.25, 0.5, 0.125), "strictly decreasing"),
                              ((0.5, 0.5, 0.25), "strictly decreasing"),
                              ((0.5, 0.25, 0.25), "strictly decreasing")):
        with pytest.raises(ConfigError, match=message):
            vanishing_eps_study(make_config(), eps_list, u0)


def test_eps_study_duplicate_entries_give_zero_distance(domain_cache):
    # the study refuses a repeated eps; the distance it measures between
    # successive members is still exactly 0 for coinciding members
    dom = domain_cache(5)
    u0 = smooth_u0(dom)
    cfg = make_config(t_end=0.005)
    with pytest.raises(ConfigError, match="strictly decreasing"):
        vanishing_eps_study(cfg, (0.5, 0.5, 0.25), u0)
    trajs = [run(replace(cfg, eps=e), u0) for e in (0.5, 0.5, 0.25)]
    d_h0, d_l2v0 = verify._successive_distances(trajs, cfg.tau)
    assert d_h0[0] == 0.0 and d_l2v0[0] == 0.0
    assert d_h0[1] > 0.0 and d_l2v0[1] > 0.0


def test_eps_study_cauchy_and_bounds(domain_cache):
    dom = domain_cache(7)
    u0 = smooth_u0(dom, amplitude=0.3)
    rep = vanishing_eps_study(make_config(t_end=0.02),
                              (0.5, 0.25, 0.125, 0.0625), u0)
    assert rep.cauchy_pass
    assert rep.bounded_pass
    assert all(b <= 1.1 * a + 1e-14 for a, b in zip(rep.d_h0, rep.d_h0[1:]))
    assert rep.passed


def test_eps_study_slope_small_in_quasi_steady_regime(domain_cache):
    # with the trajectory pinned near a forced steady state, the gradient
    # norms lose their leading-order eps dependence and the fitted slope of
    # log |v|_{L2(V0)} against log eps stays within 0.1
    dom = domain_cache(7)
    x, y = dom.coords[:, 0], dom.coords[:, 1]
    f = FieldPair.from_bulk(dom, 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y))
    cfg = make_config(eps=0.5, tau=2e-3, t_end=0.4)
    rep = vanishing_eps_study(cfg, (0.5, 0.25, 0.125, 0.0625),
                              FieldPair.zeros(dom), lambda t: f)
    assert rep.passed
    assert abs(rep.slope_l2_v_V0) <= 0.1


def test_eps_study_deterministic(domain_cache):
    dom = domain_cache(5)
    u0 = smooth_u0(dom)
    r1 = vanishing_eps_study(make_config(t_end=0.004), (0.5, 0.25, 0.125), u0)
    r2 = vanishing_eps_study(make_config(t_end=0.004), (0.5, 0.25, 0.125), u0)
    assert r1.d_h0 == r2.d_h0
    assert r1.table.rows == r2.table.rows


def test_eps_study_flags_partial_on_member_failure(domain_cache, rng):
    dom = domain_cache(5)
    noise = FieldPair.from_bulk(dom, 2.0 * rng.random(dom.n_bulk) - 1.0)
    u0 = 2.0 * project_zero_mean(noise)
    cfg = make_config(tau=0.5, t_end=1.0, newton_max=1)
    rep = vanishing_eps_study(cfg, (0.5, 0.25, 0.01), u0)
    assert rep.partial
    assert not rep.passed


# --- uniform-bound table -----------------------------------------------------------

def test_table_zero_data_row(domain_cache):
    dom = domain_cache(5)
    traj = run(make_config(t_end=0.005), FieldPair.zeros(dom))
    table = apriori_bound_table([traj])
    row = table.rows[0]
    for name in table.columns:
        if name == "eps":
            continue
        assert row[name] == pytest.approx(0.0, abs=1e-13)


def test_table_omega_column_matches_recomputation(domain_cache, rng):
    dom = domain_cache(5)
    cfg = make_config(t_end=0.01)
    noise = FieldPair.from_bulk(dom, 2.0 * rng.random(dom.n_bulk) - 1.0)
    u0 = 0.2 * project_zero_mean(noise)
    traj = run(cfg, u0)
    pair = cfg.graphs
    f = FieldPair.zeros(dom)  # the run is unforced
    for k in range(1, len(traj.states)):
        state = traj.states[k]
        u_star = traj.states[k - 1].v.bulk + state.m0  # explicit perturbation
        recomputed = mean(FieldPair(
            state.xi.bulk + pair.bulk.pi_slope * u_star - f.bulk,
            state.xi.boundary + pair.boundary.pi_slope * u_star[dom.boundary_chain] - f.boundary,
            dom))
        assert state.omega == pytest.approx(recomputed, abs=1e-14)
        assert traj.records[k].omega == state.omega


def test_table_columns_are_declared_monitor_norms(domain_cache):
    dom = domain_cache(5)
    traj = run(make_config(t_end=0.004), smooth_u0(dom))
    table = apriori_bound_table([traj])
    assert table.columns[0] == "eps"
    assert set(table.columns) >= {"sqrt_eps_max_v_H0", "max_v_V0star", "l2_v_V0",
                                  "l1l1_xi_bulk", "l2_omega", "l2_mu_V",
                                  "l2_dq_V0star"}


# --- structural checks ---------------------------------------------------------------

ITEMS = ["coercivity constant certified",
         "stiffness symmetric with constants in its kernel",
         "lumped masses positive with totals 1 and 4"]


def _verdicts(report):
    return {item.name: item.passed for item in report.items}


def test_appendix_checks_pass_on_clean_domain(domain_cache):
    for n in (8, 9, 17):
        report = appendix_checks(domain_cache(n))
        assert [item.name for item in report.items] == ITEMS
        assert report.passed


# each wrong constant, as a function of the true one (0.78327 at n = 49)
WRONG_CP = {"0.95": lambda cp: 0.95, "0.99": lambda cp: 0.99, "0.999": lambda cp: 0.999,
            "true*(1-1e-3)": lambda cp: cp * (1 - 1e-3),
            "true*(1+1e-3)": lambda cp: cp * (1 + 1e-3)}
# a constant too large puts mu2 below the shifted count; one too small leaves
# the true eigenvector with a residual far above the margin
FAILS_BY_COUNT = {"0.95", "0.99", "0.999", "true*(1+1e-3)"}
ONLY_CERTIFICATE_FAILS = dict.fromkeys(ITEMS, True) | {"coercivity constant certified": False}


def _certificate(report):
    """(c_p, count, eta, allowance) as the certificate's detail states them."""
    item = report.items[0]
    match = re.fullmatch(r"c_p = (\S+), mu2 = \S+: (\d+) negative eigenvalues at .*; "
                         r"eigenvector residual (\S+) \+ rounding (\S+), want at most .*",
                         item.detail)
    cp, count, eta, allowance = match.groups()
    return float(cp), int(count), float(eta), float(allowance)


def _patch_eigenpair(monkeypatch, perturb):
    """Make appendix_checks see the eigenpair (c_p, x) mapped by perturb."""
    real = verify.poincare_constant
    monkeypatch.setattr(verify, "poincare_constant",
                        lambda dom, eigenvector: perturb(*real(dom, eigenvector=True)))


@pytest.mark.parametrize("wrong", WRONG_CP)
def test_appendix_checks_reject_a_wrong_coercivity_constant(domain_cache, monkeypatch, wrong):
    _patch_eigenpair(monkeypatch, lambda cp, x: (WRONG_CP[wrong](cp), x))
    report = appendix_checks(domain_cache(49))
    assert _verdicts(report) == ONLY_CERTIFICATE_FAILS
    cp, count, eta, allowance = _certificate(report)
    if wrong in FAILS_BY_COUNT:
        assert count >= 2
    else:
        assert count == 1 and eta + allowance > verify._CERT_DELTA * cp / (1.0 - cp)


def test_appendix_checks_reject_a_perturbed_eigenvector(domain_cache, monkeypatch, rng):
    dom = domain_cache(17)
    field = project_zero_mean(FieldPair.from_bulk(dom, rng.standard_normal(dom.n_bulk))).bulk

    def perturb(cp, x):
        size = np.sqrt(dom.combined_mass @ x ** 2 / (dom.combined_mass @ field ** 2))
        return cp, x + 1e-3 * size * field

    _patch_eigenpair(monkeypatch, perturb)
    report = appendix_checks(dom)
    assert _verdicts(report) == ONLY_CERTIFICATE_FAILS
    assert _certificate(report)[1] == 1


def test_appendix_checks_make_one_inertia_count(domain_cache, monkeypatch):
    calls = []
    real = verify.count_negative_eigenvalues
    monkeypatch.setattr(verify, "count_negative_eigenvalues",
                        lambda matrix: calls.append(matrix.shape) or real(matrix))
    assert appendix_checks(domain_cache(9)).passed
    assert len(calls) == 1


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 17, 33, 49])
def test_coercivity_certificate_margins(domain_cache, n):
    dom = domain_cache(n)
    cp, count, eta, allowance = _certificate(appendix_checks(dom))
    assert count == 1
    assert eta + allowance <= 1e-3 * verify._CERT_DELTA * cp / (1.0 - cp)
    assert cp == poincare_constant(dom)


@pytest.mark.parametrize("operator", ["K_bulk", "K_surf"])
def test_appendix_checks_flag_broken_stiffness_symmetry(domain_cache, operator):
    dom = domain_cache(5)
    bad_K = getattr(dom, operator).tolil(copy=True)
    bad_K[0, 1] += 0.25  # symmetry deliberately broken
    corrupted = replace(dom, **{operator: bad_K.tocsr()})
    verdicts = _verdicts(appendix_checks(corrupted))
    assert not verdicts["stiffness symmetric with constants in its kernel"]
    assert sum(verdicts.values()) == 2


@pytest.mark.parametrize("operator", ["K_bulk", "K_surf"])
def test_appendix_checks_flag_non_finite_stiffness(domain_cache, operator):
    dom = domain_cache(5)
    bad_K = getattr(dom, operator).tolil(copy=True)
    bad_K[0, 1] = np.nan
    corrupted = replace(dom, **{operator: bad_K.tocsr()})
    verdicts = _verdicts(appendix_checks(corrupted))
    assert not verdicts["stiffness symmetric with constants in its kernel"]
    assert sum(verdicts.values()) == 2


def test_appendix_checks_flag_wrong_mass_total(domain_cache):
    dom = domain_cache(5)
    verdicts = _verdicts(appendix_checks(replace(dom, M_surf=1.01 * dom.M_surf)))
    assert not verdicts["lumped masses positive with totals 1 and 4"]
    assert sum(verdicts.values()) == 2


def test_reports_are_reproducible(domain_cache):
    assert appendix_checks(domain_cache(5)) == appendix_checks(domain_cache(5))


def test_appendix_checks_memory_stays_blocked(domain_cache):
    # the certificates hold one sparse factor at a time; the Lanczos and the
    # inertia count peak at about 1 MB at this mesh
    dom = domain_cache(49)
    tracemalloc.start()
    try:
        report = appendix_checks(dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 4 * 2 ** 20


# --- carried V0* norms ----------------------------------------------------------------

def _random_u0(dom, seed, amplitude=0.2):
    rng = np.random.Generator(np.random.Philox(seed))
    noise = FieldPair.from_bulk(dom, 2.0 * rng.random(dom.n_bulk) - 1.0)
    return amplitude * project_zero_mean(noise)


def _solved_v0_star(a, b=None):
    """|v_a - v_b|_V0* by a mean-constrained solve, the oracle of the carried one."""
    return norm_V0_star(as_functional(a.v if b is None else a.v - b.v))


LOG_CONFIG = make_config(eps=0.02, tau=1e-3, t_end=0.01,
                         graphs=GraphPair(logarithmic_graph(20.0), logarithmic_graph(20.0)))
# an accepted step has r1 <= 10 newton_tol, and it drops tau F^-1 R1 from the
# carried z, so z drifts from F^-1(Mc v) by at most DRIFT t in the V0 norm
DRIFT = 10.0 * LOG_CONFIG.newton_tol
ROUNDING = 1e-12  # relative


def test_cont_dep_ratios_match_the_solved_norms(domain_cache):
    # the carried |d|^2, d = v1 - v2, is off by at most |d|_V0* 2 DRIFT t, and
    # the sup of the ratios by at most the largest such error over rhs
    dom = domain_cache(9)
    u1, u2 = _random_u0(dom, 3), _random_u0(dom, 4)
    rep = continuous_dependence_experiment(LOG_CONFIG, (u1, None), (u2, None))
    assert not rep.aborted
    for tau, ratio in zip(rep.taus, rep.sup_ratios):
        cfg = replace(LOG_CONFIG, tau=tau)
        t1, t2 = run(cfg, u1), run(cfg, u2)
        rhs = _solved_v0_star(t1.states[0], t2.states[0]) ** 2
        sup, lhs_acc, bound = 1.0, 0.0, 0.0
        for s1, s2 in zip(t1.states[1:], t2.states[1:]):
            d = s1.v - s2.v
            lhs_acc += tau * form_a(d, d)
            dist = _solved_v0_star(s1, s2)
            sup = max(sup, (dist ** 2 + lhs_acc) / rhs)
            bound = max(bound, dist * 2.0 * DRIFT * s1.t / rhs)
        assert abs(ratio - sup) <= bound + ROUNDING * sup


def test_eps_study_v0_star_columns_match_the_solved_norms(domain_cache):
    # a carried |v|_V0* is off by at most DRIFT t, and a carried
    # |v_k - v_(k-1)|_V0*/tau by at most DRIFT, as the z of two successive
    # levels differ by the one dropped term; l2 over t_end makes that
    # DRIFT sqrt(t_end)
    dom = domain_cache(9)
    eps_list = (0.5, 0.25, 0.125)
    rep = vanishing_eps_study(LOG_CONFIG, eps_list, _random_u0(dom, 3))
    assert not rep.partial
    tau, t_end = LOG_CONFIG.tau, LOG_CONFIG.t_end
    for eps, row in zip(eps_list, rep.table.rows):
        states = run(replace(LOG_CONFIG, eps=eps), _random_u0(dom, 3)).states
        max_v = max(_solved_v0_star(s) for s in states)
        l2_dq = math.sqrt(sum(tau * (_solved_v0_star(b, a) / tau) ** 2
                              for a, b in zip(states, states[1:])))
        assert abs(row["max_v_V0star"] - max_v) <= DRIFT * t_end + ROUNDING * max_v
        assert abs(row["l2_dq_V0star"] - l2_dq) <= DRIFT * math.sqrt(t_end) + ROUNDING * l2_dq
