import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chbs import scheme, verify
from chbs.domain import build_unit_square
from chbs.errors import ConfigError
from chbs.monotone import GraphPair, polynomial_graph
from chbs.scheme import SchemeConfig, run
from chbs.spaces import (FieldPair, as_functional, form_a, inner_H, inner_V, mean,
                         norm_V0_star, norm_V_star, poincare_constant, project_zero_mean,
                         subgrad_phi)
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
    dom = domain_cache(5)
    u0 = smooth_u0(dom)
    with pytest.raises(ConfigError):
        vanishing_eps_study(make_config(), (0.5, 0.25), u0)
    with pytest.raises(ConfigError):
        vanishing_eps_study(make_config(), (0.5, 0.25, 1.5), u0)
    with pytest.raises(ConfigError):
        vanishing_eps_study(make_config(), (0.25, 0.5, 0.125), u0)


def test_eps_study_duplicate_entries_give_zero_distance(domain_cache):
    dom = domain_cache(5)
    u0 = smooth_u0(dom)
    rep = vanishing_eps_study(make_config(t_end=0.005), (0.5, 0.5, 0.25), u0)
    assert rep.d_h0[0] == 0.0
    assert rep.d_h0[1] > 0.0


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

def test_appendix_checks_pass_on_clean_domain(domain_cache):
    report = appendix_checks(domain_cache(8), n_field_samples=300, n_pair_samples=60)
    assert report.passed
    names = [item.name for item in report.items]
    assert "coercivity constant positive" in names
    assert "subgradient adjointness" in names


@pytest.mark.parametrize("operator", ["K_bulk", "K_surf"])
def test_appendix_checks_flag_broken_stiffness_symmetry(domain_cache, operator):
    dom = domain_cache(5)
    bad_K = getattr(dom, operator).tolil(copy=True)
    bad_K[0, 1] += 0.25  # symmetry deliberately broken
    corrupted = replace(dom, **{operator: bad_K.tocsr()})
    report = appendix_checks(corrupted, n_field_samples=50, n_pair_samples=40)
    verdicts = {item.name: item.passed for item in report.items}
    assert not verdicts["subgradient adjointness"]
    assert verdicts["mean-projection identity"]
    assert not report.passed


@pytest.mark.parametrize("operator", ["K_bulk", "K_surf"])
def test_appendix_checks_flag_non_finite_stiffness(domain_cache, operator):
    dom = domain_cache(5)
    bad_K = getattr(dom, operator).tolil(copy=True)
    bad_K[0, 1] = np.nan
    corrupted = replace(dom, **{operator: bad_K.tocsr()})
    with np.errstate(invalid="ignore"):
        report = appendix_checks(corrupted, n_field_samples=50, n_pair_samples=20)
    verdicts = {item.name: item.passed for item in report.items}
    assert not verdicts["sampled coercivity inequality"]
    assert not verdicts["subgradient adjointness"]


def test_reports_are_reproducible(domain_cache):
    r1 = appendix_checks(domain_cache(5), n_field_samples=50, n_pair_samples=20)
    r2 = appendix_checks(domain_cache(5), n_field_samples=50, n_pair_samples=20)
    assert r1 == r2


def _close(got, want, rtol=1e-13):
    return np.linalg.norm(np.subtract(got, want)) <= rtol * np.linalg.norm(want)


def test_column_forms_match_per_pair_forms(domain_cache, rng):
    dom = domain_cache(8)
    k = 5
    raw = rng.standard_normal((dom.n_bulk, k))
    Bt = rng.standard_normal((dom.n_bulk, k))
    St = rng.standard_normal((dom.n_boundary, k))
    B, S = verify._zero_mean(dom, raw, raw[dom.boundary_chain])
    KB, KS = dom.K_bulk @ B, dom.K_surf @ S
    a = verify._form_a(B, S, dom.K_bulk @ Bt, dom.K_surf @ St)
    h = verify._inner_H(dom, B, S, Bt, St)
    Gb, Gs = verify._subgrad(dom, KB, KS)
    for j in range(k):
        z = project_zero_mean(FieldPair.from_bulk(dom, raw[:, j]))
        zt = FieldPair(Bt[:, j], St[:, j], dom)
        assert _close(B[:, j], z.bulk) and _close(S[:, j], z.boundary)
        assert _close(a[j], form_a(z, zt))
        assert _close(h[j], inner_H(z, zt))
        g = subgrad_phi(z)
        assert _close(Gb[:, j], g.bulk) and _close(Gs[:, j], g.boundary)


def _per_field_worst_slack(dom, n_fields, seed):
    # the per-field loop that the column blocks replace: one draw, one mean
    # removal and one V normalization per field
    rng = np.random.Generator(np.random.Philox(seed))
    cp = poincare_constant(dom)
    worst = math.inf
    for _ in range(n_fields):
        z = project_zero_mean(FieldPair.from_bulk(dom, rng.standard_normal(dom.n_bulk)))
        z = z * (1.0 / math.sqrt(max(inner_V(z, z), 1e-300)))
        worst = min(worst, form_a(z, z) - cp * inner_V(z, z))
    return worst


def test_blocked_coercivity_slack_matches_per_field_loop(domain_cache):
    dom = domain_cache(8)
    n_fields = 37  # four full blocks and a partial one
    assert n_fields % verify._BLOCK
    report = appendix_checks(dom, n_field_samples=n_fields, n_pair_samples=3, seed=2024)
    item = next(it for it in report.items if it.name == "sampled coercivity inequality")
    got = float(re.search(r"worst slack = (\S+) over", item.detail).group(1))
    assert got == pytest.approx(_per_field_worst_slack(dom, n_fields, 2024), rel=1e-12)


def test_appendix_checks_memory_stays_blocked(domain_cache):
    # the column blocks bound the sample storage; all 1000 samples at once
    # would allocate about 56 MB at this mesh
    dom = domain_cache(49)
    tracemalloc.start()
    try:
        report = appendix_checks(dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 4 * 2 ** 20
