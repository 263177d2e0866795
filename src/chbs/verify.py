"""Experiment harness: conservation, stability, and structure checks.

Turns the analytical guarantees of the model into desk-scale experiments on
completed runs: the two-trajectory continuous-dependence ratio and its
stability under time refinement, the vanishing-regularization Cauchy study
with its uniform-bound table, and the exact structural certificates on a
discrete domain (coercivity constant, its inertia and residual certificate,
stiffness symmetry and kernel, lumped masses).

Every report is a pure function of its input runs, so repeated invocations
with identical inputs give identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np

from .domain import count_negative_eigenvalues
from .errors import ConfigError
from .scheme import _run_members, _v0_star_sq, run
from .spaces import (FieldPair, as_functional, form_a, inner_H, mean, norm_V_star,
                     poincare_constant)

__all__ = [
    "ContDepReport", "EpsStudyReport", "AprioriTable", "AppendixReport",
    "continuous_dependence_experiment", "vanishing_eps_study",
    "apriori_bound_table", "appendix_checks",
]

_RHS_FLOOR = 1e-30
_RATIO_CAP = 10.0  # a uniform-bound column passes when max/min is at most this
_ZERO_TOL = 1e-14  # and a column whose max is at most this passes outright


# --- continuous dependence --------------------------------------------------

@dataclass(frozen=True)
class ContDepReport:
    """Observed two-run stability ratios across a time-step sweep."""

    taus: tuple
    sup_ratios: tuple
    degenerate: bool
    aborted: bool
    variation: float

    @property
    def sup_ratio(self):
        return self.sup_ratios[0]

    def summary_lines(self):
        lines = []
        if self.degenerate:
            lines.append("ratio: 0 (degenerate)")
        else:
            lines.append(f"ratio: {self.sup_ratio!r}")
            for tau, ratio in zip(self.taus, self.sup_ratios):
                lines.append(f"tau {tau!r}: sup ratio {ratio!r}")
            lines.append(f"variation across tau: {self.variation!r}")
        lines.append("aborted: " + ("yes" if self.aborted else "no"))
        return lines


def _ratio_curve(traj1, traj2, gap):
    """sup_t of LHS/RHS for one pair of aligned trajectories.  ``gap`` is
    their forcing difference t -> f1(t) - f2(t), sampled at the time of each
    level, or None for two unforced runs, whose forcing sum stays 0.  The
    V0* distances come from the levels' carried potentials, with no solve."""
    tau = traj1.config.tau
    rhs0 = rhs = _v0_star_sq(traj1.states[0], traj2.states[0])
    lhs_acc = 0.0
    rhs_acc = 0.0
    # at t = 0 the ratio is rhs0/rhs0
    sup = 1.0 if rhs0 > _RHS_FLOOR else 0.0
    for s1, s2 in zip(traj1.states[1:], traj2.states[1:]):
        diff = s1.v - s2.v
        lhs_acc += tau * form_a(diff, diff)
        lhs = _v0_star_sq(s1, s2) + lhs_acc
        if gap is not None:
            rhs_acc += tau * norm_V_star(as_functional(gap(s1.t))) ** 2
        rhs = rhs0 + rhs_acc
        if rhs > _RHS_FLOOR:
            sup = max(sup, lhs / rhs)
    return sup, rhs <= _RHS_FLOOR


def continuous_dependence_experiment(config, data1, data2, tau_levels=3):
    """Two-trajectory stability experiment with a time-step refinement sweep.

    ``data1`` and ``data2`` are (initial pair, forcing callable or None)
    tuples sharing the same domain, graphs and conserved mean.  For each tau
    in {tau, tau/2, tau/4} both trajectories are run and the supremum over
    time of

        (|v1 - v2|_{V0*}^2 + sum tau |v1 - v2|_{V0}^2)
        / (|v1(0) - v2(0)|_{V0*}^2 + sum tau |f1 - f2|_{V*}^2)

    is recorded, the denominator floored at 1e-30.  At each tau the two
    runs step in lockstep (``scheme._run_members``): each runs the step
    solver of a run alone, and their residuals and S0 solves are shared
    calls, so each is bit-identical to its ``run`` alone.
    """
    (u01, f1), (u02, f2) = data1, data2
    if tau_levels < 1:
        raise ConfigError(f"tau_levels must be at least 1, got {tau_levels!r}")
    if abs(mean(u01) - mean(u02)) > 1e-12:
        raise ConfigError("continuous dependence compares runs within one "
                          "conserved-mean class; the initial means differ")
    taus = tuple(config.tau / 2 ** k for k in range(tau_levels))
    trajs = [traj for tau in taus
             for traj in _run_members(replace(config, tau=tau), [(u01, f1), (u02, f2)])]
    aborted = any(t.aborted for t in trajs)
    gap = None
    if f1 is not None or f2 is not None:
        zero = FieldPair.zeros(u01.domain)
        f1, f2 = (f if f is not None else (lambda t: zero) for f in (f1, f2))
        gap = lambda t: f1(t) - f2(t)
    sups = []
    degenerate = False
    for i in range(len(taus)):
        sup, degen = _ratio_curve(trajs[2 * i], trajs[2 * i + 1], gap)
        sups.append(sup)
        if i == 0:
            degenerate = degen
    finite = [s for s in sups if s > 0.0]
    if degenerate or not finite:
        variation = 0.0
    else:
        variation = (max(finite) - min(finite)) / min(finite)
    return ContDepReport(taus=taus, sup_ratios=tuple(sups),
                         degenerate=degenerate, aborted=aborted,
                         variation=variation)


# --- uniform-bound table ------------------------------------------------------

@dataclass(frozen=True)
class AprioriTable:
    """Discrete-in-time norms of the uniformly bounded quantities, per run."""

    columns: tuple
    rows: tuple  # tuple of dicts keyed by column name

    def column(self, name):
        return np.array([row[name] for row in self.rows])

    def bounded(self):
        """Whether every column stays within a common envelope across rows."""
        verdict = {}
        for name in self.columns:
            if name == "eps":
                continue
            vals = self.column(name)
            top = float(vals.max())
            if top <= _ZERO_TOL:
                verdict[name] = True
                continue
            bottom = float(vals.min())
            verdict[name] = bottom > 0.0 and top / bottom <= _RATIO_CAP
        return verdict


def _table_row(traj):
    cfg = traj.config
    tau = cfg.tau
    dom = traj.states[0].v.domain
    recs = traj.records
    states = traj.states
    v_h0 = [math.sqrt(max(inner_H(s.v, s.v), 0.0)) for s in states]
    l2 = lambda vals: math.sqrt(sum(tau * val ** 2 for val in vals))
    xi_h_bulk = [math.sqrt(float(dom.M_bulk @ s.xi.bulk ** 2)) for s in states[1:]]
    xi_h_surf = [math.sqrt(float(dom.M_surf @ s.xi.boundary ** 2)) for s in states[1:]]
    dq_v0star = []
    dq_h0 = []
    for prev, cur in zip(states[:-1], states[1:]):
        diff = cur.v - prev.v
        dq_v0star.append(math.sqrt(_v0_star_sq(cur, prev)) / tau)
        dq_h0.append(math.sqrt(max(inner_H(diff, diff), 0.0)) / tau)
    return {
        "eps": cfg.eps,
        "sqrt_eps_max_v_H0": math.sqrt(cfg.eps) * max(v_h0),
        "max_v_V0star": max(r.norm_v_V0star for r in recs),
        "l2_v_V0": l2([r.norm_v_V0 for r in recs[1:]]),
        "l1l1_xi_bulk": sum(tau * r.l1_xi_bulk for r in recs[1:]),
        "l1l1_xi_surf": sum(tau * r.l1_xi_surf for r in recs[1:]),
        "l2l1_xi_bulk": l2([r.l1_xi_bulk for r in recs[1:]]),
        "l2l1_xi_surf": l2([r.l1_xi_surf for r in recs[1:]]),
        "l2h_xi_bulk": l2(xi_h_bulk),
        "l2h_xi_surf": l2(xi_h_surf),
        "max_env_bulk": max(r.envelope_integral_bulk for r in recs),
        "max_env_surf": max(r.envelope_integral_surf for r in recs),
        "l2_omega": l2([r.omega for r in recs[1:]]),
        "l2_mu_V": l2([r.norm_mu_V for r in recs[1:]]),
        "l2_dq_V0star": l2(dq_v0star),
        "sqrt_eps_l2_dq_H0": math.sqrt(cfg.eps) * l2(dq_h0),
    }


def apriori_bound_table(trajs):
    """Tabulate the discrete analogs of the uniformly bounded norms of one or
    more trajectories; the columns are the keys of a row, in order."""
    rows = tuple(_table_row(t) for t in trajs)
    return AprioriTable(columns=tuple(rows[0]), rows=rows)


# --- vanishing regularization -------------------------------------------------

@dataclass(frozen=True)
class EpsStudyReport:
    """Cauchy distances and uniform-bound verdicts of a regularization sweep."""

    eps_list: tuple
    d_h0: tuple
    d_l2v0: tuple
    cauchy_pass: bool
    table: AprioriTable
    bounded_pass: bool
    slope_l2_v_V0: float
    partial: bool

    @property
    def passed(self):
        return self.cauchy_pass and self.bounded_pass and not self.partial

    def summary_lines(self):
        lines = [f"eps sweep: {list(self.eps_list)}",
                 f"successive H0 distances: {[repr(d) for d in self.d_h0]}",
                 ("PASS" if self.cauchy_pass else "FAIL")
                 + ": successive distances nonincreasing within 10%",
                 ("PASS" if self.bounded_pass else "FAIL")
                 + ": uniform-bound columns within a common envelope",
                 f"l2_v_V0 slope against log(eps): {self.slope_l2_v_V0!r}"]
        if self.partial:
            lines.append("FAIL: some member runs aborted")
        return lines


def _successive_distances(trajs, tau):
    """Distances between successive trajectories of a sweep: max over levels of
    |v_k - v_{k+1}|_{H0}, and the L2-in-time norm of a(v_k - v_{k+1}, .)^(1/2)
    over levels 1, 2, ...; both read the levels the two runs share."""
    d_h0 = []
    d_l2v0 = []
    for t1, t2 in zip(trajs, trajs[1:]):
        n = min(len(t1.states), len(t2.states))
        dh = 0.0
        acc = 0.0
        for k in range(n):
            diff = t1.states[k].v - t2.states[k].v
            dh = max(dh, math.sqrt(max(inner_H(diff, diff), 0.0)))
            if k >= 1:
                acc += tau * form_a(diff, diff)
        d_h0.append(dh)
        d_l2v0.append(math.sqrt(acc))
    return d_h0, d_l2v0


def vanishing_eps_study(config_base, eps_list, u0, forcing=None):
    """Run one data set across a strictly decreasing regularization sweep.

    Reports the successive-solution distances max_t |v_k - v_{k+1}|_{H0} and
    their L2-in-time gradient-norm analogs, flags Cauchy behavior when the
    sequence is nonincreasing within 10 percent slack, and attaches the
    uniform-bound table across the sweep.
    """
    eps_list = tuple(float(e) for e in eps_list)
    if len(eps_list) < 3:
        raise ConfigError("eps sweep needs at least 3 entries")
    if any(not 0.0 < e <= 1.0 for e in eps_list):
        raise ConfigError("eps sweep entries must lie in (0,1]")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps sweep must be strictly decreasing, with no repeated entry")
    trajs = [run(replace(config_base, eps=e), u0, forcing) for e in eps_list]
    # the table reads the records first, which flags a member whose monitor fails
    table = apriori_bound_table(trajs)
    partial = any(t.aborted for t in trajs)

    d_h0, d_l2v0 = _successive_distances(trajs, config_base.tau)
    cauchy = all(b <= 1.1 * a + 1e-14 for a, b in zip(d_h0, d_h0[1:]))
    bounded = all(table.bounded().values())
    col = table.column("l2_v_V0")
    if np.all(col > 0.0):
        slope = float(np.polyfit(np.log(np.array(eps_list)), np.log(col), 1)[0])
    else:
        slope = 0.0
    return EpsStudyReport(eps_list=eps_list, d_h0=tuple(d_h0),
                          d_l2v0=tuple(d_l2v0), cauchy_pass=cauchy,
                          table=table, bounded_pass=bounded,
                          slope_l2_v_V0=slope, partial=partial)


# --- structural checks on a domain -------------------------------------------

@dataclass(frozen=True)
class AppendixItem:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AppendixReport:
    items: tuple

    @property
    def passed(self):
        return all(item.passed for item in self.items)

    def summary_lines(self):
        return [("PASS" if it.passed else "FAIL") + f": {it.name} ({it.detail})"
                for it in self.items]


_CERT_DELTA = 1e-6  # relative margin to which the certificate pins mu2
_STIFF_TOL = 1e-12  # stiffness asymmetry and row sums, relative to max |K|
_MASS_TOL = 1e-12  # relative error of the lumped mass totals


def _stiffness_defect(K):
    """Largest |K - K^T| entry and row sum of K, relative to max |K|; inf when
    K has an entry that is not finite."""
    if not np.isfinite(K.data).all():
        return math.inf
    defect = max(abs(K - K.T).max(), np.abs(K @ np.ones(K.shape[1])).max())
    return float(defect / abs(K).max())


def _eigen_residual(A, gc, mu, x):
    """(eta, allowance) for an estimate (mu, x) of an eigenpair of (A, diag gc).

    eta = |A x - mu gc x|_{gc^-1} / |x|_gc, as computed; some eigenvalue of
    the pencil lies within eta of mu (Parlett, The Symmetric Eigenvalue
    Problem, 1998, Thm 4.5.1, applied to gc^(-1/2) A gc^(-1/2)).  Each entry
    of the computed residual sums k products of A x, two of mu gc x, and one
    difference, so it is off by at most (k + 2) eps times the matching entry
    of |A||x| + mu gc |x| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 3.5), with k the most stored entries in a row
    of A; the allowance is that bound in the same norm.
    """
    norm_x = math.sqrt(float(gc @ x ** 2))

    def dual(r):
        return math.sqrt(float(r ** 2 @ (1.0 / gc))) / norm_x

    gamma = (int(A.getnnz(axis=1).max()) + 2) * math.ulp(1.0)
    return (dual(A @ x - mu * (gc * x)),
            gamma * dual(abs(A) @ abs(x) + mu * (gc * abs(x))))


def appendix_checks(dom):
    """Exact structural certificates on an assembled domain.

    Three report-only items, each decided by a matrix fact instead of samples:

    - the coercivity constant c_p is certified, with mu = c_p/(1 - c_p) and
      mu2 the least nonzero eigenvalue of (Ac, Mc), by two facts.
      Ac - (1 - _CERT_DELTA)*mu*Mc has exactly one negative eigenvalue (the
      constant mode), an inertia count of one factor, so mu2 is at least
      (1 - _CERT_DELTA)*mu, and mu, so c_p, is positive.  The residual of
      the Lanczos eigenvector behind c_p, with its rounding allowance, is at
      most _CERT_DELTA*mu, so a nonzero eigenvalue lies that close to mu,
      and mu2 is at most mu plus that residual.  A c_p too large fails the
      count, one too small the residual;
    - K_bulk and K_surf are finite and symmetric with constants in their
      kernels, which makes the weak Laplacian pair adjoint to the stiffness
      form; each is checked on its own, so an asymmetric one fails;
    - the lumped masses are positive with totals 1 (bulk volume) and 4
      (boundary length); the mean-projection identity holds algebraically
      for any masses.
    """
    cp, x = poincare_constant(dom, eigenvector=True)
    mu = cp / (1.0 - cp)
    below = count_negative_eigenvalues(dom.shifted(-(1.0 - _CERT_DELTA) * mu))
    eta, allowance = _eigen_residual(dom.coupled_stiffness, dom.combined_mass, mu, x)
    items = [AppendixItem(
        "coercivity constant certified", below == 1 and eta + allowance <= _CERT_DELTA * mu,
        f"c_p = {cp!r}, mu2 = {mu!r}: {below} negative eigenvalues at "
        f"(1 - {_CERT_DELTA!r})*mu2, want 1; eigenvector residual {eta!r} "
        f"+ rounding {allowance!r}, want at most {_CERT_DELTA!r}*mu2")]

    bulk, surf = _stiffness_defect(dom.K_bulk), _stiffness_defect(dom.K_surf)
    items.append(AppendixItem(
        "stiffness symmetric with constants in its kernel",
        bulk <= _STIFF_TOL and surf <= _STIFF_TOL,
        f"relative defect {bulk!r} bulk, {surf!r} surface"))

    # a mass that is not finite makes its total fail
    volume, length = float(dom.M_bulk.sum()), float(dom.M_surf.sum())
    least = min(float(dom.M_bulk.min()), float(dom.M_surf.min()))
    items.append(AppendixItem(
        "lumped masses positive with totals 1 and 4",
        least > 0.0 and abs(volume - 1.0) <= _MASS_TOL and abs(length - 4.0) <= 4.0 * _MASS_TOL,
        f"totals {volume!r} and {length!r}, least mass {least!r}"))

    return AppendixReport(items=tuple(items))
