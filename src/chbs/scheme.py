"""Backward-Euler time stepping for the regularized bulk/boundary flow.

Each step solves the coupled nodal system for the zero-mean order parameter
``v`` and the chemical potential ``mu`` (both trace-consistent, so the
unknowns are two bulk-sized vectors)

    Mc (v' - v)/tau + Ac mu' = 0,
    Mc mu' = eps Mc (v' - v)/tau + Ac v' + N(u') + P(u) - F,

where Mc and Ac are the combined lumped mass and coupled stiffness in bulk
coordinates, N collects the mass-weighted nodewise Yosida terms (bulk graph
in the bulk, boundary graph with parameter eps*rho on the chain), P the
perturbation terms, and F the load vector of the forcing pair sampled at the
new time.  The convex part of the potential is implicit and the concave
perturbation (pi_slope <= 0) is explicit, at the old state u: this convex
splitting (Eyre) makes the discrete free energy nonincreasing for zero
forcing at every tau.

Testing the first equation with the constant pair shows the combined mean of
``v`` is conserved algebraically; every computed update is shifted by the
constant that restores the mean, whether Newton or Picard produced it.  The
solver is a damped Newton iteration with a Picard fallback for the kinked
obstacle graph, both within one budget of ``newton_max`` iterations; an
iterate whose residual is not finite ends the step at once.  Mc is
diagonal, so every linear system eliminates mu exactly.  What remains is
bulk-sized, and its constant part, the Schur complement

    S0 = Mc/tau + (eps/tau) Ac + Ac Mc^-1 Ac = (Ac + c1 Mc) Mc^-1 (Ac + c2 Mc)

with c1, c2 the roots of x^2 - (eps/tau) x + 1/tau, needs only the shifted
stiffness Ac + c Mc factored: once per mesh, eps and tau, one complex
factor when eps^2 < 4 tau and two real ones otherwise.  Conjugate gradients
on the symmetrized Newton system give each Newton direction, each iteration
one shifted solve over a complex pair (two and a stiffness product over a
real one), and stop at an Eisenstat-Walker forcing tolerance, so a direction
is only as accurate as its iterate needs.  Each Picard iterate is one exact
S0 solve; a CG stall or a failed line search hands the step to the Picard
iteration.

The conservation residual R1 is measured in V0*, which takes a
mean-constrained solve.  Each iterate carries instead the solve-free bound
b1 = |R1_0|_H* / sqrt(mu2_lower) >= |R1|_V0*, with R1_0 the residual less
its Mc-weighted mean and mu2_lower the domain's certified lower bound on the
least nonzero eigenvalue of (Ac, Mc).  The merit, the line search and the
forcing term use b1.  The convergence test also has the solve-free lower
bound lb1 = b1 sqrt(mu2_lower / lambda_upper) <= |R1|_V0*, with
lambda_upper the domain's Gershgorin bound on the largest eigenvalue of
(Ac, Mc): b1 <= tol s1 accepts, lb1 > tol s1 rejects, and only a threshold
between them solves once for the exact r1.  So the test accepts exactly the
iterates the exact one accepts, and most steps make no solve.

The conserved quantity v is measured in V0* too.  A state carries
z = F^-1(Mc v), the zero-mean potential with Ac z = Mc v less its mean, so
|v|_V0*^2 = (Mc v).z and |v1 - v2|_V0*^2 = (Mc (v1 - v2)).(z1 - z2) need no
solve.  ``initialize`` solves for z0, the one mean-constrained solve of a
run outside its convergence tests.  The step's first equation,
Mc (v' - v)/tau + Ac mu' = R1, maps under F^-1 to z' = z - tau mu_c' +
tau F^-1 R1, with mu_c' the new potential less its Mc-weighted mean; a
step keeps z' = z - tau mu_c', so the carried z drifts by at most tau r1
<= 10 tau newton_tol per step in the V0 norm.

From its second step on, ``run`` starts Newton from the polynomial in time
through the last two, three and then four levels, evaluated at the new one:
2 x_n - x_{n-1}, 3 x_n - 3 x_{n-1} + x_{n-2}, and from the fourth step on the
cubic 4 x_n - 6 x_{n-1} + 4 x_{n-2} - x_{n-3}.  On a smooth solution the
cubic start is O(tau^4) from the new level where the old state is O(tau), so
more steps converge in one iteration.

Every level is trace-consistent, the initial one included, so its graph
terms come from its bulk values u: the bulk graph on u and, unless it is the
bulk one (one kind, rho = 1), the boundary graph on the trace u[chain].  The
mass-weighted terms of a pair (b, g) are Mc b plus M_surf (g - b[chain]) on
the chain, exactly the nodal product Mc b when g is the trace of b.
Each residual warm-starts the logarithmic resolvents from a nearby level:
the first iterate of a step from the old level's J, every later one, line
search trials and Picard iterates included, from the J of the iterate it
follows.  The terms of an iterate stay plain (bulk, boundary) arrays; only
an accepted level keeps them as ``FieldPair``s.
"""

from __future__ import annotations

import functools
import math
from collections import deque, namedtuple
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from . import spaces
from .domain import splu
from .errors import ChbsError, CompatibilityError, ConfigError, StepError
from .monotone import GraphPair, _envelope_at, beta_hat, yosida_and_slope
from .spaces import (FieldPair, form_a, inner_H, mean, project_zero_mean, _collapse,
                     _dual_norm_collapsed, _has_nonzero_mean, is_trace_consistent)

# Newton directions: the relative CG tolerance of a full-accuracy solve, which
# also floors the forcing term, the forcing term's first and largest value,
# and the CG iteration cap
_CG_RTOL = 1e-10
_CG_ETA_MAX = 1e-4
_CG_MAXITER = 200

_SCHUR_FACTORS = {}  # (domain, shifts) -> the read-only factors of _StepSystem.lu

# relative margin by which the lower bound lb1 must exceed the threshold to
# reject an iterate without solving for r1 (see _StepSystem.converged)
_LB1_MARGIN = 1e-6


@dataclass(frozen=True)
class SchemeConfig:
    """Parameters of one regularized backward-Euler run.

    ``eps`` weights both the time-derivative term of the potential equation
    and the Yosida regularization.  The conserved mean is not a parameter:
    it is fixed by the initial data.  The perturbation is explicit in time
    (convex splitting), which keeps the energy decaying for zero forcing
    only when it is nonincreasing, so both graphs must have pi_slope <= 0.
    """

    eps: float
    tau: float
    t_end: float
    graphs: GraphPair
    newton_tol: float = 1e-10
    newton_max: int = 50

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ConfigError("eps must lie in (0,1]")
        if not 0.0 < self.tau < math.inf:
            raise ConfigError("tau must be positive and finite")
        if not 0.0 <= self.t_end < math.inf:
            raise ConfigError("t_end must be nonnegative and finite")
        lam3 = 3.0 * self.eps * min(1.0, self.graphs.rho)
        if not (lam3 > 0.0 and math.isfinite(math.sqrt(1.0 / lam3) / lam3)):
            raise ConfigError("eps is too small: the cubic resolvent scale "
                              "(3 eps min(1, rho))^(-3/2) must be finite")
        p3 = 1.0 / (3.0 * (self.eps * max(1.0, self.graphs.rho)))
        if p3 * math.sqrt(p3) == 0.0:
            raise ConfigError("rho is too large: the cubic resolvent scale "
                              "(3 eps max(1, rho))^(-3/2) must be nonzero")
        ratio = self.eps / self.tau
        if not all(map(math.isfinite, (1.0 / self.tau, self.t_end / self.tau, ratio * ratio))):
            raise ConfigError("tau is too small: 1/tau, t_end/tau and (eps/tau)^2 "
                              "must be finite")
        for name, g in (("bulk", self.graphs.bulk), ("boundary", self.graphs.boundary)):
            if not g.pi_slope <= 0.0:
                raise ConfigError(f"the convex split needs a nonincreasing perturbation: "
                                  f"the {name} pi_slope must be <= 0, got {g.pi_slope!r}")
        if not 0.0 < self.newton_tol < math.inf:
            raise ConfigError("newton_tol must be positive and finite")
        if self.newton_max < 1:
            raise ConfigError("newton_max must be at least 1")


@dataclass(frozen=True)
class SchemeState:
    """One time level: zero-mean order parameter, potential, graph values.

    ``j`` and ``xi`` hold the nodewise resolvents and Yosida values of
    u = v + m0 (bulk graph in the bulk slot, boundary graph with parameter
    eps*rho in the boundary slot).  ``m0`` is the conserved combined mean of
    the run.  ``z`` is the bulk array of F^-1(Mc v), of Mc-mean zero, solved
    for at level 0 with the domain's pinned stiffness factor and carried by
    every step without a solve, and ``a_vv`` and ``a_mumu`` are a(v, v) and
    a(mu, mu); the monitor and the experiments read their V0* norms off
    them.  ``newton_iters`` counts Newton and Picard iterations together.
    """

    v: FieldPair
    mu: FieldPair
    xi: FieldPair
    j: FieldPair
    omega: float
    t: float
    m0: float
    z: np.ndarray
    a_vv: float
    a_mumu: float
    newton_iters: int = 0
    lin_iters: int = 0


@dataclass(frozen=True)
class MonitorRecord:
    """Per-step scalars: conserved mass, energy, and the uniform-bound norms."""

    t: float
    total_mass: float
    energy: float
    norm_v_V0: float
    norm_v_V0star: float
    norm_mu_V: float
    l1_xi_bulk: float
    l1_xi_surf: float
    envelope_integral_bulk: float
    envelope_integral_surf: float
    omega: float
    newton_iters: int
    lin_iters: int

    @classmethod
    def fields(cls):
        return list(cls.__dataclass_fields__)


@dataclass
class Trajectory:
    """A completed (or aborted) run: its states, and the monitor records
    computed from them when ``records`` is first read."""

    config: SchemeConfig
    m0: float
    states: List[SchemeState]
    aborted: bool = False
    error: Optional[str] = None

    @functools.cached_property
    def records(self) -> List[MonitorRecord]:
        return [monitor_record(state, self.config) for state in self.states]


# --- nodewise assembly helpers -------------------------------------------

def _offset_pair(pair, xi, u, f):
    """The pair xi + pi(u) - f at the trace-consistent level with bulk values
    u; its mean is the offset omega of a state.  ``f`` None is zero forcing."""
    dom = xi.domain
    f = f if f is not None else FieldPair.zeros(dom)
    return FieldPair(xi.bulk + pair.bulk.pi_slope * u - f.bulk,
                     xi.boundary + pair.boundary.pi_slope * u[dom.boundary_chain] - f.boundary,
                     dom)


def _graph_terms(dom, pair, eps, u, start=None):
    """Resolvent, Yosida and Yosida-slope pairs (bulk, boundary) of arrays of
    the trace-consistent level with bulk values u: the bulk graph at eps on
    u, and the boundary graph at eps*rho on u[chain] unless it is the bulk
    graph (one kind, whose resolvent depends only on its parameter, at one
    parameter) and its terms the trace.  ``start``, a resolvent pair of a
    nearby level, warm-starts the resolvents (see ``monotone.resolvent``)."""
    chain = dom.boundary_chain
    s_bulk, s_bnd = (None, None) if start is None else start
    bulk = yosida_and_slope(pair.bulk, eps, u, start=s_bulk)
    if pair.bulk.kind == pair.boundary.kind and eps * pair.rho == eps:
        bnd = [b[chain] for b in bulk]
    else:
        bnd = yosida_and_slope(pair.boundary, eps * pair.rho, u[chain], start=s_bnd)
    return list(zip(bulk, bnd))


def _mass_weighted(dom, z):
    """Bulk-node coefficients of (M_bulk b, M_surf g), z = (b, g), on
    trace-consistent tests: Mc b plus M_surf (g - b[chain]) on the chain,
    exactly Mc b when g is the trace of b.  A non-finite b leaves them
    non-finite (NaN where g - b[chain] is inf - inf)."""
    b, g = z
    chain = dom.boundary_chain
    out = dom.combined_mass * b
    out[chain] += dom.M_surf * (g - b[chain])
    return out


# --- monitor -----------------------------------------------------------------

def _energy(state, config):
    """(energy, bulk envelope integral, boundary envelope integral) of a
    state.  The lumped envelopes |u - J|^2/(2 eps) + beta_hat(J) (eps*rho on
    the boundary) use the kept J."""
    dom, pair, m0, j = state.v.domain, config.graphs, state.m0, state.j
    u_b, u_g = state.v.bulk + m0, state.v.boundary + m0
    env_bulk = float(dom.M_bulk @ _envelope_at(pair.bulk, config.eps, u_b, j.bulk))
    env_surf = float(dom.M_surf @ _envelope_at(pair.boundary, config.eps * pair.rho,
                                               u_g, j.boundary))
    e = 0.5 * state.a_vv + env_bulk + env_surf
    # m0 * m0 rounds like numpy's square of u; the float power m0 ** 2 may not
    s_b, s_g, m0_sq = pair.bulk.pi_slope, pair.boundary.pi_slope, m0 * m0
    e += float(dom.M_bulk @ (0.5 * s_b * u_b ** 2 - 0.5 * s_b * m0_sq))
    e += float(dom.M_surf @ (0.5 * s_g * u_g ** 2 - 0.5 * s_g * m0_sq))
    return e, env_bulk, env_surf


def _norm_mu_V(state):
    """The energy norm |mu|_V = sqrt(inner_H(mu, mu) + a(mu, mu))."""
    return float(np.sqrt(max(inner_H(state.mu, state.mu) + state.a_mumu, 0.0)))


def _v0_star_sq(state, other=None):
    """|v - v_other|_V0*^2 = (Mc (v - v_other)).(z - z_other) from the carried
    potentials, |v|_V0*^2 when ``other`` is None, floored at 0; no solve."""
    dv, dz = state.v.bulk, state.z
    if other is not None:
        dv, dz = dv - other.v.bulk, dz - other.z
    return max(float((state.v.domain.combined_mass * dv) @ dz), 0.0)


def monitor_record(state, config):
    """The monitor scalars of a state, read off its carried z, a(v, v) and
    a(mu, mu) with no solve."""
    dom, m0 = state.v.domain, state.m0
    total_mass = (float(dom.M_bulk @ (state.v.bulk + m0))
                  + float(dom.M_surf @ (state.v.boundary + m0)))
    e, env_bulk, env_surf = _energy(state, config)
    return MonitorRecord(
        t=state.t,
        total_mass=total_mass,
        energy=e,
        norm_v_V0=float(np.sqrt(max(state.a_vv, 0.0))),
        norm_v_V0star=math.sqrt(_v0_star_sq(state)),
        norm_mu_V=_norm_mu_V(state),
        l1_xi_bulk=float(dom.M_bulk @ np.abs(state.xi.bulk)),
        l1_xi_surf=float(dom.M_surf @ np.abs(state.xi.boundary)),
        envelope_integral_bulk=env_bulk,
        envelope_integral_surf=env_surf,
        omega=state.omega,
        newton_iters=state.newton_iters,
        lin_iters=state.lin_iters,
    )


# --- initialization ---------------------------------------------------------

def initialize(config, u0, forcing_at_0=None):
    """Build the initial state from trace-consistent initial data.

    The conserved mean is recorded from the data, and v0 is the
    trace-consistent pair of its projected bulk values, as every later level
    is; the resolvent and Yosida pairs and the mean offset are evaluated at
    v0 + m0, and the potential mu0 solves the step's potential equation with
    a zero time derivative, Mc mu0 = Ac v0 + N + P - F, so it is
    trace-consistent.  z0 = F^-1(Mc v0) is the run's one mean-constrained
    solve outside the steps' convergence tests; a NumericalError from it
    propagates.
    Raises ConfigError if the forcing at t = 0 makes the potential or the
    mean offset non-finite, or if the level's potential norm |mu0|_V or
    energy is not finite, as when the data, graphs and eps overflow them.
    """
    dom = u0.domain
    pair = config.graphs
    if not is_trace_consistent(u0):
        raise ValueError("initialize: initial data must be trace-consistent")
    for name, g, vals in (("bulk", pair.bulk, u0.bulk),
                          ("boundary", pair.boundary, u0.boundary)):
        with np.errstate(over="ignore"):  # reported below
            bad = ~np.isfinite(beta_hat(g, vals))
        if bad.any():
            node = int(np.argmax(bad))
            value = float(vals[node])
            fault = ("has a non-finite convex primitive" if g.domain_lo <= value <= g.domain_hi
                     else "lies outside the effective domain")
            raise CompatibilityError(
                f"initial value {value!r} at {name} node {node} {fault} of the {name} graph")
    m0 = mean(u0)
    if not pair.boundary.domain_lo < m0 < pair.boundary.domain_hi:
        raise CompatibilityError(
            f"conserved mean {m0!r} is not interior to the boundary graph domain")

    v0 = FieldPair.from_bulk(dom, project_zero_mean(u0).bulk)
    if _has_nonzero_mean(v0):
        raise CompatibilityError(f"initial data: its mean {m0!r} is too large to remove; "
                                 f"a mean of {mean(v0)!r} is left")
    u = v0.bulk + m0
    j, xi = (FieldPair(*z, dom) for z in _graph_terms(dom, pair, config.eps, u)[:2])
    rest = _offset_pair(pair, xi, u, forcing_at_0)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        # Mc mu0 = Ac v0 + N + P - F, written so that a constant rest stays exact
        a_v0 = _collapse(dom, dom.coupled_stiffness @ v0.bulk,
                         dom.M_surf * (rest.boundary - rest.bulk[dom.boundary_chain]))
        mu0 = FieldPair.from_bulk(dom, rest.bulk + a_v0 / dom.combined_mass)
        omega = mean(rest)
    if not (math.isfinite(omega) and np.isfinite(mu0.bulk).all()
            and np.isfinite(mu0.boundary).all()):
        raise ConfigError(f"the forcing at t = 0 gives a non-finite initial potential "
                          f"or mean offset (omega = {omega!r})")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        a_vv, a_mumu = form_a(v0, v0), form_a(mu0, mu0)
    # z is solved for once the level is known to be finite
    state = SchemeState(v=v0, mu=mu0, xi=xi, j=j, omega=omega, t=0.0, m0=m0,
                        z=None, a_vv=a_vv, a_mumu=a_mumu)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        level0 = (("potential norm |mu0|_V", _norm_mu_V(state)),
                  ("energy", _energy(state, config)[0]))
    for name, value in level0:
        if not math.isfinite(value):
            raise ConfigError(f"the initial {name} is not finite ({value!r}): the "
                              f"data, graphs and eps overflow it")
    return replace(state, z=spaces._saddle_solve(dom, dom.combined_mass * v0.bulk))


# --- the nonlinear step -----------------------------------------------------

def _h_norm(dom, vec):
    """The lumped dual norm sqrt(vec.(vec/Mc))."""
    return math.sqrt(float(vec @ (vec / dom.combined_mass)))


# one evaluation at (w, mu): residuals, the bound b1 on the V0* norm of R1 and
# the H* norm r2 of R2, the resolvent and Yosida pairs (bulk, boundary), the
# Jacobian diagonal d, g = N + P - F, mu less its Mc-weighted mean, Ac mu,
# and the terms of R2
_Iterate = namedtuple("_Iterate", "w mu R1 R2 b1 r2 j xi d g mu_c a_mu terms2")


def _shifts(eps, tau):
    """Roots of x^2 - (eps/tau) x + 1/tau: both of a real pair, or the member
    of a complex pair (eps^2 < 4 tau) with positive imaginary part."""
    half = 0.5 * eps / tau
    disc = half * half - 1.0 / tau
    if disc < 0.0:
        return (complex(half, math.sqrt(-disc)),)
    big = half + math.sqrt(disc)
    return big, (1.0 / tau) / big


class _StepSystem:
    """The equations of one step in bulk coordinates.

    Mc is diagonal, so a block system with right-hand side (r1, r2) for
    (dw, dmu) reduces exactly to

        S(D) dw = r1 - Ac (r2/Mc),  S(D) = Mc/tau + Ac Mc^-1 (eps Mc/tau + Ac + D),

    with dmu = (r2 + (eps Mc/tau + Ac + D) dw)/Mc.  D is the nodal Jacobian
    diagonal for Newton and 0 for Picard, where S(0) = S0.  Only D changes
    between iterates and steps.  The load P(u) - F of the forcing pair
    ``f_next`` (None is zero forcing) is fixed for the step and built once.  An
    iterate is trace-consistent, so its graph terms come from its bulk values
    by ``_graph_terms``, warm-started from the resolvent pair ``start`` of a
    nearby iterate, and N and D are their ``_mass_weighted`` products.
    """

    def __init__(self, dom, config, m0, w_prev, f_next):
        self.dom = dom
        self.cfg = config
        self.m0 = m0
        self.w_prev = w_prev
        self.gc_tau = dom.combined_mass / config.tau
        self.gc_sum = float(dom.combined_mass.sum())
        self.mass_prev = float(dom.combined_mass @ w_prev)
        pair, u_prev = config.graphs, w_prev + m0
        self.load = _collapse(dom, dom.M_bulk * (pair.bulk.pi_slope * u_prev),
                              dom.M_surf * (pair.boundary.pi_slope * u_prev[dom.boundary_chain]))
        if f_next is not None:
            self.load -= _collapse(dom, dom.M_bulk * f_next.bulk, dom.M_surf * f_next.boundary)
        self.shifts = _shifts(config.eps, config.tau)

    @functools.cached_property
    def lu(self):
        """The factors of ``picard_matrix``, one set per domain and shift pair:
        a miss drops the one cached set before it factors."""
        key = (self.dom, self.shifts)
        lus = _SCHUR_FACTORS.get(key)
        if lus is None:
            _SCHUR_FACTORS.clear()
            lus = _SCHUR_FACTORS[key] = [splu(m) for m in self.picard_matrix()]
        return lus

    def residual(self, w, mu, start=None):
        if not (np.isfinite(w).all() and np.isfinite(mu).all()):
            raise StepError("nonlinear iterate is not finite")
        dom = self.dom
        gc, A = dom.combined_mass, dom.coupled_stiffness
        eps = self.cfg.eps
        j, xi, slope = _graph_terms(dom, self.cfg.graphs, eps, w + self.m0, start)
        gc_dw = self.gc_tau * (w - self.w_prev)
        eps_dw = eps * gc_dw
        # Ac annihilates constants: centring mu first keeps a large mean of mu
        # out of the rounding of Ac mu
        mu_c = mu - float(gc @ mu) / self.gc_sum
        gc_mu, a_mu, a_w = gc * mu, A @ mu_c, A @ w
        R1 = gc_dw + a_mu
        # an overflow or a non-finite Yosida value makes R2 or a norm inf or
        # NaN, which the step reports as a non-finite merit.  On zero-mean
        # pairs R1 acts as R1_0, R1 less its Mc-weighted mean, and
        # |R1_0|_V0* <= |R1_0|_H* / sqrt(mu2): b1 bounds r1 with no solve
        with np.errstate(over="ignore", invalid="ignore"):
            nvec, d = _mass_weighted(dom, xi), _mass_weighted(dom, slope)
            g = nvec + self.load
            R2 = gc_mu - (eps_dw + a_w + g)
            R1_0 = R1 - (float(R1.sum()) / self.gc_sum) * gc
            b1 = _h_norm(dom, R1_0) / math.sqrt(dom.mu2_lower)
            r2 = _h_norm(dom, R2)
        return _Iterate(w, mu, R1, R2, b1, r2,
                        j, xi, d, g, mu_c, a_mu, (gc_mu, a_w, nvec, self.load, eps_dw))

    def exact_r1(self, it):
        """r1 = |R1|_V0*, one mean-constrained solve."""
        return _dual_norm_collapsed(self.dom, it.R1)

    def lower_r1(self, it):
        """lb1 = b1 sqrt(mu2_lower/lambda_upper) <= r1, no solve: with
        y = Mc^-1/2 R1_0, r1^2 = y.(Mc^-1/2 Ac Mc^-1/2)^+ y is at least
        |y|^2/lambda_max = |R1_0|_H*^2/lambda_max, and lambda_upper >=
        lambda_max."""
        return it.b1 * math.sqrt(self.dom.mu2_lower / self.dom.lambda_upper)

    def scales(self, it):
        """Relative-residual scales (s1, s2) from the individual term norms,
        capped at 10 so accepted steps always satisfy the documented
        10*newton_tol bound on the weak-residual norms.  s1 is the solve-free
        max(1, |Ac mu|_V0*), with |Ac mu|^2 = mu_c.(Ac mu): the other term of
        R1, Mc dw/tau, has a V0* norm within r1 of it."""
        s1 = math.sqrt(max(1.0, float(it.mu_c @ it.a_mu)))
        with np.errstate(over="ignore"):  # an inf term norm caps s2 at 10
            s2 = max([1.0] + [_h_norm(self.dom, t) for t in it.terms2])
        return min(s1, 10.0), min(s2, 10.0)

    def converged(self, it):
        """Whether r1 <= newton_tol s1 and r2 <= newton_tol s2, solving for
        r1 only when neither the bound b1 >= r1 nor lb1 <= r1 decides.

        lb1 rejects only above (1 + _LB1_MARGIN) times the threshold.  b1 and
        the solve start from the same computed R1_0, so the margin need only
        cover rounding.  b1 and lambda_upper are sums of at most n_bulk
        terms, off by at most about n_bulk eps relative (Higham, Accuracy and
        Stability of Numerical Algorithms, 2002, section 3.1), below 2e-12
        for n <= 129.  The solved r1 lay within 1e-14 of its iteratively
        refined value on every iterate of n = 17 and n = 65 runs.  So a
        rejection by lb1 is one the solved r1 makes.
        """
        tol = self.cfg.newton_tol
        if not it.r2 <= 10.0 * tol:  # above every capped scale
            return False
        s1, s2 = self.scales(it)
        return it.r2 <= tol * s2 and (
            it.b1 <= tol * s1
            or (self.lower_r1(it) <= (1.0 + _LB1_MARGIN) * tol * s1
                and self.exact_r1(it) <= tol * s1))

    def mass_shift(self, w):
        """The constant that restores the previous combined mean to w."""
        return (self.mass_prev - float(self.dom.combined_mass @ w)) / self.gc_sum

    def reduce(self, r1, r2):
        """Right-hand side of the reduced system for the block right-hand side (r1, r2)."""
        return r1 - self.dom.coupled_stiffness @ (r2 / self.dom.combined_mass)

    def potential(self, r2, w, d):
        """Back-substitution mu = (r2 + (eps Mc/tau + Ac + D) w)/Mc."""
        dom = self.dom
        return ((r2 + (self.cfg.eps * self.gc_tau + d) * w + dom.coupled_stiffness @ w)
                / dom.combined_mass)

    def schur_solve(self, x):
        """S0^-1 x: -Im((Ac + c1 Mc)^-1 x)/Im c1 by partial fractions over a
        complex pair, else (Ac + c2 Mc)^-1 Mc (Ac + c1 Mc)^-1 x."""
        lus = self.lu
        if len(lus) == 1:
            return -lus[0].solve(x).imag / self.shifts[0].imag
        return lus[1].solve(self.dom.combined_mass * lus[0].solve(x))

    def gram(self, x):
        """G x = S0^-1 Ac Mc^-1 x.  Over a complex pair, x/((x + c1)(x + c2)) =
        Im(c1/(x + c1))/Im c1 makes it one shifted solve,
        Im(c1 (Ac + c1 Mc)^-1 x)/Im c1.  A real pair keeps the product form:
        its partial fractions divide by c1 - c2, which is 0 at a double root."""
        lus = self.lu
        if len(lus) == 1:
            c = self.shifts[0]
            return (c * lus[0].solve(x)).imag / c.imag
        return self.schur_solve(self.dom.coupled_stiffness @ (x / self.dom.combined_mass))

    def jacobian(self, it):
        """The reduced Newton matrix S(D), assembled."""
        gc, A = self.dom.combined_mass, self.dom.coupled_stiffness
        coupling = sp.diags(self.cfg.eps * self.gc_tau + it.d) + A
        return (sp.diags(self.gc_tau) + A @ sp.diags(1.0 / gc) @ coupling).tocsc()

    def picard_matrix(self):
        """The shifted stiffness matrices Ac + c Mc whose factors give S0^-1."""
        return [self.dom.shifted(c) for c in self.shifts]


def _newton_direction(system, it, rtol=_CG_RTOL):
    """(Newton direction dw, CG iterations) at an iterate, or None if CG stalls.

    S(D) = S0 + Ac Mc^-1 D, and G = S0^-1 Ac Mc^-1 is symmetric positive
    semidefinite as S0 Mc^-1 is a polynomial in Ac Mc^-1.  With b = S0^-1 rhs
    and s = sqrt(D) (monotone graphs have Yosida slopes D >= 0), S(D) dw = rhs
    is the SPD system (I + s G s) z = s b for z = s dw, and dw = b - G (s z).
    CG runs on it until its residual is ``rtol`` times |s b|; each iteration
    applies G once, to s p, and G (s z) is accumulated from those products,
    so z itself is never formed.  Where D = 0, CG takes no iteration and dw = b.
    """
    s = np.sqrt(it.d)
    b = system.schur_solve(system.reduce(-it.R1, -it.R2))
    r = s * b
    p, g_sz = r.copy(), np.zeros_like(r)
    rr = float(r @ r)
    stop = rtol * rtol * rr
    for k in range(_CG_MAXITER + 1):
        if rr <= stop:
            return b - g_sz, k
        if k == _CG_MAXITER:
            return None
        q = system.gram(s * p)
        ap = p + s * q
        alpha = rr / float(p @ ap)
        g_sz += alpha * q
        r -= alpha * ap
        rr, rr_prev = float(r @ r), rr
        p *= rr / rr_prev
        p += r


def _solve_step(system, w0, mu0, j0):
    """Damped Newton with Picard fallback from (w0, mu0), w0 first shifted to
    the conserved mean, as is each direction dw before dmu is back-substituted.
    The first residual warm-starts its resolvents from the pair j0, each
    later one from those of the iterate it follows.

    Each direction is solved to the relative CG tolerance of the
    Eisenstat-Walker forcing term (choice 2): 0.9 (m_k/m_{k-1})^2 for the
    merit m = hypot(b1, r2), _CG_ETA_MAX at the first iterate, held in
    [max(_CG_RTOL, 0.5 newton_tol/m_k), _CG_ETA_MAX] with the upper bound
    winning if the two cross.  newton_max iterations in all, or a non-finite
    merit, end the step with a StepError naming the stage and both residuals,
    the exact r1 where R1 is finite and the bound b1 where it is not.

    Returns (iterate, nonlinear iterations, CG iterations).
    """
    cfg = system.cfg
    it = system.residual(w0 + system.mass_shift(w0), mu0.copy(), j0)
    iters = lin_iters = 0
    merit_prev, stage = None, "Newton"
    while not system.converged(it):
        merit = math.hypot(it.b1, it.r2)
        if iters == cfg.newton_max or not math.isfinite(merit):
            r1 = system.exact_r1(it) if np.isfinite(it.R1).all() else it.b1
            raise StepError(f"{stage} did not converge in {iters} iterations "
                            f"(residuals {r1:.3e}, {it.r2:.3e})")
        eta = _CG_ETA_MAX if merit_prev is None else 0.9 * (merit / merit_prev) ** 2
        eta = min(_CG_ETA_MAX, max(eta, _CG_RTOL, 0.5 * cfg.newton_tol / merit))
        merit_prev = merit
        direction, trial = _newton_direction(system, it, eta), None
        if direction is not None:
            dw, n_lin = direction
            lin_iters += n_lin
            dw = dw + system.mass_shift(it.w + dw)
            dmu = system.potential(-it.R2, dw, it.d)
            for lam in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
                trial = system.residual(it.w + lam * dw, it.mu + lam * dmu, it.j)
                merit_try = math.hypot(trial.b1, trial.r2)
                if merit_try <= (1.0 - 1e-4 * lam) * merit or merit_try <= cfg.newton_tol:
                    break
            else:
                trial = None
            iters += 1
        if trial is None:  # CG stalled or the line search failed
            stage = "Picard fallback"
            trial, iters = _solve_picard(system, it, iters)
        it = trial
    return it, iters, lin_iters


def _solve_picard(system, it, iters):
    """Frozen-nonlinearity fixed-point iteration, each iterate an exact S0 solve,
    until the step converges, its merit is not finite or newton_max is spent."""
    r1 = system.gc_tau * system.w_prev
    while not (system.converged(it) or iters == system.cfg.newton_max
               or not math.isfinite(math.hypot(it.b1, it.r2))):
        r2 = it.g - system.cfg.eps * r1
        w = system.schur_solve(system.reduce(r1, r2))
        w = w + system.mass_shift(w)
        iters += 1
        it = system.residual(w, system.potential(r2, w, 0.0), it.j)
    return it, iters


def step(state, config, f_next, *, start=None):
    """Advance one time level.

    ``f_next`` is the forcing pair at the target time; backward Euler samples
    the forcing there.  The factors of S0 are built once per mesh, eps and
    tau (see ``_StepSystem.lu``).  ``start`` is a pair of bulk arrays
    (w0, mu0) from which the Newton iteration starts, by default the old
    state (v, mu).  Either w0 is first shifted by the constant that restores
    the old combined mean, so a step that converges at its start conserves
    the mean as every other step does; for the old state that constant is
    exactly 0.  The resolvents of the first iterate start from the old
    level's ``j``.

    Returns the new state; raises StepError if the nonlinear solve fails.
    """
    dom = state.v.domain
    system = _StepSystem(dom, config, state.m0, state.v.bulk, f_next)
    w0, mu0 = (state.v.bulk, state.mu.bulk) if start is None else start
    it, iters, lin_iters = _solve_step(system, w0, mu0, (state.j.bulk, state.j.boundary))
    xi = FieldPair(*it.xi, dom)
    offset = _offset_pair(config.graphs, xi, state.v.bulk + state.m0, f_next)
    return SchemeState(v=FieldPair.from_bulk(dom, it.w),
                       mu=FieldPair.from_bulk(dom, it.mu),
                       xi=xi,
                       j=FieldPair(*it.j, dom),
                       omega=mean(offset),
                       t=state.t + config.tau,
                       m0=state.m0,
                       z=state.z - config.tau * it.mu_c,
                       a_vv=float(it.w @ it.terms2[1]),  # terms2[1] is Ac w
                       a_mumu=float(it.mu_c @ it.a_mu),
                       newton_iters=iters,
                       lin_iters=lin_iters)


def weak_residuals(state_prev, state_next, config, f_next):
    """Residual norms of the two weak equations across one step.

    Returns the dual norm (over zero-mean tests) of the conservation-equation
    residual and the combined square-integrable dual norm of the
    potential-equation residual.
    """
    system = _StepSystem(state_prev.v.domain, config, state_prev.m0, state_prev.v.bulk, f_next)
    it = system.residual(state_next.v.bulk, state_next.mu.bulk)
    return system.exact_r1(it), it.r2


# the number of past levels the Newton start is extrapolated from, at most
_PREDICTOR_LEVELS = 4


def _extrapolate(levels):
    """The value one level on of the polynomial in time through equally
    spaced levels, oldest first, each a tuple of arrays: for m levels,
    sum_i (-1)^i C(m, i+1) x_{n-i}, which is 2 x_n - x_{n-1} for two,
    3 x_n - 3 x_{n-1} + x_{n-2} for three and
    4 x_n - 6 x_{n-1} + 4 x_{n-2} - x_{n-3} for four.  It is exact for
    polynomials of degree below m.  Returns one array per slot of a level."""
    m = len(levels)
    weights = [(-1) ** i * math.comb(m, i + 1) for i in range(m)]
    return tuple(sum(c * x for c, x in zip(weights, slot))
                 for slot in zip(*reversed(levels)))


def run(config, u0, forcing=None):
    """Integrate from t = 0 to t_end, collecting the states; the trajectory
    computes their monitor records when they are first read.

    ``forcing`` is an optional callable t -> FieldPair, sampled at the time
    t recorded by each level; None is zero forcing.  Step k >= 2 starts
    Newton from ``_extrapolate`` of v and mu through the last min(4, k)
    levels, which ``run`` keeps in a history of four apart from the
    trajectory.  A failure in any step ends the run and returns the partial
    trajectory flagged.
    """
    state = initialize(config, u0, None if forcing is None else forcing(0.0))
    traj = Trajectory(config=config, m0=state.m0, states=[state])
    past = deque([(state.v.bulk, state.mu.bulk)], maxlen=_PREDICTOR_LEVELS)
    nsteps = max(0, int(math.ceil(config.t_end / config.tau - 1e-9)))
    for k in range(1, nsteps + 1):
        t = state.t + config.tau  # the time step() gives the new level
        f_next = None if forcing is None else forcing(t)
        start = _extrapolate(past) if k > 1 else None
        try:
            state = step(state, config, f_next, start=start)
        except ChbsError as exc:
            traj.aborted = True
            traj.error = f"step {k} (t = {t!r}): {exc}"
            break
        traj.states.append(state)
        past.append((state.v.bulk, state.mu.bulk))
    return traj
