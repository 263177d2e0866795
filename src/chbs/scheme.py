"""Backward-Euler time stepping for the regularized bulk/boundary flow.

Each step solves the coupled nodal system for the zero-mean order parameter
``v`` and the chemical potential ``mu`` (both trace-consistent, so the
unknowns are two bulk-sized vectors)

    Mc (v' - v)/tau + Ac mu' = 0,
    Mc mu' = eps Mc (v' - v)/tau + Ac v' + N(u') + P(u*) - F,

where Mc and Ac are the combined lumped mass and coupled stiffness in bulk
coordinates, N collects the mass-weighted nodewise Yosida terms (bulk graph
in the bulk, boundary graph with parameter eps*rho on the chain), P the
perturbation terms, and F the load vector of the forcing pair sampled at the
new time.  Under the default convex splitting the perturbation argument u*
is the old state, which makes the discrete free energy nonincreasing for
zero forcing; the fully implicit variant evaluates it at the new state.

Testing the first equation with the constant pair shows the combined mean of
``v`` is conserved algebraically; every computed update is shifted by the
constant that restores the mean, whichever linear solver produced it.  The
solver is a damped Newton iteration with a Picard fallback for the kinked
obstacle graph.  Mc is diagonal, so every linear system eliminates mu
exactly.  What remains is bulk-sized, and its constant part, the Schur
complement

    S0 = Mc/tau + (eps/tau) Ac + Ac Mc^-1 Ac = (Ac + c1 Mc) Mc^-1 (Ac + c2 Mc)

with c1, c2 the roots of x^2 - (eps/tau) x + 1/tau, needs only the shifted
stiffness Ac + c Mc factored: once per run, one complex factor when
eps^2 < 4 tau and two real ones otherwise.  S0^-1 preconditions GMRES for
the Newton directions and solves each Picard iterate exactly; a fresh LU of
the reduced Newton matrix is the fallback when GMRES stalls.

Newton starts from the old state, or from a start passed as ``step(...,
start=(w0, mu0))``, whose w0 is first shifted to the conserved mean.  From
its second step on, ``run`` passes the linear extrapolation 2 x_n - x_{n-1}
of the last two levels, which is O(tau^2) from the new level on a smooth
solution where the old state is O(tau), and so saves Newton iterations.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .domain import integrate_bulk, integrate_surf
from .errors import ChbsError, CompatibilityError, ConfigError, StepError
from .monotone import (GraphPair, beta_hat, envelope, envelope_boundary,
                       yosida, yosida_and_slope, yosida_boundary)
from .spaces import (FieldPair, as_functional, form_a, inner_V, mean,
                     norm_V0, norm_V0_star, project_zero_mean, subgrad_phi,
                     _saddle_solve, is_trace_consistent)

CONVEX_SPLIT = "convex_split"
FULLY_IMPLICIT = "fully_implicit"

_PICARD_BUDGET_FACTOR = 20
# Newton directions: GMRES relative tolerance, restart length, restart cycles
_GMRES_RTOL = 1e-10
_GMRES_RESTART = 20
_GMRES_MAXITER = 5


@dataclass(frozen=True)
class SchemeConfig:
    """Parameters of one regularized backward-Euler run.

    ``eps`` weights both the time-derivative term of the potential equation
    and the Yosida regularization.  The conserved mean is not a parameter:
    it is fixed by the initial data.
    """

    eps: float
    tau: float
    t_end: float
    graphs: GraphPair
    newton_tol: float = 1e-10
    newton_max: int = 50
    splitting: str = CONVEX_SPLIT

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ConfigError("eps must lie in (0,1]")
        if not self.tau > 0.0:
            raise ConfigError("tau must be positive")
        if self.t_end < 0.0:
            raise ConfigError("t_end must be nonnegative")
        ratio = self.eps / self.tau
        if not all(map(math.isfinite, (1.0 / self.tau, self.t_end / self.tau, ratio * ratio))):
            raise ConfigError("tau is too small: 1/tau, t_end/tau and (eps/tau)^2 "
                              "must be finite")
        if self.splitting not in (CONVEX_SPLIT, FULLY_IMPLICIT):
            raise ConfigError(f"splitting must be one of {CONVEX_SPLIT}, "
                              f"{FULLY_IMPLICIT}; got {self.splitting!r}")
        if not self.newton_tol > 0.0:
            raise ConfigError("newton_tol must be positive")
        if self.newton_max < 1:
            raise ConfigError("newton_max must be at least 1")


@dataclass(frozen=True)
class SchemeState:
    """One time level: zero-mean order parameter, potential, Yosida values.

    ``xi`` holds the nodewise Yosida evaluations of u = v + m0 (bulk graph in
    the bulk slot, boundary graph with parameter eps*rho in the boundary
    slot).  ``m0`` is the conserved combined mean of the run.
    """

    v: FieldPair
    mu: FieldPair
    xi: FieldPair
    omega: float
    t: float
    m0: float
    newton_iters: int = 0
    lin_iters: int = 0
    lu_fallbacks: int = 0


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
    lu_fallbacks: int

    @classmethod
    def fields(cls):
        return list(cls.__dataclass_fields__)


@dataclass
class Trajectory:
    """A completed (or aborted) run: states, records, and forcing samples."""

    config: SchemeConfig
    m0: float
    states: List[SchemeState]
    records: List[MonitorRecord]
    f_hist: List[FieldPair] = field(default_factory=list)
    aborted: bool = False
    error: Optional[str] = None


# --- nodewise assembly helpers -------------------------------------------

def _collapse(dom, bulk_vals, bnd_vals):
    """Mass-weighted collapse of bulk and chain nodal values onto bulk nodes."""
    out = dom.M_bulk * bulk_vals
    out[dom.boundary_chain] += dom.M_surf * bnd_vals
    return out


def _load_vector(dom, f):
    """Mass-weighted load of a forcing pair in bulk coordinates."""
    if f is None:
        return np.zeros(dom.n_bulk)
    return _collapse(dom, f.bulk, f.boundary)


def _perturbation_vector(dom, pair, u_bulk):
    return _collapse(dom, pair.bulk.pi_slope * u_bulk,
                     pair.boundary.pi_slope * u_bulk[dom.boundary_chain])


def _offset_pair(pair, xi, u_bulk, u_bnd, f):
    """The pair xi + pi(u*) - f at perturbation argument u* = (u_bulk, u_bnd);
    its mean is the offset omega of a state.  ``f`` None is zero forcing."""
    dom = xi.domain
    f = f if f is not None else FieldPair.zeros(dom)
    return FieldPair(xi.bulk + pair.bulk.pi_slope * u_bulk - f.bulk,
                     xi.boundary + pair.boundary.pi_slope * u_bnd - f.boundary, dom)


def _graph_terms(dom, pair, eps, u_bulk):
    """Yosida pair at bulk values u, its mass-weighted collapse, and the
    collapsed Yosida slopes; one resolvent evaluation per graph."""
    xi_b, slope_b = yosida_and_slope(pair.bulk, eps, u_bulk)
    xi_g, slope_g = yosida_and_slope(pair.boundary, eps * pair.rho,
                                     u_bulk[dom.boundary_chain])
    return xi_b, xi_g, _collapse(dom, xi_b, xi_g), _collapse(dom, slope_b, slope_g)


# --- energy ----------------------------------------------------------------

def _energy_parts(v, m0, config):
    """The free energy at u = v + m0 and its two envelope integrals."""
    dom, pair = v.domain, config.graphs
    u_b, u_g = v.bulk + m0, v.boundary + m0
    env_bulk = float(dom.M_bulk @ envelope(pair.bulk, config.eps, u_b))
    env_surf = float(dom.M_surf @ envelope_boundary(pair, config.eps, u_g))
    e = 0.5 * form_a(v, v) + env_bulk + env_surf
    # m0 * m0 rounds like numpy's square of u; the float power m0 ** 2 may not
    s_b, s_g, m0_sq = pair.bulk.pi_slope, pair.boundary.pi_slope, m0 * m0
    e += float(dom.M_bulk @ (0.5 * s_b * u_b ** 2 - 0.5 * s_b * m0_sq))
    e += float(dom.M_surf @ (0.5 * s_g * u_g ** 2 - 0.5 * s_g * m0_sq))
    return e, env_bulk, env_surf


def energy(v, m0, config):
    """Discrete free energy of the state u = v + m0.

    Gradient part plus lumped Moreau-envelope integrals (parameter eps in
    the bulk, eps*rho on the boundary) plus the perturbation primitives
    normalized to vanish at m0.
    """
    return _energy_parts(v, m0, config)[0]


def monitor_record(state, config):
    dom = state.v.domain
    u_b = state.v.bulk + state.m0
    u_g = state.v.boundary + state.m0
    total_mass = integrate_bulk(dom, u_b) + integrate_surf(dom, u_g)
    e, env_bulk, env_surf = _energy_parts(state.v, state.m0, config)
    return MonitorRecord(
        t=state.t,
        total_mass=total_mass,
        energy=e,
        norm_v_V0=norm_V0(state.v),
        norm_v_V0star=norm_V0_star(as_functional(state.v)),
        norm_mu_V=float(np.sqrt(max(inner_V(state.mu, state.mu), 0.0))),
        l1_xi_bulk=float(dom.M_bulk @ np.abs(state.xi.bulk)),
        l1_xi_surf=float(dom.M_surf @ np.abs(state.xi.boundary)),
        envelope_integral_bulk=env_bulk,
        envelope_integral_surf=env_surf,
        omega=state.omega,
        newton_iters=state.newton_iters,
        lin_iters=state.lin_iters,
        lu_fallbacks=state.lu_fallbacks,
    )


# --- initialization ---------------------------------------------------------

def initialize(config, u0, forcing_at_0=None):
    """Build the initial state from trace-consistent initial data.

    The conserved mean is recorded from the data; the potential, Yosida pair
    and mean offset are evaluated with a zero time-derivative surrogate.
    Raises ConfigError if the forcing at t = 0 makes the potential or the
    mean offset non-finite.
    """
    dom = u0.domain
    pair = config.graphs
    if not is_trace_consistent(u0):
        raise ValueError("initialize: initial data must be trace-consistent")
    for name, g, vals in (("bulk", pair.bulk, u0.bulk),
                          ("boundary", pair.boundary, u0.boundary)):
        bad = ~np.isfinite(beta_hat(g, vals))
        if bad.any():
            node = int(np.argmax(bad))
            raise CompatibilityError(
                f"initial value {float(vals[node])!r} at {name} node {node} lies "
                f"outside the effective domain of the {name} graph")
    m0 = mean(u0)
    if not pair.boundary.domain_lo < m0 < pair.boundary.domain_hi:
        raise CompatibilityError(
            f"conserved mean {m0!r} is not interior to the boundary graph domain")

    v0 = project_zero_mean(u0)
    xi = FieldPair(yosida(pair.bulk, config.eps, u0.bulk),
                   yosida_boundary(pair, config.eps, u0.boundary), dom)
    rest = _offset_pair(pair, xi, u0.bulk, u0.boundary, forcing_at_0)
    mu0 = subgrad_phi(v0) + rest
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        omega = mean(rest)
    if not (math.isfinite(omega) and np.isfinite(mu0.bulk).all()
            and np.isfinite(mu0.boundary).all()):
        raise ConfigError(f"the forcing at t = 0 gives a non-finite initial potential "
                          f"or mean offset (omega = {omega!r})")
    return SchemeState(v=v0, mu=mu0, xi=xi, omega=omega, t=0.0, m0=m0)


# --- the nonlinear step -----------------------------------------------------

def _dual_norm(dom, vec):
    return math.sqrt(max(float(vec @ _saddle_solve(dom, vec)), 0.0))


def _h_norm(dom, vec):
    return math.sqrt(float(vec @ (vec / dom.combined_mass)))


# one evaluation at (w, mu): residuals and their norms, the Yosida pair, the
# Jacobian diagonal d, the load g = N + P - F, and the terms of the scales
_Iterate = namedtuple("_Iterate", "w mu R1 R2 r1 r2 xi_b xi_g d g terms1 terms2")


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
    between iterates and steps.  ``lu`` factors the shifted stiffness
    matrices of ``picard_matrix`` on first use unless the run passes in the
    factors it already holds.
    """

    def __init__(self, dom, config, m0, w_prev, f_vec, lu=None):
        self.dom = dom
        self.cfg = config
        self.m0 = m0
        self.w_prev = w_prev
        self.f_vec = f_vec
        self.gc_tau = dom.combined_mass / config.tau
        self.mass_prev = float(dom.combined_mass @ w_prev)
        self.implicit_pi = config.splitting == FULLY_IMPLICIT
        self.pi_vec_prev = (None if self.implicit_pi else
                            _perturbation_vector(dom, config.graphs, w_prev + m0))
        self.shifts = _shifts(config.eps, config.tau)
        self._lu = lu

    @property
    def lu(self):
        if self._lu is None:
            self._lu = [splu(m) for m in self.picard_matrix()]
        return self._lu

    def residual(self, w, mu):
        if not (np.isfinite(w).all() and np.isfinite(mu).all()):
            raise StepError("nonlinear iterate is not finite")
        dom, pair = self.dom, self.cfg.graphs
        gc, A = dom.combined_mass, dom.coupled_stiffness
        u_b = w + self.m0
        xi_b, xi_g, nvec, d = _graph_terms(dom, pair, self.cfg.eps, u_b)
        pivec = self.pi_vec_prev
        if self.implicit_pi:
            pivec = _perturbation_vector(dom, pair, u_b)
            d = d + _collapse(dom, pair.bulk.pi_slope, pair.boundary.pi_slope)
        gc_dw = self.gc_tau * (w - self.w_prev)
        eps_dw = self.cfg.eps * gc_dw
        gc_mu, a_mu, a_w, load = gc * mu, A @ mu, A @ w, pivec - self.f_vec
        g = nvec + load
        R1 = gc_dw + a_mu
        R2 = gc_mu - (eps_dw + a_w + g)
        return _Iterate(w, mu, R1, R2, _dual_norm(dom, R1), _h_norm(dom, R2),
                        xi_b, xi_g, d, g, (gc_dw, a_mu), (gc_mu, a_w, nvec, load, eps_dw))

    def scales(self, it):
        # relative-residual scales from the individual term norms, capped at
        # 10 so accepted steps always satisfy the documented 10*newton_tol
        # bound on the weak-residual norms
        s1 = max([1.0] + [_dual_norm(self.dom, t) for t in it.terms1])
        s2 = max([1.0] + [_h_norm(self.dom, t) for t in it.terms2])
        return min(s1, 10.0), min(s2, 10.0)

    def converged(self, it):
        # the scales are capped at 10, so iterates above 10*tol skip them
        tol = self.cfg.newton_tol
        if it.r1 > 10.0 * tol or it.r2 > 10.0 * tol:
            return False
        s1, s2 = self.scales(it)
        return it.r1 <= tol * s1 and it.r2 <= tol * s2

    def mass_shift(self, w):
        """The constant that restores the previous combined mean to w."""
        gc = self.dom.combined_mass
        return (self.mass_prev - float(gc @ w)) / float(gc.sum())

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

    def jacobian(self, it):
        """The reduced Newton matrix S(D), assembled."""
        gc, A = self.dom.combined_mass, self.dom.coupled_stiffness
        coupling = sp.diags(self.cfg.eps * self.gc_tau + it.d) + A
        return (sp.diags(self.gc_tau) + A @ sp.diags(1.0 / gc) @ coupling).tocsc()

    def picard_matrix(self):
        """The shifted stiffness matrices Ac + c Mc whose factors give S0^-1."""
        gc, A = self.dom.combined_mass, self.dom.coupled_stiffness
        return [(A + sp.diags(c * gc)).tocsc() for c in self.shifts]


def _newton_direction(system, it):
    """Newton direction at an iterate: (dw, dmu, GMRES iterations, LU fallback).

    GMRES solves the reduced system for dw, preconditioned by the exact
    S0^-1; if it does not converge, a fresh LU of the assembled S(D) solves
    instead.  dw is shifted so the combined mean stays exact before dmu is
    back-substituted, so the pair solves the Newton system for the shifted dw.
    """
    nb, A = system.dom.n_bulk, system.dom.coupled_stiffness
    shape = (nb, nb)
    r2 = -it.R2
    rhs = system.reduce(-it.R1, r2)

    def reduced(x):
        # S(D) x = Mc x/tau + Ac mu(x), mu(x) the back-substitution with r2 = 0
        return system.gc_tau * x + A @ system.potential(0.0, x, it.d)

    history = []
    dw, info = gmres(
        LinearOperator(shape, matvec=reduced, dtype=float),
        rhs, rtol=_GMRES_RTOL, restart=_GMRES_RESTART, maxiter=_GMRES_MAXITER,
        M=LinearOperator(shape, matvec=system.schur_solve, dtype=float),
        callback=history.append, callback_type="pr_norm")
    if info != 0:
        dw = splu(system.jacobian(it)).solve(rhs)
    dw = dw + system.mass_shift(it.w + dw)
    return dw, system.potential(r2, dw, it.d), len(history), int(info != 0)


def _solve_step(system, w0, mu0):
    """Damped Newton with Picard fallback.

    Returns (iterate, nonlinear iterations, GMRES iterations, LU fallbacks).
    """
    cfg = system.cfg
    tol = cfg.newton_tol
    it = system.residual(w0.copy(), mu0.copy())
    iters = lin_iters = lu_fallbacks = 0
    for _ in range(cfg.newton_max):
        if system.converged(it):
            return it, iters, lin_iters, lu_fallbacks
        dw, dmu, n_lin, fallback = _newton_direction(system, it)
        lin_iters += n_lin
        lu_fallbacks += fallback
        merit = math.hypot(it.r1, it.r2)
        lam = 1.0
        accepted = False
        for _halving in range(6):
            trial = system.residual(it.w + lam * dw, it.mu + lam * dmu)
            merit_try = math.hypot(trial.r1, trial.r2)
            if merit_try <= (1.0 - 1e-4 * lam) * merit or merit_try <= tol:
                accepted = True
                break
            lam *= 0.5
        iters += 1
        if not accepted:
            it, iters = _solve_picard(system, it, iters)
            return it, iters, lin_iters, lu_fallbacks
        it = trial
    if system.converged(it):
        return it, iters, lin_iters, lu_fallbacks
    raise StepError(f"Newton did not converge in {cfg.newton_max} iterations "
                    f"(residuals {it.r1:.3e}, {it.r2:.3e})", residual=(it.r1, it.r2))


def _solve_picard(system, it, iters):
    """Frozen-nonlinearity fixed-point iteration, each iterate an exact S0 solve."""
    r1 = system.gc_tau * system.w_prev
    budget = _PICARD_BUDGET_FACTOR * system.cfg.newton_max
    for _ in range(budget):
        r2 = it.g - system.cfg.eps * r1
        w = system.schur_solve(system.reduce(r1, r2))
        w = w + system.mass_shift(w)
        iters += 1
        it = system.residual(w, system.potential(r2, w, 0.0))
        if system.converged(it):
            return it, iters
    raise StepError(f"Picard fallback did not converge in {budget} iterations "
                    f"(residuals {it.r1:.3e}, {it.r2:.3e})", residual=(it.r1, it.r2))


def step(state, config, f_next, *, lu=None, start=None):
    """Advance one time level.

    ``f_next`` is the forcing pair at the target time; backward Euler samples
    the forcing there.  ``lu`` holds the factors of the shifted stiffness
    matrices that give the Schur complement S0 (see ``_StepSystem``); ``run``
    passes them so that they are factored once per run, and a lone step
    factors its own.  ``start`` is a pair of bulk arrays (w0, mu0) from which
    the Newton iteration starts, by default the old state (v, mu).  A given
    w0 is first shifted by the constant that restores the old combined mean,
    so a step that converges at its start conserves the mean as every other
    step does; the default start already has that mean and is not shifted.

    Returns the new state; raises StepError if the nonlinear solve fails.
    """
    dom = state.v.domain
    system = _StepSystem(dom, config, state.m0, state.v.bulk,
                         _load_vector(dom, f_next), lu)
    if start is None:
        w0, mu0 = state.v.bulk, state.mu.bulk
    else:
        w0, mu0 = start
        w0 = w0 + system.mass_shift(w0)
    it, iters, lin_iters, lu_fallbacks = _solve_step(system, w0, mu0)

    u_star = (it.w if config.splitting == FULLY_IMPLICIT else state.v.bulk) + state.m0
    xi = FieldPair(it.xi_b, it.xi_g, dom)
    offset = _offset_pair(config.graphs, xi, u_star, u_star[dom.boundary_chain], f_next)
    return SchemeState(v=FieldPair.from_bulk(dom, it.w),
                       mu=FieldPair.from_bulk(dom, it.mu),
                       xi=xi,
                       omega=mean(offset),
                       t=state.t + config.tau,
                       m0=state.m0,
                       newton_iters=iters,
                       lin_iters=lin_iters,
                       lu_fallbacks=lu_fallbacks)


def weak_residuals(state_prev, state_next, config, f_next):
    """Residual norms of the two weak equations across one step.

    Returns the dual norm (over zero-mean tests) of the conservation-equation
    residual and the combined square-integrable dual norm of the
    potential-equation residual.
    """
    dom = state_prev.v.domain
    system = _StepSystem(dom, config, state_prev.m0, state_prev.v.bulk,
                         _load_vector(dom, f_next))
    it = system.residual(state_next.v.bulk, state_next.mu.bulk)
    return it.r1, it.r2


def run(config, u0, forcing=None):
    """Integrate from t = 0 to t_end, collecting states and monitor records.

    ``forcing`` is an optional callable t -> FieldPair.  From the second
    step on, Newton starts from the linear extrapolation 2 x_n - x_{n-1} of
    the last two levels, for x = v and mu.  A failure in any step ends the
    run and returns the partial trajectory flagged.
    """
    dom = u0.domain

    def f_at(t):
        return forcing(t) if forcing is not None else FieldPair.zeros(dom)

    state = initialize(config, u0, forcing_at_0=f_at(0.0))
    traj = Trajectory(config=config, m0=state.m0, states=[state],
                      records=[monitor_record(state, config)])
    # S0 is the same at every step: factor its shifted stiffness once per run
    lu = _StepSystem(dom, config, state.m0, state.v.bulk, None).lu
    nsteps = max(0, int(math.ceil(config.t_end / config.tau - 1e-9)))
    for k in range(1, nsteps + 1):
        f_next = f_at(k * config.tau)
        start = None
        if k > 1:
            prev = traj.states[-2]
            start = (2.0 * state.v.bulk - prev.v.bulk, 2.0 * state.mu.bulk - prev.mu.bulk)
        try:
            state = step(state, config, f_next, lu=lu, start=start)
            record = monitor_record(state, config)
        except ChbsError as exc:
            traj.aborted = True
            traj.error = f"step {k} (t = {k * config.tau!r}): {exc}"
            break
        traj.f_hist.append(f_next)
        traj.states.append(state)
        traj.records.append(record)
    return traj
