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

Runs that share the domain and the config, such as the pair of a cont-dep
at one tau, step in lockstep (``_run_members``): the runs are the rows of
(k, n) arrays, and each residual, CG iteration and line-search trial serves
every row still iterating, the Schur factors solving for all rows at once.
Each row is computed with the operations of its run alone, so every member
is bit-identical to its ``run``; ``run`` and ``step`` are the one-row case.
One row is kept as plain vectors, with scalar residual norms: stepping it
as a (1, n) array ran a 100-step n = 17 run 25-37% slower, from numpy's
cost per broadcast and per array of row scalars.
"""

from __future__ import annotations

import copy
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
        bnd = [b.take(chain, axis=-1) for b in bulk]
    else:
        bnd = yosida_and_slope(pair.boundary, eps * pair.rho, u.take(chain, axis=-1),
                               start=s_bnd)
    return list(zip(bulk, bnd))


def _mass_weighted(dom, z, masses=None):
    """Bulk-node coefficients of (M_bulk b, M_surf g), z = (b, g), on
    trace-consistent tests: Mc b plus M_surf (g - b[chain]) on the chain,
    exactly Mc b when g is the trace of b.  A non-finite b leaves them
    non-finite (NaN where g - b[chain] is inf - inf).  Over a stack of rows,
    ``masses`` are the ``_StepSystem.masses`` of the rows."""
    b, g = z
    chain = dom.boundary_chain
    if masses is None:
        out = dom.combined_mass * b
        out[chain] += dom.M_surf * (g - b[chain])
        return out
    mc, m_surf, flat_chain = masses
    out = mc * b
    out.reshape(-1)[flat_chain] += (m_surf * (g - b.take(chain, axis=-1))).reshape(-1)
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
    """The lumped dual norm sqrt(vec.(vec/Mc)), one per row of a stack."""
    sq = _dot(vec, vec / dom.combined_mass)
    return math.sqrt(sq) if vec.ndim == 1 else np.sqrt(sq)


def _csr_kernel():
    """SciPy's CSR product kernel, the one A @ x calls, if it imports and
    gives A @ x to the bit on a small matrix; None otherwise."""
    try:
        from scipy.sparse._sparsetools import csr_matvec
        a = sp.random(7, 7, density=0.5, format="csr", random_state=0) + sp.eye(7, format="csr")
        x, y = np.linspace(-1.0, 2.0, 7), np.zeros(7)
        csr_matvec(7, 7, a.indptr, a.indices, a.data, x, y)
        return csr_matvec if np.array_equal(y, a @ x) else None
    except Exception:  # another SciPy may keep its kernels elsewhere or change them
        return None


_CSR_MATVEC = _csr_kernel()


def _spmv(A, x):
    """A @ x for the CSR matrix A, one product per row of a stack of rows,
    so that each row gets the bits it gets alone.  Each product calls the
    CSR kernel that A @ x calls, without the dispatch around it, which at
    n = 17 takes 4.5 of the 5.5 us of A @ x; it is A @ x itself where
    ``_csr_kernel`` found no kernel that matches it."""
    out = np.zeros(x.shape[:-1] + A.shape[:1])
    for row, dest in zip(x, out) if x.ndim > 1 else ((x, out),):
        if _CSR_MATVEC is None:
            dest[...] = A @ row
        else:
            _CSR_MATVEC(*A.shape, A.indptr, A.indices, A.data, row, dest)
    return out


def _dot(x, y):
    """x.y, one per row of a stack of rows x: a float for one row."""
    return float(x @ y) if x.ndim == 1 else np.vecdot(x, y)


def _column(x):
    """Per-row scalars x as a column against a stack of rows; a scalar stays."""
    return x[:, None] if isinstance(x, np.ndarray) else x


def _one(rows):
    """A list of one row as that row's index; other lists and indices stay."""
    return rows[0] if isinstance(rows, list) and len(rows) == 1 else rows


def _pick(x, rows):
    """The rows of the stack x: one row's array for one row."""
    return x[_one(rows)]


def _rows(parts):
    """The arrays of ``parts`` as the rows of one array, or the entries of
    tuples of them, slot by slot."""
    if isinstance(parts[0], tuple):
        return tuple(_rows(slot) for slot in zip(*parts))
    return np.array(parts)


class _Iterate(namedtuple("_Iterate", "w mu R1 R2 b1 r2 j xi d g mu_c a_mu terms2")):
    """One evaluation at (w, mu): residuals, the bound b1 on the V0* norm of
    R1 and the H* norm r2 of R2, the resolvent and Yosida pairs (bulk,
    boundary), the Jacobian diagonal d, g = N + P - F, mu less its
    Mc-weighted mean, Ac mu, and the terms of R2.  Over a stack of rows
    every array has a row per run and b1 and r2 hold one value per row."""

    __slots__ = ()

    def take(self, rows):
        """The iterate of ``rows``, a list of rows or one row's index: one
        row gives that row's own iterate, and an iterate of one row is its
        own only row."""
        if self.w.ndim == 1:
            return self
        rows = _one(rows)
        w, mu, R1, R2, b1, r2, j, xi, d, g, mu_c, a_mu, terms2 = self
        return _Iterate(w[rows], mu[rows], R1[rows], R2[rows], b1[rows], r2[rows],
                        (j[0][rows], j[1][rows]), (xi[0][rows], xi[1][rows]), d[rows],
                        g[rows], mu_c[rows], a_mu[rows], tuple(t[rows] for t in terms2))

    @staticmethod
    def stack(parts):
        """The stack of one-row iterates, in order; one part stays itself."""
        if len(parts) == 1:
            return parts[0]
        return _Iterate(*(_rows(slot) for slot in zip(*parts)))


class _NotFinite(StepError):
    """A residual was asked for at an iterate that is not finite; ``rows``
    marks the rows that are not."""

    def __init__(self, rows):
        super().__init__("nonlinear iterate is not finite")
        self.rows = rows


def _not_finite(stage, last=None):
    """The text of the StepError of an iterate that is not finite at
    ``stage``, with the (b1, r2) of the last finite iterate."""
    text = f"nonlinear iterate is not finite at {stage}"
    if last is not None:
        text += f" (last finite iterate: b1 {last[0]:.3e}, r2 {last[1]:.3e})"
    return text


def _shifts(eps, tau):
    """Roots of x^2 - (eps/tau) x + 1/tau: both of a real pair, or the member
    of a complex pair (eps^2 < 4 tau) with positive imaginary part."""
    half = 0.5 * eps / tau
    disc = half * half - 1.0 / tau
    if disc < 0.0:
        return (complex(half, math.sqrt(-disc)),)
    big = half + math.sqrt(disc)
    return big, (1.0 / tau) / big


def _masses(dom, rows):
    """(Mc, M_surf, chain) for a stack of ``rows`` rows: the masses as rows
    of (rows, n) arrays, so that products with the stack do not broadcast
    (a broadcast (2, 289) product costs 1.33 us, one at full shape 0.71 us),
    and the boundary chain of every row as indices into the stack's ravel."""
    return (np.tile(dom.combined_mass, (rows, 1)), np.tile(dom.M_surf, (rows, 1)),
            (np.arange(rows)[:, None] * dom.n_bulk + dom.boundary_chain).ravel())


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

    A system of rows stacks the steps of runs that share the domain and the
    config: ``w_prev`` has a row per run, and ``m0`` and ``f_next`` hold one
    mean and one forcing per row.  Its iterates are stacks of rows too, each
    row computed with the operations, and so to the bits, of its run alone,
    and the factors of S0 serve every row at once.
    """

    def __init__(self, dom, config, m0, w_prev, f_next):
        rows = w_prev.ndim > 1
        self.dom = dom
        self.cfg = config
        self.masses = _masses(dom, len(w_prev)) if rows else None
        self.mc = self.masses[0] if rows else dom.combined_mass
        # a stack keeps each row's mean as a row, so adding it needs no broadcast
        self.m0 = np.repeat(np.asarray(m0)[:, None], dom.n_bulk, axis=1) if rows else m0
        self.w_prev = w_prev
        self.gc_tau = self.mc / config.tau
        self.gc_sum = float(dom.combined_mass.sum())
        self.mass_prev = _dot(w_prev, dom.combined_mass)
        pair, u_prev = config.graphs, w_prev + self.m0
        self.load = _collapse(dom, dom.M_bulk * (pair.bulk.pi_slope * u_prev),
                              dom.M_surf * (pair.boundary.pi_slope
                                            * u_prev.take(dom.boundary_chain, axis=-1)))
        for row, f in enumerate(f_next) if rows else [(..., f_next)]:
            if f is not None:
                self.load[row] -= _collapse(dom, dom.M_bulk * f.bulk, dom.M_surf * f.boundary)
        self.shifts = _shifts(config.eps, config.tau)

    def take(self, rows):
        """The system of ``rows``, a list of rows or one row's index, with
        the same factors: one row gives that row's own system, and a system
        of one row is its own only row."""
        if self.w_prev.ndim == 1:
            return self
        rows = _one(rows)
        out = copy.copy(self)
        if isinstance(rows, list):  # the rows of the masses are alike: keep the first
            mc, m_surf, flat_chain = self.masses
            k = len(rows)
            out.masses = mc[:k], m_surf[:k], flat_chain[:k * len(self.dom.boundary_chain)]
            out.mc = out.masses[0]
        else:
            out.masses, out.mc = None, self.dom.combined_mass
        out.m0, out.w_prev, out.gc_tau, out.mass_prev, out.load = (
            self.m0[rows], self.w_prev[rows], self.gc_tau[rows], self.mass_prev[rows],
            self.load[rows])
        return out

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
        """The iterate at (w, mu); raises a StepError whose ``rows`` marks the
        rows of an iterate that is not finite."""
        if not (np.isfinite(w).all() and np.isfinite(mu).all()):
            raise _NotFinite(~(np.isfinite(w).all(axis=-1) & np.isfinite(mu).all(axis=-1)))
        dom = self.dom
        gc, A = self.mc, dom.coupled_stiffness
        eps = self.cfg.eps
        j, xi, slope = _graph_terms(dom, self.cfg.graphs, eps, w + self.m0, start)
        gc_dw = self.gc_tau * (w - self.w_prev)
        eps_dw = eps * gc_dw
        # Ac annihilates constants: centring mu first keeps a large mean of mu
        # out of the rounding of Ac mu
        mu_c = mu - _column(_dot(mu, gc) / self.gc_sum)
        gc_mu, a_mu, a_w = gc * mu, _spmv(A, mu_c), _spmv(A, w)
        R1 = gc_dw + a_mu
        # an overflow or a non-finite Yosida value makes R2 or a norm inf or
        # NaN, which the step reports as a non-finite merit.  On zero-mean
        # pairs R1 acts as R1_0, R1 less its Mc-weighted mean, and
        # |R1_0|_V0* <= |R1_0|_H* / sqrt(mu2): b1 bounds r1 with no solve
        with np.errstate(over="ignore", invalid="ignore"):
            nvec, d = _mass_weighted(dom, xi, self.masses), _mass_weighted(dom, slope, self.masses)
            g = nvec + self.load
            R2 = gc_mu - (eps_dw + a_w + g)
            R1_0 = R1 - (R1.sum(axis=-1, keepdims=R1.ndim > 1) / self.gc_sum) * gc
            b1 = _h_norm(dom, R1_0) / math.sqrt(dom.mu2_lower)
            r2 = _h_norm(dom, R2)
        return _Iterate(w, mu, R1, R2, b1, r2,
                        j, xi, d, g, mu_c, a_mu, (gc_mu, a_w, nvec, self.load, eps_dw))

    def exact_r1(self, it):
        """r1 = |R1|_V0* of a one-row iterate, one mean-constrained solve."""
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
        if self.above_every_scale(it.r2):
            return False
        s1, s2 = self.scales(it)
        return it.r2 <= tol * s2 and (
            it.b1 <= tol * s1
            or (self.lower_r1(it) <= (1.0 + _LB1_MARGIN) * tol * s1
                and self.exact_r1(it) <= tol * s1))

    def above_every_scale(self, r2):
        """Whether r2 > 10 newton_tol, the threshold at the largest capped
        scale, so that ``converged`` rejects without computing a scale."""
        return not r2 <= 10.0 * self.cfg.newton_tol

    def mass_shift(self, w):
        """The constant that restores the previous combined mean to w, per row."""
        return _column((self.mass_prev - _dot(w, self.mc)) / self.gc_sum)

    def reduce(self, r1, r2):
        """Right-hand side of the reduced system for the block right-hand side (r1, r2)."""
        return r1 - _spmv(self.dom.coupled_stiffness, r2 / self.mc)

    def potential(self, r2, w, d):
        """Back-substitution mu = (r2 + (eps Mc/tau + Ac + D) w)/Mc."""
        dom = self.dom
        return ((r2 + (self.cfg.eps * self.gc_tau + d) * w + _spmv(dom.coupled_stiffness, w))
                / self.mc)

    def schur_solve(self, x):
        """S0^-1 x: -Im((Ac + c1 Mc)^-1 x)/Im c1 by partial fractions over a
        complex pair, else (Ac + c2 Mc)^-1 Mc (Ac + c1 Mc)^-1 x.  The rows of
        a stack are the columns of one solve."""
        lus = self.lu
        if len(lus) == 1:
            return lus[0].solve(x.T).T.imag / -self.shifts[0].imag  # = -Im(..)/Im c1
        return lus[1].solve((self.mc * lus[0].solve(x.T).T).T).T

    def gram(self, x):
        """G x = S0^-1 Ac Mc^-1 x.  Over a complex pair, x/((x + c1)(x + c2)) =
        Im(c1/(x + c1))/Im c1 makes it one shifted solve,
        Im(c1 (Ac + c1 Mc)^-1 x)/Im c1.  A real pair keeps the product form:
        its partial fractions divide by c1 - c2, which is 0 at a double root."""
        lus = self.lu
        if len(lus) == 1:
            c = self.shifts[0]
            return (c * lus[0].solve(x.T).T).imag / c.imag
        return self.schur_solve(_spmv(self.dom.coupled_stiffness, x / self.mc))

    def jacobian(self, it):
        """The reduced Newton matrix S(D) of a one-row iterate, assembled."""
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

    Over a stack of rows, each row runs its own CG to its own ``rtol``, the
    G products of all rows in one solve.  A row that meets its tolerance
    leaves with its direction, and the others go on without it.  The counts
    are then a list, with -1 for a row whose CG stalls (None if every row
    stalls).
    """
    s = np.sqrt(it.d)
    b = system.schur_solve(system.reduce(-it.R1, -it.R2))
    r = s * b
    p, g_sz = r.copy(), np.zeros_like(r)
    one = b.ndim == 1
    rr = float(r @ r) if one else np.vecdot(r, r)
    stop = rtol * rtol * rr
    dw = counts = rows = None  # once a row has left: the directions, counts and live rows
    for k in range(_CG_MAXITER + 1):
        done = rr <= stop
        if done if one else done.any():
            done = done.tolist() if not one else [done]
            if dw is None and all(done):
                return b - g_sz, (k if one else [k] * len(b))
            if dw is None:
                dw, counts, rows = np.empty_like(b), [-1] * len(b), list(range(len(b)))
            keep = [q for q, x in enumerate(done) if not x]
            for q, x in enumerate(done):
                if x:
                    dw[rows[q]] = b[q] - g_sz[q]
                    counts[rows[q]] = k
            if not keep:
                return dw, counts
            system, rows = system.take(keep), [rows[q] for q in keep]
            s, b, r, p, g_sz, rr, stop = (x[keep] for x in (s, b, r, p, g_sz, rr, stop))
        if k == _CG_MAXITER:
            return None if dw is None else (dw, counts)
        q = system.gram(s * p)
        ap = p + s * q
        alpha = rr / float(p @ ap) if one else (rr / np.vecdot(p, ap))[:, None]
        g_sz += alpha * q
        r -= alpha * ap
        rr, rr_prev = (float(r @ r) if one else np.vecdot(r, r)), rr
        p *= rr / rr_prev if one else (rr / rr_prev)[:, None]
        p += r


_STEP_LENGTHS = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)


def _evaluate(system, w, mu, start):
    """(system, iterate, bad): the residual at the rows of (w, mu) whose
    iterate is finite, with their system, and the mask of the rows left out,
    None if there is none.  The iterate is None if every row is left out."""
    try:
        return system, system.residual(w, mu, start), None
    except _NotFinite as exc:
        bad = np.atleast_1d(exc.rows)
        keep = np.flatnonzero(~bad).tolist()
        if not keep:
            return None, None, bad
        system = system.take(keep)
        start = None if start is None else tuple(_pick(x, keep) for x in start)
        return system, system.residual(_pick(w, keep), _pick(mu, keep), start), bad


def _decisions(system, it):
    """``system.converged`` of each row of the iterate, with the ChbsError of
    a row whose r1 solve fails in place of its decision."""
    decided = []
    for p, r2 in enumerate([it.r2] if it.w.ndim == 1 else it.r2.tolist()):
        try:
            # a row whose r2 alone makes converged reject is rejected
            # before its iterate is taken apart
            decided.append(bool(not system.above_every_scale(r2)
                                and system.converged(it.take(p))))
        except ChbsError as exc:
            decided.append(exc)
    return decided


def _merits(it):
    """The merit hypot(b1, r2) of each row of the iterate, as a list."""
    if it.w.ndim == 1:
        return [math.hypot(it.b1, it.r2)]
    return list(map(math.hypot, it.b1.tolist(), it.r2.tolist()))


def _unconverged(system, it, stage, iters):
    """The StepError of a one-row iterate that ends its step unconverged,
    naming the stage and both residuals, the exact r1 where R1 is finite and
    the bound b1 where it is not; or the ChbsError of the r1 solve."""
    try:
        r1 = system.exact_r1(it) if np.isfinite(it.R1).all() else it.b1
    except ChbsError as exc:
        return exc
    return StepError(f"{stage} did not converge in {iters} iterations "
                     f"(residuals {r1:.3e}, {it.r2:.3e})")


def _line_search(system, it, dw, merits, tol):
    """Damped updates of the rows of the iterate along their Newton
    directions dw: every row tries lambda = 1, 1/2, ..., 1/32 in turn, all
    rows at one lambda in one residual, and leaves at the first lambda that
    lowers its merit enough.  Returns (trial, accepted, failed): the accepted
    trial iterates, stacked in the order of their rows (None if there is
    none), those rows (None if they are all the rows, at one lambda), and
    for each row whose trial iterate is not finite, the text of its
    StepError."""
    dw = dw + system.mass_shift(it.w + dw)
    dmu = system.potential(-it.R2, dw, it.d)
    rows, found, failed = None, [], {}  # rows: those still searching, None for all
    for lam in _STEP_LENGTHS:
        system, trial, bad = _evaluate(system, it.w + lam * dw, it.mu + lam * dmu, it.j)
        if bad is not None:
            rows = list(range(len(merits))) if rows is None else rows
            for q, last in zip(np.flatnonzero(bad).tolist(), _last_finite(it, bad)):
                failed[rows[q]] = _not_finite(f"the Newton trial at lambda = {lam!r}", last)
            if trial is None:
                break
            keep = np.flatnonzero(~bad).tolist()
            it, dw, dmu = it.take(keep), _pick(dw, keep), _pick(dmu, keep)
            rows, merits = [rows[q] for q in keep], [merits[q] for q in keep]
        keep = []
        for q, merit_try in enumerate(_merits(trial)):
            if not (merit_try <= (1.0 - 1e-4 * lam) * merits[q] or merit_try <= tol):
                keep.append(q)
        if not keep and rows is None:  # every row at this lambda
            return trial, None, failed
        rows = list(range(len(merits))) if rows is None else rows
        found += [(row, trial, q) for q, row in enumerate(rows) if q not in keep]
        if not keep:
            break
        if len(keep) < len(rows):
            system, it, dw, dmu = system.take(keep), it.take(keep), _pick(dw, keep), _pick(dmu, keep)
            rows, merits = [rows[q] for q in keep], [merits[q] for q in keep]
    found.sort(key=lambda entry: entry[0])
    trial = _Iterate.stack([t.take(q) for _, t, q in found]) if found else None
    return trial, [row for row, _, _ in found], failed


def _last_finite(it, bad):
    """(b1, r2) of the rows of the iterate that ``bad`` marks."""
    if it.w.ndim == 1:
        return [(it.b1, it.r2)]
    return list(zip(it.b1[bad].tolist(), it.r2[bad].tolist()))


def _fall_back(system, it, iters, lin_iters):
    """A one-row step handed to the Picard iteration: its result, or the
    ChbsError that ends it.  Picard ends converged, at newton_max or at a
    non-finite merit, so the step ends with it."""
    try:
        it, iters = _solve_picard(system, it, iters)
        if system.converged(it):
            return it, iters, lin_iters
        return _unconverged(system, it, "Picard fallback", iters)
    except ChbsError as exc:
        return exc


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
    the exact r1 where R1 is finite and the bound b1 where it is not.  A CG
    stall or a failed line search hands the step to ``_solve_picard``.

    Over a stack of rows the rows step in lockstep, each with its own
    iteration counts, forcing term and line search: every residual, CG
    iteration and line-search trial serves the rows still iterating at once.
    A row that converges or fails leaves, and one that falls back runs its
    Picard iteration alone, so each row does what it does alone, to the bit.

    Returns one entry per row: (one-row iterate, nonlinear iterations, CG
    iterations), or the ChbsError that ended the row's step.
    """
    cfg = system.cfg
    count = 1 if w0.ndim == 1 else len(w0)
    out = [None] * count
    iters, lin_iters, merit_prev = [0] * count, [0] * count, [None] * count
    members = list(range(count))  # the row of the input of each row of the system
    system, it, bad = _evaluate(system, w0 + system.mass_shift(w0), mu0.copy(), j0)
    if bad is not None:
        for p in np.flatnonzero(bad).tolist():
            out[p] = StepError(_not_finite("the start of the step"))
        members = np.flatnonzero(~bad).tolist()
    while members:
        go, etas, merits = [], [], []
        for p, verdict, merit in zip(range(len(members)), _decisions(system, it), _merits(it)):
            m = members[p]
            if verdict is not False:  # converged, or its r1 solve failed
                out[m] = verdict if verdict is not True else (it.take(p), iters[m], lin_iters[m])
            elif iters[m] == cfg.newton_max or not math.isfinite(merit):
                out[m] = _unconverged(system.take(p), it.take(p), "Newton", iters[m])
            else:
                eta = _CG_ETA_MAX if merit_prev[m] is None else 0.9 * (merit / merit_prev[m]) ** 2
                etas.append(min(_CG_ETA_MAX, max(eta, _CG_RTOL, 0.5 * cfg.newton_tol / merit)))
                merit_prev[m] = merit
                go.append(p)
                merits.append(merit)
        if len(go) < len(members):
            if not go:
                break
            system, it, members = system.take(go), it.take(go), [members[p] for p in go]
        direction = _newton_direction(system, it, etas[0] if len(etas) == 1 else np.array(etas))
        n_lin = ([-1] * len(members) if direction is None
                 else direction[1] if isinstance(direction[1], list) else [direction[1]])
        search = []  # the rows whose CG did not stall
        for p, n in enumerate(n_lin):
            if n >= 0:
                search.append(p)
                lin_iters[members[p]] += n
                iters[members[p]] += 1
        trial, accepted, failed = None, [], {}
        if len(search) == len(members):
            trial, accepted, failed = _line_search(system, it, direction[0], merits,
                                                   cfg.newton_tol)
        elif search:
            trial, accepted, failed = _line_search(
                system.take(search), it.take(search), _pick(direction[0], search),
                [merits[p] for p in search], cfg.newton_tol)
            accepted = search if accepted is None else [search[q] for q in accepted]
            failed = {search[q]: text for q, text in failed.items()}
        if accepted is not None:
            for p, m in enumerate(members):
                if p in failed:
                    out[m] = StepError(failed[p])
                elif p not in accepted:  # CG stalled or the line search failed
                    out[m] = _fall_back(system.take(p), it.take(p), iters[m], lin_iters[m])
            if not accepted:
                break
            if len(accepted) < len(members):
                system, members = system.take(accepted), [members[p] for p in accepted]
        it = trial
    return out


def _solve_picard(system, it, iters):
    """Frozen-nonlinearity fixed-point iteration on a one-row system, each
    iterate an exact S0 solve, until the step converges, its merit is not
    finite or newton_max is spent."""
    r1 = system.gc_tau * system.w_prev
    while not (system.converged(it) or iters == system.cfg.newton_max
               or not math.isfinite(math.hypot(it.b1, it.r2))):
        r2 = it.g - system.cfg.eps * r1
        w = system.schur_solve(system.reduce(r1, r2))
        w = w + system.mass_shift(w)
        iters += 1
        try:
            it = system.residual(w, system.potential(r2, w, 0.0), it.j)
        except _NotFinite:
            raise StepError(_not_finite(f"Picard iteration {iters}", (it.b1, it.r2))) from None
    return it, iters


def _level(state, config, f_next, it, iters, lin_iters):
    """The state of the level a step reaches at the one-row iterate ``it``."""
    dom = state.v.domain
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


def _step_rows(states, config, f_nexts, starts):
    """One level of each of the states, runs that share the domain and the
    config, in lockstep (see ``_solve_step``): one system of a row per state,
    or the state's own system when it is alone.  ``f_nexts`` and ``starts``
    hold the forcing and the start of each, as for ``step``.  Returns the new
    state of each, or the ChbsError that ended its step."""
    dom = states[0].v.domain
    w0, mu0, j0 = zip(*[((s.v.bulk, s.mu.bulk) if st is None else st) + ((s.j.bulk, s.j.boundary),)
                        for s, st in zip(states, starts)])
    if len(states) == 1:
        system = _StepSystem(dom, config, states[0].m0, states[0].v.bulk, f_nexts[0])
        args = w0[0], mu0[0], j0[0]
    else:
        system = _StepSystem(dom, config, [s.m0 for s in states],
                             np.array([s.v.bulk for s in states]), f_nexts)
        args = _rows(w0), _rows(mu0), _rows(j0)
    try:
        results = _solve_step(system, *args)
    except ChbsError as exc:  # a failure every row shares
        results = [exc] * len(states)
    return [res if isinstance(res, ChbsError) else _level(s, config, f, *res)
            for s, f, res in zip(states, f_nexts, results)]


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
    level's ``j``.  This is the one-run case of ``_step_rows``.

    Returns the new state; raises StepError if the nonlinear solve fails.
    """
    (new,) = _step_rows([state], config, [f_next], [start])
    if isinstance(new, ChbsError):
        raise new
    return new


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


def _run_members(config, members):
    """The trajectories of the runs of ``members``, pairs (u0, forcing) on one
    domain, integrated under one config in lockstep: each level steps every
    run still going with ``_step_rows``, or with ``step`` once one is left.
    Each run keeps its own predictor history, and a failure ends its own
    trajectory, flagged, while the others go on; each trajectory is, to the
    bit, the one ``run`` gives for its member alone."""
    trajs, pasts = [], []
    for u0, forcing in members:
        state = initialize(config, u0, None if forcing is None else forcing(0.0))
        trajs.append(Trajectory(config=config, m0=state.m0, states=[state]))
        pasts.append(deque([(state.v.bulk, state.mu.bulk)], maxlen=_PREDICTOR_LEVELS))
    nsteps = max(0, int(math.ceil(config.t_end / config.tau - 1e-9)))
    live = list(range(len(members)))
    for k in range(1, nsteps + 1):
        if not live:
            break
        states = [trajs[i].states[-1] for i in live]
        times = [s.t + config.tau for s in states]  # the time step() gives the new level
        f_nexts = [None if members[i][1] is None else members[i][1](t)
                   for i, t in zip(live, times)]
        starts = [_extrapolate(pasts[i]) if k > 1 else None for i in live]
        if len(live) > 1:
            news = _step_rows(states, config, f_nexts, starts)
        else:
            try:
                news = [step(states[0], config, f_nexts[0], start=starts[0])]
            except ChbsError as exc:
                news = [exc]
        for i, t, new in zip(live, times, news):
            if isinstance(new, ChbsError):
                trajs[i].aborted = True
                trajs[i].error = f"step {k} (t = {t!r}): {new}"
            else:
                trajs[i].states.append(new)
                pasts[i].append((new.v.bulk, new.mu.bulk))
        live = [i for i in live if not trajs[i].aborted]
    return trajs


def run(config, u0, forcing=None):
    """Integrate from t = 0 to t_end, collecting the states; the trajectory
    computes their monitor records when they are first read.

    ``forcing`` is an optional callable t -> FieldPair, sampled at the time
    t recorded by each level; None is zero forcing.  Step k >= 2 starts
    Newton from ``_extrapolate`` of v and mu through the last min(4, k)
    levels, which ``run`` keeps in a history of four apart from the
    trajectory.  A failure in any step ends the run and returns the partial
    trajectory flagged.  This is the one-run case of ``_run_members``.
    """
    (traj,) = _run_members(config, [(u0, forcing)])
    return traj
