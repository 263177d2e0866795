"""Scalar calculus for the maximal monotone graphs of double-well potentials.

The potentials driving the phase dynamics split into a convex part, whose
subdifferential ``beta`` is a maximal monotone graph on the real line, and a
Lipschitz perturbation ``pi``, here the linear pi(r) = pi_slope*r.  Three
prototype graphs are supported:

* ``polynomial``: beta(r) = r**3 with effective domain R (quartic well),
* ``logarithmic``: beta(r) = ln((1+r)/(1-r)) on (-1, 1),
* ``obstacle``: beta = subdifferential of the indicator of [-1, 1].

For each graph the module evaluates the resolvent (I + eps*beta)^(-1), the
Yosida approximation, the Moreau envelope of the convex primitive, and the
minimal section.  A :class:`GraphPair` couples a bulk graph with a boundary
graph whose regularization parameter is scaled by the coupling constant
``rho``; the scaled definitions make the pointwise domination bound
``|beta_eps| <= rho*|beta_bnd_eps| + c0`` carry over unchanged from the
unregularized graphs, for which the pair decides exactly whether some
constant c0 exists.

All operations are pure functions of immutable inputs, accept scalars or
numpy arrays, and are safe for concurrent use.  Extension point: a new graph
kind is one entry in ``_KINDS``: its effective domain and, on it, the convex
primitive, the minimal section, the resolvent and the Yosida slope;
``yosida`` and ``envelope`` follow from the resolvent and ``beta_hat``.  No
other families are assumed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

POLYNOMIAL = "polynomial"
LOGARITHMIC = "logarithmic"
OBSTACLE = "obstacle"


# --- the kinds: private helpers and the table ----------------------------

# the largest double below 1, where artanh is finite; and the factor that
# lowers a warm start by 8 ulps of the point its tangent step is taken at
_BELOW_ONE = np.nextafter(1.0, 0.0)
_TANGENT_SHRINK = 1.0 - 2.0 ** -49


def _xlogx(x):
    """x*log(x) for x >= 0, with its limit 0 at x = 0."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _resolvent_cubic(eps, r, start=None):
    """Closed-form root of eps*j**3 + j = r.

    Cardano's root t - p3/t of the depressed cubic, with h = |r|/(2*eps),
    p3 = 1/(3*eps) and t = cbrt(h + sqrt(h**2 + p3**3)), is rewritten as
    2h/(t**2 + p3 + (p3/t)**2), which has no cancellation at small |r|.
    One Newton step polishes the root to working precision.  The root is
    computed for |r| and signed last, so the resolvent is exactly odd.
    The closed form needs no ``start``.
    """
    a = np.abs(r)
    h = a / (2.0 * eps)
    p3 = 1.0 / (3.0 * eps)
    t = np.cbrt(h + np.hypot(h, p3 * np.sqrt(p3)))
    j = 2.0 * h / (t * t + p3 + (p3 / t) ** 2)
    j = j - (eps * j ** 3 + j - a) / (1.0 + 3.0 * eps * j * j)
    return np.copysign(j, r)


def _resolvent_log(eps, r, start=None):
    """Root of j + eps*ln((1+j)/(1-j)) = r, solved in s = artanh(j).

    With j = tanh(s), f(s) = tanh(s) + 2*eps*s - |r| is increasing and concave
    on s >= 0, and both |r|/(1 + 2*eps) and (|r| - 1)/(2*eps) lie below its
    root.  Newton from the larger one rises monotonically to the root with no
    bracket.  A ``start`` near the root, such as the resolvent of a nearby r,
    starts higher: one tangent step from s_p = artanh(min(|start|, 1 - ulp))
    lands below the root because f is concave.  Its rounding, a few ulps of
    s_p, would put it above a root far smaller than s_p, from where the
    iteration cannot descend, so it is lowered by 8 ulps of s_p; and it is
    floored at the cold start, so a far or NaN start costs passes but never
    accuracy.

    An entry stops once its update no longer raises j = tanh(s): near the
    root rounding can keep the residual positive, and s would then creep up
    by an ulp per update with j fixed.  The iteration returns once no entry
    rises, or once every update that raised j was at most 1e-8: as
    |f''|/(2 f') <= tanh(s), the quadratic convergence of Newton then leaves
    s within tanh(s)*1e-16, about 1e-16*j, of the root.  Saturated, huge and
    NaN entries stop rising, which drops them from the second test; each
    accepted update raises j, so the loop ends.  The root is signed last, so
    the resolvent is exactly odd; j rounds to +-1 once tanh saturates.

    Both tests are taken per row of the last axis, and a row that passes
    one is frozen while the others go on, so each row of a stack of rows
    gets the bits it gets alone.
    """
    a = np.abs(r)
    s = np.maximum(a / (1.0 + 2.0 * eps), (a - 1.0) / (2.0 * eps))
    if start is not None:
        p = np.minimum(np.abs(start), _BELOW_ONE)
        s_p = np.arctanh(p)
        s = np.fmax(s_p * _TANGENT_SHRINK
                    + (a - p - 2.0 * eps * s_p) / ((1.0 - p) * (1.0 + p) + 2.0 * eps), s)
    t = np.tanh(s)
    live = None  # the rows still iterating, once a row has settled
    while True:
        ds = (a - t - 2.0 * eps * s) / ((1.0 - t) * (1.0 + t) + 2.0 * eps)
        nxt = s + ds
        t_nxt = np.tanh(nxt)
        rising = t_nxt > t
        if live is not None:
            rising &= live
        # an update raises j only if ds > 0, so the largest rising ds of a
        # row is 0 exactly when none of its entries rises
        top = ds.max(axis=-1, where=rising, initial=0.0, keepdims=True)
        tops = top.ravel().tolist()
        hi, lo = max(tops), min(tops)
        if hi == 0.0:
            return np.copysign(t, r)
        s = np.where(rising, nxt, s)
        t = np.maximum(t, t_nxt) if lo > 0.0 else np.where(top > 0.0, np.maximum(t, t_nxt), t)
        if hi <= 1e-8:
            return np.copysign(t, r)
        live = None if lo > 1e-8 else top > 1e-8


def _slope_cubic(eps, r, j):
    """Yosida slope beta'(j)/(1 + eps*beta'(j)) of the cubic graph at j = J(r)."""
    bp = 3.0 * j ** 2
    return bp / (1.0 + eps * bp)


# each kind: its effective domain [lo, hi], open if the finite endpoints are
# excluded, which contains 0; and on it the convex primitive(r), the minimal
# section(r), the resolvent(eps, r, start) and the Yosida slope(eps, r, J)
_Kind = namedtuple("_Kind", "lo hi open primitive section resolvent slope")

_KINDS = {
    # products, not r ** 4 and r ** 3: pow takes a slow path on negative bases
    POLYNOMIAL: _Kind(-np.inf, np.inf, False, lambda r: 0.25 * np.square(r * r),
                      lambda r: r * r * r, _resolvent_cubic, _slope_cubic),
    LOGARITHMIC: _Kind(-1.0, 1.0, True, lambda r: _xlogx(1.0 + r) + _xlogx(1.0 - r),
                       lambda r: np.log1p(r) - np.log1p(-r), _resolvent_log,
                       lambda eps, r, j: 2.0 / ((1.0 - j) * (1.0 + j) + 2.0 * eps)),
    # the indicator of [-1, 1]; the slope takes the surrogate 0 at the kinks +-1
    OBSTACLE: _Kind(-1.0, 1.0, False, np.zeros_like, np.zeros_like,
                    lambda eps, r, start=None: np.clip(r, -1.0, 1.0),
                    lambda eps, r, j: np.where(np.abs(r) <= 1.0, 0.0, 1.0 / eps)),
}


@dataclass(frozen=True)
class GraphSpec:
    """A maximal monotone graph of one ``kind`` (``polynomial``,
    ``logarithmic`` or ``obstacle``) with the linear perturbation
    pi(r) = pi_slope*r.  The kind fixes the effective domain, whose endpoints
    ``domain_lo`` and ``domain_hi`` may be ``+-inf``.
    """

    kind: str
    pi_slope: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if not np.isfinite(self.pi_slope):
            raise ValueError(f"pi_slope must be finite, got {self.pi_slope!r}")

    @property
    def domain_lo(self):
        return _KINDS[self.kind].lo

    @property
    def domain_hi(self):
        return _KINDS[self.kind].hi


def polynomial_graph(pi_slope=-1.0):
    """Cubic graph beta(r) = r**3 on R; default perturbation pi(r) = -r."""
    return GraphSpec(POLYNOMIAL, float(pi_slope))


def logarithmic_graph(c=1.0):
    """Logarithmic graph beta(r) = ln((1+r)/(1-r)) on (-1, 1).

    The perturbation is pi(r) = -2*c*r; ``c`` is the constant breaking the
    convexity of the logarithmic well.
    """
    if not 0.0 < c < np.inf:
        raise ValueError("c must be positive and finite")
    return GraphSpec(LOGARITHMIC, -2.0 * c)


def obstacle_graph(pi_slope=-1.0):
    """Obstacle graph beta = subdifferential of the indicator of [-1, 1]."""
    return GraphSpec(OBSTACLE, float(pi_slope))


# --- single-valued evaluations per kind ---------------------------------

def beta_hat(g, r):
    """Convex primitive of the graph, +inf outside its closed domain."""
    k = _KINDS[g.kind]
    arr = np.asarray(r, dtype=float)
    inside = (arr >= k.lo) & (arr <= k.hi)
    out = np.where(inside, k.primitive(np.clip(arr, k.lo, k.hi)), np.inf)
    return float(out) if np.ndim(r) == 0 else out


def minimal_section(g, r):
    """Least-modulus element of beta(r); requires r in the effective domain.

    Single-valued graphs return beta(r).  The obstacle graph returns 0
    everywhere on [-1, 1], including the endpoints, where 0 is the element
    of smallest modulus of the vertical segments.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("minimal_section: input must be finite")
    k = _KINDS[g.kind]
    if np.any((arr <= k.lo) | (arr >= k.hi) if k.open else (arr < k.lo) | (arr > k.hi)):
        shown = f"({k.lo:g}, {k.hi:g})" if k.open else f"[{k.lo:g}, {k.hi:g}]"
        raise ValueError(f"minimal_section: input outside the effective domain {shown}")
    out = k.section(arr)
    return float(out) if np.ndim(r) == 0 else out


# --- resolvent, Yosida approximation, Moreau envelope --------------------

def resolvent(g, eps, r, start=None):
    """Resolvent (I + eps*beta)^(-1) applied elementwise.

    Parameters
    ----------
    g : GraphSpec
    eps : float
        Regularization parameter, strictly positive.
    r : scalar or ndarray
    start : scalar or ndarray broadcasting against r, optional
        A guess of the resolvent, such as its value at a nearby r; only the
        logarithmic kind uses it, to start its iteration closer to the root.
        Any start gives the same result to a few ulps.

    Returns
    -------
    The unique j with j + eps*s = r for some s in beta(j).  The obstacle
    and cubic resolvents are in closed form (projection onto [-1, 1] and
    the real root of the cubic); the logarithmic one is a monotone Newton
    iteration in s = artanh(j) and may round to exactly +-1 near saturation.
    It starts below the root, from the cold lower bound or from one tangent
    step off artanh(|start|), which f's concavity and an 8-ulp margin keep
    below the root, and stops once its Newton steps settle under 1e-8 in s.
    """
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("resolvent: input must be finite")
    out = _KINDS[g.kind].resolvent(eps, arr, start)
    return float(out) if np.ndim(r) == 0 else out


def yosida(g, eps, r):
    """Yosida approximation (r - resolvent(g, eps, r)) / eps.

    Monotone nondecreasing in r and Lipschitz with constant 1/eps.
    """
    out = (np.asarray(r, dtype=float) - resolvent(g, eps, r)) / eps
    return float(out) if np.ndim(r) == 0 else out


def yosida_and_slope(g, eps, r, start=None):
    """Resolvent J, Yosida approximation (r - J)/eps and its derivative, from
    one resolvent evaluation started from ``start`` (see ``resolvent``); a
    caller that keeps J can build the envelope of ``envelope`` with
    ``_envelope_at`` without solving again.

    Smooth kinds use the slope (1 - J')/eps with J' = 1/(1 + eps*beta'(J));
    the logarithmic one is 2/(1 - J**2 + 2*eps), finite also at J = +-1.
    The obstacle graph is piecewise linear; at the kink points +-1 the
    subgradient surrogate 0 is returned (1/eps outside [-1, 1]).
    """
    j = resolvent(g, eps, r, start=start)
    arr = np.asarray(r, dtype=float)
    xi = (arr - j) / eps
    slope = _KINDS[g.kind].slope(eps, arr, j)
    if np.ndim(r) == 0:
        return float(j), float(xi), float(slope)
    return j, xi, slope


def envelope(g, eps, r):
    """Moreau envelope of the convex primitive.

    Evaluates |r - J|^2/(2*eps) + beta_hat(J) with J the resolvent.  The
    result is nonnegative, bounded above by beta_hat(r), and its derivative
    in r is the Yosida approximation.
    """
    out = _envelope_at(g, eps, np.asarray(r, dtype=float), resolvent(g, eps, r))
    return float(out) if np.ndim(r) == 0 else out


def _envelope_at(g, eps, r, j):
    """|r - j|^2/(2*eps) + beta_hat(j): the envelope at r from its resolvent j."""
    return (r - j) ** 2 / (2.0 * eps) + beta_hat(g, j)


# --- bulk/boundary pair ---------------------------------------------------

@dataclass(frozen=True)
class GraphPair:
    """Bulk and boundary graphs coupled by the constant ``rho``.

    The boundary domain must be contained in the bulk one, and the boundary
    graph must dominate the bulk graph: ``|beta°(r)| <= rho*|beta_bnd°(r)| + c0``
    on the boundary domain for some constant c0 >= 0, which the scheme never
    uses.  Every minimal section is odd and nondecreasing in |r|, so such a
    c0 exists exactly when the bulk section is bounded on the boundary domain,
    or when both graphs are of one kind and rho >= 1.
    """

    bulk: GraphSpec
    boundary: GraphSpec
    rho: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rho < np.inf:
            raise ValueError("rho must be positive and finite")
        self._validate_containment()
        self._validate_domination()

    def _validate_containment(self):
        blk, bnd = _KINDS[self.bulk.kind], _KINDS[self.boundary.kind]
        # a closed boundary endpoint may not sit on an open bulk endpoint
        shared = blk.open and not bnd.open and (bnd.lo == blk.lo or bnd.hi == blk.hi)
        if bnd.lo < blk.lo or bnd.hi > blk.hi or shared:
            raise ValueError("boundary graph domain must be contained in the bulk one")

    def _validate_domination(self):
        with np.errstate(divide="ignore"):
            bounded = np.isfinite(_KINDS[self.bulk.kind].section(self.boundary.domain_hi))
        if not (bounded or (self.bulk.kind == self.boundary.kind and self.rho >= 1.0)):
            raise ValueError(
                f"no c0 gives |beta°| <= rho*|beta_bnd°| + c0 for a {self.bulk.kind} bulk "
                f"and a {self.boundary.kind} boundary graph at rho = {self.rho}: an "
                "unbounded bulk section needs graphs of one kind and rho >= 1")
