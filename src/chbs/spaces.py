"""Discrete product-space structure for bulk/boundary field pairs.

A :class:`FieldPair` holds one value per bulk node and one per boundary
chain node.  Pairs with independent components model square-integrable
data; pairs whose boundary equals the trace of the bulk model the coupled
energy space.  On zero-mean trace-consistent pairs the coupled stiffness
form induces the gradient norm, its Riesz map F, and the dual norm defined
through one solve with F.  That solve meets the mean constraint exactly: the
multiplier of the constraint has a closed form, and once it has made the
right-hand side sum to zero, pinning one node is exact (Bochev & Lehoucq,
SIAM Review 47, 2005), so one SPD factor per domain serves every solve.  A
run solves with it for its level-0 potential z0 = F^(-1)(Mc v0), and a step
only when neither solve-free bound on its residual decides convergence; the
monitor and the experiments read the V0* norms of levels off their carried
potentials (see ``chbs.scheme``).  The public inverse and dual norms, and
the Lanczos of the coercivity constant, solve with it on every call.

All operations are pure given an immutable domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import NumericalError

_MEAN_TOL = 1e-10
_TRACE_TOL = 1e-12
_FINV_RTOL = 1e-10


@dataclass(eq=False)
class FieldPair:
    """A bulk nodal vector paired with a boundary-chain nodal vector."""

    bulk: np.ndarray
    boundary: np.ndarray
    domain: object

    def __post_init__(self):
        self.bulk = np.asarray(self.bulk, dtype=float)
        self.boundary = np.asarray(self.boundary, dtype=float)
        if self.bulk.shape != (self.domain.n_bulk,):
            raise ValueError(f"bulk component has shape {self.bulk.shape}, "
                             f"expected ({self.domain.n_bulk},)")
        if self.boundary.shape != (self.domain.n_boundary,):
            raise ValueError(f"boundary component has shape {self.boundary.shape}, "
                             f"expected ({self.domain.n_boundary},)")

    @classmethod
    def from_bulk(cls, dom, bulk_values):
        """Trace-consistent pair determined by its bulk values."""
        w = np.asarray(bulk_values, dtype=float)
        return cls(w, w[dom.boundary_chain], dom)

    @classmethod
    def constant(cls, dom, value):
        return cls.from_bulk(dom, np.full(dom.n_bulk, float(value)))

    @classmethod
    def zeros(cls, dom):
        return cls.from_bulk(dom, np.zeros(dom.n_bulk))

    def __add__(self, other):
        return FieldPair(self.bulk + other.bulk, self.boundary + other.boundary, self.domain)

    def __sub__(self, other):
        return FieldPair(self.bulk - other.bulk, self.boundary - other.boundary, self.domain)

    def __mul__(self, s):
        return FieldPair(self.bulk * s, self.boundary * s, self.domain)

    __rmul__ = __mul__


@dataclass(eq=False)
class DualPair:
    """Functional on field pairs, stored as raw coefficient vectors.

    Acts by ``pairing(ell, z) = ell.bulk @ z.bulk + ell.boundary @ z.boundary``;
    no quadrature weight is applied to functional coefficients.
    """

    bulk: np.ndarray
    boundary: np.ndarray
    domain: object


def is_trace_consistent(z):
    """Whether the boundary component equals the trace of the bulk one."""
    scale = 1.0 + float(np.max(np.abs(z.bulk), initial=0.0))
    gap = np.max(np.abs(z.boundary - z.bulk[z.domain.boundary_chain]), initial=0.0)
    return gap <= _TRACE_TOL * scale


def inner_H(z, w):
    """Combined square-integrable inner product with lumped masses."""
    dom = z.domain
    return float(z.bulk @ (dom.M_bulk * w.bulk) + z.boundary @ (dom.M_surf * w.boundary))


def form_a(z, w):
    """Coupled stiffness form: bulk gradients plus tangential gradients."""
    dom = z.domain
    return float(z.bulk @ (dom.K_bulk @ w.bulk) + z.boundary @ (dom.K_surf @ w.boundary))


def inner_V(z, w):
    """Full energy inner product, inner_H + form_a."""
    return inner_H(z, w) + form_a(z, w)


def mean(z):
    """Combined mean value (bulk integral + boundary integral) / total measure."""
    dom = z.domain
    return float(dom.M_bulk @ z.bulk + dom.M_surf @ z.boundary) / dom.total_measure


def project_zero_mean(z):
    """Remove the combined mean from both components."""
    m = mean(z)
    return FieldPair(z.bulk - m, z.boundary - m, z.domain)


def as_functional(z):
    """Embed a field pair as the functional (z, .)_H."""
    dom = z.domain
    return DualPair(dom.M_bulk * z.bulk, dom.M_surf * z.boundary, dom)


def pairing(ell, z):
    """Duality pairing between a functional and a field pair."""
    return float(ell.bulk @ z.bulk + ell.boundary @ z.boundary)


def _collapse(dom, bulk, boundary):
    """Bulk-node coefficients of the functional with coefficients (bulk,
    boundary) restricted to trace-consistent pairs: each boundary-chain
    coefficient is added, in place, to its bulk node, in every row of a
    stack of rows (the chain indexes the last axis, the first of the
    transposes).  Returns ``bulk``."""
    bulk.T[dom.boundary_chain] += boundary.T
    return bulk


def _has_nonzero_mean(z):
    """Whether the combined mean of z exceeds the rounding of its values."""
    return abs(mean(z)) > _MEAN_TOL * (1.0 + float(np.max(np.abs(z.bulk), initial=0.0)))


def apply_F(z):
    """Riesz image of a zero-mean trace-consistent pair under the a-form.

    Returns the functional a(z, .); pairing it with z gives the squared
    gradient norm.
    """
    if not is_trace_consistent(z):
        raise ValueError("apply_F: pair is not trace-consistent")
    if _has_nonzero_mean(z):
        raise ValueError("apply_F: pair must have zero combined mean")
    dom = z.domain
    return DualPair(dom.K_bulk @ z.bulk, dom.K_surf @ z.boundary, dom)


def _saddle_solve(dom, rhs_collapsed):
    """The zero-mean w with Ac w + lam Mc = r for some lam, r = rhs_collapsed:
    Ac annihilates constants, so lam = sum(r)/sum(Mc), and w is the solve of
    Ac w = r - lam Mc pinned at w_0 = 0, shifted to Mc-mean zero."""
    gc = dom.combined_mass
    gc_sum = float(gc.sum())
    rest = rhs_collapsed - (float(rhs_collapsed.sum()) / gc_sum) * gc
    w = np.concatenate([[0.0], dom.pinned_lu.solve(rest[1:])])
    w -= float(gc @ w) / gc_sum
    resid = dom.coupled_stiffness @ w - rest
    scale = max(float(np.linalg.norm(rhs_collapsed)), 1e-300)
    # written so that a NaN residual fails the guard too
    if not float(np.linalg.norm(resid)) <= _FINV_RTOL * max(scale, 1.0):
        raise NumericalError("mean-constrained stiffness solve lost accuracy")
    return w


def solve_F_inverse(ell):
    """Invert the Riesz map: the zero-mean pair w with a(w, .) = ell.

    The functional must annihilate constants up to a small tolerance; the
    result has zero combined mean up to rounding.
    """
    dom = ell.domain
    total = float(np.sum(ell.bulk) + np.sum(ell.boundary))
    scale = float(np.sum(np.abs(ell.bulk)) + np.sum(np.abs(ell.boundary)))
    if abs(total) > 1e-8 * max(1.0, scale):
        raise ValueError("solve_F_inverse: functional does not annihilate constants")
    w = _saddle_solve(dom, _collapse(dom, ell.bulk.copy(), ell.boundary))
    return FieldPair.from_bulk(dom, w)


def _dual_norm_collapsed(dom, ell_collapsed):
    """sqrt(<ell, F^(-1) ell>) from the coefficients of ell in bulk coordinates."""
    return math.sqrt(max(float(ell_collapsed @ _saddle_solve(dom, ell_collapsed)), 0.0))


def norm_V0_star(ell):
    """Dual norm sqrt(<ell, F^(-1) ell>) on zero-mean functionals."""
    return _dual_norm_collapsed(ell.domain, _collapse(ell.domain, ell.bulk.copy(), ell.boundary))


def norm_V_star(ell):
    """Dual norm of a functional over the full trace-consistent space."""
    dom = ell.domain
    c = _collapse(dom, ell.bulk.copy(), ell.boundary)
    return float(np.sqrt(max(c @ dom.vnorm_lu.solve(c), 0.0)))


def poincare_constant(dom, eigenvector=False):
    """Largest c with c*|z|_V^2 <= a(z, z) on zero-mean trace-consistent pairs.

    With M the combined lumped mass and A the coupled stiffness, the pencil
    (A, M + A) restricted to the zero-mean subspace has the eigenvalues
    mu/(1 + mu), where mu runs over the nonzero eigenvalues of (A, M); so
    c = mu2/(1 + mu2) with mu2 the smallest of them.  The mean-constrained
    inverse A0^(-1) of A (``_saddle_solve``) sends M times a constant to zero,
    and so deflates the null mode of A.  Lanczos (ARPACK) finds the top
    eigenpair (1/mu2, v) of the symmetrized operator
    v -> M^(1/2) A0^(-1) M^(1/2) v from a fixed start vector, so repeated
    calls return the same bits.  With ``eigenvector=True`` returns (c, x)
    instead, where x = M^(-1/2) v estimates an eigenvector of (A, M) for mu2;
    as with ``eigsh``, asking for it leaves c unchanged.  Raises NumericalError
    when a mean-constrained solve loses accuracy, or the eigensolve does not
    converge or its eigenvalue is not finite and positive.
    """
    root = np.sqrt(dom.combined_mass)
    nb = dom.n_bulk

    def apply(v):
        return root * _saddle_solve(dom, root * np.ravel(v))

    x, y = dom.coords[:, 0], dom.coords[:, 1]
    v0 = root * (np.cos(np.pi * x) + 0.1 * y)
    try:
        tops, vecs = eigsh(LinearOperator((nb, nb), matvec=apply, dtype=float), k=1,
                           which="LA", v0=v0, tol=0)
    except ArpackNoConvergence as exc:
        raise NumericalError(f"coercivity eigensolve did not converge at n = {dom.n}: "
                             f"{exc}") from exc
    top = tops[0]
    if not (np.isfinite(top) and top > 0.0):
        raise NumericalError(f"coercivity eigensolve at n = {dom.n} returned "
                             f"1/mu2 = {float(top)!r}, expected finite and positive")
    cp = float(1.0 / (1.0 + top))
    return (cp, vecs[:, 0] / root) if eigenvector else cp


def subgrad_phi(z):
    """Weak realization of the coupled Laplacian pair on zero-mean fields.

    Returns the H-representer of a(z, .): the mass-weighted image of the
    stiffness application with its combined mean removed, so that
    inner_H(subgrad_phi(z), w) = a(z, w) for every zero-mean
    trace-consistent w.  The preconditions are those of ``apply_F``.
    """
    ell, dom = apply_F(z), z.domain
    return project_zero_mean(FieldPair(ell.bulk / dom.M_bulk, ell.boundary / dom.M_surf, dom))
