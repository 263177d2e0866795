"""Discrete geometry and operator assembly on the unit square.

The bulk is triangulated with a structured right-angled mesh (two triangles
per grid cell) carrying P1 elements; the boundary is the closed chain of
boundary nodes carrying 1D P1 elements.  Assembly produces the bulk and
surface stiffness matrices and lumped mass vectors realizing the coupled
weak form

    a(u, z) = int_bulk grad(u).grad(z) + int_bnd grad_t(u).grad_t(z),

so no normal derivative is ever assembled; every strong-form statement is
evaluated through the weak identities.  Mass lumping makes the combined
inner product diagonal, nodewise nonlinearities variationally consistent,
and mass conservation exact at the algebraic level.

Every sparse LU factor of the package comes from :data:`splu`, which orders
the symmetric patterns by minimum degree on A^T + A, and every shifted
stiffness Ac + c Mc from :meth:`DiscreteDomain.shifted`.  Construction only
assembles; four facts are built on first use and written once: the factor
of Ac pinned at the first node, which is SPD and serves the one guarded
mean-constrained solve ``chbs.spaces._saddle_solve`` (a run's level-0
potential z0 = F^-1(Mc v0), the exact step residual r1 where its bounds
cannot decide, the failure message of a step, the public Riesz-map inverse
and dual norm, and the Lanczos of the coercivity constant); the factor of
the V-norm matrix Mc + Ac, for the dual norm over the whole space; and a
certified lower bound on the least nonzero eigenvalue of (Ac, Mc) and a
Gershgorin upper bound on its largest, which bound the zero-mean dual norm
of every step residual above and below by the lumped one.  A domain never
changes its assembled data, and a copy made with
:func:`dataclasses.replace` builds its own facts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import ConfigError, NumericalError

# The factor of every sparse matrix in chbs.  All of them have symmetric
# patterns, so minimum degree on A^T + A, preferring diagonal pivots, stores
# about 40% fewer nonzeros than SuperLU's default COLAMD order, which is built
# for unsymmetric ones.
splu = functools.partial(scipy.sparse.linalg.splu, permc_spec="MMD_AT_PLUS_A",
                         options=dict(SymmetricMode=True))


def count_negative_eigenvalues(matrix):
    """Number of negative eigenvalues of a sparse symmetric matrix.

    Factors it with diagonal pivots only, so that P A P^T = L U with U = D L^T
    and D congruent to A; by Sylvester's law of inertia the count is the
    number of negative entries of U's diagonal.  Raises NumericalError when
    the factor is singular, a pivot is not finite, or SuperLU took an
    off-diagonal pivot (perm_r != perm_c), since the count would then be wrong.
    """
    try:
        lu = splu(sp.csc_matrix(matrix), diag_pivot_thresh=0.0)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NumericalError(f"inertia count: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError("inertia count: SuperLU took an off-diagonal pivot")
    pivots = lu.U.diagonal()
    if not np.isfinite(pivots).all():
        raise NumericalError("inertia count: a pivot is not finite")
    return int(np.count_nonzero(pivots < 0.0))


@dataclass(frozen=True, eq=False)
class DiscreteDomain:
    """Triangulated unit square with assembled coupled operators.

    Attributes
    ----------
    n : int
        Nodes per side; the mesh width is h = 1/(n-1).
    coords : (n_bulk, 2) ndarray
        Node coordinates, node index = row*n + column.
    boundary_chain : (n_boundary,) ndarray
        Global bulk indices of the boundary nodes, ordered cyclically
        counterclockwise from the origin; doubles as the trace map.
    K_bulk, K_surf : csr_matrix
        Bulk stiffness and surface (closed-chain) stiffness.
    M_bulk, M_surf : ndarray
        Lumped mass diagonals; they sum to the bulk volume 1 and the
        boundary length 4.
    combined_mass : ndarray
        M_bulk with the boundary masses added at boundary nodes; the lumped
        weight of the combined inner product in bulk coordinates.
    coupled_stiffness : csr_matrix
        K_bulk plus the surface stiffness scattered through the trace map.
    """

    n: int
    coords: np.ndarray
    boundary_chain: np.ndarray
    K_bulk: sp.csr_matrix
    K_surf: sp.csr_matrix
    M_bulk: np.ndarray
    M_surf: np.ndarray
    combined_mass: np.ndarray
    coupled_stiffness: sp.csr_matrix

    def shifted(self, c):
        """The shifted stiffness Ac + c Mc in CSC; c may be complex."""
        return (self.coupled_stiffness + sp.diags(c * self.combined_mass)).tocsc()

    @functools.cached_property
    def pinned_lu(self):
        """Factor of Ac less its first row and column, built on first use; it
        is SPD, as the kernel of Ac is the constants."""
        return splu(self.coupled_stiffness[1:, 1:].tocsc())

    @functools.cached_property
    def vnorm_lu(self):
        """Factor of the V-norm matrix Mc + Ac, built on first use."""
        return splu(self.shifted(1.0))

    @functools.cached_property
    def mu2_lower(self):
        """Certified lower bound on mu2, the least nonzero eigenvalue of the
        pencil (Ac, Mc), built on first use.

        Ac - mu Mc has one negative eigenvalue for each eigenvalue of the
        pencil below mu, the constant mode among them, so a count of exactly
        1 certifies mu < mu2.  Starts at 3.5, just below the mu2 of 3.51 to
        3.62 of every mesh with n >= 5, and halves until the count is 1.
        """
        mu = 3.5
        while count_negative_eigenvalues(self.shifted(-mu)) != 1:
            mu *= 0.5
        return mu

    @functools.cached_property
    def lambda_upper(self):
        """Gershgorin upper bound max_i sum_j |Ac_ij| / Mc_i on the largest
        eigenvalue of the pencil (Ac, Mc), the spectrum of Mc^-1 Ac, built
        on first use: 8/h^2 from the interior rows."""
        row_sums = abs(self.coupled_stiffness) @ np.ones(self.n_bulk)
        return float((row_sums / self.combined_mass).max())

    @property
    def n_bulk(self):
        return self.coords.shape[0]

    @property
    def n_boundary(self):
        return self.boundary_chain.shape[0]

    @property
    def total_measure(self):
        return float(self.M_bulk.sum()) + float(self.M_surf.sum())


def _boundary_chain(n):
    """Cyclic boundary node ordering: bottom, right, top, left."""
    bottom = np.arange(n)
    right = np.arange(1, n) * n + (n - 1)
    top = (n - 1) * n + np.arange(n - 2, -1, -1)
    left = np.arange(n - 2, 0, -1) * n
    return np.concatenate([bottom, right, top, left])


def build_unit_square(n):
    """Assemble the discrete domain on an n-by-n grid of the unit square.

    Parameters
    ----------
    n : int
        Nodes per side, at least 3.

    Returns
    -------
    DiscreteDomain
    """
    n = int(n)
    if n < 3:
        raise ConfigError(f"mesh resolution n must be at least 3, got {n}")
    side = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(side, side)
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    nb = n * n

    # two triangles per cell, diagonal from lower-left to upper-right
    i, j = np.meshgrid(np.arange(n - 1), np.arange(n - 1), indexing="ij")
    a = (j * n + i).ravel()
    b = a + 1
    c = a + n + 1
    d = a + n
    triangles = np.vstack([np.column_stack([a, b, c]),
                           np.column_stack([a, c, d])]).astype(np.int64)

    p = coords[triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    bb = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cc = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    ke = (bb[:, :, None] * bb[:, None, :] + cc[:, :, None] * cc[:, None, :]) / (2.0 * area2)[:, None, None]
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    K_bulk = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(nb, nb)).tocsr()

    M_bulk = np.zeros(nb)
    np.add.at(M_bulk, triangles.ravel(), np.repeat(area2 / 6.0, 3))

    chain = _boundary_chain(n)
    ng = chain.size
    nxt = np.roll(np.arange(ng), -1)
    seg = coords[chain[nxt]] - coords[chain]
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    vals = 1.0 / lengths
    rows_s = np.concatenate([np.arange(ng), np.arange(ng), nxt, nxt])
    cols_s = np.concatenate([np.arange(ng), nxt, np.arange(ng), nxt])
    data_s = np.concatenate([vals, -vals, -vals, vals])
    K_surf = sp.coo_matrix((data_s, (rows_s, cols_s)), shape=(ng, ng)).tocsr()

    M_surf = np.zeros(ng)
    np.add.at(M_surf, np.arange(ng), lengths / 2.0)
    np.add.at(M_surf, nxt, lengths / 2.0)

    S = sp.coo_matrix((np.ones(ng), (np.arange(ng), chain)), shape=(ng, nb)).tocsr()
    A = (K_bulk + S.T @ K_surf @ S).tocsr()
    gc = M_bulk.copy()
    gc[chain] += M_surf

    return DiscreteDomain(n=n, coords=coords, boundary_chain=chain,
                          K_bulk=K_bulk, K_surf=K_surf,
                          M_bulk=M_bulk, M_surf=M_surf, combined_mass=gc,
                          coupled_stiffness=A)

