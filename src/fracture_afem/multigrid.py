"""Geometric multigrid V-cycle on the structured grids of the initial mesh.

The levels are the current mesh, then the ``n0 x n0`` grid its adapt chain
started from, then ``n0/2``, ``n0/4``, ... down to the first grid with at
most ``COARSE_DOFS`` dofs, or to the last one whose grid lines still carry
the slit.  The grids are nested.  The current mesh need not be nested in
the ``n0`` grid (the structural coarsening pass can merge same-level
triangles of different initial triangles), so every prolongation is P1
interpolation at the finer vertices, and a vertex on the slit takes the
grid copy on its own face.  Interpolation from a continuous coarse space
gives an SPD preconditioner whether or not the spaces nest.

Per system the coarse operators are Galerkin products ``P^T A P``, with the
rows of ``P`` that belong to pinned dofs zeroed, and the coarsest grid is
inverted densely.  One damped-Jacobi sweep before and one after the coarse
correction on every level keep the cycle symmetric; see Xu, *Iterative
methods by space decomposition and subspace correction*, SIAM Review 34
(1992), and Chen, Nochetto & Xu, *Optimal multilevel methods for graded
bisection grids*, Numer. Math. 120 (2012).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["VCycle", "vcycle", "mesh_prolongation", "grid_prolongations"]

COARSE_DOFS = 100       # coarsening stops at the first grid this small
DENSE_MAX = 400         # largest coarsest grid that is inverted densely
OMEGA = 0.7             # Jacobi damping


def _slit_indices(grid, n):
    """``(i0, i1, jy)`` of the slit on the ``n`` grid, or None if its
    endpoints or its height leave the grid lines."""
    (lx, ly), (sx0, sx1, sy) = grid.domain, grid.slit
    out = (sx0 * n / lx, sx1 * n / lx, sy * n / ly)
    if any(abs(q - round(q)) > 1e-9 for q in out):
        return None
    return tuple(int(round(q)) for q in out)


def _grid_levels(grid):
    """Subdivisions of the grid levels: ``n0``, ``n0/2``, ... ."""
    sizes = [grid.n0]
    while _n_dofs(grid, sizes[-1]) > COARSE_DOFS and sizes[-1] % 2 == 0:
        n = sizes[-1] // 2
        if grid.slit is not None and _slit_indices(grid, n) is None:
            break
        sizes.append(n)
    return sizes


def _upper_ids(grid, n):
    """Dof of every base vertex ``j (n+1) + i`` as seen from above the slit:
    the vertex itself, or its upper copy where the slit duplicates it.
    Copies are numbered after the base vertices, as in the initial mesh."""
    nb = (n + 1) ** 2
    ids = np.arange(nb)
    if grid.slit is not None:
        i0, i1, jy = _slit_indices(grid, n)
        lx = grid.domain[0]
        dup = np.arange(i0 + (grid.slit[0] > 0.0),
                        i1 + 1 - (grid.slit[1] < lx))
        ids[jy * (n + 1) + dup] = nb + np.arange(len(dup))
    return ids


def _n_dofs(grid, n):
    return int(_upper_ids(grid, n).max()) + 1


def _grid_points(grid, n):
    """Coordinates of the ``n`` grid dofs and a flag for upper slit copies."""
    lx, ly = grid.domain
    xx, yy = np.meshgrid(np.linspace(0.0, lx, n + 1),
                         np.linspace(0.0, ly, n + 1), indexing="xy")
    base = np.column_stack([xx.ravel(), yy.ravel()])
    up_ids = _upper_ids(grid, n)
    copied = np.flatnonzero(up_ids >= len(base))
    pts = np.vstack([base, base[copied]])
    upper = np.arange(len(pts)) >= len(base)
    return pts, upper


def _interpolation(grid, n, pts, upper):
    """P1 interpolation from the ``n`` grid at ``pts``, as a CSR matrix.

    ``upper`` flags the points that lie on the upper face of the slit; a
    point on the slit interpolates from the cell on its own side.  Cells of
    even parity ``i + j`` are cut by the diagonal from their lower-left to
    their upper-right corner, odd ones by the other diagonal.
    """
    lx, ly = grid.domain
    s = pts[:, 0] * (n / lx)
    t = pts[:, 1] * (n / ly)
    i = np.clip(np.floor(s), 0, n - 1).astype(np.int64)
    j = np.clip(np.floor(t), 0, n - 1).astype(np.int64)
    if grid.slit is not None:
        i0, i1, jy = _slit_indices(grid, n)
        tol = 1e-9
        on = (np.abs(t - jy) <= tol) & (s >= i0 - tol) & (s <= i1 + tol)
        j = np.where(on, np.where(upper, jy, jy - 1), j)
    ll = j * (n + 1) + i
    lr, ul = ll + 1, ll + n + 1
    ur = ul + 1
    if grid.slit is not None:
        # cells above the slit line use the upper copies of its vertices
        up_ids = _upper_ids(grid, n)
        above = j == jy
        ll = np.where(above, up_ids[ll], ll)
        lr = np.where(above, up_ids[lr], lr)
    s = np.clip(s - i, 0.0, 1.0)
    t = np.clip(t - j, 0.0, 1.0)

    even = (i + j) % 2 == 0
    lower = np.where(even, s >= t, s + t <= 1.0)
    cases = [even & lower, even & ~lower, ~even & lower, ~even & ~lower]
    cols = np.select([c[:, None] for c in cases], [
        np.column_stack([ll, lr, ur]),
        np.column_stack([ll, ur, ul]),
        np.column_stack([ll, lr, ul]),
        np.column_stack([lr, ur, ul])])
    w = np.select([c[:, None] for c in cases], [
        np.column_stack([1.0 - s, s - t, t]),
        np.column_stack([1.0 - t, s, t - s]),
        np.column_stack([1.0 - s - t, s, t]),
        np.column_stack([1.0 - t, s + t - 1.0, 1.0 - s])])
    w = np.maximum(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    keep = w > 0.0
    rows = np.repeat(np.arange(len(pts)), 3).reshape(-1, 3)
    return sp.csr_matrix((w[keep], (rows[keep], cols[keep])),
                         shape=(len(pts), _n_dofs(grid, n)))


def grid_prolongations(grid):
    """``(P, P^T)`` from each grid level to the next finer one, built once
    per initial grid and kept in its cache."""
    levels = grid._cache.get("mg")
    if levels is None:
        sizes = _grid_levels(grid)
        levels = []
        for fine, coarse in zip(sizes, sizes[1:]):
            P = _interpolation(grid, coarse, *_grid_points(grid, fine))
            levels.append((P, P.T.tocsr()))
        grid._cache["mg"] = levels
    return levels


def mesh_prolongation(mesh):
    """``(P, P^T)`` from the ``n0`` grid to ``mesh``, kept in its cache.

    A vertex lies on the upper face of the slit if a triangle that uses it
    lies above the slit line.
    """
    cached = mesh._cache.get("mg")
    if cached is None:
        upper = np.zeros(mesh.n_vertices, dtype=bool)
        if mesh.grid.slit is not None:
            t = mesh.triangles
            tri_of = np.empty(mesh.n_vertices, dtype=np.int64)
            tri_of[t.ravel()] = np.repeat(np.arange(len(t)), 3)
            cy = mesh.vertices[t[tri_of], 1].mean(axis=1)
            upper = cy > mesh.grid.slit[2]
        P = _interpolation(mesh.grid, mesh.grid.n0, mesh.vertices, upper)
        cached = (P, P.T.tocsr())
        mesh._cache["mg"] = cached
    return cached


def _spd_inverse(a):
    """Inverse of a small symmetric positive semidefinite matrix by
    Gauss-Jordan elimination without pivoting.

    A pivot that has fallen to rounding size (at most ``1e-12`` of its
    diagonal entry) marks a direction the matrix does not see, such as a
    coarse dof whose whole support is pinned; it is skipped and its row and
    column of the result are zero, which keeps the result symmetric
    positive semidefinite.  Plain numpy: LAPACK would make BLAS allocate its
    level-3 work buffer, which costs more resident memory than the matrix.
    """
    a = np.array(a, dtype=np.float64)
    diag = np.diagonal(a).copy()
    skipped = np.zeros(len(a), dtype=bool)
    for k in range(len(a)):
        if a[k, k] <= 1e-12 * diag[k]:
            skipped[k] = True
            continue
        p = 1.0 / a[k, k]
        col = a[:, k].copy()
        row = a[k] * p
        a -= np.multiply.outer(col, row)
        a[k] = row
        a[:, k] = -p * col
        a[k, k] = p
    a[skipped] = 0.0
    a[:, skipped] = 0.0
    return a


class VCycle:
    """One symmetric V-cycle for ``A``, applied as ``z = cycle(r)``.

    ``levels`` lists ``(P, P^T)`` from each level to the next finer one,
    finest first.  The coarsest level is solved exactly if it is a grid
    level with at most ``DENSE_MAX`` dofs; otherwise, and when there are no
    coarse levels, it gets one damped-Jacobi sweep.
    """

    def __init__(self, A, levels):
        self.ops = [A]
        self.P = [P for P, _ in levels]
        self.R = [R for _, R in levels]
        for P, R in levels:
            self.ops.append((R @ (self.ops[-1] @ P)).tocsr())
        self.weights = []
        for op in self.ops:
            d = op.diagonal()
            # a coarse dof whose whole support is pinned has an empty row
            self.weights.append(OMEGA / np.where(d > 0.0, d, 1.0))
        self.coarse_inv = None
        if levels and self.ops[-1].shape[0] <= DENSE_MAX:
            self.coarse_inv = _spd_inverse(self.ops[-1].toarray())

    def __call__(self, r):
        rhs = [r]
        smooth = []
        for A, w, R in zip(self.ops, self.weights, self.R):
            x = w * rhs[-1]
            smooth.append(x)
            rhs.append(R @ (rhs[-1] - A @ x))
        if self.coarse_inv is not None:
            x = self.coarse_inv @ rhs[-1]
        else:
            x = self.weights[-1] * rhs[-1]
        for k in reversed(range(len(smooth))):
            x = smooth[k] + self.P[k] @ x
            x += self.weights[k] * (rhs[k] - self.ops[k] @ x)
        return x


def vcycle(A, mesh, pinned=()):
    """The V-cycle preconditioner of ``A`` on ``mesh``.

    ``A`` has the rows and columns of the ``pinned`` dofs eliminated; the
    prolongation rows of those dofs are zeroed, so the cycle leaves them at
    zero.  A mesh without an initial grid has no coarse level.
    """
    if mesh.grid is None:
        return VCycle(A, [])
    P, R = mesh_prolongation(mesh)
    pinned = np.asarray(pinned, dtype=np.int64)
    if pinned.size:
        free = np.ones(mesh.n_vertices)
        free[pinned] = 0.0
        P = sp.csr_matrix((P.data * np.repeat(free, np.diff(P.indptr)),
                           P.indices, P.indptr), shape=P.shape)
        R = sp.csr_matrix((R.data * free[R.indices], R.indices, R.indptr),
                          shape=R.shape)
    return VCycle(A, [(P, R)] + grid_prolongations(mesh.grid))
