"""Geometric multigrid V-cycle on the structured grids of the initial mesh.

The levels are the current mesh, then the ``n0 x n0`` grid its adapt chain
started from, then ``n0/2``, ``n0/4``, ... down to the first grid with at
most ``COARSE_DOFS`` dofs, or to the last one whose grid lines still carry
the slit.  A grid is halved only while ``n0`` and the slit's grid indices
``(i0, i1, jy)`` that :class:`~fracture_afem.mesh.InitialGrid` keeps (the
columns of its ends and its row) are all even, so every coarser grid passes
the layout check of ``InitialGrid``.  Every grid level is the mesh
:func:`build_initial_mesh` builds for its size, so the layout of the split
quads and of the slit copies has one source.  The grids are nested.  The
current mesh need not be nested in the ``n0`` grid (the structural
coarsening pass can merge same-level triangles of different initial
triangles), so every prolongation is P1 interpolation at the finer
vertices: each vertex is located in the two triangles of its grid cell, and
a vertex on the slit takes the cell on its own face, the upper one if a
triangle above the slit line uses it.  Interpolation from a continuous
coarse space gives an SPD preconditioner whether or not the spaces nest.

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

from .mesh import build_initial_mesh, derived

__all__ = ["VCycle", "vcycle", "mesh_prolongation", "grid_prolongations"]

COARSE_DOFS = 100       # coarsening stops at the first grid this small
DENSE_MAX = 400         # largest coarsest grid that is inverted densely
OMEGA = 0.7             # Jacobi damping


def _corner_areas(mesh, tris, x, y):
    """For each point ``(x, y)`` and each corner of its triangle in
    ``tris``, twice the signed area spanned by the point and the two other
    corners: the barycentric weights of the point times a common factor."""
    dx = mesh.vertices[:, 0][tris] - x[:, None]
    dy = mesh.vertices[:, 1][tris] - y[:, None]
    return (dx[:, [1, 2, 0]] * dy[:, [2, 0, 1]]
            - dy[:, [1, 2, 0]] * dx[:, [2, 0, 1]])


def _prolongation(coarse, fine):
    """``(P, P^T)``, CSR, where ``P`` is the P1 interpolation from the grid
    mesh ``coarse`` at the vertices of the mesh ``fine``.

    Each vertex is located in the two triangles ``2c`` and ``2c + 1`` of its
    grid cell ``c`` and weighted by its barycentric coordinates in the one
    that holds it.  A vertex on the slit takes the cell on its own face:
    the upper one if a triangle above the slit line uses it.
    """
    grid, pts = coarse.grid, fine.vertices
    n, (lx, ly) = grid.n0, grid.domain
    x, y = pts.T
    i = np.clip(np.floor(x * (n / lx)), 0, n - 1).astype(np.int64)
    j = np.clip(np.floor(y * (n / ly)), 0, n - 1).astype(np.int64)
    if grid.slit is not None:
        t = fine.triangles
        upper = np.zeros(len(pts), dtype=bool)
        upper[t[grid.above(pts[t].mean(axis=1))].ravel()] = True
        jy = grid.slit_index[2]
        j = np.where(grid.on_slit(pts), np.where(upper, jy, jy - 1), j)
    pair = coarse.triangles.reshape(-1, 2, 3)[j * n + i]      # (np, 2, 3)
    cols = pair[:, 0]
    w = _corner_areas(coarse, cols, x, y)
    # a point outside the first triangle goes to the second where that one
    # holds it better, the least corner area being the larger
    out = np.flatnonzero(w.min(axis=1) < 0.0)
    w2 = _corner_areas(coarse, pair[out, 1], x[out], y[out])
    better = w2.min(axis=1) > w[out].min(axis=1)
    out = out[better]
    cols[out], w[out] = pair[out, 1], w2[better]
    np.maximum(w, 0.0, out=w)
    w /= w.sum(axis=1, keepdims=True)
    keep = w > 0.0
    rows = np.repeat(np.arange(len(pts)), 3).reshape(-1, 3)
    P = sp.csr_matrix((w[keep], (rows[keep], cols[keep])),
                      shape=(len(pts), coarse.n_vertices))
    return P, P.T.tocsr()


def _hierarchy(grid):
    """The grid meshes ``n0``, ``n0/2``, ... and ``(P, P^T)`` from each to
    the next finer one, built once per initial grid and kept in its cache."""
    return derived(grid, "mg", _build_hierarchy)


def _build_hierarchy(grid):
    meshes = [build_initial_mesh(grid.domain, grid.slit, grid.n0)]
    while meshes[-1].n_vertices > COARSE_DOFS:
        g = meshes[-1].grid
        if any(i % 2 for i in (g.n0, *(g.slit_index or ()))):
            break               # the slit leaves the grid lines of n0 / 2
        meshes.append(build_initial_mesh(g.domain, g.slit, g.n0 // 2))
    return meshes, [_prolongation(coarse, fine)
                    for fine, coarse in zip(meshes, meshes[1:])]


def grid_prolongations(grid):
    """``(P, P^T)`` from each grid level to the next finer one."""
    return _hierarchy(grid)[1]


def mesh_prolongation(mesh):
    """``(P, P^T)`` from the ``n0`` grid to ``mesh``, kept in its cache."""
    return derived(mesh, "mg",
                   lambda m: _prolongation(_hierarchy(m.grid)[0][0], m))


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
        # a coarse dof whose whole support is pinned has an empty row
        self.weights = [OMEGA / np.where(d > 0.0, d, 1.0)
                        for d in (op.diagonal() for op in self.ops)]
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
