"""Geometric multigrid V-cycle on the structured grids of the initial mesh.

It preconditions two systems: the damage system, with the crack dofs as
pins, and the wave system where its stiffness outweighs its mass (see
:data:`~fracture_afem.dynamics.VCYCLE_RATIO`), with the loaded-boundary
dofs as pins.  Both build their cycles through :func:`vcycle` on the same
per-mesh prolongation and per-grid hierarchies.

The levels are the current mesh, then the entry grid ``n0 2^j``, then
``n0 2^(j-1)``, ..., ``n0``, ``n0/2``, ... down to the first grid with at
most ``COARSE_DOFS`` dofs, or to the last one whose grid lines still carry
the slit.  Every mesh carries its initial grid, so every cycle has these
levels; on an unrefined mesh the first prolongation is the identity, and
that level stays as a second smoothing sweep.  The entry grid follows the
mesh: for a median cell level ``L`` (two bisections halve ``h``) it is
``j = max(0, L // 2 - 1)``, the finest grid whose cells are at least one
halving of ``h`` coarser than the median cell, as in the one-halving-per-level hierarchies of Chen, Nochetto & Xu.
A grid is halved only while its size and the slit's grid indices ``(i0,
i1, jy)`` that :class:`~fracture_afem.mesh.InitialGrid` keeps (the columns
of its ends and its row) are all even, so every coarser grid passes the
layout check of ``InitialGrid``; the indices on ``n0 2^j`` are ``2^j``
times those on ``n0``, so the rule holds from any entry grid.  Every grid
level is the mesh :func:`build_initial_mesh` builds for its size, so the
layout of the split quads and of the slit copies has one source; each
hierarchy is built once per entry grid.  The grids are nested.  The
current mesh need not be nested in them (the structural coarsening pass
can merge same-level triangles of different initial triangles), so every
prolongation is P1 interpolation at the finer vertices, with the weights
that :func:`~fracture_afem.mesh.grid_weights` reads off each vertex's grid
coordinates.  Interpolation from a continuous coarse space gives an SPD
preconditioner whether or not the spaces nest.

The coarse operators are Galerkin products ``P^T A P``, with the rows of
``P`` that belong to pinned dofs zeroed, and the coarsest grid is inverted
densely by its eigenvalue pseudo-inverse, which is its inverse where pins
leave it regular.  Both solves reuse cycles by one rule, kept in
:func:`vcycle` alone: a solve hands it the cycle it holds, and a cycle that
:func:`vcycle` built on the same mesh object with the same pins is refit
(:meth:`VCycle.refit`: the same coarse levels, with only the finest
operator and its Jacobi weights replaced); any other is left alone and a
new one is built.  The damage solve's cycle, pinned at the crack set, is
carried from one time step to the next without its finest operator
(:meth:`VCycle.release`; see
:class:`~fracture_afem.dynamics.DynamicState`), so its coarse levels are
built once per mesh and crack set.  The wave solve's, pinned at the
loaded-boundary dofs, which never change, is handed on only from one inner
iteration of a staggered solve to the next (see
:func:`~fracture_afem.driver.staggered_step`): a step whose first wave
system is rebuilt builds a new cycle.  One damped-Jacobi sweep
before and one after the coarse correction on every level keep the cycle
symmetric.  A symmetric V(1,1) cycle whose smoother
converges for the current ``A``, around any symmetric positive
semidefinite coarse correction, is symmetric positive definite, so a refit
cycle still preconditions CG although its coarse levels come from an
earlier ``A``; see Xu, *Iterative methods by space decomposition and
subspace correction*, SIAM Review 34 (1992), and Chen, Nochetto & Xu,
*Optimal multilevel methods for graded bisection grids*,
Numer. Math. 120 (2012).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .linsolve import csr_matvec
from .mesh import build_initial_mesh, derived, grid_weights

__all__ = ["VCycle", "vcycle", "entry_level", "mesh_prolongation",
           "grid_prolongations"]

COARSE_DOFS = 100       # coarsening stops at the first grid this small
DENSE_MAX = 400         # largest coarsest grid that is inverted densely
OMEGA = 0.7             # Jacobi damping


def _prolongation(coarse, fine):
    """``(P, P^T)``, CSR, where ``P`` is the P1 interpolation from the grid
    mesh ``coarse`` at the vertices of the mesh ``fine``, with the weights
    of :func:`~fracture_afem.mesh.grid_weights`: COO triplets of each
    vertex's positive weights, which scipy sorts into rows."""
    cols, w = grid_weights(coarse, fine)
    keep = w > 0.0
    rows = np.repeat(np.arange(fine.n_vertices), 3).reshape(-1, 3)
    P = sp.csr_matrix((w[keep], (rows[keep], cols[keep])),
                      shape=(fine.n_vertices, coarse.n_vertices))
    return P, P.T.tocsr()


def entry_level(mesh):
    """``j`` of the grid ``n0 2^j`` the V-cycle of ``mesh`` enters: the
    finest grid whose cells are at least one halving of ``h`` coarser than
    the median cell of ``mesh``.  Two bisections halve ``h``, so a mesh of
    median level ``L`` enters at ``j = max(0, L // 2 - 1)``."""
    return max(0, int(np.median(mesh.levels)) // 2 - 1)


def _hierarchy(grid, j):
    """The grid meshes ``n0 2^j``, ``n0 2^(j-1)``, ... and ``(P, P^T)`` from
    each to the next finer one, built once per initial grid and ``j`` and
    kept in its cache."""
    return derived(grid, f"mg{j}", lambda g: _build_hierarchy(g, j))


def _build_hierarchy(grid, j):
    meshes = [build_initial_mesh(grid.domain, grid.slit, grid.n0 << j)]
    while meshes[-1].n_vertices > COARSE_DOFS:
        g = meshes[-1].grid
        if any(i % 2 for i in (g.n0, *(g.slit_index or ()))):
            break               # the slit leaves the grid lines of n0 / 2
        meshes.append(build_initial_mesh(g.domain, g.slit, g.n0 // 2))
    return meshes, [_prolongation(coarse, fine)
                    for fine, coarse in zip(meshes, meshes[1:])]


def grid_prolongations(grid, j=0):
    """``(P, P^T)`` from each grid level below ``n0 2^j`` to the next finer
    one."""
    return _hierarchy(grid, j)[1]


def mesh_prolongation(mesh):
    """``(P, P^T)`` from the entry grid ``n0 2^j``, ``j =
    entry_level(mesh)``, to ``mesh``, kept in its cache."""
    return derived(mesh, "mg", lambda m: _prolongation(
        _hierarchy(m.grid, entry_level(m))[0][0], m))


def _spd_inverse(a):
    """Pseudo-inverse of a small symmetric positive semidefinite float64
    array, from ``numpy.linalg.eigh`` without the eigenvalues of at most
    ``1e-12`` times the largest.

    The result is symmetric positive semidefinite, and it is the inverse
    where ``a`` is regular.  A dof with a zero row, such as a coarse dof
    whose whole support is pinned, gets a row and column that are zero to
    rounding; two coarse hats that pins leave the same free support get the
    pseudo-inverse of their singular block.  On the 85-dof coarsest grid of
    an ``n0 = 16`` run this takes about 0.6 ms, against 0.3 ms for a
    Cholesky factorisation of a regular grid (2-vCPU x86-64 VM, BLAS 1
    thread): at most 160 coarse builds per benchmark run do not repay a
    second path.
    """
    w, v = np.linalg.eigh(a)
    keep = w > 1e-12 * w.max()
    return (v[:, keep] / w[keep]) @ v[:, keep].T


def _jacobi_weights(A):
    """Damped-Jacobi weights ``OMEGA / diag(A)``; a coarse dof whose whole
    support is pinned has an empty row and gets weight ``OMEGA``."""
    d = A.diagonal()
    return OMEGA / np.where(d > 0.0, d, 1.0)


class VCycle:
    """One symmetric V-cycle for ``A``, applied as ``z = cycle(r)``.

    ``levels`` lists ``(P, P^T)`` from each level to the next finer one,
    finest first.  The coarsest level is solved exactly if it has at most
    ``DENSE_MAX`` dofs; otherwise it gets one damped-Jacobi sweep.  Every
    sparse product goes through :func:`~fracture_afem.linsolve.csr_matvec`
    into work arrays the cycle owns; each call returns a new array.
    ``mesh`` and ``pinned`` (sorted) are what :func:`vcycle` built it for;
    a cycle made directly has neither, and :func:`vcycle` never refits it.
    """

    mesh = pinned = None

    def __init__(self, A, levels):
        self.ops = [A]
        self.P = [P for P, _ in levels]
        self.R = [R for _, R in levels]
        for P, R in levels:
            self.ops.append((R @ (self.ops[-1] @ P)).tocsr())
        self.weights = [_jacobi_weights(op) for op in self.ops]
        self.coarse_inv = None
        if self.ops[-1].shape[0] <= DENSE_MAX:
            self.coarse_inv = _spd_inverse(self.ops[-1].toarray())
        # the coarse levels' right-hand sides, and a work array per level
        self.rhs = [np.empty(op.shape[0]) for op in self.ops[1:]]
        self.work = [np.empty(op.shape[0]) for op in self.ops]

    def refit(self, A):
        """Make this the cycle of ``A`` and return it.  Only the finest
        operator and its Jacobi weights change; the prolongations, the
        Galerkin operators and the coarsest inverse are kept, so ``A`` must
        be a system on the mesh and with the pins the cycle was built for,
        which :func:`vcycle` checks before it calls this."""
        self.ops[0] = A
        self.weights[0] = _jacobi_weights(A)
        return self

    def release(self):
        """Drop the finest operator and its Jacobi weights, which the next
        :meth:`refit` replaces, and return the cycle: kept between solves,
        it holds its coarse levels only.  It must be refit before it is
        applied again."""
        self.ops[0] = self.weights[0] = None
        return self

    def __call__(self, r):
        rhs, work = [r] + self.rhs, self.work
        smooth = []
        for k, (A, w, R) in enumerate(zip(self.ops, self.weights, self.R)):
            x = w * rhs[k]
            smooth.append(x)
            res = np.subtract(rhs[k], csr_matvec(A, x, work[k]), out=work[k])
            csr_matvec(R, res, rhs[k + 1])
        if self.coarse_inv is not None:
            x = self.coarse_inv @ rhs[-1]
        else:
            x = self.weights[-1] * rhs[-1]
        for k in reversed(range(len(smooth))):
            x = np.add(smooth[k], csr_matvec(self.P[k], x, work[k]),
                       out=smooth[k])
            res = np.subtract(rhs[k], csr_matvec(self.ops[k], x, work[k]),
                              out=work[k])
            x += np.multiply(self.weights[k], res, out=res)
        return x


def vcycle(A, mesh, pinned=(), reuse=None):
    """The V-cycle preconditioner of ``A`` on ``mesh``.

    ``A`` is a damage or a wave system with the rows and columns of the
    ``pinned`` dofs (crack or loaded-boundary dofs) eliminated; the
    prolongation rows of those dofs are zeroed, so the cycle leaves them at
    zero.  ``reuse`` is a cycle an earlier solve got from here, or
    ``None``: if it was built on this ``mesh`` object with the same pins,
    it is refit to ``A`` and returned, and otherwise a new cycle is built.
    """
    pinned = np.sort(np.asarray(pinned, dtype=np.int64))
    if reuse is not None and reuse.mesh is mesh \
            and np.array_equal(reuse.pinned, pinned):
        return reuse.refit(A)
    # an unrefined mesh keeps its P = I level: a second sweep, fewer CG steps
    P, R = mesh_prolongation(mesh)
    if pinned.size:
        free = np.ones(mesh.n_vertices)
        free[pinned] = 0.0
        P = sp.csr_matrix((P.data * np.repeat(free, np.diff(P.indptr)),
                           P.indices, P.indptr), shape=P.shape)
        R = sp.csr_matrix((R.data * free[R.indices], R.indices, R.indptr),
                          shape=R.shape)
    cycle = VCycle(A, [(P, R)]
                   + grid_prolongations(mesh.grid, entry_level(mesh)))
    cycle.mesh, cycle.pinned = mesh, pinned
    return cycle
