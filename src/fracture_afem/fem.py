"""P1 Lagrange scalar finite elements: assembly, constraints, transfer.

All quadratures here are exact for the integrands they meet: element mass
matrices are the analytic P1 mass, stiffness uses the element average of a
nodal coefficient (exact, since P1 gradients are element constants and the
integral of a linear coefficient is its mean times the area).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .mesh import derived, element_means

__all__ = [
    "FeFunction",
    "DirichletSet",
    "element_data",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_load",
    "apply_dirichlet",
    "dirichlet_rhs",
    "unit_mass",
    "transfer",
    "element_gradients",
    "element_means",
]


@dataclass
class FeFunction:
    """Nodal values of a continuous piecewise-linear field on one mesh
    generation."""

    values: np.ndarray
    generation: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.isfinite(self.values).all():
            raise ValueError("FeFunction values must be finite")

    @classmethod
    def zeros(cls, mesh):
        return cls(np.zeros(mesh.n_vertices), mesh.generation)

    @classmethod
    def constant(cls, mesh, value):
        return cls(np.full(mesh.n_vertices, float(value)), mesh.generation)

    @classmethod
    def from_callable(cls, mesh, fn):
        x = mesh.vertices
        return cls(np.asarray([fn(p[0], p[1]) for p in x], dtype=np.float64),
                   mesh.generation)

    def check_bound(self, mesh):
        if self.generation != mesh.generation:
            raise ValueError(
                f"FeFunction bound to generation {self.generation}, "
                f"mesh is generation {mesh.generation}")
        if len(self.values) != mesh.n_vertices:
            raise ValueError("FeFunction length does not match vertex count")


@dataclass
class DirichletSet:
    """Constrained dofs, each listed once, and their prescribed values."""

    dofs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.dofs = np.asarray(self.dofs, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.dofs) != len(self.values):
            raise ValueError("dof/value length mismatch")
        if len(np.unique(self.dofs)) != len(self.dofs):
            raise ValueError("a constrained dof is listed more than once")


# ----------------------------------------------------------------------
# Element caches
# ----------------------------------------------------------------------

_MASS_PATTERN = np.array([[2.0, 1.0, 1.0],
                          [1.0, 2.0, 1.0],
                          [1.0, 1.0, 2.0]]) / 12.0


def element_data(mesh):
    """Per-element areas, shape-function gradients and unit stiffness
    entries, and the CSR pattern of the P1 matrices, cached on the mesh.

    The areas are :meth:`Mesh.signed_areas`.  ``stiffness`` holds the
    ``9 nt`` entries ``gx_i gx_j + gy_i gy_j`` of each triangle (row-major
    within it, read-only): the element stiffness without its area and
    coefficient.  The pattern holds the diagonal and both directions of
    every mesh edge, with sorted column indices; ``slot`` maps the element
    entries to their positions in ``indices``, so that every matrix is one
    element operator applied to per-element weights (:func:`_scatter`).
    """
    return derived(mesh, "elem", _element_data)


def _element_data(mesh):
    x = mesh.vertices[mesh.triangles]           # (nt, 3, 2)
    b = x[:, [1, 2, 0], 1] - x[:, [2, 0, 1], 1]
    c = x[:, [2, 0, 1], 0] - x[:, [1, 2, 0], 0]
    area = mesh.signed_areas()
    # rows of grads are the constant gradients of the three hat functions
    grads = np.stack([b, c], axis=2) / (2.0 * area)[:, None, None]
    # G G^T entry by entry: the products and sums of an einsum over the two
    # gradient components
    stiffness = grads[:, :, None, 0] * grads[:, None, :, 0]
    stiffness += grads[:, :, None, 1] * grads[:, None, :, 1]
    stiffness = stiffness.reshape(-1)
    stiffness.flags.writeable = False
    return {"area": area, "grads": grads, "stiffness": stiffness,
            **_pattern(mesh)}


def _pattern(mesh):
    """CSR pattern and element operator, built from the sorted edge list.

    Row ``i`` holds its lower neighbours, then ``i``, then its upper
    neighbours.  ``mesh.edges`` is sorted by (min, max), so the upper
    neighbours of a vertex are consecutive edges, and a stable sort by the
    larger endpoint lists the lower ones in column order.  ``slot`` and
    ``colptr`` are the row indices and column pointers of the element
    operator, the (nnz, nt) CSC matrix whose column ``e`` takes the 9
    entries of triangle ``e`` to their positions in ``indices``.
    """
    n = mesh.n_vertices
    lo, hi = mesh.edges[:, 0], mesh.edges[:, 1]
    n_up = np.bincount(lo, minlength=n)
    n_low = np.bincount(hi, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_low + 1 + n_up, out=indptr[1:])
    diag = indptr[:-1] + n_low
    rank = np.arange(len(lo))
    up = diag[lo] + 1 + rank - (np.cumsum(n_up) - n_up)[lo]
    by_hi = np.argsort(hi, kind="stable")
    h = hi[by_hi]
    low = np.empty_like(up)
    low[by_hi] = indptr[h] + rank - (np.cumsum(n_low) - n_low)[h]
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[diag] = np.arange(n)
    indices[up] = hi
    indices[low] = lo
    t = mesh.triangles
    slot = np.empty((len(t), 3, 3), dtype=np.int32)
    for i in range(3):
        slot[:, i, i] = diag[t[:, i]]
        for j in range(3):
            if i != j:
                # local edge k of a triangle is opposite local vertex k
                k = mesh.tri_edges[:, 3 - i - j]
                slot[:, i, j] = np.where(t[:, i] < t[:, j], up[k], low[k])
    return {"indptr": indptr.astype(np.int32), "indices": indices,
            "slot": slot.reshape(-1),
            "colptr": np.arange(0, 9 * len(t) + 1, 9, dtype=np.int32)}


def _scatter(mesh, scale, entries):
    """The matrix on the mesh's pattern whose data sums
    ``entries[9 e + k] * scale[e]`` over the elements ``e`` at the slot of
    each element entry ``k``.

    The data is the element operator applied to ``scale``, through the
    kernel behind scipy's CSC ``B @ x`` (``csc_matvec`` of
    ``scipy.sparse._sparsetools``, which adds ``B x`` to its output).  It
    forms the same products and sums them per slot in ascending element
    order, as a ``bincount`` of the ``(nt, 3, 3)`` element matrices does,
    so the bits are the same.  The kernel checks no sizes, so they are
    checked here.  The matrix gets its own copy of the index arrays, so
    scipy methods that work in place on it leave the cached pattern intact.

    Raises
    ------
    ValueError
        If ``scale`` does not hold one weight per triangle, or ``entries``
        not nine per triangle.
    """
    ed = element_data(mesh)
    indptr, indices, slot = ed["indptr"], ed["indices"], ed["slot"]
    nt = mesh.n_triangles
    if np.shape(scale) != (nt,) or np.shape(entries) != slot.shape:
        raise ValueError(f"element weights do not fit {nt} triangles: "
                         f"{np.shape(scale)} and {np.shape(entries)}")
    data = np.zeros(len(indices))
    _sparsetools.csc_matvec(len(indices), nt, ed["colptr"], slot, entries,
                            scale, data)
    n = len(indptr) - 1
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))


def unit_mass(mesh):
    """Unit-density mass matrix, assembled once per mesh and shared by its
    callers; its data is read-only."""
    return derived(mesh, "unit_mass", _unit_mass)


def _unit_mass(mesh):
    M = assemble_mass(mesh, 1.0)
    M.data.flags.writeable = False
    return M


def assemble_mass(mesh, density=1.0):
    """Consistent mass matrix M_ij = density * integral(xi_i xi_j)."""
    density = np.asarray(density, dtype=np.float64)
    if np.any(density <= 0):
        raise ValueError("density must be positive")
    return weighted_mass(mesh, density)


def weighted_mass(mesh, per_element):
    """Mass matrix with a nonnegative element-constant weight.

    Raises
    ------
    ValueError
        If a weight is negative or NaN.
    """
    w = np.asarray(per_element, dtype=np.float64)
    if not (w >= 0).all():
        raise ValueError("mass weight must be nonnegative")
    entries = np.tile(_MASS_PATTERN.reshape(-1), mesh.n_triangles)
    return _scatter(mesh, w * element_data(mesh)["area"], entries)


def assemble_stiffness(mesh, coeff):
    """Stiffness A_ij = sum_tau c_tau integral(grad xi_i . grad xi_j).

    ``coeff`` may be a scalar, a per-element array, or a nodal
    :class:`FeFunction` (averaged per element, which integrates a linear
    coefficient exactly against the constant P1 gradients).

    Raises
    ------
    ValueError
        If a coefficient is negative or NaN.
    """
    ed = element_data(mesh)
    if isinstance(coeff, FeFunction):
        coeff.check_bound(mesh)
        c = element_means(coeff.values, mesh.triangles)
    else:
        c = np.asarray(coeff, dtype=np.float64)
    if not (c >= 0).all():
        raise ValueError("stiffness coefficient must be nonnegative")
    return _scatter(mesh, c * ed["area"], ed["stiffness"])


def assemble_load(mesh, f):
    """Load vector b_i = integral(f_h xi_i) for a nodal f."""
    f.check_bound(mesh)
    return unit_mass(mesh) @ f.values


def apply_dirichlet(A, b, ds):
    """Symmetric elimination of constrained dofs.

    Returns a new pair ``(A', b')`` with constrained rows and columns zeroed,
    unit diagonal on constrained dofs, and the right-hand side adjusted so
    that the free block solves the original problem with the prescribed
    values substituted.  ``A'`` keeps the sparsity pattern of ``A`` (the
    eliminated entries stay as explicit zeros); ``A`` is not modified.
    Without constrained dofs the pair is ``(A, b)`` itself, not a copy.

    Raises
    ------
    ValueError
        If a constrained dof is out of range, or its row of ``A`` does not
        store its diagonal exactly once (every matrix on a mesh's pattern
        stores each diagonal once).
    """
    n = b.shape[0]
    if len(ds.dofs) == 0:
        return A, b
    if ds.dofs.min() < 0 or ds.dofs.max() >= n:
        raise ValueError("Dirichlet dof out of range")
    b2 = dirichlet_rhs(A, b, ds)
    A = A.tocsr()
    pinned = np.zeros(n, dtype=bool)
    pinned[ds.dofs] = True
    counts = np.diff(A.indptr)
    in_row = np.repeat(pinned, counts)
    data = A.data.copy()
    data[in_row | pinned[A.indices]] = 0.0
    # entries of pinned rows, in row order; keep those on the diagonal
    slots = np.flatnonzero(in_row)
    rows = np.repeat(np.flatnonzero(pinned), counts[pinned])
    diag = slots[A.indices[slots] == rows]
    if not np.array_equal(A.indices[diag], np.sort(ds.dofs)):
        raise ValueError("a constrained row does not store its diagonal "
                         "exactly once")
    data[diag] = 1.0
    return sp.csr_matrix((data, A.indices.copy(), A.indptr.copy()),
                         shape=A.shape), b2


def dirichlet_rhs(A, b, ds):
    """The right-hand side that :func:`apply_dirichlet` returns, without the
    matrix: ``b - A g`` on the free rows, for ``g`` the prescribed values
    extended by zero, and the prescribed values on the constrained rows.
    A matrix eliminated once serves every right-hand side with the same
    constrained dofs."""
    n = b.shape[0]
    g = np.zeros(n)
    g[ds.dofs] = ds.values
    free = np.ones(n)
    free[ds.dofs] = 0.0
    b2 = free * (b - A @ g)
    b2[ds.dofs] = ds.values
    return b2


def transfer(src, src_mesh, dst_mesh):
    """Carry nodal values to the next mesh generation.

    Surviving vertices keep their values; each bisection midpoint takes the
    average of its edge endpoints, which reproduces the P1 field exactly
    under refinement.
    """
    src.check_bound(src_mesh)
    vals = _walk_provenance(src.values, src_mesh, dst_mesh,
                            lambda a, b: 0.5 * (a + b))
    return FeFunction(vals, dst_mesh.generation)


def transfer_pinned(pinned_mask, src_mesh, dst_mesh):
    """Propagate a boolean pinned-dof mask: a midpoint is pinned only if
    both its parent endpoints are."""
    return _walk_provenance(pinned_mask, src_mesh, dst_mesh, np.logical_and)


def _walk_provenance(values, src_mesh, dst_mesh, midpoint):
    """Nodal ``values`` on ``dst_mesh``: a surviving vertex keeps its value,
    a bisection midpoint gets ``midpoint`` of its edge endpoints' values."""
    if dst_mesh.source_generation != src_mesh.generation or \
            dst_mesh.vertex_prov is None:
        raise ValueError("destination mesh was not adapted from source mesh")
    prov = dst_mesh.vertex_prov
    out = np.empty(dst_mesh.n_vertices, dtype=values.dtype)
    keep = prov[:, 1] < 0
    out[keep] = values[prov[keep, 0]]
    mids = ~keep
    out[mids] = midpoint(out[prov[mids, 0]], out[prov[mids, 1]])
    return out


def element_gradients(u, mesh):
    """Constant gradient of a P1 field on each triangle, shape (nt, 2).

    Each component is ``g0 u0 + g1 u1 + g2 u2`` over the corners, the
    order in which ``einsum('nik,ni->nk')`` sums, so the bits are the same
    at less than half its cost.
    """
    u.check_bound(mesh)
    g = element_data(mesh)["grads"]
    uc = u.values[mesh.triangles]
    out = np.empty((len(uc), 2))
    for c in range(2):
        out[:, c] = (g[:, 0, c] * uc[:, 0] + g[:, 1, c] * uc[:, 1]
                     + g[:, 2, c] * uc[:, 2])
    return out
