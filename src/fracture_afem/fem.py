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

__all__ = [
    "FeFunction",
    "DirichletSet",
    "element_data",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_load",
    "apply_dirichlet",
    "unit_mass",
    "transfer",
    "element_gradients",
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
    """Constrained dofs and their prescribed values."""

    dofs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.dofs = np.asarray(self.dofs, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.dofs) != len(self.values):
            raise ValueError("dof/value length mismatch")
        uniq, first = np.unique(self.dofs, return_index=True)
        if len(uniq) != len(self.dofs):
            # tolerate exact repeats, reject conflicts
            order = np.argsort(self.dofs, kind="stable")
            d, v = self.dofs[order], self.values[order]
            same = d[1:] == d[:-1]
            if (same & (v[1:] != v[:-1])).any():
                raise ValueError("conflicting values for a repeated dof")
            self.dofs, self.values = uniq, v[np.searchsorted(d, uniq)]


# ----------------------------------------------------------------------
# Element caches
# ----------------------------------------------------------------------

_MASS_PATTERN = np.array([[2.0, 1.0, 1.0],
                          [1.0, 2.0, 1.0],
                          [1.0, 1.0, 2.0]]) / 12.0


def element_data(mesh):
    """Per-element areas and shape-function gradients, and the CSR pattern
    of the P1 matrices, cached on the mesh.

    The pattern holds the diagonal and both directions of every mesh edge,
    with sorted column indices.  ``slot`` maps the ``9 nt`` element entries
    (row-major within each triangle) to their positions in ``indices``, so
    assembly is one ``bincount`` onto a fixed pattern.
    """
    cached = mesh._cache.get("elem")
    if cached is not None:
        return cached
    x = mesh.vertices[mesh.triangles]           # (nt, 3, 2)
    b = x[:, [1, 2, 0], 1] - x[:, [2, 0, 1], 1]
    c = x[:, [2, 0, 1], 0] - x[:, [1, 2, 0], 0]
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    # rows of grads are the constant gradients of the three hat functions
    grads = np.stack([b, c], axis=2) / (2.0 * area)[:, None, None]
    cached = {"area": area, "grads": grads, **_pattern(mesh)}
    mesh._cache["elem"] = cached
    return cached


def _pattern(mesh):
    """CSR pattern and element slot map, built from the sorted edge list.

    Row ``i`` holds its lower neighbours, then ``i``, then its upper
    neighbours.  ``mesh.edges`` is sorted by (min, max), so the upper
    neighbours of a vertex are consecutive edges, and a stable sort by the
    larger endpoint lists the lower ones in column order.
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
            "slot": slot.reshape(-1)}


def _scatter(mesh, local):
    """Sum the (nt, 3, 3) element entries onto the mesh's pattern.

    The matrix gets its own copy of the index arrays, so scipy methods that
    work in place on it leave the cached pattern intact.
    """
    ed = element_data(mesh)
    indptr, indices = ed["indptr"], ed["indices"]
    data = np.bincount(ed["slot"], weights=local.reshape(-1),
                       minlength=len(indices))
    n = len(indptr) - 1
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))


def unit_mass(mesh):
    """Unit-density mass matrix, assembled once per mesh and shared by its
    callers; its data is read-only."""
    M = mesh._cache.get("unit_mass")
    if M is None:
        M = assemble_mass(mesh, 1.0)
        M.data.flags.writeable = False
        mesh._cache["unit_mass"] = M
    return M


def assemble_mass(mesh, density=1.0):
    """Consistent mass matrix M_ij = density * integral(xi_i xi_j)."""
    density = np.asarray(density, dtype=np.float64)
    if np.any(density <= 0):
        raise ValueError("density must be positive")
    ed = element_data(mesh)
    w = density * ed["area"]
    local = w[:, None, None] * _MASS_PATTERN[None, :, :]
    return _scatter(mesh, local)


def weighted_mass(mesh, per_element):
    """Mass matrix with a nonnegative element-constant weight."""
    w = np.asarray(per_element, dtype=np.float64)
    ed = element_data(mesh)
    local = (w * ed["area"])[:, None, None] * _MASS_PATTERN[None, :, :]
    return _scatter(mesh, local)


def assemble_stiffness(mesh, coeff):
    """Stiffness A_ij = sum_tau c_tau integral(grad xi_i . grad xi_j).

    ``coeff`` may be a scalar, a per-element array, or a nodal
    :class:`FeFunction` (averaged per element, which integrates a linear
    coefficient exactly against the constant P1 gradients).
    """
    ed = element_data(mesh)
    if isinstance(coeff, FeFunction):
        coeff.check_bound(mesh)
        c = coeff.values[mesh.triangles].mean(axis=1)
    else:
        c = np.asarray(coeff, dtype=np.float64)
        if c.ndim == 0:
            c = np.full(mesh.n_triangles, float(c))
    if (c < 0).any():
        raise ValueError("stiffness coefficient must be nonnegative")
    G = ed["grads"]
    local = np.einsum('nik,njk->nij', G, G) * (c * ed["area"])[:, None, None]
    return _scatter(mesh, local)


def assemble_load(mesh, f):
    """Load vector b_i = integral(f_h xi_i) for a nodal f."""
    f.check_bound(mesh)
    return assemble_mass(mesh, 1.0) @ f.values


def apply_dirichlet(A, b, ds):
    """Symmetric elimination of constrained dofs.

    Returns a new pair ``(A', b')`` with constrained rows and columns zeroed,
    unit diagonal on constrained dofs, and the right-hand side adjusted so
    that the free block solves the original problem with the prescribed
    values substituted.  ``A'`` keeps the sparsity pattern of ``A`` (the
    eliminated entries stay as explicit zeros); ``A`` is not modified.
    """
    n = b.shape[0]
    if len(ds.dofs) == 0:
        return A.copy(), b.copy()
    if ds.dofs.min() < 0 or ds.dofs.max() >= n:
        raise ValueError("Dirichlet dof out of range")
    g = np.zeros(n)
    g[ds.dofs] = ds.values
    free = np.ones(n)
    free[ds.dofs] = 0.0
    b2 = free * (b - A @ g)
    b2[ds.dofs] = ds.values
    A = A.tocsr()
    pinned = free == 0.0
    counts = np.diff(A.indptr)
    in_row = np.repeat(pinned, counts)
    data = A.data.copy()
    data[in_row | pinned[A.indices]] = 0.0
    # entries of pinned rows, in row order; keep those on the diagonal
    slots = np.flatnonzero(in_row)
    rows = np.repeat(np.flatnonzero(pinned), counts[pinned])
    diag = slots[A.indices[slots] == rows]
    if len(diag) == len(ds.dofs):
        data[diag] = 1.0
        return sp.csr_matrix((data, A.indices.copy(), A.indptr.copy()),
                             shape=A.shape), b2
    # some pinned row stores no diagonal entry, or stores it twice
    A2 = sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape) \
        + sp.diags(pinned.astype(np.float64))
    return A2.tocsr(), b2


def transfer(src, src_mesh, dst_mesh):
    """Carry nodal values to the next mesh generation.

    Surviving vertices keep their values; each bisection midpoint takes the
    average of its edge endpoints, which reproduces the P1 field exactly
    under refinement.
    """
    src.check_bound(src_mesh)
    if dst_mesh.source_generation != src_mesh.generation or \
            dst_mesh.vertex_prov is None:
        raise ValueError("destination mesh was not adapted from source mesh")
    prov = dst_mesh.vertex_prov
    vals = np.empty(dst_mesh.n_vertices)
    keep = prov[:, 1] < 0
    vals[keep] = src.values[prov[keep, 0]]
    mids = ~keep
    vals[mids] = 0.5 * (vals[prov[mids, 0]] + vals[prov[mids, 1]])
    return FeFunction(vals, dst_mesh.generation)


def transfer_pinned(pinned_mask, src_mesh, dst_mesh):
    """Propagate a boolean pinned-dof mask: a midpoint is pinned only if
    both its parent endpoints are."""
    if dst_mesh.source_generation != src_mesh.generation or \
            dst_mesh.vertex_prov is None:
        raise ValueError("destination mesh was not adapted from source mesh")
    prov = dst_mesh.vertex_prov
    out = np.zeros(dst_mesh.n_vertices, dtype=bool)
    keep = prov[:, 1] < 0
    out[keep] = pinned_mask[prov[keep, 0]]
    mids = ~keep
    out[mids] = out[prov[mids, 0]] & out[prov[mids, 1]]
    return out


def element_gradients(u, mesh):
    """Constant gradient of a P1 field on each triangle, shape (nt, 2)."""
    u.check_bound(mesh)
    ed = element_data(mesh)
    return np.einsum('nik,ni->nk', ed["grads"], u.values[mesh.triangles])
