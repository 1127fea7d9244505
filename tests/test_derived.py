"""Per-mesh derived data: one cache entry point, and a cache that holds
nothing but values rebuilt bit for bit from a mesh's primary data."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture_afem.driver import build_dirichlet
from fracture_afem.dynamics import LoadingParams, MaterialParams
from fracture_afem.estimator import estimate
from fracture_afem.fem import FeFunction, element_data, unit_mass
from fracture_afem.mesh import (InitialGrid, Mesh, MeshGeometry, _first_use,
                                adapt, build_initial_mesh, element_means,
                                geometry, grid_weights, stable_sort)
from fracture_afem.multigrid import _hierarchy, entry_level, mesh_prolongation
from fracture_afem.phasefield import phasefield_system, reaction_weight

SRC = Path(__file__).resolve().parents[1] / "src" / "fracture_afem"
MP = MaterialParams(epsilon=0.2)

# every per-mesh entry, each built by one producer
MESH_KEYS = {"signed_areas", "boundary", "elem", "unit_mass", "phasefield",
             "geometry", "mg", "dirichlet"}


def test_only_the_mesh_module_touches_the_cache():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert "mesh.py" in modules and "fem.py" in modules
    assert sorted(name for name, text in modules.items()
                  if name != "mesh.py" and "._cache" in text) == []


@st.composite
def adapt_chains(draw):
    """The meshes of a short random adapt chain on a dyadic or a non-dyadic
    domain, with or without slit."""
    (lx, ly), slit = draw(st.sampled_from([
        ((3.0, 3.0), (0.0, 1.5, 1.5)), ((1.0, 0.7), (0.0, 0.5, 0.35)),
        ((3.0, 3.0), None), ((1.0, 0.7), None)]))
    n0 = 2 * draw(st.integers(1, 3)) if slit else draw(st.integers(1, 5))
    mesh = build_initial_mesh((lx, ly), slit, n0,
                              max_levels=draw(st.integers(1, 4)))
    chain = [mesh]
    for _ in range(draw(st.integers(0, 3))):
        n = mesh.n_triangles
        refine = sorted(draw(st.sets(st.integers(0, n - 1),
                                     max_size=min(n, 30))))
        coarsen = np.setdiff1d(np.arange(n), refine) \
            if draw(st.booleans()) else []
        mesh = adapt(mesh, refine, coarsen)
        chain.append(mesh)
    return chain


def build_all(mesh):
    """Build every cached value of ``mesh`` through the public producers."""
    u = FeFunction.zeros(mesh)
    element_data(mesh)
    unit_mass(mesh)
    phasefield_system(u, MP, mesh)
    estimate(u, FeFunction.constant(mesh, 1.0), mesh, MP)
    mesh_prolongation(mesh)
    build_dirichlet(mesh, 1.0, LoadingParams())


def twin(mesh):
    """A mesh built from primary data only: the arrays, generation and
    grid fields a checkpoint saves, with a grid of its own."""
    g = mesh.grid
    return Mesh(mesh.vertices.copy(), mesh.triangles.copy(),
                mesh.levels.copy(), generation=mesh.generation,
                max_levels=mesh.max_levels, child_side=mesh.child_side.copy(),
                grid=InitialGrid(g.domain, g.slit, g.n0))


def arrays(value):
    """The arrays a cached value is made of, in a fixed order."""
    if isinstance(value, np.ndarray):
        return [value]
    if sp.issparse(value):
        return [value.data, value.indices, value.indptr]
    if isinstance(value, Mesh):
        return [value.vertices, value.triangles, value.levels]
    if isinstance(value, dict):
        return [a for key in sorted(value) for a in arrays(value[key])]
    if isinstance(value, MeshGeometry):
        return arrays(vars(value))
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in arrays(item)]
    raise TypeError(f"unexpected cached type {type(value).__name__}")


def assert_same_cache(cache, other):
    assert set(cache) == set(other)
    for key in cache:
        mine, theirs = arrays(cache[key]), arrays(other[key])
        assert len(mine) == len(theirs), key
        for a, b in zip(mine, theirs):
            assert a.dtype == b.dtype and a.shape == b.shape, key
            assert a.tobytes() == b.tobytes(), key


@settings(max_examples=25, deadline=None)
@given(adapt_chains())
def test_cached_values_are_derived_from_primary_data_only(chain):
    for mesh in chain:
        build_all(mesh)
    for mesh in chain:
        other = twin(mesh)
        build_all(other)
        assert set(mesh._cache) == MESH_KEYS
        assert_same_cache(mesh._cache, other._cache)
        assert_same_cache(mesh.grid._cache, other.grid._cache)
        # the cached arrays that callers share are read-only
        assert not mesh.signed_areas().flags.writeable
        assert not unit_mass(mesh).data.flags.writeable
        assert not element_data(mesh)["stiffness"].flags.writeable
        assert not any(a.flags.writeable for a in mesh._cache["dirichlet"])
        assert not any(a.flags.writeable for a in arrays(geometry(mesh)))
        assert element_data(mesh)["area"] is mesh.signed_areas()


# ----------------------------------------------------------------------
# Oracles: the formulas the per-mesh builders replaced, kept here only
# ----------------------------------------------------------------------

def assert_same(got, want):
    """One dtype and shape and the same bits; ``np.array_equal`` alone
    misses a zero that changed sign."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def edges_oracle(mesh):
    """Edges, triangle-edge and edge-triangle maps and boundary flags from
    row-gathered edge keys and their stable argsort."""
    t = mesh.triangles
    n = int(t.max()) + 1
    a, b = t[:, [1, 2, 0]].ravel(), t[:, [2, 0, 1]].ravel()
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    order = np.argsort(keys, kind="stable")
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[order][1:] != keys[order][:-1]
    starts = np.flatnonzero(first)
    uniq = keys[order][starts]
    inv = np.empty(len(keys), dtype=np.int64)
    inv[order] = np.cumsum(first) - 1
    counts = np.diff(np.append(starts, len(keys)))
    edge_tris = np.full((len(uniq), 2), -1, dtype=np.int64)
    edge_tris[:, 0] = (order // 3)[starts]
    edge_tris[counts == 2, 1] = (order // 3)[starts[counts == 2] + 1]
    return {"edges": np.column_stack([uniq // n, uniq % n]),
            "tri_edges": inv.reshape(-1, 3), "edge_tris": edge_tris,
            "boundary_edge_mask": counts == 1}


def element_oracle(mesh):
    """Areas, gradients and unit stiffness entries from the ``(nt, 3, 2)``
    row gather of the corners; the gradients read in the ``(2, 3, nt)``
    component-major layout."""
    v, t = mesh.vertices, mesh.triangles
    d1, d2 = v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    x = v[t]
    b = x[:, [1, 2, 0], 1] - x[:, [2, 0, 1], 1]
    c = x[:, [2, 0, 1], 0] - x[:, [1, 2, 0], 0]
    grads = np.stack([b, c], axis=2) / (2.0 * area)[:, None, None]
    stiffness = grads[:, :, None, 0] * grads[:, None, :, 0]
    stiffness += grads[:, :, None, 1] * grads[:, None, :, 1]
    return {"area": area, "grads": grads.transpose(2, 1, 0),
            "stiffness": stiffness.ravel()}


def pattern_oracle(mesh):
    """The CSR pattern and element slots, the lower neighbours of each
    vertex listed by a stable argsort of the larger edge ends."""
    n = mesh.n_vertices
    lo, hi = mesh.edges[:, 0], mesh.edges[:, 1]
    n_up, n_low = np.bincount(lo, minlength=n), np.bincount(hi, minlength=n)
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
    indices[diag], indices[up], indices[low] = np.arange(n), hi, lo
    t = mesh.triangles
    slot = np.empty((len(t), 3, 3), dtype=np.int32)
    for i in range(3):
        slot[:, i, i] = diag[t[:, i]]
        for j in set(range(3)) - {i}:
            k = mesh.tri_edges[:, 3 - i - j]
            slot[:, i, j] = np.where(t[:, i] < t[:, j], up[k], low[k])
    return {"indptr": indptr.astype(np.int32), "indices": indices,
            "slot": slot.ravel()}


def estimator_oracle(mesh):
    """Diameters, edge lengths and boundary normals from row gathers and
    ``np.linalg.norm``; the interior edges, their triangles and the
    boundary edges' triangles from the boundary mask."""
    v = mesh.vertices
    he = np.linalg.norm(v[mesh.edges[:, 1]] - v[mesh.edges[:, 0]], axis=1)
    h = he[mesh.tri_edges].max(axis=1)
    bnd = np.flatnonzero(mesh.boundary_edge_mask)
    tb = mesh.edge_tris[bnd, 0]
    loc = np.argmax(mesh.tri_edges[tb] == bnd[:, None], axis=1)
    tri = mesh.triangles[tb]
    rows = np.arange(len(tb))
    tang = v[tri[rows, (loc + 2) % 3]] - v[tri[rows, (loc + 1) % 3]]
    normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / he[bnd, None]
    interior = np.flatnonzero(~mesh.boundary_edge_mask)
    return h, he, normals, interior, mesh.edge_tris[interior].T, tb


def element_residual_oracle(u, v, mesh, params):
    """The element residual of the indicator, formed on the ``(nt, 3)`` row
    gather of ``v``."""
    vv = v.values[mesh.triangles]
    vmid = 0.5 * (vv[:, [1, 2, 0]] + vv[:, [2, 0, 1]])
    a_tau = reaction_weight(u, params, mesh)
    sq = (a_tau[:, None] * vmid - params.nu_pf) ** 2
    geo = geometry(mesh)
    return geo.h ** 2 * (geo.area / 3.0) * sq.sum(axis=1)


def grid_weights_oracle(coarse, fine):
    """The corners and weights of ``grid_weights``, each weight picked by
    ``np.select`` from its four cases."""
    grid, pts = coarse.grid, fine.vertices
    n, (lx, ly) = grid.n0, grid.domain
    xn, yn = pts[:, 0] * n / lx, pts[:, 1] * n / ly
    i = np.clip(np.floor(xn), 0, n - 1).astype(np.int64)
    j = np.clip(np.floor(yn), 0, n - 1).astype(np.int64)
    if grid.slit is not None:
        tri = fine.triangles
        upper = np.zeros(len(pts), dtype=bool)
        upper[tri[grid.above(element_means(pts[:, 1], tri))].ravel()] = True
        jy = grid.slit_index[2]
        j = np.where(grid.on_slit(pts), np.where(upper, jy, jy - 1), j)
    s, t = np.clip(xn - i, 0.0, 1.0), np.clip(yn - j, 0.0, 1.0)
    even = (i + j) % 2 == 0
    d = np.where(even, s - t, s + t - 1.0)
    left = d < 0.0
    case = [even & ~left, even & left, ~even & ~left, ~even & left]
    w = np.column_stack([np.abs(d), np.select(case, [t, 1.0 - t, 1.0 - s, s]),
                         np.select(case, [1.0 - s, s, 1.0 - t, t])])
    return coarse.triangles[2 * (j * n + i) + left], w


def prolongation_oracle(coarse, fine):
    """``(P, P^T)`` from COO triplets of the grid weights, which scipy
    converts to CSR with a sort of every row."""
    cols, w = grid_weights(coarse, fine)
    keep = w > 0.0
    rows = np.repeat(np.arange(fine.n_vertices), 3).reshape(-1, 3)
    P = sp.csr_matrix((w[keep], (rows[keep], cols[keep])),
                      shape=(fine.n_vertices, coarse.n_vertices))
    return P, P.T.tocsr()


def first_use_oracle(keys):
    """Each key's number in the order of first appearance, and the flags
    of first appearances, from ``np.unique``."""
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    born = np.argsort(first)
    rank = np.empty_like(born)
    rank[born] = np.arange(len(born))
    flags = np.zeros(len(keys), dtype=bool)
    flags[first] = True
    return rank[inv], flags


@settings(max_examples=25, deadline=None)
@given(adapt_chains())
def test_builders_equal_the_formulas_they_replaced(chain):
    for mesh in chain:
        for name, want in edges_oracle(mesh).items():
            assert_same(getattr(mesh, name), want)
        ed = element_data(mesh)
        for name, want in {**element_oracle(mesh),
                           **pattern_oracle(mesh)}.items():
            assert_same(ed[name], want)
        assert_same(mesh.signed_areas(), ed["area"])
        geo = geometry(mesh)
        assert geo.area is mesh.signed_areas()
        got = (geo.h, geo.edge_lengths, geo.boundary_normals, geo.interior,
               geo.interior_tris, geo.boundary_tris)
        want = estimator_oracle(mesh)
        # every field but the area, checked above
        assert len(got) == len(want) == len(vars(geo)) - 1
        for a, b in zip(got, want):
            assert_same(a, b)
        # with rho_pf = 0 the edge terms add +0.0, so r2 is the element
        # residual alone
        rng = np.random.default_rng(mesh.n_vertices)
        u, v = (FeFunction(rng.uniform(-1.0, 1.0, mesh.n_vertices),
                           mesh.generation) for _ in range(2))
        params = SimpleNamespace(mu=1.3, kappa=1e-10, nu_pf=0.7, rho_pf=0.0)
        assert_same(estimate(u, v, mesh, params).r2,
                    element_residual_oracle(u, v, mesh, params))
        coarse = _hierarchy(mesh.grid, entry_level(mesh))[0][0]
        for got, want in zip(grid_weights(coarse, mesh),
                             grid_weights_oracle(coarse, mesh)):
            assert_same(got, want)
        for got, want in zip(mesh_prolongation(mesh),
                             prolongation_oracle(coarse, mesh)):
            for name in ("data", "indices", "indptr"):
                assert_same(getattr(got, name), getattr(want, name))
        # the above-slit test of grid_weights reads the mean of y alone
        pts, t = mesh.vertices, mesh.triangles
        assert_same(element_means(pts[:, 1], t), element_means(pts, t)[:, 1])
        # stable_sort on a key with many ties, the peaks, and the sort of
        # adapt: the midpoints of _refine, numbered by their edge ids
        peaks = t[:, 0]
        order = np.argsort(peaks, kind="stable")
        assert_same(stable_sort(peaks)[1], order)
        assert_same(stable_sort(peaks)[0], peaks[order])
        for keys in (mesh.tri_edges.ravel(), t.ravel()):
            for got, want in zip(_first_use(keys), first_use_oracle(keys)):
                assert_same(got, want)
