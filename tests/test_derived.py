"""Per-mesh derived data: one cache entry point, and a cache that holds
nothing but values rebuilt bit for bit from a mesh's primary data."""

from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture_afem.driver import build_dirichlet
from fracture_afem.dynamics import LoadingParams, MaterialParams
from fracture_afem.estimator import estimate
from fracture_afem.fem import FeFunction, element_data, unit_mass
from fracture_afem.mesh import InitialGrid, Mesh, adapt, build_initial_mesh
from fracture_afem.multigrid import mesh_prolongation
from fracture_afem.phasefield import phasefield_system

SRC = Path(__file__).resolve().parents[1] / "src" / "fracture_afem"
MP = MaterialParams(epsilon=0.2)

# every per-mesh entry, each built by one producer
MESH_KEYS = {"signed_areas", "boundary", "elem", "unit_mass", "phasefield",
             "estimator", "mg", "dirichlet"}


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
    """A mesh built from primary data only: the arrays, counters and grid
    fields a checkpoint saves, with a grid of its own."""
    g = mesh.grid
    return Mesh(mesh.vertices.copy(), mesh.triangles.copy(),
                mesh.levels.copy(), generation=mesh.generation,
                max_levels=mesh.max_levels, pair_tags=mesh.pair_tags.copy(),
                tag_counter=mesh.tag_counter,
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
        assert element_data(mesh)["area"] is mesh.signed_areas()
