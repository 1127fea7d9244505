"""Mesh construction, bisection refinement, coarsening and geometry."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracture_afem.fem import FeFunction, transfer, transfer_pinned
from fracture_afem.mesh import (AdaptSummary, BoundaryLabel, InitialGrid,
                                Mesh, _can_merge, _closure, _coarsen, adapt,
                                build_initial_mesh, element_means, geometry,
                                stable_sort)
from test_multigrid import adapted_slit_meshes

DOMAIN3 = (3.0, 3.0)
SLIT = (0.0, 1.5, 1.5)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def duplicated_slit_vertices(n0, lx, slit):
    """Brute-force enumeration of grid points that must be duplicated:
    points on the slit line strictly left of an interior tip (boundary
    endpoints included, interior tips excluded)."""
    sx0, sx1, sy = slit
    dx = lx / n0
    count = 0
    for i in range(n0 + 1):
        x = i * dx
        if sx0 <= x <= sx1:
            if x == sx0 and sx0 > 0.0:
                continue
            if x == sx1 and sx1 < lx:
                continue
            count += 1
    return count


def check_conforming(mesh):
    """Exhaustive conformity check: every edge has 1 or 2 incident
    triangles, boundary edges are exactly the 1-incident ones."""
    from collections import Counter
    cnt = Counter()
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            cnt[(min(a, b), max(a, b))] += 1
    assert set(cnt.values()) <= {1, 2}
    boundary = {e for e, c in cnt.items() if c == 1}
    assert boundary == set(mesh.boundary_labels)


def hand_bisect(verts, tri):
    """Single-bisection oracle for one triangle (peak-first storage)."""
    v0, v1, v2 = tri
    m = 0.5 * (verts[v1] + verts[v2])
    return m, [(v0, v1), (v2, v0)]


def vetoing_closure(mesh, refine_ids):
    """Edge marks and skipped requests of a closure that applies the level
    veto as it goes: each pass forbids and unmarks every edge of a triangle
    that holds a marked edge but cannot bisect, then adds the refinement
    edges the marks need, until neither changes anything.  On meshes that
    keep the newest-vertex rule, ``_closure`` must give the same marks
    without any veto."""
    T = mesh.tri_edges
    lev = mesh.levels
    cap = mesh.max_levels
    marked = np.zeros(mesh.n_edges, dtype=bool)
    forbidden = np.zeros(mesh.n_edges, dtype=bool)
    forbidden[T[lev >= cap].ravel()] = True
    at_rim = lev == cap - 1
    if at_rim.any():
        forbidden[T[at_rim][:, 1:].ravel()] = True
    want = T[refine_ids, 0]
    marked[want[~forbidden[want]]] = True
    while True:
        changed = False
        m3 = marked[T]
        blocked = m3.any(axis=1) & forbidden[T[:, 0]]
        if blocked.any():
            bad = T[blocked].ravel()
            if marked[bad].any() or (~forbidden[bad]).any():
                changed = True
            forbidden[bad] = True
            marked[bad] = False
            m3 = marked[T]
        need = m3.any(axis=1) & ~m3[:, 0]
        add = T[need, 0]
        add = add[~forbidden[add]]
        if add.size:
            changed = True
            marked[add] = True
        if not changed:
            break
    return marked, int((~marked[want]).sum())


def check_closure(mesh, refine_ids):
    """``_closure`` against :func:`vetoing_closure`; returns the summary."""
    ids = np.unique(np.asarray(refine_ids, dtype=np.int64))
    summary = AdaptSummary()
    marked = _closure(mesh, ids, summary)
    want, skipped = vetoing_closure(mesh, ids)
    assert np.array_equal(marked, want)
    assert summary.skipped_capped == skipped
    assert summary.refined == int(want[mesh.tri_edges[:, 0]].sum())
    return summary


def rank_loop_pairs(mesh, coarsen_ids, marked):
    """The merged pairs of the rank loop that the closed-form pairing of
    ``_coarsen`` replaced: ``(right, left)`` in the order the parents are
    appended, and the count of eligible triangles left unmerged.

    The triangles around each removable peak, by peak and then by id, each
    pair with its counterclockwise successor there, found in a dict.
    A second child followed by a first child is claimed first; then, rank
    by rank within each peak, each unclaimed right child takes its
    successor if that is unclaimed too.  A peak goes only when every
    triangle around it was claimed, and one with four triangles only when
    each has a successor: an open four-star, at the slit's interior tip,
    stays."""
    v, t, side = mesh.vertices, mesh.triangles, mesh.child_side
    nt, nv = mesh.n_triangles, mesh.n_vertices
    elig = np.zeros(nt, dtype=bool)
    elig[coarsen_ids] = True
    elig &= (mesh.levels >= 1) & ~marked[mesh.tri_edges].any(axis=1)
    free = np.zeros(nv, dtype=bool)
    free[t[elig, 0]] = True
    free[t[~elig, 0]] = False
    free[t[:, 1:].ravel()] = False
    star = np.flatnonzero(free[t[:, 0]])
    star = star[np.argsort(t[star, 0], kind="stable")]
    peak = t[star, 0]
    first = np.r_[True, peak[1:] != peak[:-1]][:len(peak)]
    group = np.cumsum(first) - 1
    rank = np.arange(len(star)) - np.flatnonzero(first)[group]
    at = {(m, b): i for m, b, i in zip(peak.tolist(), t[star, 1].tolist(),
                                        star.tolist())}
    succ = np.array([at.get((m, c), -1) for m, c in
                     zip(peak.tolist(), t[star, 2].tolist())], dtype=np.int64)
    has = succ >= 0
    pair_ok = np.zeros(len(star), dtype=bool)
    pair_ok[has] = _can_merge(v, t, star[has], succ[has])
    sib = pair_ok & (side[star] == 1) & (side[succ] == 0)
    right, left = [star[sib]], [succ[sib]]
    claimed = np.zeros(nt, dtype=bool)
    claimed[right[0]] = claimed[left[0]] = True
    for r in range(rank.max(initial=-1) + 1):
        at = np.flatnonzero(rank == r)
        i, j = star[at], succ[at]
        go = pair_ok[at] & ~claimed[i]
        go[go] &= ~claimed[j[go]]
        claimed[i[go]] = claimed[j[go]] = True
        right.append(i[go])
        left.append(j[go])
    right, left = np.concatenate(right), np.concatenate(left)
    second = np.arange(len(right)) >= sib.sum()
    size = np.bincount(group)
    done = np.bincount(group[claimed[star]], minlength=len(size))
    closed = np.bincount(group[has], minlength=len(size)) == size
    keep = np.isin(t[right, 0],
                   peak[first][(done == size) & ((size == 2) | closed)])
    right, left, second = right[keep], left[keep], second[keep]
    order = np.lexsort((right, second, t[right, 0]))
    return right[order], left[order], int(elig.sum() - 2 * len(right))


def check_pairs(mesh, coarsen_ids, marked):
    """The rows ``_coarsen`` writes against :func:`rank_loop_pairs`: the
    kept triangles in their order, then the parent of each pair, in its
    order; returns the right children, the skipped count of the rank loop
    and the rows."""
    right, left, skipped = rank_loop_pairs(mesh, coarsen_ids, marked)
    tris, prov = (_coarsen(mesh, coarsen_ids, marked, AdaptSummary())[k]
                  for k in (1, 4))
    t = mesh.triangles
    kept = np.setdiff1d(np.arange(mesh.n_triangles),
                        np.concatenate([right, left]))
    want = np.vstack([t[kept], np.column_stack([t[right, 2], t[left, 2],
                                                t[right, 1]])])
    assert np.array_equal(prov[tris, 0], want)
    return right, skipped, tris


def check_coarsening(mesh, refine_ids, coarsen_ids):
    """``adapt`` against :func:`rank_loop_pairs` on the closure's marks:
    the merged pairs and their order (:func:`check_pairs`), the whole
    summary, and the triangles where nothing is bisected; returns the new
    mesh."""
    refine_ids, coarsen_ids = (np.unique(np.asarray(ids, dtype=np.int64))
                               for ids in (refine_ids, coarsen_ids))
    closed = AdaptSummary()
    marked = _closure(mesh, refine_ids, closed)
    right, skipped, tris = check_pairs(mesh, coarsen_ids, marked)
    new = adapt(mesh, refine_ids, coarsen_ids)
    assert new.adapt_summary == AdaptSummary(
        len(refine_ids), closed.refined, closed.skipped_capped,
        len(coarsen_ids), len(right), skipped)
    if not closed.refined:
        assert np.array_equal(new.triangles, tris)
    return new


# ----------------------------------------------------------------------
# build_initial_mesh
# ----------------------------------------------------------------------

def test_single_split_quad():
    m = build_initial_mesh((1.0, 1.0), None, 1)
    assert m.n_triangles == 2
    assert m.n_vertices == 4
    check_conforming(m)


def test_slit_vertex_duplication_count():
    m = build_initial_mesh(DOMAIN3, SLIT, 64)
    expected_dups = duplicated_slit_vertices(64, 3.0, SLIT)
    assert expected_dups == 32
    assert m.n_vertices == 65 ** 2 + expected_dups


def test_slit_mesh_positive_areas_and_conforming():
    m = build_initial_mesh(DOMAIN3, SLIT, 64)
    assert (m.signed_areas() > 0).all()
    check_conforming(m)


def test_slit_misaligned_rejected():
    with pytest.raises(ValueError):
        build_initial_mesh(DOMAIN3, (0.0, 1.4, 1.5), 8)
    with pytest.raises(ValueError):
        build_initial_mesh(DOMAIN3, (0.0, 1.5, 1.3), 8)


def test_slit_requires_n0_at_least_two():
    with pytest.raises(ValueError):
        build_initial_mesh(DOMAIN3, SLIT, 1)
    with pytest.raises(ValueError):
        build_initial_mesh(DOMAIN3, None, 0)


@pytest.mark.parametrize("domain, slit, n0, message", [
    ((3.0, 3.0), SLIT, 1, "a slit requires n0 >= 2"),
    ((3.0, 3.0), (0.0, 0.0, 1.5), 16, "slit must have positive length"),
    ((3.0, 3.0), (1.5, 0.0, 1.5), 16, "slit must have positive length"),
    # an end within rounding of the other snaps onto it
    ((3.0, 3.0), (0.0, 1e-13, 1.5), 2, "slit must have positive length"),
    ((3.0, 3.0), (0.0, 1.5, 1.4), 16,
     "slit height 1.4 is not on an interior gridline"),
    ((3.0, 3.0), (0.0, 1.5, 3.0), 16,
     "slit height 3.0 is not on an interior gridline"),
    ((3.0, 3.0), (0.0, 3.5, 1.5), 16,
     "slit endpoint x=3.5 is not a grid vertex"),
    ((3.0, 3.0), (0.0, 1.5, float("nan")), 16,
     "slit height nan is not on an interior gridline"),
    ((3.0, 3.0), (0.0, float("inf"), 1.5), 16,
     "slit endpoint x=inf is not a grid vertex"),
    ((3.0, 3.0), None, 0, "n0 must be at least 1"),
    ((-3.0, 3.0), None, 4, "domain lengths lx, ly must be positive"),
    ((float("inf"), 3.0), None, 4, "domain lengths lx, ly must be positive"),
])
def test_layout_checked_by_the_grid_with_its_message(domain, slit, n0,
                                                     message):
    # the mesh build refuses a layout exactly as its grid does
    with pytest.raises(ValueError, match=re.escape(message)):
        InitialGrid(domain, slit, n0)
    with pytest.raises(ValueError, match=re.escape(message)):
        build_initial_mesh(domain, slit, n0)


def test_grid_keeps_the_snapped_slit_and_its_indices():
    g = InitialGrid((1, 1), (0, 0.5, 0.3), 10)
    assert g.domain == (1.0, 1.0) and g.n0 == 10
    assert g.slit == (0.0, 0.5, np.linspace(0.0, 1.0, 11)[3])
    assert g.slit_index == (0, 5, 3)
    assert InitialGrid((1.0, 1.0), None, 3).slit_index is None
    pts = np.array([[0.0, 0.3], [0.2, g.slit[2]], [0.6, g.slit[2]],
                    [0.4, 0.31]])
    assert g.on_slit(pts).tolist() == [False, True, False, False]
    assert g.above(pts[:, 1]).tolist() == [False, False, False, True]
    free = InitialGrid((1.0, 1.0), None, 3)
    assert free.above(pts[:, 1]).all() and not free.on_slit(pts).any()


def test_non_power_of_two_grid_labels_exactly():
    # exact endpoint coordinates keep labeling robust for any n0
    m = build_initial_mesh((3.0, 3.0), None, 47)
    assert m.n_triangles == 2 * 47 * 47
    check_conforming(m)


def test_boundary_labels_cover_fig_layout():
    m = build_initial_mesh(DOMAIN3, SLIT, 8)
    labs = set(m.boundary_labels.values())
    assert labs == {BoundaryLabel.BOTTOM, BoundaryLabel.RIGHT,
                    BoundaryLabel.TOP, BoundaryLabel.LEFT_UPPER,
                    BoundaryLabel.LEFT_LOWER, BoundaryLabel.SLIT}
    v = m.vertices
    for (a, b), lab in m.boundary_labels.items():
        mid = 0.5 * (v[a] + v[b])
        if lab is BoundaryLabel.LEFT_UPPER:
            assert mid[0] == 0.0 and mid[1] > 1.5
        elif lab is BoundaryLabel.LEFT_LOWER:
            assert mid[0] == 0.0 and mid[1] < 1.5
        elif lab is BoundaryLabel.SLIT:
            assert mid[1] == 1.5 and mid[0] < 1.5


def test_slit_row_off_its_decimal_value_still_labels_and_loads():
    # the grid row of y = 0.3 on ten cells of [0, 1] is 0.30000000000000004
    from fracture_afem.driver import RunConfig, build_dirichlet
    from fracture_afem.multigrid import mesh_prolongation
    m = build_initial_mesh((1.0, 1.0), (0.0, 0.5, 0.3), 10)
    row = np.linspace(0.0, 1.0, 11)[3]
    assert row != 0.3 and m.grid.slit == (0.0, 0.5, row)
    rng = np.random.default_rng(5)
    for _ in range(4):
        n = m.n_triangles
        refine = rng.choice(n, n // 4, replace=False)
        m = adapt(m, refine, np.setdiff1d(rng.choice(n, n // 3), refine))
    check_conforming(m)
    slit_edges = [e for e, lab in m.boundary_labels.items()
                  if lab is BoundaryLabel.SLIT]
    assert slit_edges and (m.vertices[np.ravel(slit_edges), 1] == row).all()
    ds = build_dirichlet(m, 1.0, RunConfig.with_defaults(
        lx=1.0, ly=1.0, n0=10, slit_x_end=0.5, slit_y=0.3).loading)
    x, y = m.vertices[ds.dofs].T
    on = y == row                              # both copies of (0, row)
    assert (x == 0.0).all() and on.sum() == 2
    assert np.sign(ds.values[on]).tolist() in ([1.0, -1.0], [-1.0, 1.0])
    assert ((ds.values > 0) == (y > row))[~on].all()
    P, _ = mesh_prolongation(m)
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


def test_slit_separation_no_edge_across_faces():
    m = build_initial_mesh(DOMAIN3, SLIT, 16)
    coords = {}
    pairs = []
    for i, p in enumerate(m.vertices):
        key = (round(p[0], 12), round(p[1], 12))
        if key in coords:
            pairs.append((coords[key], i))
        else:
            coords[key] = i
    assert len(pairs) == duplicated_slit_vertices(16, 3.0, SLIT)
    edge_set = {tuple(e) for e in m.edges}
    for a, b in pairs:
        assert (a, b) not in edge_set and (b, a) not in edge_set


# ----------------------------------------------------------------------
# adapt: refinement
# ----------------------------------------------------------------------

def test_refine_forces_diagonal_neighbor():
    m = build_initial_mesh((1.0, 1.0), None, 1)
    # both triangles share the diagonal as refinement edge
    mid, child_edges = hand_bisect(m.vertices, m.triangles[0])
    m2 = adapt(m, [0])
    assert m2.n_triangles == 4
    check_conforming(m2)
    new = m2.vertices[-1]
    assert np.allclose(new, mid)
    ce = {tuple(sorted(e)) for e in child_edges}
    got = set()
    for tri in m2.triangles:
        got.add(tuple(sorted((tri[1], tri[2]))))
    assert ce <= got


def test_adapt_empty_sets_identity():
    m = build_initial_mesh(DOMAIN3, SLIT, 8)
    m2 = adapt(m, [], [])
    assert m2.n_triangles == m.n_triangles
    assert m2.n_vertices == m.n_vertices
    assert np.array_equal(m2.triangles, m.triangles)
    assert m2.generation == m.generation + 1


def test_uniform_refine_doubles_and_conforms():
    m = build_initial_mesh(DOMAIN3, SLIT, 4)
    for _ in range(3):
        m2 = adapt(m, range(m.n_triangles))
        assert m2.n_triangles == 2 * m.n_triangles
        check_conforming(m2)
        m = m2


def test_refine_overlapping_sets_rejected():
    m = build_initial_mesh((1.0, 1.0), None, 2)
    with pytest.raises(ValueError):
        adapt(m, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        adapt(m, [99])


@pytest.mark.parametrize("ids", [
    np.array([True, False]),                   # a mask, not ids 1 and 0
    [1.7],
    np.array([0.0, 1.0]),
    np.array([[0, 1]]),
    [[0], [1]],
])
def test_adapt_refuses_ids_that_are_not_triangle_ids(ids):
    m = build_initial_mesh((1.0, 1.0), None, 2)
    with pytest.raises(ValueError, match="1-D set of integers"):
        adapt(m, ids)
    with pytest.raises(ValueError, match="1-D set of integers"):
        adapt(m, [], ids)


def test_adapt_accepts_any_empty_set_and_integer_iterables():
    m = build_initial_mesh((1.0, 1.0), None, 2)
    for empty in ([], (), set(), np.empty(0), np.empty(0, dtype=bool),
                  (i for i in ())):
        assert adapt(m, empty, empty).n_triangles == m.n_triangles
    ref = adapt(m, [0, 2])
    for ids in ({2, 0}, range(0, 3, 2), np.array([2, 0], dtype=np.uint8),
                (i for i in (0, 2, 0)), [np.int32(0), 2]):
        assert np.array_equal(adapt(m, ids).triangles, ref.triangles)


def test_level_cap_skips_and_reports():
    m = build_initial_mesh((1.0, 1.0), None, 2, max_levels=2)
    m = adapt(m, range(m.n_triangles))
    m = adapt(m, range(m.n_triangles))
    assert m.levels.max() == 2
    m2 = adapt(m, range(m.n_triangles))
    assert m2.n_triangles == m.n_triangles
    assert m2.adapt_summary.skipped_capped == m.n_triangles


def test_shape_regularity_over_uniform_refinements():
    m = build_initial_mesh(DOMAIN3, SLIT, 4, max_levels=10)
    ratios = [geometry(m).shape_ratio(m).max()]
    for _ in range(4):
        m = adapt(m, range(m.n_triangles))
        ratios.append(geometry(m).shape_ratio(m).max())
    assert max(ratios) <= ratios[0] + 1e-12


def test_diameter_halves_every_two_uniform_levels():
    m = build_initial_mesh(DOMAIN3, None, 4, max_levels=10)
    h0 = geometry(m).h.max()
    m = adapt(m, range(m.n_triangles))
    m = adapt(m, range(m.n_triangles))
    assert np.isclose(geometry(m).h.max(), h0 / 2.0)


def test_slit_stays_open_under_refinement():
    m = build_initial_mesh(DOMAIN3, SLIT, 8)
    for _ in range(2):
        m = adapt(m, range(m.n_triangles))
    coords = {}
    pairs = []
    for i, p in enumerate(m.vertices):
        key = (round(p[0], 12), round(p[1], 12))
        pairs.append((coords[key], i)) if key in coords else \
            coords.setdefault(key, i)
    edge_set = {tuple(e) for e in m.edges}
    for a, b in pairs:
        assert (a, b) not in edge_set
    # two bisection rounds halve diameters once: 4 segments per face double
    assert sum(1 for lab in m.boundary_labels.values()
               if lab is BoundaryLabel.SLIT) == 2 * (2 * 4)
    check_conforming(m)


# ----------------------------------------------------------------------
# adapt: coarsening
# ----------------------------------------------------------------------

def test_coarsen_restores_uniform_refinement():
    m = build_initial_mesh(DOMAIN3, SLIT, 4)
    m1 = adapt(m, range(m.n_triangles))
    m2 = adapt(m1, [], range(m1.n_triangles))
    assert m2.n_triangles == m.n_triangles
    assert m2.levels.max() == 0
    check_conforming(m2)


def test_coarsen_adaptive_roundtrip():
    m = build_initial_mesh(DOMAIN3, SLIT, 4)
    rng = np.random.default_rng(7)
    sel = rng.choice(m.n_triangles, size=8, replace=False)
    m1 = adapt(m, sel)
    check_conforming(m1)
    m2 = adapt(m1, [], np.where(m1.levels > 0)[0])
    assert m2.n_triangles == m.n_triangles
    check_conforming(m2)


def test_coarsen_requires_complete_pairs():
    m = build_initial_mesh((1.0, 1.0), None, 1)
    m1 = adapt(m, [0])          # 4 triangles around the diagonal midpoint
    # coarsening only some of the four leaves must be refused
    m2 = adapt(m1, [], [0, 1])
    assert m2.n_triangles == m1.n_triangles
    assert m2.adapt_summary.coarsened_pairs == 0
    m3 = adapt(m1, [], range(m1.n_triangles))
    assert m3.n_triangles == 2


@pytest.mark.parametrize("peak, merged", [((0.5, 0.5), 2), ((0.3, 0.4), 0)])
def test_coarsen_merges_sides_only_where_they_halve_a_parent(peak, merged):
    # a hand-built unit square around one peak, its four triangles marked
    # second, first, second, first child: they merge only where the peak
    # is the midpoint of the parents' refinement edge
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], peak])
    tris = np.array([[4, 0, 1], [4, 1, 2], [4, 2, 3], [4, 3, 0]])
    m = Mesh(verts, tris, np.ones(4, dtype=int), child_side=[1, 0, 1, 0],
             grid=InitialGrid((1.0, 1.0), None, 1))
    m2 = adapt(m, [], range(4))
    assert m2.adapt_summary.coarsened_pairs == merged
    assert m2.n_triangles == 4 - merged


def test_coarsen_never_merges_initial_triangles():
    m = build_initial_mesh(DOMAIN3, None, 4)
    m2 = adapt(m, [], range(m.n_triangles))
    assert m2.n_triangles == m.n_triangles
    assert m2.adapt_summary.coarsened_pairs == 0


def test_fuzzed_adapt_chain_stays_conforming():
    # long random refine/coarsen chains: every generation must validate,
    # keep positive areas, respect the level cap, and keep the slit open
    rng = np.random.default_rng(2024)
    m = build_initial_mesh(DOMAIN3, SLIT, 4, max_levels=3)
    u = FeFunction(rng.uniform(0.0, 1.0, m.n_vertices), m.generation)
    for gen in range(30):
        nt = m.n_triangles
        refine = rng.choice(nt, size=rng.integers(0, max(2, nt // 6)),
                            replace=False)
        rest = np.setdiff1d(np.arange(nt), refine)
        coarsen = rng.choice(rest, size=min(len(rest),
                                            int(rng.integers(0, nt // 4 + 1))),
                             replace=False)
        m2 = adapt(m, refine, coarsen)          # validates on construction
        assert m2.levels.max() <= m2.max_levels
        u = transfer(u, m, m2)
        assert u.values.min() >= 0.0 and u.values.max() <= 1.0
        m = m2
    check_conforming(m)


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------

def test_signed_areas_computed_once_and_read_only():
    m = adapt(build_initial_mesh(DOMAIN3, SLIT, 4), [0, 5, 9])
    first = m.signed_areas()
    assert m.signed_areas() is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
    assert np.array_equal(geometry(m).area, first)


def test_geometry_right_triangle():
    m = build_initial_mesh((1.0, 1.0), None, 1)
    g = geometry(m)
    assert np.allclose(g.area, 0.5)
    assert np.allclose(g.h, np.sqrt(2.0))


def test_geometry_equilateral_shape_ratio():
    # an equilateral triangle 0 and two right triangles that fill the rest
    # of the rectangle [0, 1] x [0, sqrt(3) / 2]
    h = np.sqrt(3) / 2
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h], [0.0, h], [1.0, h]])
    # each refinement edge on the boundary, so the levels keep the
    # newest-vertex rule
    tris = np.array([[2, 0, 1], [2, 3, 0], [2, 1, 4]])
    mesh = Mesh(verts, tris, np.zeros(3, dtype=int),
                grid=InitialGrid((1.0, h), None, 1))
    assert np.isclose(geometry(mesh).shape_ratio(mesh)[0], np.sqrt(3.0))


def test_mesh_rejects_degenerate_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    with pytest.raises(ValueError, match="triangle 0 has non-positive area"):
        Mesh(verts, tris, np.zeros(1, dtype=int),
             grid=InitialGrid((2.0, 1.0), None, 1))


def test_mesh_requires_its_initial_grid():
    ref = build_initial_mesh((1.0, 1.0), None, 2)
    with pytest.raises(TypeError, match="grid"):
        Mesh(ref.vertices, ref.triangles, ref.levels)


def test_mesh_refuses_a_hanging_node():
    # the lower triangle of the unit square bisected at the diagonal's
    # midpoint 4, the upper one not: its diagonal has a hanging node
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [0.5, 0.5]])
    tris = np.array([[4, 1, 3], [4, 0, 1], [2, 0, 3]])
    with pytest.raises(ValueError, match="cannot label boundary edge"):
        Mesh(verts, tris, np.array([1, 1, 0]),
             grid=InitialGrid((1.0, 1.0), None, 1))


def test_mesh_refuses_a_negative_vertex_id():
    # the n0 = 1 unit square with its corner 3 written as -1: numpy reads
    # v[-1] as that corner, so areas and labels alone let it through
    ref = build_initial_mesh((1.0, 1.0), None, 1)
    tris = np.where(ref.triangles == 3, -1, ref.triangles)
    with pytest.raises(ValueError, match=re.escape("[0, n_vertices)")):
        Mesh(ref.vertices, tris, ref.levels, grid=ref.grid)


def test_mesh_refuses_a_nan_vertex():
    # vertex 4 is the centre of the n0 = 2 square, on no boundary edge;
    # NaN areas pass a test for area <= 0
    ref = build_initial_mesh((1.0, 1.0), None, 2)
    verts = ref.vertices.copy()
    verts[4] = np.nan
    with pytest.raises(ValueError, match="coordinates must be finite"):
        Mesh(verts, ref.triangles, ref.levels, grid=ref.grid)


@pytest.mark.parametrize("change, message", [
    (dict(levels=np.zeros(7, dtype=int)), "levels needs one entry per"),
    (dict(levels=np.zeros((8, 1), dtype=int)), "levels needs one entry per"),
    (dict(child_side=np.full(9, -1)), "child_side needs one"),
    (dict(levels=[0, 0, 0, -1, 0, 0, 0, 0]), "outside \\[0, max_levels\\]"),
    (dict(levels=np.full(8, 5)), "outside \\[0, max_levels\\]"),
    # 255 would wrap to -1 in int8
    (dict(child_side=[0, 1, -1, 2, 0, 1, 0, 1]), "child_side values"),
    (dict(child_side=np.full(8, 255)), "child_side values"),
])
def test_mesh_refuses_per_triangle_arrays_that_do_not_fit(change, message):
    ref = build_initial_mesh((1.0, 1.0), None, 2)
    args = dict(levels=ref.levels, child_side=ref.child_side)
    with pytest.raises(ValueError, match=message):
        Mesh(ref.vertices, ref.triangles, grid=ref.grid,
             **{**args, **change})


def test_boundary_normals_are_outward_unit_vectors():
    m = build_initial_mesh(DOMAIN3, SLIT, 8)
    m = adapt(m, range(0, m.n_triangles, 3))
    normals = geometry(m).boundary_normals
    bnd = np.flatnonzero(m.boundary_edge_mask)
    assert normals.shape == (len(bnd), 2)
    assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() < 1e-14
    # each is normal to its edge and points from its triangle's centroid
    # to the edge's midpoint
    a, b = m.vertices[m.edges[bnd]].transpose(1, 0, 2)
    assert np.abs(((b - a) * normals).sum(axis=1)).max() < 1e-14
    cent = m.vertices[m.triangles[m.edge_tris[bnd, 0]]].mean(axis=1)
    assert (((0.5 * (a + b) - cent) * normals).sum(axis=1) > 0).all()
    # the slit's two faces: (0, 1) under it, (0, -1) over it, exactly
    slit = m.grid.on_slit(0.5 * (a + b))
    assert set(map(tuple, normals[slit].tolist())) == {(0.0, 1.0),
                                                       (0.0, -1.0)}


# ----------------------------------------------------------------------
# the sort helper of the mesh builders
# ----------------------------------------------------------------------

def assert_stable_sort(keys):
    """``stable_sort(keys)`` is the stable argsort and the sorted keys."""
    got_keys, got = stable_sort(keys)
    want = np.argsort(keys, kind="stable")
    assert got.dtype == got_keys.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(got_keys, keys[want])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=80),
       st.sampled_from([1, 7, 2**40]))
def test_stable_sort_is_the_stable_argsort_with_many_ties(values, scale):
    assert_stable_sort(np.array(values, dtype=np.int64) * scale)
    assert_stable_sort(np.array(values, dtype=np.int32))


def test_stable_sort_of_no_key_and_of_one():
    assert_stable_sort(np.array([], dtype=np.int64))
    for key in (0, -5, np.iinfo(np.int64).min, np.iinfo(np.int64).max):
        assert_stable_sort(np.array([key]))


def test_stable_sort_refuses_keys_whose_composite_overflows():
    # three keys: a composite key * 3 + position fits int64 for keys in
    # [-L, L - 1], L = 2**63 // 3
    lim = 2**63 // 3
    assert_stable_sort(np.array([lim - 1, -lim, lim - 1]))
    for keys in ([lim, 0, 0], [0, -lim - 1, 0]):
        with pytest.raises(ValueError, match=re.escape(
                f"[{-lim}, {lim - 1}] so that key * 3 + position fits int64")):
            stable_sort(np.array(keys))


# ----------------------------------------------------------------------
# adapt: exact output of a fixed chain
# ----------------------------------------------------------------------

def test_adapt_accepts_generator_ids():
    m = build_initial_mesh(DOMAIN3, SLIT, 8)
    from_list = adapt(m, [0, 1, 2])
    from_gen = adapt(m, (i for i in [0, 1, 2]))
    assert from_gen.adapt_summary.requested_refine == 3
    assert from_gen.n_triangles == from_list.n_triangles == 132
    assert np.array_equal(from_gen.triangles, from_list.triangles)
    back = adapt(from_list, [], (i for i in range(from_list.n_triangles)))
    assert back.adapt_summary.requested_coarsen == from_list.n_triangles
    assert back.n_triangles == m.n_triangles


CHAIN_FIELDS = ("vertices", "triangles", "levels", "child_side",
                "vertex_prov", "edges", "tri_edges", "edge_tris")


def _digest(data):
    import hashlib
    return hashlib.sha256(data).hexdigest()[:12]


def chain_digests():
    """SHA-256 prefixes of every mesh array along a seeded adapt chain.

    The chain starts on the n0 = 8 slit mesh with a cap of three levels and
    mixes random refinement with coarsening of every triangle around a
    random half of the vertices.  It exercises double bisection, the level
    cap, both coarsening passes and label splits and merges on the boundary.
    """
    rng = np.random.default_rng(1)
    m = build_initial_mesh(DOMAIN3, SLIT, 8, max_levels=3)
    out = {f: [] for f in CHAIN_FIELDS + ("labels",)}
    for gen in range(12):
        nt = m.n_triangles
        size = rng.integers(1, nt // (3 if gen < 4 else 8) + 2)
        refine = rng.choice(nt, size=int(size), replace=False)
        picked = rng.random(m.n_vertices) < (0.0 if gen < 3 else 0.5)
        coarsen = np.setdiff1d(np.where(picked[m.triangles[:, 0]])[0], refine)
        m = adapt(m, refine, coarsen)
        for f in CHAIN_FIELDS:
            a = np.ascontiguousarray(getattr(m, f))
            out[f].append(_digest(f"{a.dtype.str}{a.shape}".encode()
                                  + a.tobytes()))
        labels = sorted((a, b, lab.value)
                        for (a, b), lab in m.boundary_labels.items())
        out["labels"].append(_digest(repr(labels).encode()))
    return out


# Recorded from the loop-based implementation of adapt that the array code
# replaced (child_side from its first version); any change here changes the
# numbering seen by every run.
CHAIN_GOLDEN = {
    'vertices': ('3a2586fb8bce', '95b2285fc73f', 'aeb9317c07ad',
        '402ae4dff331', 'e10c9dbba7a2', '3d34bbebfee9', 'ba3e2f7d56ee',
        'b9640607f1b2', 'b61f7498e1da', '67eca46de6c4', 'b07d9c87a956',
        '1d403948a25b'),
    'triangles': ('b8d022fa7c7f', 'f61f71ec4504', '5439cb3cc4a2',
        '8fb1526ef6b6', 'eafdb0d35836', 'e67156376202', 'a3f42bd54b76',
        '86c964a14ff1', '2839917bf2b4', 'e21cbef17515', '5ae23fccd5f3',
        '6fe737edf000'),
    'levels': ('06cabd52956d', '109c55118667', '3e0592f1195f',
        '9b6534a013c0', '2fec4c0f84f2', '4f5a35ae3364', 'ba8513fa1c2a',
        'ba99ff6b7f5b', 'efe3479a021d', 'b39c84767e43', 'e153745ea315',
        '4a0c37d8c8fd'),
    'child_side': ('18178bce7bee', 'fb4ad13b987f', '40d1a1669db8',
        '6c8805b2d94c', '856f35c13e56', '10ac3ccc5e68', '49fe452f3a6b',
        '7013ffb409b2', '42025453d76e', 'ef743854a51b', 'bb4e6ad63847',
        '27d4b32a1de3'),
    'vertex_prov': ('f311aa6a9d2e', '2ee8ac59bffc', '1d52b8efbb9f',
        '3a77c51e53d1', 'a386b6aa06b0', 'f97d4225778c', 'd4ecfb2e7003',
        '895d4e77eb2d', '2bf0fc37f589', '4802978eeeeb', '5e6ce2897b26',
        '5d3fbbe7b125'),
    'edges': ('51e1d92c5d0b', '3f07aa9c2693', '81b46254232f', '496cfbffa5c3',
        'ae8281efddd1', '9f9665918f67', 'fd304254fc5b', '6f0c7135ec76',
        '22859165fc3a', '2b79a7ea54e2', '053e191d1de8', '5e578a9ed04e'),
    'tri_edges': ('64198d6515b2', '8da93dca9326', 'd673ce203249',
        'f53e65e5d2c7', 'f1243cedf01c', '02804f48d315', '4fc6952cb1c2',
        '1c8f106e7de2', '6edc8bc0787e', '7f783740819a', '2b24ca9fd9d7',
        'c786d9412f80'),
    'edge_tris': ('fcc502df45d0', '61057bf25bec', 'ef2058a39ab2',
        '30b960f04821', 'd33b8ace9b1b', '958105f06e24', '11cf95a38756',
        '20ff7d59c4c0', '55bae20d25c6', '13e7098240c3', 'd8fd177202a6',
        '3d92d340b69a'),
    'labels': ('065e1bdabb91', '414b59fdff01', 'fed9b1d7399c',
        '59c63d789d0e', '080072a21df0', 'a5ef4bdcfb2b', 'd1c6bc15e30b',
        '03a7742001cb', '869fe9d48af5', '38f1d1389dc5', '8ff3c30ed790',
        'c3623ecdf245'),
}


def test_adapt_chain_is_byte_identical():
    got = chain_digests()
    for field, want in CHAIN_GOLDEN.items():
        for gen, (g, w) in enumerate(zip(got[field], want)):
            assert g == w, f"{field} differs at generation {gen}"


# ----------------------------------------------------------------------
# adapt: properties
# ----------------------------------------------------------------------

@st.composite
def initial_meshes(draw):
    n0 = draw(st.integers(1, 6))
    slit = SLIT if n0 % 2 == 0 and draw(st.booleans()) else None
    return build_initial_mesh(DOMAIN3, slit, n0,
                              max_levels=draw(st.integers(1, 4)))


def draw_ids(draw, n):
    return sorted(draw(st.sets(st.integers(0, n - 1), max_size=min(n, 40))))


# ----------------------------------------------------------------------
# adapt: the level cap and the newest-vertex rule
# ----------------------------------------------------------------------

def two_square_mesh(levels, max_levels):
    """``[0, 1] x [0, 2]`` as two unit squares of two triangles each:
    A = (ur, ll, lr) and B = (ul, ll, ur) below, C = (tl, ul, ur) and
    D = (tr, tl, ur) above.  B's refinement edge is A's diagonal, C's is
    B's top side and D's is C's diagonal, and none of these is also the
    refinement edge of the triangle across it: under the newest-vertex
    rule each of B, C and D is one level finer than the one before."""
    ll, lr, ul, ur, tl, tr = range(6)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [0.0, 2.0], [1.0, 2.0]])
    tris = np.array([[ur, ll, lr], [ul, ll, ur], [tl, ul, ur], [tr, tl, ur]])
    return Mesh(verts, tris, levels, max_levels=max_levels,
                grid=InitialGrid((1.0, 2.0), None, 1))


def test_mesh_refuses_levels_that_break_the_newest_vertex_rule():
    # B is not one level finer than A
    for levels in ([0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0]):
        with pytest.raises(ValueError, match="newest-vertex rule"):
            two_square_mesh(levels, 2)
    assert two_square_mesh([0, 1, 2, 3], 3).levels.tolist() == [0, 1, 2, 3]


def test_cap_zero_vetoes_every_request():
    m = build_initial_mesh(DOMAIN3, SLIT, 4, max_levels=0)
    s = check_closure(m, range(m.n_triangles))
    assert s.refined == 0 and s.skipped_capped == m.n_triangles
    assert np.array_equal(adapt(m, range(m.n_triangles)).triangles,
                          m.triangles)


LAYOUTS = {(3.0, 3.0): SLIT, (1.0, 0.7): (0.0, 0.5, 0.35)}


def draw_requests(draw, mesh):
    """Random ids, ids of capped triangles only, or a cluster: every
    triangle whose centroid lies within a drawn radius of one triangle's."""
    kind = draw(st.sampled_from(["random", "capped", "clustered"]))
    if kind == "random":
        return draw_ids(draw, mesh.n_triangles)
    if kind == "capped":
        pool = np.flatnonzero(mesh.levels == mesh.max_levels)
        return pool[draw_ids(draw, len(pool))] if len(pool) else pool
    centre = element_means(mesh.vertices, mesh.triangles)
    seed = centre[draw(st.integers(0, mesh.n_triangles - 1))]
    radius = draw(st.floats(0.0, 0.5)) * max(mesh.grid.domain)
    return np.flatnonzero(np.linalg.norm(centre - seed, axis=1) <= radius)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(LAYOUTS)), st.integers(1, 4),
       st.integers(0, 6), st.data())
def test_closure_gives_the_marks_of_the_vetoing_closure(domain, n0, cap,
                                                        data):
    slit = LAYOUTS[domain] if n0 % 2 == 0 and data.draw(st.booleans()) \
        else None
    mesh = build_initial_mesh(domain, slit, n0, max_levels=cap)
    for _ in range(data.draw(st.integers(1, 6))):
        refine = draw_requests(data.draw, mesh)
        check_closure(mesh, refine)
        coarsen = np.arange(mesh.n_triangles) if data.draw(st.booleans()) \
            else []
        mesh = adapt(mesh, refine, np.setdiff1d(coarsen, refine))


@settings(max_examples=40, deadline=None)
@given(adapted_slit_meshes())
def test_labels_follow_the_boundary_through_adaptation(mesh):
    from collections import Counter
    grid = mesh.grid

    def lengths(m):
        out = dict.fromkeys(BoundaryLabel, 0.0)
        for (a, b), lab in m.boundary_labels.items():
            out[lab] += np.linalg.norm(m.vertices[a] - m.vertices[b])
        return out

    start = build_initial_mesh(grid.domain, grid.slit, grid.n0)
    assert lengths(mesh) == pytest.approx(lengths(start), rel=1e-12)
    v = mesh.vertices
    cnt = Counter(tuple(sorted(e)) for a, b, c in mesh.triangles.tolist()
                  for e in ((a, b), (b, c), (c, a)))
    left_upper = {i for e, c in cnt.items() if c == 1
                  and (v[list(e), 0] == 0.0).all()
                  and v[list(e), 1].mean() > grid.slit[2] for i in e}
    assert mesh.boundary_vertices(BoundaryLabel.LEFT_UPPER).tolist() \
        == sorted(left_upper)


@settings(max_examples=40, deadline=None)
@given(initial_meshes(), st.data())
def test_adapt_sequence_keeps_mesh_conforming(mesh, data):
    for _ in range(data.draw(st.integers(1, 5))):
        refine = draw_ids(data.draw, mesh.n_triangles)
        # coarsen whole stars around some peaks, or every other triangle
        if data.draw(st.booleans()):
            peaks = draw_ids(data.draw, mesh.n_vertices)
            coarsen = np.flatnonzero(np.isin(mesh.triangles[:, 0], peaks))
        else:
            coarsen = np.arange(mesh.n_triangles)
        mesh = adapt(mesh, refine, np.setdiff1d(coarsen, refine))
        check_conforming(mesh)
        assert (mesh.signed_areas() > 0).all()
        assert mesh.levels.max() <= mesh.max_levels
        assert np.isclose(mesh.signed_areas().sum(), 9.0, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(initial_meshes(), st.data())
def test_second_child_and_its_first_child_successor_are_siblings(mesh,
                                                                 data):
    # coarsening claims as true siblings a second child (m, b, c) whose
    # counterclockwise successor (m, c, d) is a first child: they must be
    # the halves of one parent (c, d, b), bisected at m.  Around a peak the
    # children of its bisections alternate, second, first, second, ...
    pairs = 0
    for _ in range(data.draw(st.integers(1, 6))):
        refine = draw_ids(data.draw, mesh.n_triangles)
        if data.draw(st.booleans()):
            peaks = draw_ids(data.draw, mesh.n_vertices)
            coarsen = np.flatnonzero(np.isin(mesh.triangles[:, 0], peaks))
        else:
            coarsen = np.arange(mesh.n_triangles)
        mesh = adapt(mesh, refine, np.setdiff1d(coarsen, refine))
        t, v, side = mesh.triangles, mesh.vertices, mesh.child_side
        assert (mesh.levels[side >= 0] >= 1).all()
        child = {(m, b): j for j, (m, b, _) in enumerate(t.tolist())
                 if side[j] >= 0}
        for i in np.flatnonzero(side >= 0).tolist():
            m, b, c = t[i].tolist()
            j = child.get((m, c))
            if j is None:
                continue
            assert side[i] != side[j]
            if side[i] == 0:
                continue
            d = t[j, 2]
            assert mesh.levels[i] == mesh.levels[j]
            assert np.allclose(v[m], 0.5 * (v[d] + v[b]), rtol=0.0,
                               atol=1e-12)
            (x0, y0), (x1, y1), (x2, y2) = v[[c, d, b]]
            assert (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) > 0.0
            pairs += 1
    assume(pairs)


@settings(max_examples=40, deadline=None)
@given(initial_meshes(), st.data(),
       st.tuples(*[st.integers(-5, 5)] * 3))
def test_refinement_transfers_linear_field_exactly(mesh, data, coef):
    def linear(m):
        x, y = m.vertices.T
        return coef[0] + coef[1] * x + coef[2] * y

    u = FeFunction(linear(mesh), mesh.generation)
    for _ in range(data.draw(st.integers(1, 3))):
        fine = adapt(mesh, draw_ids(data.draw, mesh.n_triangles))
        u = transfer(u, mesh, fine)
        mesh = fine
        assert np.allclose(u.values, linear(mesh), rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(initial_meshes())
def test_coarsening_uniform_refinement_returns_original(mesh):
    fine = adapt(mesh, range(mesh.n_triangles))
    back = adapt(fine, [], range(fine.n_triangles))
    assert back.adapt_summary.coarsened_pairs == mesh.n_triangles
    for field in ("vertices", "triangles", "levels", "child_side", "edges"):
        assert np.array_equal(getattr(back, field), getattr(mesh, field))
    assert back.boundary_labels == mesh.boundary_labels


@settings(max_examples=60, deadline=None)
@given(adapted_slit_meshes(), st.data())
def test_adapt_that_refines_and_merges_nothing_returns_its_input(mesh, data):
    # the driver skips such an adaptation, so its mesh must equal the input
    # and transfer onto it must be the identity
    def subset(pool):
        return pool[draw_ids(data.draw, len(pool))] if len(pool) else pool

    capped = np.flatnonzero(mesh.levels == mesh.max_levels)
    every = np.arange(mesh.n_triangles)
    refine = subset(capped if data.draw(st.booleans()) else every)
    coarsen = subset(np.setdiff1d(every, refine))
    new = adapt(mesh, refine, coarsen)
    done = new.adapt_summary
    assume(done.refined == 0 and done.coarsened_pairs == 0)
    for name in ("vertices", "triangles", "levels", "child_side"):
        assert np.array_equal(getattr(new, name), getattr(mesh, name)), name
    values = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=mesh.n_vertices,
                                max_size=mesh.n_vertices))
    u = FeFunction(values, mesh.generation)
    assert np.array_equal(transfer(u, mesh, new).values, u.values)
    pinned = np.asarray(values) > 0.0
    assert np.array_equal(transfer_pinned(pinned, mesh, new), pinned)


# ----------------------------------------------------------------------
# adapt: the pairing of coarsening against the rank loop
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LAYOUTS)), st.integers(1, 4),
       st.integers(1, 4), st.data())
def test_coarsening_pairs_like_the_rank_loop_on_chains(domain, n0, cap,
                                                       data):
    # refinements, then coarsening of everything until nothing merges, so
    # that merged parents (child_side -1) merge again
    slit = LAYOUTS[domain] if n0 % 2 == 0 and data.draw(st.booleans()) \
        else None
    mesh = build_initial_mesh(domain, slit, n0, max_levels=cap)
    for _ in range(data.draw(st.integers(1, 4))):
        refine = draw_requests(data.draw, mesh)
        coarsen = np.arange(mesh.n_triangles) if data.draw(st.booleans()) \
            else []
        mesh = check_coarsening(mesh, refine, np.setdiff1d(coarsen, refine))
    while True:
        mesh = check_coarsening(mesh, [], range(mesh.n_triangles))
        if not mesh.adapt_summary.coarsened_pairs:
            break


def slit_tip_mesh(rows, sides):
    """``[0, 1]^2`` with the slit ``(0, 0.5, 0.5)``: four triangles around
    the tip ``(0.5, 0.5)``, whose two pairs each span a straight angle
    there, in the row order ``rows`` with the sides ``sides``, then four
    corner triangles."""
    verts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.5],
                      [1.0, 1.0], [0.5, 1.0], [0.0, 1.0], [0.0, 0.5],
                      [0.0, 0.5], [0.5, 0.5]])
    fan = np.array([[9, 8, 1], [9, 1, 3], [9, 3, 5], [9, 5, 7]])
    tris = np.vstack([fan[rows], [[0, 1, 8], [2, 3, 1], [4, 5, 3],
                                  [6, 7, 5]]])
    return Mesh(verts, tris, np.ones(8, dtype=int), max_levels=2,
                child_side=np.append(np.asarray(sides)[rows], [-1] * 4),
                grid=InitialGrid((1.0, 1.0), (0.0, 0.5, 0.5), 2))


def test_coarsening_keeps_the_slit_tip():
    # the four triangles around the tip form two pairs, each spanning a
    # straight angle there, but the star is open at the slit: merged, both
    # parents' refinement edges would join a copy of a slit vertex to
    # (1, 0.5), open edges off the slit
    for rows in itertools.permutations(range(4)):
        for sides in itertools.product([-1, 0, 1], repeat=4):
            mesh = slit_tip_mesh(list(rows), sides)
            new = adapt(mesh, [], range(8))
            assert new.n_triangles == 8
            assert (new.vertices == [0.5, 0.5]).all(axis=1).any()
            assert new.adapt_summary.coarsened_pairs == 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(0.5, 0.5), (0.3, 0.4), "tip"]),
       st.permutations(range(4)), st.lists(st.sampled_from([-1, 0, 1]),
                                           min_size=4, max_size=4),
       st.data())
def test_coarsening_pairs_like_the_rank_loop_on_hand_built_meshes(
        peak, rows, sides, data):
    # the squares of test_coarsen_merges_sides_only_where_they_halve_a_parent
    # and the slit tip, with every row order and side: which triangle has
    # the lowest id decides which diagonal merges
    if peak == "tip":
        mesh = slit_tip_mesh(rows, sides)
    else:
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                          peak])
        tris = np.array([[4, 0, 1], [4, 1, 2], [4, 2, 3], [4, 3, 0]])[rows]
        mesh = Mesh(verts, tris, np.ones(4, dtype=int),
                    child_side=np.asarray(sides)[rows],
                    grid=InitialGrid((1.0, 1.0), None, 1))
    coarsen = data.draw(st.sets(st.integers(0, mesh.n_triangles - 1)))
    check_coarsening(mesh, [], sorted(coarsen))
