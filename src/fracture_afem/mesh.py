"""Conforming 2D simplicial meshes with local bisection refinement.

The mesh is a triangulation of an axis-aligned rectangle, optionally cut by
a horizontal slit whose vertices are duplicated so that nodal fields may
jump across the two crack faces.  Refinement is newest-vertex bisection with
conformity closure; coarsening merges complete sibling pairs back into their
parent: each triangle around a removable peak pairs with its
counterclockwise successor there, and the pairs alternate from one anchor.
Adaptation reads marks and neighbours by edge id off the mesh's own maps,
``tri_edges`` and ``edge_tris``, and searches for no edge.  Each triangle's
level counts its bisections from the initial mesh, and the levels keep the
newest-vertex rule of Stevenson, Math. Comp. 77 (2008), which :class:`Mesh`
checks; under it the level cap needs nothing but the skipping of requests
at the cap, as the closure never reaches a capped triangle.  Meshes are
immutable after construction: :func:`adapt` returns a new generation and
records enough provenance for nodal transfer between generations.
:func:`grid_weights` reads the P1 interpolation from a grid mesh at the
vertices of another mesh off their grid coordinates, and :func:`geometry`
builds the diameters, edge lengths and boundary normals of the residual
indicator once per mesh.

Triangle storage convention: the vertex at local position 0 is the "peak"
(newest vertex) and the refinement edge is the opposite edge, i.e. the one
between local vertices 1 and 2.  Bisecting ``(v0, v1, v2)`` at the midpoint
``m`` of ``(v1, v2)`` produces the children ``(m, v0, v1)`` and
``(m, v2, v0)``, both counterclockwise, with ``m`` as their new peak.
``Mesh.child_side`` records which child each triangle is: ``0`` for the
first, ``1`` for the second, ``-1`` where unknown.  Around a peak, a second
child's counterclockwise successor is the first child of the same
bisection, which is how coarsening tells true siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "BoundaryLabel",
    "InitialGrid",
    "Mesh",
    "MeshGeometry",
    "AdaptSummary",
    "build_initial_mesh",
    "grid_weights",
    "adapt",
    "geometry",
    "derived",
    "element_means",
]


class BoundaryLabel(str, Enum):
    """Labels for boundary edges of the slit rectangle."""

    BOTTOM = "bottom"
    RIGHT = "right"
    TOP = "top"
    LEFT_UPPER = "left_upper"
    LEFT_LOWER = "left_lower"
    SLIT = "slit"


_LABELS = tuple(BoundaryLabel)


def _edge_keys(a, b, n):
    """One int64 key per undirected edge, ordered like the sorted id pair."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def _run_starts(keys):
    """Flags the first entry of each run of equal values in sorted
    ``keys``."""
    return np.concatenate([np.ones(min(len(keys), 1), dtype=bool),
                           keys[1:] != keys[:-1]])


def stable_sort(keys):
    """``(keys[order], order)`` for ``order = np.argsort(keys,
    kind="stable")`` of the integer array ``keys``, from one sort of the
    unique int64 composites ``key * len(keys) + position``: the quotient of
    each sorted composite is its key, the remainder its position.  The
    composites are distinct, so any sort gives the stable order.

    Raises
    ------
    ValueError
        If a key lies outside ``[-L, L - 1]`` for ``L = 2**63 //
        len(keys)``, where a composite would overflow int64.
    """
    n = max(len(keys), 1)
    lim = 2**63 // n
    if keys.size and (keys.min() < -lim or keys.max() >= lim):
        raise ValueError(f"sort keys must lie in [{-lim}, {lim - 1}] so that "
                         f"key * {n} + position fits int64")
    comp = np.sort(keys.astype(np.int64) * n + np.arange(len(keys)))
    sorted_keys = comp // n
    return sorted_keys, comp - sorted_keys * n


@dataclass
class AdaptSummary:
    """Bookkeeping for one adapt call; nothing here is fatal.

    ``refined`` counts the triangles bisected, the closure's included, and
    ``skipped_capped`` the requested triangles at the level cap, which are
    not bisected.
    """

    requested_refine: int = 0
    refined: int = 0
    skipped_capped: int = 0
    requested_coarsen: int = 0
    coarsened_pairs: int = 0
    skipped_coarsen: int = 0


def derived(owner, key, build):
    """``build(owner)``, built at the first call per ``key`` and kept in the
    cache of ``owner``, a :class:`Mesh` or an :class:`InitialGrid`; the one
    get-or-build of the package.  ``build`` reads only the owner's primary
    data (a mesh's arrays, level cap and grid; a grid's fields), so an
    identical owner rebuilds the value bit for bit and none is saved."""
    value = owner._cache.get(key)
    if value is None:
        value = owner._cache[key] = build(owner)
    return value


def element_means(values, triangles):
    """Per-triangle mean of nodal ``values`` (one row per vertex: a field,
    or the coordinates), ``(x0 + x1 + x2) / 3`` over the corners, each
    gathered by its column of ``triangles``.  These are the additions and
    the division of ``values[triangles].mean(axis=1)`` in its order, so the
    bits are the same, at about a quarter of its cost; :mod:`.fem` exports
    it."""
    x0, x1, x2 = (values[triangles[:, k]] for k in range(3))
    return (x0 + x1 + x2) / 3.0


def corners(mesh):
    """The corner coordinates of every triangle of ``mesh`` as two lists,
    ``[x0, x1, x2]`` and ``[y0, y1, y2]``, one contiguous array per local
    vertex, gathered from the coordinate columns: the values of
    ``mesh.vertices[mesh.triangles]`` at a fraction of the cost of its
    ``(nt, 3, 2)`` row gather."""
    t = mesh.triangles
    return [[c[t[:, i]] for i in range(3)] for c in mesh.vertices.T]


@dataclass(eq=False)
class InitialGrid:
    """The ``n0 x n0`` grid of ``[0, Lx] x [0, Ly]`` an adapt chain started
    from, shared by every generation of the chain, and the one check of its
    layout.

    Construction checks ``0 < Lx, Ly < inf`` and ``n0 >= 1``.  A slit
    ``(x_start, x_end, y)`` needs ``n0 >= 2``, its row on an interior grid
    line and its ends on grid vertices, each to within ``1e-12 n0`` of a
    grid index, and a positive length between those vertices; it is then
    snapped to their coordinates, and ``slit_index`` keeps their indices
    ``(i0, i1, jy)``: the columns of its ends and its row.  The checks need
    no mesh, so a config is checked by building its grid.  The mesh layout
    and the boundary labels follow from these fields.  ``_cache`` holds data
    derived from the grid alone (the multigrid's grid meshes and
    prolongations), and only :func:`derived` touches it.

    Raises
    ------
    ValueError
        If the layout breaks one of the rules above.
    """

    domain: tuple
    slit: tuple | None
    n0: int
    slit_index: tuple | None = field(init=False, default=None)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        lx, ly = self.domain = tuple(map(float, self.domain))
        n0 = self.n0 = int(self.n0)
        if not (0.0 < lx < np.inf and 0.0 < ly < np.inf):
            raise ValueError("domain lengths lx, ly must be positive and finite")
        if n0 < 1:
            raise ValueError("n0 must be at least 1")
        if self.slit is None:
            return
        if n0 < 2:
            raise ValueError("a slit requires n0 >= 2 (interior gridline needed)")
        sx0, sx1, sy = map(float, self.slit)
        # the ends and the row in grid steps; a nan one is near no index and
        # an infinite one fails the range
        at = np.array([sx0, sx1, sy]) / (np.array([lx, lx, ly]) / n0)
        near = np.isclose(at, np.rint(at), rtol=0.0, atol=1e-12 * n0)
        if not (near[2] and 0 < np.rint(at[2]) < n0):
            raise ValueError(f"slit height {sy} is not on an interior gridline")
        for xe, ix, ok in zip((sx0, sx1), np.rint(at), near):
            if not (ok and 0 <= ix <= n0):
                raise ValueError(f"slit endpoint x={xe} is not a grid vertex")
        i0, i1, jy = self.slit_index = tuple(int(i) for i in np.rint(at))
        # on the indices, so that an end within rounding of the other counts
        if not i0 < i1:
            raise ValueError("slit must have positive length")
        # the grid vertices' own coordinates, so labels compare exactly
        xs, ys = self.lines()
        self.slit = (float(xs[i0]), float(xs[i1]), float(ys[jy]))

    def lines(self):
        """The grid's x and y coordinates; ``linspace`` pins the ends
        exactly, so boundary tests are exact."""
        return tuple(np.linspace(0.0, d, self.n0 + 1) for d in self.domain)

    def above(self, y):
        """Flags the heights ``y`` strictly above the slit line; all of
        them without a slit, whose left edge is all upper."""
        return np.asarray(y) > (self.slit[2] if self.slit else -np.inf)

    def on_slit(self, points):
        """Flags the ``(..., 2)`` points on the slit, tips included; none
        without a slit (nothing compares equal to nan)."""
        sx0, sx1, sy = self.slit or (np.nan,) * 3
        x, y = np.moveaxis(np.asarray(points), -1, 0)
        return (y == sy) & (x >= sx0) & (x <= sx1)


class Mesh:
    """Immutable conforming triangulation refined by newest-vertex bisection.

    Parameters
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.  Slit vertices appear twice (same coordinates,
        distinct ids) so the two crack faces are topologically separate.
    triangles : (nt, 3) int array
        Counterclockwise vertex ids, peak first (see module docstring).
    levels : (nt,) int array
        Number of bisections separating each triangle from the initial mesh.
        They keep the newest-vertex rule: a triangle gives its refinement
        edge its own level and its other two edges one more, and the two
        triangles of an interior edge give it the same.  So across an edge
        that is the refinement edge of both its triangles, or of neither,
        their levels are equal; across one that is the refinement edge of
        only one, that one is one level finer.
    generation : int
        Monotone id, incremented by every adapt call.
    max_levels : int
        Cap on ``levels``; a request to refine a triangle at the cap is
        skipped and counted in :class:`AdaptSummary`.
    child_side : (nt,) int array, optional
        Which child of its bisection each triangle is (module docstring):
        ``0`` for the first, ``1`` for the second, ``-1`` where unknown
        (initial triangles, merged parents; all of them by default).  Kept
        as int8.
    grid : InitialGrid
        The initial grid of the adapt chain, a required keyword: every mesh
        has one.  Its sides and slit label the boundary edges, and its
        grids carry the V-cycle's coarse levels.

    Raises
    ------
    ValueError
        If a vertex id, coordinate, area, per-triangle array or
        ``child_side`` value is out of range, an edge has more than two
        triangles or a boundary edge no label, or the levels break the
        newest-vertex rule.
    """

    def __init__(self, vertices, triangles, levels, generation=0,
                 max_levels=4, source_generation=-1, vertex_prov=None,
                 adapt_summary=None, child_side=None, *, grid):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.levels = np.ascontiguousarray(levels, dtype=np.int64)
        self.generation = int(generation)
        self.max_levels = int(max_levels)
        self.grid = grid
        side = (np.full(len(self.triangles), -1, dtype=np.int8)
                if child_side is None else np.asarray(child_side))
        # checked before the cast, which would wrap other integers into range
        if not ((side == -1) | (side == 0) | (side == 1)).all():
            raise ValueError("child_side values must be -1, 0 or 1")
        self.child_side = np.asarray(side, dtype=np.int8)
        self.source_generation = int(source_generation)
        # Per-vertex provenance relative to the source generation:
        # (old_id, -1) for surviving vertices, (a, b) for edge midpoints where
        # a, b are ids in *this* mesh (always smaller than the midpoint's id).
        self.vertex_prov = vertex_prov
        self.adapt_summary = adapt_summary
        self._cache = {}
        self._validate()
        self._build_edges()
        # the newest-vertex rule of ``levels``: each triangle writes the
        # levels it gives its edges, and each must read back what it wrote
        gen =(self.levels, self.levels + 1, self.levels + 1)
        edge_gen = np.empty(self.n_edges, dtype=np.int64)
        for col, g in zip(self.tri_edges.T, gen):
            edge_gen[col] = g
        bad = np.flatnonzero(np.logical_or.reduce(
            [edge_gen[col] != g for col, g in zip(self.tri_edges.T, gen)]))
        if bad.size:
            raise ValueError(f"levels break the newest-vertex rule at an edge "
                             f"of triangle {bad[0]}")
        # conformity: a hanging node leaves a one-triangle edge inside the
        # domain, which has no label
        self._boundary()

    # ------------------------------------------------------------------
    # Derived connectivity
    # ------------------------------------------------------------------

    def _build_edges(self):
        """Edges, triangle-edge and edge-triangle maps from one sort of the
        ``3 nt`` edge slots.  Slot ``3 e + i`` is local edge ``i`` of
        triangle ``e``, opposite local vertex ``i``; its int64 key sorts
        like the (min, max) vertex pair, and the keys are formed column by
        column.  The stable order lists the slots of an edge by triangle."""
        t = self.triangles
        n = int(t.max()) + 1 if t.size else 1
        keys = np.column_stack([_edge_keys(t[:, (i + 1) % 3],
                                           t[:, (i + 2) % 3], n)
                                for i in range(3)])
        sorted_keys, order = stable_sort(keys.reshape(-1))
        starts = np.flatnonzero(_run_starts(sorted_keys))
        uniq = sorted_keys[starts]
        lo = uniq // n
        self.edges = np.column_stack([lo, uniq - lo * n])
        counts = np.diff(np.append(starts, len(order)))
        inv = np.empty(len(order), dtype=np.int64)
        inv[order] = np.repeat(np.arange(len(uniq)), counts)
        self.tri_edges = inv.reshape(-1, 3)
        if counts.max(initial=0) > 2:
            raise ValueError("non-manifold edge: more than 2 incident triangles")
        self.edge_tris = np.full((len(uniq), 2), -1, dtype=np.int64)
        self.edge_tris[:, 0] = order[starts] // 3
        shared = counts == 2
        self.edge_tris[shared, 1] = order[starts[shared] + 1] // 3
        self.boundary_edge_mask = counts == 1

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)

    def _boundary(self):
        """Boundary edges and the index in ``_LABELS`` of each one's label,
        computed once per mesh."""
        return derived(self, "boundary", _label_boundary)

    @property
    def boundary_labels(self):
        """Maps sorted vertex-id pairs of boundary edges to
        :class:`BoundaryLabel`; a new dict per call."""
        edges, codes = self._boundary()
        return {(a, b): _LABELS[c]
                for (a, b), c in zip(edges.tolist(), codes.tolist())}

    def boundary_vertices(self, *labels):
        """Sorted vertex ids incident to boundary edges with any given label."""
        edges, codes = self._boundary()
        want = [_LABELS.index(BoundaryLabel(l)) for l in labels]
        return np.unique(edges[np.isin(codes, want)])

    def signed_areas(self):
        """Signed triangle areas, computed once per mesh; read-only."""
        return derived(self, "signed_areas", _signed_areas)

    def _validate(self):
        """The checks that need no edges, made before they are built: the
        edge keys and their sort take vertex ids in ``[0, n_vertices)``."""
        t = self.triangles
        if t.size and (t.min() < 0 or t.max() >= self.n_vertices):
            raise ValueError("triangle vertex ids must lie in [0, n_vertices)")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertex coordinates must be finite")
        areas = self.signed_areas()
        bad = np.where(areas <= 0)[0]
        if bad.size:
            raise ValueError(f"triangle {bad[0]} has non-positive area {areas[bad[0]]:g}")
        for name in ("levels", "child_side"):
            if getattr(self, name).shape != (self.n_triangles,):
                raise ValueError(f"{name} needs one entry per triangle")
        if (self.levels < 0).any() or (self.levels > self.max_levels).any():
            raise ValueError("refinement level outside [0, max_levels]")


def _signed_areas(mesh):
    """Half the cross product of the edges from corner 0, from the
    coordinate columns."""
    (x0, x1, x2), (y0, y1, y2) = corners(mesh)
    area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
    area.flags.writeable = False
    return area


@dataclass
class MeshGeometry:
    """The per-mesh geometry and edge indices of the residual indicator,
    which :func:`geometry` builds; every array is read-only.  The boundary
    normals have one ``(2,)`` row per boundary edge, in edge order.  The
    interior edges are listed in edge order, and ``interior_tris`` holds
    their two triangles as two contiguous rows, so a caller unpacks
    ``ti, tj`` without a mask or a strided gather."""

    h: np.ndarray                 # diameter h_tau per triangle
    area: np.ndarray              # Mesh.signed_areas
    edge_lengths: np.ndarray      # length h_e per edge
    boundary_normals: np.ndarray  # outward unit normal per boundary edge
    interior: np.ndarray          # ids of the interior edges
    interior_tris: np.ndarray     # (2, n_interior) triangles of each
    boundary_tris: np.ndarray     # the triangle of each boundary edge

    def shape_ratio(self, mesh):
        """Diameter over inscribed-circle diameter per triangle of
        ``mesh``, the mesh of this geometry, ``h P / (4 A)`` for the
        perimeter ``P`` and area ``A``; computed per call."""
        l0, l1, l2 = self.edge_lengths[mesh.tri_edges.T]
        return self.h * (l0 + l1 + l2) / (4.0 * self.area)


def geometry(mesh):
    """Triangle diameters and areas, edge lengths, the outward unit
    normals of the boundary edges, and the interior edges with their
    triangles and the triangle of each boundary edge, built at the first
    call per mesh and kept in its cache.

    The lengths are ``sqrt(dx dx + dy dy)`` from the coordinate columns,
    the arithmetic of ``np.linalg.norm(axis=1)``, and a diameter is the
    largest of its triangle's three edge lengths.
    """
    return derived(mesh, "geometry", _geometry)


def _geometry(mesh):
    (x, y), (a, b) = mesh.vertices.T, mesh.edges.T
    dx, dy = x[b] - x[a], y[b] - y[a]
    he = np.sqrt(dx * dx + dy * dy)
    h0, h1, h2 = he[mesh.tri_edges.T]
    h = np.maximum(np.maximum(h0, h1), h2)
    bnd = np.flatnonzero(mesh.boundary_edge_mask)
    tb = mesh.edge_tris[bnd, 0]
    # local edge i of the single incident triangle runs from its vertex
    # i + 1 to i + 2; rotated by -90 degrees it points outward (the x
    # component negated, not reversed, keeps the sign of a zero)
    loc = np.argmax(mesh.tri_edges[tb] == bnd[:, None], axis=1)
    p, q = (mesh.triangles[tb, (loc + s) % 3] for s in (1, 2))
    normals = np.column_stack([y[q] - y[p], -(x[q] - x[p])]) / he[bnd, None]
    interior = np.flatnonzero(~mesh.boundary_edge_mask)
    interior_tris = mesh.edge_tris[interior].T.copy()  # C order: two rows
    for arr in (h, he, normals, interior, interior_tris, tb):
        arr.flags.writeable = False
    return MeshGeometry(h=h, area=mesh.signed_areas(), edge_lengths=he,
                        boundary_normals=normals, interior=interior,
                        interior_tris=interior_tris, boundary_tris=tb)


# ----------------------------------------------------------------------
# Initial mesh
# ----------------------------------------------------------------------

def build_initial_mesh(domain, slit, n0, max_levels=4):
    """Triangulate ``[0, Lx] x [0, Ly]`` on an ``n0 x n0`` grid of split quads.

    Each grid cell is cut by one diagonal (direction alternating with cell
    parity), so the refinement edge of every initial triangle is its
    hypotenuse and uniform refinement exactly doubles the triangle count.
    Cell ``c = j n0 + i`` (column ``i``, row ``j``) holds triangles ``2c``
    and ``2c + 1``.

    Parameters
    ----------
    domain : tuple (Lx, Ly)
        Rectangle extents; the origin is (0, 0).
    slit : tuple (x_start, x_end, y) or None
        Horizontal crack segment.  It must lie on an interior gridline with
        endpoints on grid vertices.  Grid vertices on the slit are duplicated
        (except an interior tip) so the two faces are disconnected.
    n0 : int
        Subdivisions per axis; ``n0 >= 1`` without a slit, ``n0 >= 2`` with.

    Raises
    ------
    ValueError
        If :class:`InitialGrid` refuses the layout.
    """
    grid = InitialGrid(domain, slit, n0)
    n0 = grid.n0

    def vid(i, j):
        return j * (n0 + 1) + i

    verts = np.stack(np.meshgrid(*grid.lines()), axis=-1).reshape(-1, 2)

    # two triangles per cell, cells row by row, each written from the
    # right-angle vertex, so the diagonal is the refinement edge: even cells
    # are cut from ll to ur, odd cells from lr to ul
    j, i = np.divmod(np.arange(n0 * n0, dtype=np.int64), n0)
    ll, lr = vid(i, j), vid(i + 1, j)
    ul, ur = vid(i, j + 1), vid(i + 1, j + 1)
    even = ((i + j) % 2 == 0)[:, None]
    tris = np.stack([np.where(even, np.column_stack([lr, ur, ll]),
                              np.column_stack([ur, ul, lr])),
                     np.where(even, np.column_stack([ul, ll, ur]),
                              np.column_stack([ll, lr, ul]))],
                    axis=1).reshape(-1, 3)

    if grid.slit is not None:
        i0, i1, jy = grid.slit_index
        # grid vertices on the slit get an upper copy, except interior tips;
        # triangles above the slit line use the copies
        dup = vid(np.arange(i0 + (i0 > 0), i1 + 1 - (i1 < n0)), jy)
        upper_of = np.arange(len(verts))
        upper_of[dup] = len(verts) + np.arange(len(dup))
        verts = np.vstack([verts, verts[dup]])
        above = grid.above(element_means(verts[:, 1], tris))
        tris[above] = upper_of[tris[above]]

    return Mesh(verts, tris, np.zeros(len(tris), dtype=np.int64),
                max_levels=max_levels, grid=grid)


def grid_weights(coarse, fine):
    """The P1 interpolation from the mesh ``coarse`` that
    :func:`build_initial_mesh` gives for its grid, at the vertices of the
    mesh ``fine`` on the same layout: per vertex of ``fine``, the three
    corners of the ``coarse`` triangle that holds it and their weights.

    A vertex at ``(i + s, j + t)`` grid steps lies in cell ``c = j n0 + i``.
    The cell's diagonal, ``s = t`` in an even cell and ``s + t = 1`` in an
    odd one, splits it into triangle ``2c``, which holds the cell's right
    side, and ``2c + 1``; in the corner order written above, the weights
    are linear in ``(s, t)``.  ``s`` and ``t`` are clipped to ``[0, 1]``,
    so a coordinate rounded past a grid line gets no negative weight.  A
    vertex on the slit takes the cell on its own face: the upper one if a
    triangle above the slit line uses it, which the mean of its corners'
    ``y`` alone tells.
    """
    grid, pts = coarse.grid, fine.vertices
    n, (lx, ly) = grid.n0, grid.domain
    # for n a power of two only the division rounds, so on the dyadic grid
    # points of a 3 x 3 domain the grid coordinates come out exact
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
    d = np.where(even, s - t, s + t - 1.0)  # >= 0 on the right side
    left = d < 0.0
    # even 2c (lr, ur, ll) weighs (|d|, t, 1 - s), 2c + 1 (ul, ll, ur)
    # (|d|, 1 - t, s); odd 2c (ur, ul, lr) (|d|, 1 - s, 1 - t), 2c + 1
    # (ll, lr, ul) (|d|, s, t): the right angle first
    q, r = np.where(even, t, s), np.where(even, s, t)
    w = np.column_stack([np.abs(d), np.where(even == left, 1.0 - q, q),
                         np.where(left, r, 1.0 - r)])
    return coarse.triangles[2 * (j * n + i) + left], w


def _label_boundary(mesh):
    """Boundary edges of ``mesh`` and the index in ``_LABELS`` of each one's
    label, read off the endpoint coordinates.

    A bisection midpoint of a boundary edge lies exactly on that edge's line,
    so every boundary edge has both endpoints on a side of the rectangle or
    on the slit.

    Raises
    ------
    ValueError
        If a boundary edge lies off the sides and off the slit, as the
        one-triangle edge at a hanging node does.
    """
    edges = mesh.edges[mesh.boundary_edge_mask]
    grid, (lx, ly) = mesh.grid, mesh.grid.domain
    ends = mesh.vertices[edges]                 # (k, 2, 2)
    x, y = ends[:, :, 0], ends[:, :, 1]
    left = (x == 0.0).all(axis=1)
    upper = grid.above(0.5 * (y[:, 0] + y[:, 1]))
    # one condition per label, in the order of _LABELS
    conds = [(y == 0.0).all(axis=1), (x == lx).all(axis=1),
             (y == ly).all(axis=1), left & upper, left & ~upper,
             grid.on_slit(ends).all(axis=1)]
    codes = np.select(conds, np.arange(len(conds)), default=-1)
    bad = np.flatnonzero(codes < 0)
    if bad.size:
        a, b = edges[bad[0]].tolist()
        mid = 0.5 * (ends[bad[0], 0] + ends[bad[0], 1])
        raise ValueError(f"cannot label boundary edge {(a, b)} at {mid}")
    return edges, codes


# ----------------------------------------------------------------------
# Adaptation
# ----------------------------------------------------------------------

def adapt(mesh, refine_ids, coarsen_ids=()):
    """Coarsen sibling pairs, then bisect marked triangles with closure.

    Triangles at the level cap are skipped (reported in the summary, never
    fatal), as are coarsening requests that do not form complete sibling
    pairs or whose removal would leave a hanging node.  The result is a new
    conforming :class:`Mesh` one generation later, carrying the vertex
    provenance needed by nodal transfer.  The id sets may be any iterables
    of integer triangle ids, generators included; a boolean mask, floats or
    a nested array raise ``ValueError``.
    """
    refine_ids = _id_array(refine_ids)
    coarsen_ids = _id_array(coarsen_ids)
    nt = mesh.n_triangles
    for ids, what in ((refine_ids, "refine"), (coarsen_ids, "coarsen")):
        if ids.size and (ids.min() < 0 or ids.max() >= nt):
            raise ValueError(f"{what} set contains invalid triangle ids")
    if np.intersect1d(refine_ids, coarsen_ids, assume_unique=True).size:
        raise ValueError("refine and coarsen sets must be disjoint")

    summary = AdaptSummary(requested_refine=len(refine_ids),
                           requested_coarsen=len(coarsen_ids))

    marked = _closure(mesh, refine_ids, summary)
    # the coarsened pieces go before the new mesh is built
    verts, tris, levels, sides, prov = _refine(
        *_coarsen(mesh, coarsen_ids, marked, summary))

    return Mesh(verts, tris, levels,
                generation=mesh.generation + 1, max_levels=mesh.max_levels,
                source_generation=mesh.generation, vertex_prov=prov,
                child_side=sides, adapt_summary=summary, grid=mesh.grid)


def _id_array(ids):
    """Sorted unique int64 triangle ids from any iterable, read once; an
    empty one may have any dtype, a mask or floats are refused."""
    ids = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError("triangle ids must be a 1-D set of integers")
    ids = np.sort(ids.astype(np.int64))
    return ids[_run_starts(ids)]


def _closure(mesh, refine_ids, summary):
    """Edge marks of newest-vertex bisection under the level cap: the
    refinement edges of the requested triangles below the cap, then the
    refinement edge of every triangle with a marked edge, up to the
    fixpoint.  Requests at the cap are skipped and counted.

    The newest-vertex rule that :class:`Mesh` checks keeps the closure off
    the cap.  Every marked edge is the refinement edge of a triangle below
    the cap that marked it, at some level ``l``; the triangle across it is
    at ``l`` if the edge is its refinement edge too, and at ``l - 1`` if
    not, so it is below the cap as well and marks its own refinement edge
    in turn.  So no capped triangle holds a marked edge, and a triangle one
    level below the cap holds one only as its refinement edge: it bisects
    once, to the cap, and never twice.
    """
    # column by column, as in _coarsen: a row gather costs several times more
    e0, e1, e2 = mesh.tri_edges.T
    capped = mesh.levels[refine_ids] >= mesh.max_levels
    marked = np.zeros(mesh.n_edges, dtype=bool)
    marked[e0[refine_ids[~capped]]] = True
    while True:
        add = e0[(marked[e1] | marked[e2]) & ~marked[e0]]
        if not add.size:
            break
        marked[add] = True

    summary.skipped_capped = int(capped.sum())
    summary.refined = int(marked[e0].sum())
    return marked


def _can_merge(v, t, i, j):
    """Can right child ``i`` and left child ``j`` merge into one parent?

    Both share their peak ``m``; the parent ``(t[i,2], t[j,2], t[i,1])``
    must have positive area and ``m`` must be the midpoint of its
    refinement edge.  So the pair spans a straight angle at ``m``, which is
    the premise of the pairing in :func:`_coarsen`.  Their levels are equal
    already: the shared edge ``(m, t[i,2])`` is a non-refinement edge of
    both, and the newest-vertex rule that :class:`Mesh` checks gives such
    an edge equal levels on both sides.  The geometry tests guard a
    hand-built mesh, whose sides may pair triangles that are not siblings.
    """
    v0, v1, v2 = t[i, 2], t[j, 2], t[i, 1]
    mid = 0.5 * (v[v1] + v[v2])
    tol = 1e-12 * (1.0 + np.abs(mid).max(axis=1))
    ok = (np.abs(v[t[i, 0]] - mid) <= tol[:, None]).all(axis=1)
    d1 = v[v1] - v[v0]
    d2 = v[v2] - v[v0]
    ok &= d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0.0
    return ok


def _coarsen(mesh, coarsen_ids, marked, summary):
    """Merge eligible sibling pairs; returns intermediate mesh pieces, with
    the old edge ids of every row and the edge marks for :func:`_refine`.

    A peak is removed only if every triangle around it is an eligible child
    with that peak and all of them pair up.  Each triangle ``(m, b, c)``
    around a peak pairs with its counterclockwise successor there, the
    triangle across its edge ``(c, m)``, if :func:`_can_merge` lets them.
    Such a pair spans a straight angle at ``m``.  So around a peak on a
    side or a slit face that goes lie two triangles in one pair, and
    around any other four in two pairs.  A peak with four triangles goes
    only if its star closes, every triangle having a successor: at the
    slit's interior tip, the one boundary vertex with a full angle, two
    pairs would leave open edges past the tip, which :class:`Mesh`
    refuses.  The pairs alternate from one anchor, the lowest-id second
    child (``child_side`` 1) whose successor is a first child (0), a true
    sibling pair, or without one the lowest-id triangle that can merge;
    in a closed star the other pair starts two steps ahead of it.  This is
    the pairing of a scan that claims the sibling pairs first and then, in
    ascending triangle order, each triangle whose successor is left over:
    its first claim at a peak is the anchor's pair, and that leaves one
    pairing that covers the peak's triangles.  Merged parents are appended
    by ascending peak, sibling pairs first, then the others, each by right
    child.

    By right child, the sibling pairs at a peak come in the order of the
    bisections that made them.  Every triangle with peak ``m`` and a side
    comes from the one :func:`_refine` call that made ``m`` (a vertex is
    made once, as a bisection midpoint), which writes the children in the
    order of their rows, one pair per peak per row; every later
    :func:`adapt` keeps the relative order of the triangles that survive.

    Every merge keeps the newest-vertex rule of :class:`Mesh`.  The two
    children have one level ``l`` and their peak is the midpoint of the
    parent's refinement edge (:func:`_can_merge`).  Their refinement edges
    become the parent's other two edges, which the parent, at ``l - 1``,
    gives the level ``l`` they had; their ends are kept, so a merged
    neighbour across one has it as its refinement edge and gives it ``l``
    too.  The halves of the parent's refinement edge leave with the peak,
    and with every triangle around it: at an interior peak these are two
    merged pairs, and across the edges through the peak, refinement edges
    of neither side, the rule gives all four children the level ``l``, so
    the two parents share their refinement edge at equal levels.  The
    argument reads the levels and the geometry alone, not the sides, so
    it holds for the merges of pairs that are not siblings too, those that
    cross an edge of the initial grid included.

    A kept row keeps its edge ids.  A parent gets ``n_edges`` for its new
    refinement edge, which is never marked, and its children's refinement
    edges; the marks gain a last entry for it.
    """
    v, t, T = mesh.vertices, mesh.triangles, mesh.tri_edges
    lev = mesh.levels
    nt, nv = mesh.n_triangles, mesh.n_vertices

    elig = np.zeros(nt, dtype=bool)
    elig[coarsen_ids] = True
    elig &= lev >= 1
    # column by column here and below: a row gather costs several times more
    elig &= ~(marked[T[:, 0]] | marked[T[:, 1]] | marked[T[:, 2]])

    # removable peaks: every incident triangle is eligible and has it as peak
    free = np.zeros(nv, dtype=bool)
    free[t[elig, 0]] = True
    free[t[~elig, 0]] = False
    free[t[:, 1]] = free[t[:, 2]] = False
    star = np.flatnonzero(free[t[:, 0]])

    # per triangle, plus a last entry that the id -1 (no triangle) reads:
    # the successor across the edge (c, m), which has the free peak m too
    # (the edge's two triangle ids sum to the successor's plus its own, or
    # to -1 plus its own on the boundary), and whether the two can merge
    succ = np.full(nt + 1, -1)
    succ[star] = mesh.edge_tris[T[star, 1]].sum(axis=1) - star
    ok = np.zeros(nt + 1, dtype=bool)
    has = star[succ[star] >= 0]
    ok[has] = _can_merge(v, t, has, succ[has])
    side = np.append(mesh.child_side, np.int8(-1))
    sib = ok & (side == 1) & (side[succ] == 0)

    # one anchor per peak; the pairs start at the anchor and two steps
    # ahead of it
    cand = np.flatnonzero(ok)
    low = np.full(nv, 2 * nt)
    np.minimum.at(low, t[cand, 0], cand + nt * ~sib[cand])
    start = np.zeros(nt + 1, dtype=bool)
    start[low[low < 2 * nt] % nt] = True
    start[succ[succ[start]]] = True
    right = np.flatnonzero(start & ok)
    # a peak goes when its pairs cover every triangle around it, and one
    # with four triangles only when each has a successor: its star closes
    size = np.bincount(t[star, 0], minlength=nv)
    gone = free & (2 * np.bincount(t[right, 0], minlength=nv) == size)
    gone &= (size == 2) | (np.bincount(t[has, 0], minlength=nv) == size)
    right = right[gone[t[right, 0]]]
    right = right[np.lexsort((right, ~sib[right], t[right, 0]))]
    left = succ[right]

    summary.coarsened_pairs = len(right)
    summary.skipped_coarsen = int(elig.sum() - 2 * len(right))

    keep_tri = np.ones(nt, dtype=bool)
    keep_tri[right] = keep_tri[left] = False
    kept = np.flatnonzero(keep_tri)
    old2new = np.cumsum(~gone) - 1
    parents = np.column_stack([t[right, 2], t[left, 2], t[right, 1]])
    tris = old2new[np.vstack([t.take(kept, axis=0), parents])]
    levels = np.concatenate([lev[kept], lev[right] - 1])
    sides = np.concatenate([side[kept], np.full(len(right), -1, np.int8)])
    edges = np.vstack([T.take(kept, axis=0), np.column_stack(
        [np.full(len(right), mesh.n_edges), T[right, 0], T[left, 0]])])
    survivors = np.flatnonzero(~gone)
    prov = np.column_stack([survivors, np.full(len(survivors), -1)])
    return (v[survivors], tris, levels, sides, prov, edges,
            np.append(marked, False))


def _first_use(keys):
    """Number the distinct integer ``keys`` 0, 1, ... in the order of their
    first appearance; returns each entry's number and the flags of the
    first appearances.  This is ``np.unique(keys, return_index=True,
    return_inverse=True)`` with the unique keys renumbered by their first
    index, from one :func:`stable_sort`: in the stable order, the first
    entry of each run of equal keys is the key's first appearance."""
    sorted_keys, order = stable_sort(keys)
    start = _run_starts(sorted_keys)
    born = np.zeros(len(keys), dtype=bool)
    born[order[start]] = True
    number = np.empty_like(order)
    number[order] = (np.cumsum(born) - 1)[order[start]][np.cumsum(start) - 1]
    return number, born


def _refine(verts, tris, levels, sides, prov, edges, marks):
    """Bisect every triangle whose refinement edge is marked.

    ``edges`` holds the edge id of each row's local edges and ``marks`` the
    mark of each id.  A bisected triangle ``(v0, v1, v2)`` splits at the
    midpoint ``m`` of ``(v1, v2)``; a child whose refinement edge is marked
    too splits once more.  Midpoints are numbered by first use of their
    edge ids in row order, within a row ``(v1, v2)``, then ``(v0, v1)``,
    then ``(v2, v0)``.  Children keep the order of their rows, and each
    records whether it is the first or the second child of its bisection.
    """
    n = len(verts)
    ref = marks[edges[:, 0]]
    # row gathers by index, a fraction of the cost of a boolean row mask
    rows, rest = np.flatnonzero(ref), np.flatnonzero(~ref)
    v0, v1, v2 = tris.take(rows, axis=0).T
    e0, e1, e2 = edges.take(rows, axis=0).T     # opposite v0, v1, v2
    lv = levels[rows]
    b1 = marks[e2]
    b2 = marks[e1]
    one = np.ones_like(b1)

    # midpoints of each bisected row: (v1, v2), (v0, v1), (v2, v0)
    use = np.column_stack([one, b1, b2])
    ea = np.column_stack([v1, v0, v2])[use]
    eb = np.column_stack([v2, v1, v0])[use]
    number, born = _first_use(np.column_stack([e0, e2, e1])[use])
    mids = np.full(use.shape, -1, dtype=np.int64)
    mids[use] = n + number
    m, m1, m2 = mids.T
    ma, mb = ea[born], eb[born]

    # children: (m, v0, v1) or its halves, then (m, v2, v0) or its halves
    kids = np.stack([np.where(b1[:, None], np.column_stack([m1, m, v0]),
                              np.column_stack([m, v0, v1])),
                     np.column_stack([m1, v1, m]),
                     np.where(b2[:, None], np.column_stack([m2, m, v2]),
                              np.column_stack([m, v2, v0])),
                     np.column_stack([m2, v0, m])], axis=1)
    real = np.column_stack([one, b1, one, b2])
    kid_levels = lv[:, None] + 1 + np.column_stack([b1, one, b2, one])
    # first children: slot 0, and slot 2 where (m, v2, v0) splits again
    kid_sides = np.column_stack([~one, one, ~b2, one]).astype(np.int8)

    return (np.vstack([verts, 0.5 * (verts[ma] + verts[mb])]),
            np.vstack([tris.take(rest, axis=0), kids[real]]),
            np.concatenate([levels[rest], kid_levels[real]]),
            np.concatenate([sides[rest], kid_sides[real]]),
            np.vstack([prov, np.column_stack([ma, mb])]))
