"""P1 assembly, constraints, transfer and gradients."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fracture_afem.fem as fem
from fracture_afem.fem import (DirichletSet, FeFunction, apply_dirichlet,
                               assemble_load, assemble_mass,
                               assemble_stiffness, dirichlet_rhs,
                               element_data, element_gradients,
                               element_means, transfer, weighted_mass)
from fracture_afem.mesh import adapt, build_initial_mesh, geometry


def unit_square(n=2):
    return build_initial_mesh((1.0, 1.0), None, n)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def gradient_oracle(mesh, values):
    """Per-element gradient via an explicit 2x2 solve of two directional
    differences along triangle edges."""
    out = np.zeros((mesh.n_triangles, 2))
    for t, tri in enumerate(mesh.triangles):
        p0, p1, p2 = mesh.vertices[tri]
        A = np.array([p1 - p0, p2 - p0])
        rhs = np.array([values[tri[1]] - values[tri[0]],
                        values[tri[2]] - values[tri[0]]])
        out[t] = np.linalg.solve(A, rhs)
    return out


def coo_reference(mesh, local):
    """Sum the (nt, 3, 3) element entries through COO -> CSR."""
    rows = np.repeat(mesh.triangles, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.triangles, (1, 3)).reshape(-1)
    n = mesh.n_vertices
    return sp.coo_matrix((local.reshape(-1), (rows, cols)),
                         shape=(n, n)).tocsr()


def bincount_reference(mesh, local):
    """The data of the matrix the (nt, 3, 3) element entries sum to, by one
    ``bincount`` onto the mesh's slot map."""
    ed = element_data(mesh)
    return np.bincount(ed["slot"], weights=local.reshape(-1),
                       minlength=len(ed["indices"]))


def assert_close_to_reference(A, R, mesh):
    """Equal up to the order of summation: an entry sums at most one term
    per incident triangle, and only diagonal entries (whose terms share a
    sign) can have more than two."""
    assert A.has_sorted_indices
    terms = np.bincount(mesh.triangles.ravel()).max()
    diff = abs(A - R).toarray()
    row_scale = abs(R).max(axis=1).toarray()
    assert (diff <= (terms - 1) * np.finfo(float).eps * row_scale).all()


@st.composite
def adapted_meshes(draw):
    """An n0 <= 5 grid, with or without slit, after a short random chain of
    refinements and coarsenings."""
    n0 = draw(st.integers(1, 5))
    slit = (0.0, 1.5, 1.5) if n0 % 2 == 0 and draw(st.booleans()) else None
    mesh = build_initial_mesh((3.0, 3.0), slit, n0,
                              max_levels=draw(st.integers(1, 4)))
    for _ in range(draw(st.integers(0, 4))):
        n = mesh.n_triangles
        refine = sorted(draw(st.sets(st.integers(0, n - 1),
                                     max_size=min(n, 30))))
        coarsen = np.setdiff1d(np.arange(n), refine) \
            if draw(st.booleans()) else []
        mesh = adapt(mesh, refine, coarsen)
    return mesh


# ----------------------------------------------------------------------
# fixed-pattern assembly
# ----------------------------------------------------------------------

MASS_PATTERN = np.array([[2.0, 1.0, 1.0],
                         [1.0, 2.0, 1.0],
                         [1.0, 1.0, 2.0]]) / 12.0


@settings(max_examples=40, deadline=None)
@given(adapted_meshes(), st.data())
def test_pattern_assembly_matches_coo_reference(mesh, data):
    nt = mesh.n_triangles
    weights = st.lists(st.floats(0.0, 10.0), min_size=nt, max_size=nt)
    c = np.array(data.draw(weights))
    w = np.array(data.draw(weights))
    ed = element_data(mesh)
    # the (nt, 3, 2) rows of the component-major gradients
    area, G = ed["area"], ed["grads"].transpose(2, 1, 0)

    M = assemble_mass(mesh, 2.5)
    assert_close_to_reference(
        M, coo_reference(mesh, 2.5 * area[:, None, None] * MASS_PATTERN),
        mesh)
    A = assemble_stiffness(mesh, c)
    assert_close_to_reference(A, coo_reference(
        mesh, np.einsum('nik,njk->nij', G, G) * (c * area)[:, None, None]),
        mesh)
    W = weighted_mass(mesh, w)
    assert_close_to_reference(
        W, coo_reference(mesh, (w * area)[:, None, None] * MASS_PATTERN),
        mesh)
    # one pattern for every matrix of the mesh: diagonal plus both
    # directions of each edge
    for B in (A, W):
        assert np.array_equal(B.indptr, M.indptr)
        assert np.array_equal(B.indices, M.indices)
    assert M.nnz == mesh.n_vertices + 2 * mesh.n_edges


@settings(max_examples=30, deadline=None)
@given(adapted_meshes(), st.integers(0, 2 ** 32 - 1))
def test_stiffness_data_equals_einsum_reference(mesh, seed):
    c = np.random.default_rng(seed).uniform(0.0, 10.0, mesh.n_triangles)
    ed = element_data(mesh)
    G = ed["grads"].transpose(2, 1, 0)
    local = np.einsum('nik,njk->nij', G, G) * (c * ed["area"])[:, None, None]
    want = np.bincount(ed["slot"], weights=local.reshape(-1),
                       minlength=len(ed["indices"]))
    assert assemble_stiffness(mesh, c).data.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(adapted_meshes(), st.integers(0, 2 ** 32 - 1))
def test_element_operator_equals_bincount_reference(mesh, seed):
    # the (nt, 3, 3) element matrices, formed as the assembly formed them
    # before it applied an element operator, and summed by bincount
    rng = np.random.default_rng(seed)
    nt = mesh.n_triangles
    ed = element_data(mesh)
    (gx, gy), area = ed["grads"].transpose(0, 2, 1), ed["area"]
    unit = gx[:, :, None] * gx[:, None, :]
    unit += gy[:, :, None] * gy[:, None, :]

    def weights():
        w = rng.uniform(0.0, 10.0, nt) * 10.0 ** rng.uniform(-8, 8)
        w[rng.random(nt) < 0.2] = 0.0
        return w

    c, w = weights(), weights()
    nodal = FeFunction(rng.uniform(0.0, 2.0, mesh.n_vertices),
                       mesh.generation)
    c_nodal = element_means(nodal.values, mesh.triangles)
    cases = [
        (assemble_stiffness(mesh, 2.5), unit * (2.5 * area)[:, None, None]),
        (assemble_stiffness(mesh, c), unit * (c * area)[:, None, None]),
        (assemble_stiffness(mesh, nodal),
         unit * (c_nodal * area)[:, None, None]),
        (weighted_mass(mesh, w), (w * area)[:, None, None] * MASS_PATTERN),
        (assemble_mass(mesh, 2.5),
         (2.5 * area)[:, None, None] * MASS_PATTERN)]
    for A, local in cases:
        assert A.data.tobytes() == bincount_reference(mesh, local).tobytes()


def test_scatter_refuses_weights_that_do_not_fit_the_mesh():
    # the kernel reads one weight per triangle and nine entries per weight
    # without checking, so a misfit must stop before it
    mesh = unit_square(2)
    entries = element_data(mesh)["stiffness"]
    nt = mesh.n_triangles
    for scale, ent in ((np.ones(nt - 1), entries), (np.ones(nt + 1), entries),
                       (np.ones(nt), entries[:-9]), (np.ones((nt, 1)), entries)):
        with pytest.raises(ValueError, match="do not fit"):
            fem._scatter(mesh, scale, ent)


def test_returned_matrices_do_not_alias_the_pattern():
    mesh = adapt(unit_square(3), [0, 4, 9])
    first = assemble_stiffness(mesh, 1.0)
    ref = first.toarray()
    first.data[:] = 0.0
    first.eliminate_zeros()
    assert first.nnz == 0
    M = assemble_mass(mesh, 1.0)
    M.indices[:] = 0
    M.indptr[:] = 0
    again = assemble_stiffness(mesh, 1.0)
    assert np.array_equal(again.toarray(), ref)
    ds = DirichletSet(np.array([0, 3]), np.zeros(2))
    A2, _ = apply_dirichlet(again, np.zeros(mesh.n_vertices), ds)
    A2.data[:] = 7.0
    A2.sort_indices()
    A2.eliminate_zeros()
    assert np.array_equal(again.toarray(), ref)
    assert np.array_equal(assemble_stiffness(mesh, 1.0).toarray(), ref)


# ----------------------------------------------------------------------
# mass
# ----------------------------------------------------------------------

def test_element_mass_single_triangle():
    # the unit square of two right triangles of area 1/2 each
    mesh = unit_square(1)
    Mm = assemble_mass(mesh, 1.0).toarray()
    element = (0.5 / 12.0) * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    expected = np.zeros((4, 4))
    for tri in mesh.triangles:
        expected[np.ix_(tri, tri)] += element
    assert np.allclose(Mm, expected)


def test_mass_row_sums_partition_of_unity():
    mesh = unit_square(3)
    Mm = assemble_mass(mesh, 2.5)
    rows = np.asarray(Mm.sum(axis=1)).ravel()
    # row sum = density * third of incident area
    areas = geometry(mesh).area
    acc = np.zeros(mesh.n_vertices)
    for t, tri in enumerate(mesh.triangles):
        acc[tri] += areas[t] / 3.0
    assert np.allclose(rows, 2.5 * acc)
    assert np.isclose(Mm.sum(), 2.5 * 1.0)


def test_mass_total_on_unit_square():
    mesh = unit_square(1)
    assert np.isclose(assemble_mass(mesh, 1.0).sum(), 1.0)


def test_mass_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        assemble_mass(unit_square(), 0.0)


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_weighted_mass_rejects_negative_or_nan_weight(bad):
    mesh = unit_square(2)
    w = np.ones(mesh.n_triangles)
    w[3] = bad
    with pytest.raises(ValueError, match="nonnegative"):
        weighted_mass(mesh, w)


# ----------------------------------------------------------------------
# stiffness
# ----------------------------------------------------------------------

def test_stiffness_exact_on_linears():
    mesh = unit_square(2)
    A = assemble_stiffness(mesh, 1.0)
    u = FeFunction.from_callable(mesh, lambda x, y: x)
    r = A @ u.values
    boundary = set()
    for (a, b) in mesh.boundary_labels:
        boundary.update((a, b))
    interior = [i for i in range(mesh.n_vertices) if i not in boundary]
    assert np.abs(r[interior]).max() < 1e-14


def test_stiffness_scales_linearly():
    mesh = unit_square(2)
    A1 = assemble_stiffness(mesh, 1.0)
    A3 = assemble_stiffness(mesh, 3.0)
    assert abs(A3 - 3.0 * A1).max() < 1e-14


def test_stiffness_with_kappa_floor_coefficient():
    mesh = unit_square(2)
    kappa = 1e-10
    v = FeFunction.zeros(mesh)
    coeff = FeFunction((1 - kappa) * v.values ** 2 + kappa, mesh.generation)
    A = assemble_stiffness(mesh, coeff)
    A1 = assemble_stiffness(mesh, 1.0)
    diff = abs(A - kappa * A1)
    assert diff.max() <= 1e-14 * kappa * abs(A1).max()


def test_stiffness_kernel_and_spd():
    mesh = unit_square(3)
    A = assemble_stiffness(mesh, 1.0)
    const = np.ones(mesh.n_vertices)
    assert np.abs(A @ const).max() < 1e-12
    assert abs(A - A.T).max() < 1e-12 * abs(A).max()
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = rng.standard_normal(mesh.n_vertices)
        assert w @ (A @ w) >= -1e-12
        M = assemble_mass(mesh, 1.0)
        assert w @ (M @ w) > 0


def test_stiffness_rejects_negative_coefficient():
    mesh = unit_square(2)
    coeff = FeFunction.constant(mesh, 1.0)
    coeff.values[0] = -4.0
    with pytest.raises(ValueError):
        assemble_stiffness(mesh, np.full(mesh.n_triangles, -1.0))


def test_stiffness_rejects_nan_coefficient():
    # a NaN is not below 0, yet it is no nonnegative coefficient
    mesh = unit_square(2)
    c = np.ones(mesh.n_triangles)
    c[5] = np.nan
    with pytest.raises(ValueError, match="nonnegative"):
        assemble_stiffness(mesh, c)


def test_patch_test_linear_dirichlet():
    mesh = unit_square(4)
    A = assemble_stiffness(mesh, 1.0)
    exact = FeFunction.from_callable(mesh, lambda x, y: 2 * x - 3 * y + 0.5)
    bnd = sorted({i for e in mesh.boundary_labels for i in e})
    ds = DirichletSet(np.array(bnd), exact.values[np.array(bnd)])
    A2, b2 = apply_dirichlet(A, np.zeros(mesh.n_vertices), ds)
    x = sp.linalg.spsolve(A2.tocsc(), b2)
    err = np.abs(x - exact.values).max() / np.abs(exact.values).max()
    assert err < 1e-10


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------

def test_load_zero_and_constant():
    mesh = unit_square(2)
    assert np.allclose(assemble_load(mesh, FeFunction.zeros(mesh)), 0.0)
    b = assemble_load(mesh, FeFunction.constant(mesh, 1.0))
    assert np.isclose(b.sum(), 1.0)


def test_load_is_mass_times_values():
    mesh = unit_square(3)
    rng = np.random.default_rng(2)
    f = FeFunction(rng.standard_normal(mesh.n_vertices), mesh.generation)
    b = assemble_load(mesh, f)
    assert np.allclose(b, assemble_mass(mesh, 1.0) @ f.values)


def test_load_generation_mismatch():
    mesh = unit_square(2)
    other = adapt(mesh, [0])
    f = FeFunction.zeros(other)
    with pytest.raises(ValueError):
        assemble_load(mesh, f)


# ----------------------------------------------------------------------
# Dirichlet elimination
# ----------------------------------------------------------------------

def test_dirichlet_empty_noop():
    mesh = unit_square(2)
    A = assemble_stiffness(mesh, 1.0)
    b = np.arange(mesh.n_vertices, dtype=float)
    A2, b2 = apply_dirichlet(A, b, DirichletSet(np.empty(0, int), np.empty(0)))
    assert abs(A2 - A).max() == 0.0
    assert np.array_equal(b2, b)


def test_dirichlet_all_pinned():
    mesh = unit_square(1)
    A = assemble_stiffness(mesh, 1.0)
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    A2, b2 = apply_dirichlet(A, np.zeros(4), DirichletSet(np.arange(4), vals))
    assert abs(A2 - sp.eye(4)).max() < 1e-15
    assert np.allclose(b2, vals)


def test_dirichlet_path_graph_interpolation():
    # 1D-like chain: ends pinned to zero force the interior to zero
    A = sp.csr_matrix(np.array([[1.0, -1.0, 0.0],
                                [-1.0, 2.0, -1.0],
                                [0.0, -1.0, 1.0]]))
    ds = DirichletSet(np.array([0, 2]), np.zeros(2))
    A2, b2 = apply_dirichlet(A, np.zeros(3), ds)
    x = sp.linalg.spsolve(A2.tocsc(), b2)
    assert np.allclose(x, 0.0)


def test_dirichlet_conflicting_duplicates_rejected():
    with pytest.raises(ValueError, match="more than once"):
        DirichletSet(np.array([3, 3]), np.array([1.0, 2.0]))
    # an exact repeat is rejected too: every constraint set lists a dof once
    with pytest.raises(ValueError, match="more than once"):
        DirichletSet(np.array([3, 5, 3]), np.array([1.0, 0.0, 1.0]))
    assert DirichletSet(np.array([5, 3]), np.ones(2)).dofs.tolist() == [5, 3]


@settings(max_examples=30, deadline=None)
@given(adapted_meshes(), st.data())
def test_dirichlet_matches_dense_elimination(mesh, data):
    n = mesh.n_vertices
    dofs = np.array(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
    vals = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=len(dofs),
                                       max_size=len(dofs))))
    rng = np.random.default_rng(len(dofs))
    A = assemble_stiffness(mesh, rng.uniform(0.1, 2.0, mesh.n_triangles)) \
        + assemble_mass(mesh, 1.0)
    A.data[rng.random(A.nnz) < 0.1] = 0.0      # explicit zeros stay put
    before = A.copy()
    b = rng.standard_normal(n)
    A2, b2 = apply_dirichlet(A, b, DirichletSet(dofs, vals))

    pin = np.zeros(n)
    pin[dofs] = 1.0
    P = np.diag(1.0 - pin)
    Ad = A.toarray()
    assert np.array_equal(A2.toarray(), P @ Ad @ P + np.diag(pin))
    g = pin * 0.0
    g[dofs] = vals
    b_ref = (1.0 - pin) * (b - Ad @ g)
    b_ref[dofs] = vals
    assert np.allclose(b2, b_ref, rtol=1e-14, atol=1e-14 * np.abs(b).max())
    # the right-hand side alone, for a matrix eliminated once, is the same
    assert np.array_equal(dirichlet_rhs(A, b, DirichletSet(dofs, vals)), b2)
    # the input is untouched and the pattern is kept
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, name), getattr(before, name))
    assert np.array_equal(A2.indices, A.indices)


def test_dirichlet_without_stored_diagonal():
    # a constrained row must store its diagonal exactly once, as every
    # matrix on a mesh's pattern does; anything else is rejected
    A = sp.csr_matrix(np.array([[0.0, -1.0, 0.0],
                                [-1.0, 2.0, -1.0],
                                [0.0, -1.0, 1.0]]))
    assert A.nnz == 6                           # row 0 stores no diagonal
    with pytest.raises(ValueError, match="diagonal"):
        apply_dirichlet(A, np.ones(3), DirichletSet([0], [2.0]))
    # row 0 stores its diagonal twice and row 2 not at all: the count of
    # diagonal entries is right, their rows are not
    twice = sp.csr_matrix((np.array([0.5, 0.5, -1.0, -1.0, 2.0, -1.0, -1.0]),
                           np.array([0, 0, 1, 0, 1, 2, 1]),
                           np.array([0, 3, 6, 7])), shape=(3, 3))
    with pytest.raises(ValueError, match="diagonal"):
        apply_dirichlet(twice, np.ones(3), DirichletSet([0, 2], [2.0, 0.0]))
    # the unconstrained row 0 may lack its diagonal
    A2, b2 = apply_dirichlet(A, np.ones(3), DirichletSet([2], [2.0]))
    assert np.array_equal(A2.toarray(), [[0.0, -1.0, 0.0],
                                         [-1.0, 2.0, 0.0],
                                         [0.0, 0.0, 1.0]])
    assert np.array_equal(b2, [1.0, 3.0, 2.0])


def test_dirichlet_symmetric_and_spd_on_free_block():
    mesh = unit_square(3)
    A = assemble_stiffness(mesh, 1.0)
    bnd = np.array(sorted({i for e in mesh.boundary_labels for i in e}))
    ds = DirichletSet(bnd, np.ones(len(bnd)))
    A2, _ = apply_dirichlet(A, np.zeros(mesh.n_vertices), ds)
    assert abs(A2 - A2.T).max() < 1e-14
    rng = np.random.default_rng(3)
    w = rng.standard_normal(mesh.n_vertices)
    assert w @ (A2 @ w) > 0


# ----------------------------------------------------------------------
# transfer
# ----------------------------------------------------------------------

def test_transfer_reproduces_linears():
    mesh = unit_square(2)
    u = FeFunction.from_callable(mesh, lambda x, y: 3 * x - 2 * y + 1)
    fine = adapt(mesh, range(mesh.n_triangles))
    uf = transfer(u, mesh, fine)
    exact = FeFunction.from_callable(fine, lambda x, y: 3 * x - 2 * y + 1)
    assert np.allclose(uf.values, exact.values)


def test_transfer_roundtrip_on_surviving_dofs():
    mesh = unit_square(2)
    rng = np.random.default_rng(4)
    u = FeFunction(rng.standard_normal(mesh.n_vertices), mesh.generation)
    fine = adapt(mesh, [0, 3])
    uf = transfer(u, mesh, fine)
    back = adapt(fine, [], np.where(fine.levels > 0)[0])
    ub = transfer(uf, fine, back)
    assert back.n_vertices == mesh.n_vertices
    assert np.allclose(np.sort(ub.values), np.sort(u.values))


def test_transfer_preserves_unit_interval():
    mesh = unit_square(3)
    rng = np.random.default_rng(5)
    u = FeFunction(rng.uniform(0, 1, mesh.n_vertices), mesh.generation)
    fine = adapt(mesh, range(0, mesh.n_triangles, 2))
    uf = transfer(u, mesh, fine)
    assert uf.values.min() >= 0.0 and uf.values.max() <= 1.0


def test_transfer_unrelated_generations_rejected():
    mesh = unit_square(2)
    fine = adapt(mesh, [0])
    finer = adapt(fine, [0])
    u = FeFunction.zeros(mesh)
    with pytest.raises(ValueError):
        transfer(u, mesh, finer)


# ----------------------------------------------------------------------
# gradients
# ----------------------------------------------------------------------

def test_gradients_of_coordinate_and_constant():
    mesh = unit_square(3)
    gx = element_gradients(FeFunction.from_callable(mesh, lambda x, y: x), mesh)
    assert gx.shape == (2, mesh.n_triangles)
    assert np.allclose(gx, [[1.0], [0.0]])
    g0 = element_gradients(FeFunction.constant(mesh, 4.2), mesh)
    assert np.abs(g0).max() < 1e-14


@settings(max_examples=30, deadline=None)
@given(adapted_meshes(), st.integers(0, 2 ** 32 - 1))
def test_gradients_equal_einsum_bit_for_bit(mesh, seed):
    rng = np.random.default_rng(seed)
    u = FeFunction(rng.standard_normal(mesh.n_vertices)
                   * 10.0 ** rng.uniform(-8, 8), mesh.generation)
    rows = element_data(mesh)["grads"].transpose(2, 1, 0)
    ref = np.einsum('nik,ni->nk', rows, u.values[mesh.triangles])
    assert np.array_equal(element_gradients(u, mesh), ref.T)


@settings(max_examples=30, deadline=None)
@given(adapted_meshes(), st.integers(0, 2 ** 32 - 1))
def test_element_means_equal_numpy_mean_bit_for_bit(mesh, seed):
    # a nodal field and the (n, 2) coordinates, as the callers pass them
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(mesh.n_vertices) * 10.0 ** rng.uniform(-8, 8)
    for values in (u, mesh.vertices):
        ref = values[mesh.triangles].mean(axis=1)
        got = element_means(values, mesh.triangles)
        assert got.shape == ref.shape and np.array_equal(got, ref)


# subnormals, signed zeros, squares that overflow to inf, inf and NaN
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e-170, 1.5e160, -1.7e308, np.inf,
           -np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(4)),
                  elements=st.floats() | st.sampled_from(SPECIAL)))
def test_gradient_columns_equal_row_reductions_bit_for_bit(data):
    # the callers' column forms against the (n, 2) row reductions they
    # replaced.  numpy's row sum starts from +0.0, so it is 0.0 + p0 + p1:
    # a sum of two -0.0 products reads +0.0 there and -0.0 in the column
    # form, and the square the indicator takes is the same.  A NaN's sign
    # follows the SIMD loop numpy picks for the length, not the formula,
    # so NaNs must fall in the same places and every other bit agree
    g, n = np.ascontiguousarray(data[:, :2]), np.ascontiguousarray(data[:, 2:])
    (gx, gy), (nx, ny) = np.ascontiguousarray(g.T), np.ascontiguousarray(n.T)
    with np.errstate(all="ignore"):
        dot = gx * nx + gy * ny
        pairs = [(gx ** 2 + gy ** 2, (g ** 2).sum(axis=1)),
                 (np.sqrt(gx ** 2 + gy ** 2), np.linalg.norm(g, axis=1)),
                 (0.0 + dot, (g * n).sum(axis=1)),
                 (dot ** 2, (g * n).sum(axis=1) ** 2)]
    for got, want in pairs:
        nan = np.isnan(want)
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def test_gradients_match_directional_difference_oracle():
    mesh = adapt(unit_square(3), [0, 5, 7])
    rng = np.random.default_rng(6)
    u = FeFunction(rng.standard_normal(mesh.n_vertices), mesh.generation)
    g = element_gradients(u, mesh)
    assert np.allclose(g.T, gradient_oracle(mesh, u.values), atol=1e-12)


# ----------------------------------------------------------------------
# the memo of a time step
# ----------------------------------------------------------------------

def test_step_memo_forms_a_field_anew_after_an_in_place_change():
    mesh = build_initial_mesh((3.0, 3.0), (0.0, 1.5, 1.5), 4)
    x, y = mesh.vertices.T
    u = FeFunction(x * y, mesh.generation)
    memo = fem.StepMemo()
    formed = []

    def build(f, m):
        formed.append(f.values.copy())
        return fem.element_gradients(f, m)
    g = memo.get(u, mesh, "gradients", build)
    assert memo.get(u, mesh, "gradients", build) is g and len(formed) == 1
    with pytest.raises(ValueError):
        g[0, 0] = 1.0                   # kept arrays are shared, read-only
    u.values[3] += 1.0
    fresh = memo.get(u, mesh, "gradients", build)
    assert len(formed) == 2
    assert np.array_equal(fresh, fem.element_gradients(u, mesh))
    assert not np.array_equal(fresh, g)
    u.values = 2.0 * u.values
    assert np.array_equal(memo.get(u, mesh, "gradients", build),
                          fem.element_gradients(u, mesh))
    assert len(formed) == 3
    # an equal field is another object: its own entry; a gone field's
    # entry is dropped at the next call
    twin = FeFunction(u.values.copy(), mesh.generation)
    memo.get(twin, mesh, "gradients", build)
    assert len(formed) == 4
    del u
    memo.get(twin, mesh, "gradients", build)
    assert len(memo._entries) == 1 and len(formed) == 4
    memo.clear()
    memo.get(twin, mesh, "gradients", build)
    assert len(formed) == 5
