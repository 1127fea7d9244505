"""Multigrid preconditioner: grid hierarchy, prolongations, V-cycle."""

import functools
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture_afem import multigrid as mg
from fracture_afem.driver import build_dirichlet
from fracture_afem.dynamics import LoadingParams, MaterialParams
from fracture_afem.fem import (DirichletSet, FeFunction, apply_dirichlet,
                               assemble_stiffness, unit_mass)
from fracture_afem.linsolve import solve_spd
from fracture_afem.mesh import adapt, build_initial_mesh
from fracture_afem.phasefield import phasefield_system

from test_fem import adapted_meshes

DOMAIN3 = (3.0, 3.0)
EDGE_SLIT = (0.0, 1.5, 1.5)       # from the left boundary to an interior tip
INNER_SLIT = (0.75, 2.25, 1.5)    # two interior tips
MP = MaterialParams(mu=1.0, varrho=1.0, eta=0.5, kappa=1e-10, epsilon=0.2)


def on_upper_face(mesh, slit):
    """Vertices above the slit line, or on it and used by a triangle above."""
    y = mesh.vertices[:, 1]
    used_above = np.zeros(mesh.n_vertices, dtype=bool)
    above = mesh.vertices[mesh.triangles, 1].mean(axis=1) > slit[2]
    used_above[mesh.triangles[above].ravel()] = True
    return (y > slit[2]) | ((y == slit[2]) & used_above)


def face_field(pts, upper, slit):
    """A linear field plus, on the upper face only, a jump that vanishes at
    the slit tips.  Its kinks lie on grid lines, so it is P1 on every grid
    level of the slit meshes below."""
    x, y = pts.T
    reach = np.full(len(x), np.inf)
    if slit[0] > 0.0:
        reach = np.minimum(reach, x - slit[0])
    if slit[1] < DOMAIN3[0]:
        reach = np.minimum(reach, slit[1] - x)
    return 1.0 + 2.0 * x - 3.0 * y + np.where(upper, np.maximum(reach, 0.0),
                                              0.0)


def grid_meshes(grid, j=0):
    return mg._hierarchy(grid, j)[0]


def grid_field(mesh):
    return face_field(mesh.vertices, on_upper_face(mesh, mesh.grid.slit),
                      mesh.grid.slit)


@st.composite
def adapted_slit_meshes(draw):
    """A slit grid after a random chain of refinements and coarsenings."""
    n0, slit = draw(st.sampled_from([(2, EDGE_SLIT), (4, EDGE_SLIT),
                                     (4, INNER_SLIT), (8, EDGE_SLIT),
                                     (8, INNER_SLIT)]))
    mesh = build_initial_mesh(DOMAIN3, slit, n0,
                              max_levels=draw(st.integers(1, 4)))
    for _ in range(draw(st.integers(1, 5))):
        n = mesh.n_triangles
        refine = sorted(draw(st.sets(st.integers(0, n - 1),
                                     max_size=min(n, 40))))
        coarsen = np.setdiff1d(np.arange(n), refine) \
            if draw(st.booleans()) else []
        mesh = adapt(mesh, refine, coarsen)
    return mesh


@settings(max_examples=40, deadline=None)
@given(adapted_slit_meshes())
def test_mesh_prolongation_interpolates_each_face(mesh):
    P, R = mg.mesh_prolongation(mesh)
    grid = mesh.grid
    coarse = grid_meshes(grid, mg.entry_level(mesh))[0]
    assert P.shape == (mesh.n_vertices, coarse.n_vertices)
    assert (P.data >= 0.0).all() and (P.data <= 1.0).all()
    assert np.allclose(P.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)
    assert (R != P.T).nnz == 0
    want = face_field(mesh.vertices, on_upper_face(mesh, grid.slit),
                      grid.slit)
    got = P @ grid_field(coarse)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_grid_levels_stop_at_small_grid_or_off_grid_slit():
    def sizes(slit, n0):
        grid = build_initial_mesh(DOMAIN3, slit, n0).grid
        return [m.grid.n0 for m in grid_meshes(grid)]

    assert sizes(EDGE_SLIT, 64) == [64, 32, 16, 8]
    assert [m.n_vertices for m in grid_meshes(
        build_initial_mesh(DOMAIN3, EDGE_SLIT, 16).grid)] == [297, 85]
    assert sizes(None, 4) == [4]
    assert sizes(INNER_SLIT, 16) == [16, 8]
    # the tip at 0.75 is on the 12-grid but not on the 6-grid
    assert sizes(INNER_SLIT, 24) == [24, 12]
    assert sizes(EDGE_SLIT, 18) == [18]

    def build_attempts(slit, n0):
        # the stopping rule by trial: halve while the coarser mesh builds
        out = [build_initial_mesh(DOMAIN3, slit, n0)]
        while out[-1].n_vertices > mg.COARSE_DOFS and out[-1].grid.n0 % 2 == 0:
            try:
                out.append(build_initial_mesh(DOMAIN3, slit,
                                              out[-1].grid.n0 // 2))
            except ValueError:
                break
        return [m.grid.n0 for m in out]

    swept = 0
    for slit in (EDGE_SLIT, INNER_SLIT):
        for n0 in range(2, 65):
            try:
                want = build_attempts(slit, n0)
            except ValueError:      # the slit is off the n0 grid
                continue
            assert sizes(slit, n0) == want, (slit, n0)
            swept += 1
    assert swept == 32 + 16


def test_grid_prolongations_are_exact_between_levels():
    grid = build_initial_mesh(DOMAIN3, EDGE_SLIT, 32).grid
    meshes = grid_meshes(grid)
    levels = mg.grid_prolongations(grid)
    assert len(levels) == len(meshes) - 1
    for (P, R), fine, coarse in zip(levels, meshes, meshes[1:]):
        assert P.shape == (fine.n_vertices, coarse.n_vertices)
        assert (R != P.T).nnz == 0
        assert np.allclose(P @ grid_field(coarse), grid_field(fine),
                           rtol=0.0, atol=1e-12)
    assert mg.grid_prolongations(grid) is levels


def test_hierarchy_is_built_at_the_first_solve_only():
    mesh = build_initial_mesh(DOMAIN3, EDGE_SLIT, 16)
    assert mesh.grid._cache == {}
    fine = adapt(mesh, range(10))
    assert fine.grid is mesh.grid
    A, _, _ = phasefield_system(strained(fine), MP, fine)
    mg.vcycle(A, fine)
    assert set(mesh.grid._cache) == {"mg0"} and "mg" in fine._cache


def strained(mesh, amplitude=3.0):
    x, y = mesh.vertices.T
    return FeFunction(amplitude * np.sin(2.0 * x) * np.cos(y),
                      mesh.generation)


def pinned_system(mesh, pins, amplitude=3.0):
    A, b, _ = phasefield_system(strained(mesh, amplitude), MP, mesh)
    return apply_dirichlet(A, b, DirichletSet(pins, np.zeros(len(pins))))


def adapted_slit_mesh():
    mesh = build_initial_mesh(DOMAIN3, EDGE_SLIT, 16)
    rng = np.random.default_rng(3)
    for _ in range(4):
        n = mesh.n_triangles
        refine = rng.choice(n, n // 4, replace=False)
        coarsen = np.setdiff1d(rng.choice(n, n // 3, replace=False), refine)
        mesh = adapt(mesh, refine, coarsen)
    return mesh


def block_pins(mesh):
    """Crack pins along the slit, and a block that pins the whole support
    of some coarse dofs."""
    x, y = mesh.vertices.T
    return np.flatnonzero(((np.abs(y - 1.5) < 0.3) & (x < 2.0))
                          | ((x > 2.2) & (y < 0.8)))


def assert_symmetric_positive(mesh, pins, B=None):
    """The cycle ``B`` (by default a new one for the system of
    ``pinned_system``) is symmetric, positive and leaves pins at zero."""
    if B is None:
        Ac, _ = pinned_system(mesh, pins)
        B = mg.vcycle(Ac, mesh, pins)
    rng = np.random.default_rng(4)
    for _ in range(5):
        p, q = rng.standard_normal((2, mesh.n_vertices))
        Bp, Bq = B(p), B(q)
        scale = np.linalg.norm(p) * np.linalg.norm(Bq)
        assert abs(p @ Bq - q @ Bp) <= 1e-13 * scale
        assert p @ Bp > 0.0
        assert np.isfinite(Bp).all()
        free = np.ones(mesh.n_vertices, dtype=bool)
        free[pins] = False
        r = np.where(free, p, 0.0)
        assert (B(r)[pins] == 0.0).all()


def test_vcycle_is_symmetric_and_positive_with_pins():
    mesh = adapted_slit_mesh()
    assert_symmetric_positive(mesh, block_pins(mesh))


def test_refit_cycle_keeps_coarse_levels_and_stays_positive():
    mesh = adapted_slit_mesh()
    pins = block_pins(mesh)
    A1, _ = pinned_system(mesh, pins)
    B = mg.vcycle(A1, mesh, pins)
    coarse_ops, coarse_weights = B.ops[1:], B.weights[1:]
    P, R, coarse_inv = B.P, B.R, B.coarse_inv
    A2, b2 = pinned_system(mesh, pins, amplitude=1.0)
    assert B.refit(A2) is B
    assert B.ops[0] is A2
    assert all(x is y for x, y in zip(B.ops[1:], coarse_ops))
    assert all(x is y for x, y in zip(B.weights[1:], coarse_weights))
    assert B.P is P and B.R is R and B.coarse_inv is coarse_inv
    assert np.array_equal(B.weights[0], mg.OMEGA / A2.diagonal())
    assert_symmetric_positive(mesh, pins, B)
    # the coarse levels of a reaction nine times stronger still beat Jacobi
    _, rep = solve_spd(A2, b2, tol=1e-10, precond=B)
    _, jacobi = solve_spd(A2, b2, tol=1e-10)
    assert rep.converged and 3 * rep.iterations < jacobi.iterations


@functools.cache
def twin_slit_meshes():
    """Two adapted slit meshes with equal arrays: two objects."""
    return adapted_slit_mesh(), adapted_slit_mesh()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_vcycle_refits_a_cycle_of_the_same_mesh_and_pins_only(data):
    mesh, twin = twin_slit_meshes()
    n = mesh.n_vertices
    assert twin is not mesh and np.array_equal(twin.triangles, mesh.triangles)
    pins = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1),
                                             max_size=n // 2))),
                    dtype=np.int64)
    A1, _ = pinned_system(mesh, pins)
    A2, _ = pinned_system(mesh, pins, amplitude=1.0)
    # the pins are recorded sorted, whatever order they come in
    B = mg.vcycle(A1, mesh, data.draw(st.permutations(pins)))
    assert B.mesh is mesh and np.array_equal(B.pinned, pins)
    by_hand = mg.vcycle(A1, mesh, pins).refit(A2)
    assert mg.vcycle(A2, mesh, pins, reuse=B) is B
    r = np.random.default_rng(5).standard_normal(n)
    assert np.array_equal(B(r), by_hand(r))

    # a twin mesh, a grown pin set, one of equal size with other ids, and a
    # cycle made directly: each gets a new cycle and leaves B as it was
    free = np.setdiff1d(np.arange(n), pins)
    extra = data.draw(st.sampled_from(free.tolist()))
    grown = np.union1d(pins, [extra])
    swapped = np.union1d(pins[1:], [extra]) if pins.size else grown
    direct = mg.VCycle(A2, list(zip(B.P, B.R)))
    for m, p, reuse in [(twin, pins, B), (mesh, grown, B),
                        (mesh, swapped, B), (mesh, pins, direct)]:
        A, _ = pinned_system(m, p)
        C = mg.vcycle(A, m, p, reuse=reuse)
        assert C is not reuse and C.ops[0] is A
        assert C.mesh is m and np.array_equal(C.pinned, p)
    assert B.ops[0] is A2 and direct.ops[0] is A2
    assert direct.mesh is None and direct.pinned is None


@settings(max_examples=40, deadline=None)
@given(adapted_meshes(), st.data())
def test_refit_cycle_on_the_same_mesh_and_pins_solves_like_a_new_one(
        mesh, data):
    # what a state carries across time steps: the cycle built for one
    # damage system, released and refit to a later system on the same mesh
    # and pins
    n = mesh.n_vertices
    pins = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1),
                                             max_size=n - 1))),
                    dtype=np.int64)
    first, later = data.draw(st.tuples(st.floats(0.1, 5.0),
                                       st.floats(0.1, 5.0)))
    A1, _ = pinned_system(mesh, pins, first)
    A2, b2 = pinned_system(mesh, pins, later)
    B = mg.vcycle(A1, mesh, pins).release().refit(A2)
    free = np.ones(n, dtype=bool)
    free[pins] = False
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for _ in range(3):
        p, q = np.where(free, rng.standard_normal((2, n)), 0.0)
        Bp, Bq = B(p), B(q)
        assert abs(p @ Bq - q @ Bp) <= 1e-12 * np.linalg.norm(p) \
            * np.linalg.norm(Bq)
        assert p @ Bp > 0.0
        assert (Bp[pins] == 0.0).all()
    tol = 1e-12
    x, rep = solve_spd(A2, b2, tol=tol, precond=B)
    y, new = solve_spd(A2, b2, tol=tol, precond=mg.vcycle(A2, mesh, pins))
    assert rep.converged and new.converged
    assert (x[pins] == 0.0).all()
    assert np.linalg.norm(b2 - A2 @ x) <= tol * np.linalg.norm(b2)
    # both answers meet the tolerance, so they differ by at most the
    # tolerance times the condition of A2; measured: at most 2.3e-12
    assert np.abs(x - y).max() <= 1e3 * tol * np.abs(y).max()


def reference_cycle(B, r):
    """The cycle of ``B`` with plain scipy products and fresh arrays."""
    rhs, smooth = [r], []
    for A, w, R in zip(B.ops, B.weights, B.R):
        smooth.append(w * rhs[-1])
        rhs.append(R @ (rhs[-1] - A @ smooth[-1]))
    x = B.coarse_inv @ rhs[-1]
    for k in reversed(range(len(smooth))):
        x = smooth[k] + B.P[k] @ x
        x += B.weights[k] * (rhs[k] - B.ops[k] @ x)
    return x


def test_vcycle_products_match_scipy_bit_for_bit():
    mesh = adapted_slit_mesh()
    pins = block_pins(mesh)
    Ac, _ = pinned_system(mesh, pins)
    B = mg.vcycle(Ac, mesh, pins)
    p, q = np.random.default_rng(11).standard_normal((2, mesh.n_vertices))
    Bp = B(p)
    assert np.array_equal(Bp, reference_cycle(B, p))
    # the work arrays are reused, the results are not
    assert np.array_equal(B(q), reference_cycle(B, q))
    assert np.array_equal(Bp, reference_cycle(B, p))


def uniform_slit_mesh(levels, n0=8):
    """The ``n0`` slit grid bisected uniformly ``levels`` times."""
    mesh = build_initial_mesh(DOMAIN3, EDGE_SLIT, n0)
    for _ in range(levels):
        mesh = adapt(mesh, range(mesh.n_triangles))
    assert (mesh.levels == levels).all()
    return mesh


def test_entry_level_halves_h_once_below_the_median_cell():
    for levels, j in [([0], 0), ([3, 3, 4], 0), ([4, 4, 0], 1),
                      ([5], 1), ([6, 2, 7], 2)]:
        assert mg.entry_level(SimpleNamespace(levels=levels)) == j, levels


def test_level_four_mesh_enters_at_the_doubled_grid():
    mesh = uniform_slit_mesh(4)
    assert mg.entry_level(mesh) == 1
    P, R = mg.mesh_prolongation(mesh)
    entry = grid_meshes(mesh.grid, 1)
    assert [m.grid.n0 for m in entry] == [16, 8]
    assert P.shape == (mesh.n_vertices, entry[0].n_vertices)
    assert (R != P.T).nnz == 0
    assert np.allclose(P @ grid_field(entry[0]), grid_field(mesh),
                       rtol=0.0, atol=1e-12)
    assert_symmetric_positive(mesh, block_pins(mesh))
    assert set(mesh.grid._cache) == {"mg1"}


def test_doubled_entry_grid_cuts_iterations():
    mesh = uniform_slit_mesh(4)
    A, b, _ = phasefield_system(strained(mesh, 0.3), MP, mesh)
    through_n0 = mg.VCycle(A, [mg._prolongation(grid_meshes(mesh.grid)[0],
                                                mesh)]
                           + mg.grid_prolongations(mesh.grid))
    _, rep_n0 = solve_spd(A, b, precond=through_n0)
    _, rep = solve_spd(A, b, precond=mg.vcycle(A, mesh))
    assert rep.converged and rep_n0.converged
    assert rep.iterations < rep_n0.iterations


def test_median_level_three_builds_no_finer_grid():
    mesh = uniform_slit_mesh(3)
    assert mg.entry_level(mesh) == 0
    A, _, _ = phasefield_system(strained(mesh), MP, mesh)
    mg.vcycle(A, mesh)
    assert set(mesh.grid._cache) == {"mg0"}


def test_vcycle_cuts_iterations_on_adapted_slit_mesh():
    mesh = adapted_slit_mesh()
    pins = np.flatnonzero(np.abs(mesh.vertices[:, 1] - 1.5) < 0.2)
    # a weak reaction leaves the stiffness in charge, where Jacobi is slow
    Ac, bc = pinned_system(mesh, pins, amplitude=0.3)
    x_mg, rep_mg = solve_spd(Ac, bc, precond=mg.vcycle(Ac, mesh, pins))
    x_j, rep_j = solve_spd(Ac, bc)
    assert rep_mg.converged and rep_j.converged
    assert 5 * rep_mg.iterations < rep_j.iterations
    assert np.allclose(x_mg, x_j, rtol=0.0, atol=1e-10 * np.abs(x_j).max())


def wave_system(mesh, k=0.05):
    """A wave system of ``mesh`` (stiffness well above mass, as where the
    wave solve takes the V-cycle) with its loaded-boundary dofs
    eliminated, and those dofs."""
    ds = build_dirichlet(mesh, 1.0, LoadingParams())
    S = unit_mass(mesh) / k ** 2 + (1.0 + 0.5 / k) * assemble_stiffness(
        mesh, 1.0)
    Sc, bc = apply_dirichlet(S, unit_mass(mesh) @ np.ones(mesh.n_vertices),
                             ds)
    return Sc, bc, ds.dofs


def level_sizes(cycle):
    return [op.shape[0] for op in cycle.ops]


def test_unrefined_mesh_enters_below_itself():
    # the mesh is its n0 grid, where P = I: the cycle starts at the grid
    # prolongation n0 -> n0/2, with the pins zeroed on it
    mesh = build_initial_mesh(DOMAIN3, EDGE_SLIT, 16)
    Sc, bc, pins = wave_system(mesh)
    assert pins.size
    B = mg.vcycle(Sc, mesh, pins)
    assert level_sizes(B) == [297, 85] and mesh.n_vertices == 297
    assert "mg" not in mesh._cache         # no identity P was built
    P, _ = mg.grid_prolongations(mesh.grid)[0]
    free = np.setdiff1d(np.arange(mesh.n_vertices), pins)
    assert (B.P[0][free] != P[free]).nnz == 0
    assert B.P[0][pins].count_nonzero() == 0
    assert (B.R[0] != B.P[0].T).nnz == 0
    assert_symmetric_positive(mesh, pins, B)
    x, rep = solve_spd(Sc, bc, tol=1e-12, precond=B)
    assert rep.converged


def test_unrefined_coarsest_grid_is_inverted_whole():
    # the n0 = 8 grid is the coarsest: the dense inverse is the whole
    # cycle, so CG ends after one iteration, and it keeps the pins exact
    mesh = build_initial_mesh(DOMAIN3, EDGE_SLIT, 8)
    assert [m.grid.n0 for m in grid_meshes(mesh.grid)] == [8]
    Sc, bc, pins = wave_system(mesh)
    B = mg.vcycle(Sc, mesh, pins)
    assert level_sizes(B) == [mesh.n_vertices] and B.P == []
    assert B.coarse_inv is not None
    assert_symmetric_positive(mesh, pins, B)
    x, rep = solve_spd(Sc, bc, tol=1e-12, precond=B)
    assert rep.converged and rep.iterations == 1
    assert np.array_equal(x[pins], bc[pins])


def test_adapted_mesh_keeps_its_levels():
    # a refined mesh, and one whose median level is 0 but whose cells are
    # not all at level 0, enter through their own prolongation
    for mesh in (adapted_slit_mesh(),
                 adapt(build_initial_mesh(DOMAIN3, EDGE_SLIT, 16), [0])):
        pins = block_pins(mesh)
        Ac, _ = pinned_system(mesh, pins)
        B = mg.vcycle(Ac, mesh, pins)
        assert level_sizes(B) == [mesh.n_vertices] + [
            m.n_vertices for m in grid_meshes(mesh.grid,
                                              mg.entry_level(mesh))]
        P, _ = mg.mesh_prolongation(mesh)
        free = np.setdiff1d(np.arange(mesh.n_vertices), pins)
        assert (B.P[0][free] != P[free]).nnz == 0
        assert B.P[0][pins].count_nonzero() == 0


def test_large_coarsest_grid_is_smoothed_not_inverted():
    # an odd n0 cannot be halved, so the coarsest level is the whole grid
    mesh = adapt(build_initial_mesh(DOMAIN3, None, 21), range(0, 800, 7))
    meshes = grid_meshes(mesh.grid)
    assert [m.grid.n0 for m in meshes] == [21]
    assert meshes[0].n_vertices > mg.DENSE_MAX
    Ac, bc = pinned_system(mesh, np.arange(5))
    B = mg.vcycle(Ac, mesh, np.arange(5))
    assert B.coarse_inv is None
    p, q = np.random.default_rng(7).standard_normal((2, mesh.n_vertices))
    assert abs(p @ B(q) - q @ B(p)) <= 1e-13 * np.linalg.norm(p) \
        * np.linalg.norm(B(q))
    x, rep = solve_spd(Ac, bc, precond=B)
    assert rep.converged


def test_dense_inverse_matches_lapack():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((40, 40))
    a = m @ m.T + 40.0 * np.eye(40)
    assert np.allclose(mg._spd_inverse(a), np.linalg.inv(a), rtol=1e-12,
                       atol=1e-15)


def test_dense_inverse_skips_directions_the_matrix_does_not_see():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((6, 4))
    a = np.zeros((7, 7))
    a[:6, :6] = m @ m.T             # rank 4, and an empty last row
    x = mg._spd_inverse(a)
    assert np.isfinite(x).all() and np.array_equal(x[6], np.zeros(7))
    assert np.allclose(x, x.T, rtol=0.0, atol=1e-12 * abs(x).max())
    assert np.linalg.eigvalsh(x).min() >= -1e-10 * abs(x).max()
    assert np.allclose(a @ x @ a, a, rtol=0.0, atol=1e-10 * abs(a).max())


def test_dense_inverse_of_equal_columns_is_the_pseudo_inverse():
    # every diagonal entry is positive, so only the factorisation sees
    # that the last two columns are equal
    m = np.random.default_rng(10).standard_normal((5, 5))
    m[:, 4] = m[:, 3]
    a = m.T @ m
    assert (np.diagonal(a) > 0.0).all()
    x = mg._spd_inverse(a)
    assert np.allclose(x, np.linalg.pinv(a, rcond=1e-10, hermitian=True),
                       rtol=0.0, atol=1e-10 * abs(x).max())
    assert np.allclose(a @ x @ a, a, rtol=0.0, atol=1e-10 * abs(a).max())


@st.composite
def psd_with_zero_rows_and_repeats(draw):
    """``(a, zero)``: a symmetric positive semidefinite ``a = S b S^T`` for
    a well-conditioned SPD ``b`` and a selection ``S`` whose rows pick
    entries of ``b`` with repeats (equal columns of ``a``) or nothing (the
    zero rows flagged by ``zero``), as pins make of a coarse system."""
    k = draw(st.integers(1, 6))
    m = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k * k,
                               max_size=k * k))).reshape(k, k)
    b = m @ m.T + np.eye(k)
    pick = np.array(draw(st.lists(st.integers(-1, k - 1), min_size=1,
                                  max_size=10)))
    zero = pick < 0
    a = b[np.ix_(pick, pick)]
    a[zero] = 0.0
    a[:, zero] = 0.0
    return a, zero


@settings(max_examples=60, deadline=None)
@given(psd_with_zero_rows_and_repeats())
def test_dense_inverse_is_a_symmetric_pseudo_inverse(case):
    a, zero = case
    x = mg._spd_inverse(a)
    scale = max(abs(x).max(), 1e-300)
    assert np.allclose(a @ x @ a, a, rtol=0.0, atol=1e-10 * abs(a).max())
    assert np.allclose(x @ a @ x, x, rtol=0.0, atol=1e-10 * scale)
    assert np.allclose(x, x.T, rtol=0.0, atol=1e-12 * scale)
    assert abs(x[zero]).max(initial=0.0) <= 1e-12 * scale


def test_damage_solve_does_not_import_scipy_linalg(tmp_path, src_env):
    script = """
import sys
import numpy as np
import fracture_afem.driver
from fracture_afem.dynamics import MaterialParams
from fracture_afem.fem import FeFunction
from fracture_afem.mesh import build_initial_mesh
from fracture_afem.phasefield import CrackSet, solve_phasefield
mesh = build_initial_mesh((3.0, 3.0), (0.0, 1.5, 1.5), 8)
x, y = mesh.vertices.T
u = FeFunction(3.0 * np.sin(2.0 * x) * np.cos(y), mesh.generation)
crack = CrackSet(np.flatnonzero((y == 1.5) & (x < 1.0)), mesh.generation)
_, info = solve_phasefield(u, MaterialParams(epsilon=0.2), crack, mesh)
assert crack.ids.size and info["report"].iterations > 0
print("scipy.linalg" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=src_env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_vcycle_stays_positive_with_singular_coarse_matrix():
    # two equal prolongation columns, as when pins leave two coarse hats
    # the same free support
    n = 12
    A = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    t = np.linspace(0.0, 1.0, n)
    P = sp.csr_matrix(np.column_stack([t, t, 1.0 - t]))
    B = mg.VCycle(A, [(P, P.T.tocsr())])
    p, q = np.random.default_rng(9).standard_normal((2, n))
    assert np.isfinite(B(p)).all()
    assert abs(p @ B(q) - q @ B(p)) <= 1e-13 * np.linalg.norm(p) \
        * np.linalg.norm(B(q))
    assert p @ B(p) > 0.0
