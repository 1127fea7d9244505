"""Damage solve, clamping, and crack-set bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracture_afem.phasefield as pf
from fracture_afem.driver import RunConfig
from fracture_afem.dynamics import MaterialParams
from fracture_afem.fem import (DirichletSet, FeFunction, apply_dirichlet,
                               element_gradients, transfer)
from fracture_afem.mesh import adapt, build_initial_mesh
from fracture_afem.phasefield import (SHORTCUT_FACTOR, CrackSet,
                                      clamp_and_threshold, phasefield_system,
                                      solve_phasefield, update_crack_set)

from test_mesh import draw_ids, initial_meshes

MP = MaterialParams(mu=1.0, varrho=1.0, eta=0.5, kappa=1e-10, epsilon=0.2)


# ----------------------------------------------------------------------
# Oracle: dense direct solve of the same variational system, assembled
# independently entry by entry.
# ----------------------------------------------------------------------

def dense_phasefield_oracle(mesh, u_vals, params, pinned):
    n = mesh.n_vertices
    A = np.zeros((n, n))
    b = np.zeros(n)
    mass_loc = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    for tri in mesh.triangles:
        p = mesh.vertices[tri]
        J = np.array([p[1] - p[0], p[2] - p[0]])
        area = 0.5 * abs(np.linalg.det(J))
        # hat gradients by solving against edge differences
        G = np.zeros((3, 2))
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            rhs = np.array([e[1] - e[0], e[2] - e[0]])
            G[i] = np.linalg.solve(J, rhs)
        gu = np.linalg.solve(J, np.array([u_vals[tri[1]] - u_vals[tri[0]],
                                          u_vals[tri[2]] - u_vals[tri[0]]]))
        react = params.mu * (1.0 - params.kappa) * (gu @ gu)
        for i in range(3):
            b[tri[i]] += params.nu_pf * area / 3.0
            for j in range(3):
                A[tri[i], tri[j]] += params.rho_pf * area * (G[i] @ G[j]) \
                    + react * area * mass_loc[i, j]
    for d in pinned:
        A[d, :] = 0.0
        A[:, d] = 0.0
        A[d, d] = 1.0
        b[d] = 0.0
    return np.linalg.solve(A, b)


# ----------------------------------------------------------------------
# solve_phasefield
# ----------------------------------------------------------------------

def test_flat_displacement_gives_intact_field():
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    v, rep = solve_phasefield(FeFunction.zeros(mesh), MP,
                              CrackSet.empty(mesh), mesh)
    assert rep["shortcut"]
    assert np.allclose(v.values, 1.0)


def test_single_strained_element_matches_dense_oracle():
    mesh = build_initial_mesh((1.0, 1.0), None, 1)
    # gradient on one triangle only: nonzero value at the off-diagonal vertex
    u = FeFunction.zeros(mesh)
    corner = np.where((mesh.vertices == [1.0, 0.0]).all(axis=1))[0][0]
    u.values[corner] = 1.0
    gx, gy = element_gradients(u, mesh)
    mags = gx ** 2 + gy ** 2
    assert (mags > 1.0).sum() == 1 and np.isclose(mags.min(), 0.0)
    v, _ = solve_phasefield(u, MP, CrackSet.empty(mesh), mesh)
    ref = dense_phasefield_oracle(mesh, u.values, MP, [])
    assert np.allclose(v.values, ref, rtol=1e-9, atol=1e-11)


def test_oracle_agreement_with_crack_and_rough_field():
    mesh = adapt(build_initial_mesh((1.0, 1.0), None, 3), [0, 4, 8])
    rng = np.random.default_rng(9)
    u = FeFunction(2.0 * rng.standard_normal(mesh.n_vertices),
                   mesh.generation)
    crack = CrackSet(np.array([0, 1]), mesh.generation)
    v, _ = solve_phasefield(u, MP, crack, mesh)
    ref = dense_phasefield_oracle(mesh, u.values, MP, [0, 1])
    assert np.allclose(v.values, ref, rtol=1e-8, atol=1e-10)
    assert v.values[0] == 0.0 and v.values[1] == 0.0


def test_multigrid_solve_matches_oracle_on_adapted_slit_mesh():
    mesh = build_initial_mesh((3.0, 3.0), (0.0, 1.5, 1.5), 16)
    mesh = adapt(mesh, range(0, mesh.n_triangles, 3))
    mesh = adapt(mesh, range(0, mesh.n_triangles, 4),
                 range(1, mesh.n_triangles, 4))
    rng = np.random.default_rng(13)
    u = FeFunction(rng.standard_normal(mesh.n_vertices), mesh.generation)
    x, y = mesh.vertices.T
    pins = np.flatnonzero((np.abs(y - 1.5) < 0.4) & (x > 1.2) & (x < 2.0))
    crack = CrackSet(pins, mesh.generation)
    v, rep = solve_phasefield(u, MP, crack, mesh)
    ref = dense_phasefield_oracle(mesh, u.values, MP, pins)
    assert rep["report"].iterations < 40
    assert np.allclose(v.values, ref, rtol=1e-8, atol=1e-10)
    assert (v.values[pins] == 0.0).all()


def test_pinned_entries_and_residual_rows_are_exactly_zero():
    # the stationarity reads the whole residual: its pinned rows are 0, so
    # it equals the maximum over the free rows bit for bit
    mesh = build_initial_mesh((3.0, 3.0), (0.0, 1.5, 1.5), 16)
    mesh = adapt(mesh, range(0, mesh.n_triangles, 3))
    rng = np.random.default_rng(17)
    u = FeFunction(rng.standard_normal(mesh.n_vertices), mesh.generation)
    x, y = mesh.vertices.T
    pins = np.flatnonzero((np.abs(y - 1.5) < 0.4) & (x > 1.2) & (x < 2.0))
    crack = CrackSet(pins, mesh.generation)
    A, b, _ = phasefield_system(u, MP, mesh)
    Ac, bc = apply_dirichlet(A, b, DirichletSet(pins, np.zeros(len(pins))))
    free = ~crack.mask(mesh.n_vertices)
    cycle = x0 = None
    for _ in range(2):
        # the second solve starts from a field that is not 0 on the pins
        # and refits the first solve's V-cycle
        v, rep = solve_phasefield(u, MP, crack, mesh, x0=x0, cycle=cycle)
        assert (v.values[pins] == 0.0).all()
        resid = bc - Ac @ v.values
        assert (resid[pins] == 0.0).all()
        assert rep["stationarity"] == (np.abs(resid[free]).max()
                                       / np.linalg.norm(bc))
        cycle, x0 = rep["cycle"], v.values + rng.uniform(0.1, 1.0, len(free))


def test_balanced_gradient_yields_exactly_one():
    mesh = build_initial_mesh((1.0, 1.0), None, 3)
    slope = np.sqrt(MP.nu_pf / (MP.mu * (1.0 - MP.kappa)))
    u = FeFunction.from_callable(mesh, lambda x, y: slope * x)
    v, _ = solve_phasefield(u, MP, CrackSet.empty(mesh), mesh)
    assert np.allclose(v.values, 1.0, atol=1e-9)


def test_solver_failure_propagates():
    # the coarsest multigrid level of an n0 = 4 grid is the whole mesh, so
    # one iteration solves it; an n0 = 16 grid has coarse levels
    mesh = build_initial_mesh((1.0, 1.0), None, 16)
    u = FeFunction.from_callable(mesh, lambda x, y: 3.0 * x * (1 - x) * y)
    with pytest.raises(RuntimeError, match="phase-field"):
        solve_phasefield(u, MP, CrackSet.empty(mesh), mesh, max_iter=1)


def test_stationarity_residual_small():
    mesh = build_initial_mesh((1.0, 1.0), None, 4)
    u = FeFunction.from_callable(mesh, lambda x, y: 3.0 * x * (1 - x) * y)
    v, rep = solve_phasefield(u, MP, CrackSet.empty(mesh), mesh)
    assert not rep["shortcut"]
    assert rep["stationarity"] <= 1e-12


@pytest.mark.filterwarnings("error")
def test_every_dof_pinned_gives_zero_stationarity():
    # a zero right-hand side is solved by 0 exactly: stationarity 0, not a
    # 0/0 that warns and reads nan
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    u = FeFunction.from_callable(mesh, lambda x, y: 3.0 * x * (1 - x) * y)
    crack = CrackSet(np.arange(mesh.n_vertices), mesh.generation)
    v, rep = solve_phasefield(u, MP, crack, mesh)
    assert not rep["shortcut"] and rep["report"].iterations == 0
    assert rep["stationarity"] == 0.0
    assert np.array_equal(v.values, np.zeros(mesh.n_vertices))


def test_shortcut_matches_solve_plus_clamp():
    # moderate reaction, still below the source weight: solving and clamping
    # must agree with the shortcut output
    mesh = build_initial_mesh((1.0, 1.0), None, 3)
    target = 0.4 * MP.nu_pf / (MP.mu * (1.0 - MP.kappa))
    u = FeFunction.from_callable(mesh, lambda x, y: np.sqrt(target) * x)
    A, b, reaction = phasefield_system(u, MP, mesh)
    assert reaction.max() <= 0.5 * MP.nu_pf
    import scipy.sparse.linalg as sla
    raw = sla.spsolve(A.tocsc(), b)
    clamped = np.clip(raw, None, 1.0)
    assert np.allclose(clamped, 1.0)
    v, _ = solve_phasefield(u, MP, CrackSet.empty(mesh), mesh)
    assert np.allclose(v.values, 1.0)


def adapted_tip_mesh():
    """The ``n0 = 16`` edge-slit mesh refined three times around the tip."""
    mesh = build_initial_mesh((3.0, 3.0), (0.0, 1.5, 1.5), 16, max_levels=4)
    for _ in range(3):
        centre = mesh.vertices[mesh.triangles].mean(axis=1)
        near = np.hypot(centre[:, 0] - 1.5, centre[:, 1] - 1.5) < 0.6
        mesh = adapt(mesh, np.flatnonzero(near))
    return mesh


def reaction_field(kind, mesh, rng):
    """A cell reaction field of the kind ``random`` (every cell),
    ``sparse`` (a few cells) or ``localized`` (a Gaussian bump), with
    largest value 1."""
    nt = mesh.n_triangles
    if kind == "random":
        r = rng.uniform(0.0, 1.0, nt)
    elif kind == "sparse":
        r = np.zeros(nt)
        r[rng.choice(nt, rng.integers(1, 6), replace=False)] = \
            rng.uniform(0.1, 1.0)
    else:
        centre = mesh.vertices[mesh.triangles].mean(axis=1)
        d2 = ((centre - rng.uniform(0.0, 3.0, 2)) ** 2).sum(axis=1)
        r = np.exp(-d2 / (2.0 * rng.uniform(0.05, 0.5) ** 2))
    return r / r.max()


@pytest.mark.parametrize("kind", ["random", "sparse", "localized"])
def test_unclamped_solution_under_the_shortcut_guard_is_at_least_one(kind):
    # the intact shortcut returns 1 without solving once the reaction is at
    # most SHORTCUT_FACTOR * nu_pf; solving would give v_raw >= 1 at every
    # node there, so the clamp makes the same field (smallest v_raw seen
    # over the 30 fields: 3.47, for a random one)
    import scipy.sparse.linalg as sla
    params = RunConfig.with_defaults(n0=16).material
    mesh = adapted_tip_mesh()
    rng = np.random.default_rng(["random", "sparse", "localized"].index(kind))
    worst = np.inf
    for _ in range(10):
        reaction = (1.0 - 1e-9) * SHORTCUT_FACTOR * params.nu_pf \
            * reaction_field(kind, mesh, rng)
        A, b = pf._system(reaction, params, mesh)
        worst = min(worst, sla.spsolve(A.tocsc(), b).min())
    assert worst >= 1.0


def test_shortcut_assembles_nothing(monkeypatch):
    import fracture_afem.fem as fem
    import fracture_afem.phasefield as pf

    def no_assembly(*args, **kwargs):
        raise AssertionError("the intact shortcut assembled a matrix")

    for name in ("assemble_stiffness", "weighted_mass", "unit_mass"):
        monkeypatch.setattr(pf, name, no_assembly)
    monkeypatch.setattr(fem, "_scatter", no_assembly)
    mesh = build_initial_mesh((1.0, 1.0), None, 3)
    u = FeFunction.from_callable(mesh, lambda x, y: 0.1 * x)
    v, rep = solve_phasefield(u, MP, CrackSet.empty(mesh), mesh)
    assert rep["shortcut"] and np.array_equal(v.values, np.ones(16))


def test_repeated_systems_reuse_mesh_constants():
    # the cached unit stiffness and source leave the second system equal to
    # a fresh assembly on an identical mesh
    mesh = build_initial_mesh((1.0, 1.0), None, 3)
    twin = build_initial_mesh((1.0, 1.0), None, 3)
    u1 = FeFunction.from_callable(mesh, lambda x, y: x * y)
    u2 = FeFunction.from_callable(mesh, lambda x, y: 2.0 * x - y * y)
    phasefield_system(u1, MP, mesh)
    A, b, _ = phasefield_system(u2, MP, mesh)
    A_ref, b_ref, _ = phasefield_system(
        FeFunction(u2.values, twin.generation), MP, twin)
    assert np.array_equal(A.toarray(), A_ref.toarray())
    assert np.array_equal(b, b_ref)


def test_energy_decrease_within_sweep():
    # the solved v minimizes the quadratic energy over the constrained set
    mesh = build_initial_mesh((1.0, 1.0), None, 3)
    u = FeFunction.from_callable(mesh, lambda x, y: 4.0 * x * y)
    A, b, _ = phasefield_system(u, MP, mesh)

    def quad_energy(w):
        return 0.5 * (w @ (A @ w)) - b @ w

    v, _ = solve_phasefield(u, MP, CrackSet.empty(mesh), mesh)
    rng = np.random.default_rng(10)
    for _ in range(5):
        other = v.values + 0.1 * rng.standard_normal(mesh.n_vertices)
        assert quad_energy(v.values) <= quad_energy(other) + 1e-12


# ----------------------------------------------------------------------
# clamp_and_threshold
# ----------------------------------------------------------------------

def test_clamp_rule_values():
    mesh = build_initial_mesh((1.0, 1.0), None, 1)
    v = FeFunction(np.array([-0.1, 0.005, 0.5, 1.2]), mesh.generation)
    out = clamp_and_threshold(v, 0.01)
    assert np.array_equal(out.values, [0.0, 0.0, 0.5, 1.0])


def test_clamp_identity_inside_band():
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    rng = np.random.default_rng(11)
    vals = rng.uniform(0.01, 1.0, mesh.n_vertices)
    out = clamp_and_threshold(FeFunction(vals, mesh.generation), 0.01)
    assert np.array_equal(out.values, vals)


def test_clamp_output_in_unit_interval():
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    rng = np.random.default_rng(12)
    vals = rng.uniform(-2, 3, mesh.n_vertices)
    out = clamp_and_threshold(FeFunction(vals, mesh.generation), 0.01)
    assert out.values.min() >= 0.0 and out.values.max() <= 1.0


# ----------------------------------------------------------------------
# crack set
# ----------------------------------------------------------------------

def test_crack_unchanged_for_intact_field():
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    old = CrackSet(np.array([3]), mesh.generation)
    new = update_crack_set(FeFunction.constant(mesh, 1.0), mesh, 1e-2, old)
    assert np.array_equal(new.ids, old.ids)


def test_crack_edge_rule_both_endpoints():
    mesh = build_initial_mesh((1.0, 1.0), None, 1)
    a, b = mesh.edges[0]
    v = FeFunction.constant(mesh, 1.0)
    v.values[a] = 0.0
    v.values[b] = 0.009
    new = update_crack_set(v, mesh, 0.01, CrackSet.empty(mesh))
    assert set(new.ids) == {a, b}


def test_crack_single_low_endpoint_not_pinned():
    mesh = build_initial_mesh((1.0, 1.0), None, 1)
    a, b = mesh.edges[0]
    v = FeFunction.constant(mesh, 1.0)
    v.values[a] = 0.0
    v.values[b] = 0.5
    new = update_crack_set(v, mesh, 0.01, CrackSet.empty(mesh))
    assert new.ids.size == 0


def test_crack_monotone_growth_and_transfer():
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    v = FeFunction.constant(mesh, 1.0)
    a, b = mesh.edges[0]
    v.values[[a, b]] = 0.0
    c1 = update_crack_set(v, mesh, 0.01, CrackSet.empty(mesh))
    v2 = FeFunction.constant(mesh, 1.0)     # field healed, set must not shrink
    c2 = update_crack_set(v2, mesh, 0.01, c1)
    assert set(c1.ids) <= set(c2.ids)
    fine = adapt(mesh, range(mesh.n_triangles))
    cf = c2.transfer(mesh, fine)
    # surviving dofs keep their pinned status
    keep = fine.vertex_prov[:, 1] < 0
    old_of_new = fine.vertex_prov[keep, 0]
    pinned_old = np.isin(old_of_new, c2.ids)
    new_ids = np.where(keep)[0][pinned_old]
    assert set(new_ids) <= set(cf.ids)
    # a midpoint is pinned only if both its parents were
    mids = np.where(~keep)[0]
    for m in mids:
        pa, pb = fine.vertex_prov[m]
        assert ((m in cf.ids)
                == ((pa in cf.ids) and (pb in cf.ids)))


# ----------------------------------------------------------------------
# crack set across adaptation
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(initial_meshes(), st.data())
def test_crack_set_transfer_over_random_adapt_chains(mesh, data):
    crack = CrackSet(draw_ids(data.draw, mesh.n_vertices), mesh.generation)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    vals = rng.uniform(0.0, 1.0, mesh.n_vertices)
    vals[crack.ids] = 0.0
    v = FeFunction(vals, mesh.generation)
    for _ in range(data.draw(st.integers(1, 5))):
        refine = draw_ids(data.draw, mesh.n_triangles)
        coarsen = draw_ids(data.draw, mesh.n_triangles)
        new = adapt(mesh, refine, np.setdiff1d(coarsen, refine))
        new_crack = crack.transfer(mesh, new)
        v = transfer(v, mesh, new)
        old_pinned = crack.mask(mesh.n_vertices)
        pinned = new_crack.mask(new.n_vertices)
        prov = new.vertex_prov
        keep = prov[:, 1] < 0
        # a surviving vertex keeps its pin, a midpoint is pinned exactly
        # when both of its endpoints are
        assert np.array_equal(pinned[keep], old_pinned[prov[keep, 0]])
        mids = ~keep
        assert np.array_equal(pinned[mids],
                              pinned[prov[mids, 0]] & pinned[prov[mids, 1]])
        assert (v.values[new_crack.ids] == 0.0).all()
        assert new_crack.generation == new.generation
        mesh, crack = new, new_crack
