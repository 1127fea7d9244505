"""Implicit wave stepping: initialization, dissipation, loading ramp, the
kept wave system and its preconditioner, MMS."""

import dataclasses

import numpy as np
import pytest

import fracture_afem.dynamics as dynamics
import fracture_afem.multigrid as multigrid
from fracture_afem.driver import build_dirichlet
from fracture_afem.dynamics import (DynamicState, LoadingParams,
                                    MaterialParams, boundary_ramp,
                                    degradation, init_state,
                                    step_displacement)
from fracture_afem.fem import (DirichletSet, FeFunction, apply_dirichlet,
                               assemble_mass, assemble_stiffness, unit_mass)
from fracture_afem.linsolve import solve_spd
from fracture_afem.mesh import build_initial_mesh

from test_multigrid import assert_symmetric_positive


def advance(state, u_new, k):
    du = FeFunction((u_new.values - state.u_curr.values) / k,
                    state.mesh.generation)
    return DynamicState(n=state.n + 1, u_curr=u_new, du=du, v=state.v,
                        crack=state.crack, mesh=state.mesh)


def boundary_dofs(mesh):
    return np.array(sorted({i for e in mesh.boundary_labels for i in e}))


# ----------------------------------------------------------------------
# init_state
# ----------------------------------------------------------------------

def test_init_zero_data():
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh), 0.1)
    assert st.n == 1
    for f in (st.u_curr, st.du):
        assert np.allclose(f.values, 0.0)
    assert np.allclose(st.v.values, 1.0)
    assert st.crack.ids.size == 0


def test_init_position_only():
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    u0 = FeFunction.from_callable(mesh, lambda x, y: x)
    st = init_state(mesh, u0, FeFunction.zeros(mesh), 0.1)
    assert np.allclose(st.u_curr.values, u0.values)
    assert np.allclose(st.du.values, 0.0)


def test_init_velocity_taylor():
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    st = init_state(mesh, FeFunction.zeros(mesh),
                    FeFunction.constant(mesh, 1.0), 0.1)
    assert np.allclose(st.u_curr.values, 0.1)


# ----------------------------------------------------------------------
# step_displacement
# ----------------------------------------------------------------------

def test_zero_data_fixed_point():
    mesh = build_initial_mesh((1.0, 1.0), None, 4)
    mp = MaterialParams(epsilon=0.2)
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh), 0.05)
    bnd = boundary_dofs(mesh)
    ds = DirichletSet(bnd, np.zeros(len(bnd)))
    for _ in range(5):
        u, _, rep = step_displacement(st, 0.05, ds, params=mp)
        assert np.abs(u.values).max() < 1e-12
        assert rep.converged and rep.iterations == 0
        st = advance(st, u, 0.05)


def test_params_derived_coefficients_track_epsilon():
    mp = MaterialParams(lambda_c=2.0, c_w=8.0 / 3.0, epsilon=0.4)
    assert np.isclose(mp.rho_pf, 2 * 2.0 * 0.4 / (8 / 3))
    assert np.isclose(mp.nu_pf, 2.0 / ((8 / 3) * 0.4))
    mp.epsilon = 0.1
    assert np.isclose(mp.rho_pf, 2 * 2.0 * 0.1 / (8 / 3))
    assert np.isclose(mp.nu_pf, 2.0 / ((8 / 3) * 0.1))
    with pytest.raises(ValueError):
        MaterialParams(kappa=0.0)
    with pytest.raises(ValueError):
        MaterialParams(eta=-1.0)


def test_discrete_energy_monotone_100_steps():
    # undamped implicit wave with intact damage field and random smooth data
    mesh = build_initial_mesh((1.0, 1.0), None, 8)
    mp = MaterialParams(mu=1.0, varrho=1.0, eta=0.0, epsilon=0.2)
    rng = np.random.default_rng(42)
    coef = rng.standard_normal((3, 3))
    def smooth(x, y):
        out = 0.0
        for p in range(3):
            for q in range(3):
                out += coef[p, q] * np.sin((p + 1) * np.pi * x) \
                    * np.sin((q + 1) * np.pi * y)
        return 0.1 * out
    u0 = FeFunction.from_callable(mesh, smooth)
    st = init_state(mesh, u0, FeFunction.zeros(mesh), 0.05)
    bnd = boundary_dofs(mesh)
    ds = DirichletSet(bnd, np.zeros(len(bnd)))
    M = assemble_mass(mesh, 1.0)
    A = assemble_stiffness(mesh, 1.0)

    def energy(s):
        return 0.5 * mp.varrho * (s.du.values @ (M @ s.du.values)) \
            + 0.5 * mp.mu * (s.u_curr.values @ (A @ s.u_curr.values))

    e_prev = energy(st)
    for _ in range(100):
        u, _, _ = step_displacement(st, 0.05, ds, params=mp)
        st = advance(st, u, 0.05)
        e = energy(st)
        assert e <= e_prev * (1.0 + 1e-10) + 1e-14
        e_prev = e


def test_system_is_spd_under_damage():
    mesh = build_initial_mesh((1.0, 1.0), None, 4)
    mp = MaterialParams(epsilon=0.2, kappa=1e-10)
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh), 0.05)
    st.v.values[:] = 0.0          # fully broken field still yields SPD system
    k = 0.05
    S = (mp.varrho / k ** 2) * assemble_mass(mesh, 1.0) \
        + (mp.mu + mp.eta / k) * assemble_stiffness(mesh, degradation(st.v, mp))
    assert abs(S - S.T).max() == 0.0
    assert np.linalg.eigvalsh(S.toarray()).min() > 0.0
    # non-zero boundary data makes the conjugate gradients iterate, and
    # they raise on the first direction of non-positive curvature
    bnd = boundary_dofs(mesh)
    ds = DirichletSet(bnd, mesh.vertices[bnd, 0])
    u, _, rep = step_displacement(st, k, ds, params=mp)
    assert rep.converged and rep.iterations > 0
    assert np.isfinite(u.values).all()


def test_wave_solve_starts_from_the_predictor():
    # uniform motion u = w t solves the wave equation exactly, since the
    # stiffness annihilates constants: u_old + k du_old is the solution, so
    # a solve that starts from it needs no iteration
    mesh = build_initial_mesh((1.0, 1.0), None, 4)
    mp = MaterialParams(epsilon=0.2)
    k, w = 0.05, 0.7
    st = init_state(mesh, FeFunction.constant(mesh, 0.3),
                    FeFunction.constant(mesh, w), k)
    bnd = boundary_dofs(mesh)
    predicted = st.u_curr.values + k * st.du.values
    ds = DirichletSet(bnd, predicted[bnd])
    u, _, report = step_displacement(st, k, ds, params=mp)
    assert report.iterations == 0
    assert report.relative_residual <= 1e-12
    assert np.allclose(u.values, predicted, rtol=0.0, atol=1e-13)


def test_wave_solve_from_the_exact_solution_takes_no_iteration():
    # x0 replaces the predictor: a start at the converged solution of the
    # same system needs no iteration and is returned as it is
    mesh = build_initial_mesh((1.0, 1.0), None, 6)
    mp = MaterialParams(epsilon=0.2)
    x, y = mesh.vertices.T
    st = init_state(mesh, FeFunction(np.sin(3.0 * x) * y, mesh.generation),
                    FeFunction(np.cos(2.0 * y) * x, mesh.generation), 0.05)
    st.v = FeFunction(0.5 + 0.4 * np.sin(5.0 * x * y), mesh.generation)
    bnd = boundary_dofs(mesh)
    ds = DirichletSet(bnd, np.zeros(len(bnd)))
    exact, _, first = step_displacement(st, 0.05, ds, params=mp, tol=1e-14)
    assert first.converged and first.iterations > 0
    u, _, report = step_displacement(st, 0.05, ds, params=mp,
                                     x0=exact.values)
    assert report.iterations == 0
    assert np.array_equal(u.values, exact.values)


def test_step_displacement_requires_material_params():
    # without a default the call fails at the call, not deep inside the
    # degradation with an AttributeError of None
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh), 0.1)
    bnd = boundary_dofs(mesh)
    ds = DirichletSet(bnd, np.zeros(len(bnd)))
    with pytest.raises(TypeError, match="params"):
        step_displacement(st, 0.1, ds)


# ----------------------------------------------------------------------
# boundary loading
# ----------------------------------------------------------------------

def slit_mesh():
    return build_initial_mesh((3.0, 3.0), (0.0, 1.5, 1.5), 4)


def test_ramp_zero_at_start():
    lp = LoadingParams(eps_v=0.9, t_s=0.5, t_g=5.0)
    assert boundary_ramp(0.0, lp) == 0.0
    ds = build_dirichlet(slit_mesh(), 0.0, lp)
    assert len(ds.dofs) and (ds.values == 0.0).all()


def test_ramp_continuous_at_switch():
    lp = LoadingParams(eps_v=0.9, t_s=0.5, t_g=5.0)
    left = lp.eps_v * lp.t_s ** 2 / (2 * lp.t_s)
    right = lp.eps_v * lp.t_s - lp.eps_v * lp.t_s / 2
    assert np.isclose(left, right)
    assert np.isclose(boundary_ramp(lp.t_s, lp), right)


def test_ramp_linear_branch_value():
    lp = LoadingParams(eps_v=0.9, t_s=0.5, t_g=5.0)
    assert np.isclose(boundary_ramp(1.0, lp), 0.9 * 1.0 - 0.9 * 0.25)


@pytest.mark.parametrize("t_s, t_g", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
def test_loading_window_must_be_open(t_s, t_g):
    with pytest.raises(ValueError, match="loading window"):
        LoadingParams(t_s=t_s, t_g=t_g)


def test_ramp_signs_and_window():
    # the sign follows the boundary labels: +g0 above the slit, -g0 below
    lp = LoadingParams(eps_v=0.9, t_s=0.5, t_g=2.0)
    mesh = slit_mesh()
    ds = build_dirichlet(mesh, 1.0, lp)
    y = mesh.vertices[ds.dofs, 1]
    g0 = boundary_ramp(1.0, lp)
    assert g0 > 0
    assert (ds.values[y > 1.5] == g0).all() and (y > 1.5).any()
    assert (ds.values[y < 1.5] == -g0).all() and (y < 1.5).any()
    with pytest.raises(ValueError):
        boundary_ramp(2.5, lp)


# ----------------------------------------------------------------------
# the kept wave system and its preconditioner
# ----------------------------------------------------------------------

# on the n0 = 16 slit grid of a 3 x 3 domain, with the damage of
# wave_state, the median stiffness-to-mass ratio is 2.8 at k = 0.02 and
# 102 at k = 0.5
MASS_K, STIFF_K = 0.02, 0.5
WAVE_MP = MaterialParams(epsilon=0.2)
LOAD = LoadingParams(eps_v=0.9, t_s=0.5, t_g=2.0)


def wave_state():
    """A moving state on a new n0 = 16 slit grid, partly damaged, with the
    loaded boundary's Dirichlet data."""
    mesh = build_initial_mesh((3.0, 3.0), (0.0, 1.5, 1.5), 16)
    x, y = mesh.vertices.T
    st = init_state(mesh, FeFunction(0.1 * np.sin(2.0 * x) * y,
                                     mesh.generation),
                    FeFunction(0.2 * np.cos(y) * x, mesh.generation), 0.05)
    st.v = FeFunction(0.6 + 0.4 * np.cos(x * y), mesh.generation)
    return st, build_dirichlet(mesh, 1.0, LOAD)


def ratio(st, k):
    A = assemble_stiffness(st.mesh, degradation(st.v, WAVE_MP))
    return dynamics._stiffness_ratio(A, unit_mass(st.mesh), k, WAVE_MP)


def count_builds(monkeypatch):
    counts = {"assemble_stiffness": 0, "apply_dirichlet": 0}
    for name in counts:
        original = getattr(dynamics, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(dynamics, name, counted)
    return counts


def test_regimes_of_the_test_systems():
    st, _ = wave_state()
    assert ratio(st, MASS_K) < dynamics.VCYCLE_RATIO / 4
    assert ratio(st, STIFF_K) > dynamics.VCYCLE_RATIO * 3


def test_wave_vcycle_with_dirichlet_pins_is_symmetric_positive():
    st, ds = wave_state()
    step_displacement(st, STIFF_K, ds, params=WAVE_MP)
    assert st.wave.cycle is not None
    assert_symmetric_positive(st.mesh, ds.dofs, st.wave.cycle)


@pytest.mark.parametrize("k", [MASS_K, STIFF_K])
def test_second_solve_with_equal_inputs_assembles_nothing(k, monkeypatch):
    st, ds = wave_state()
    counts = count_builds(monkeypatch)
    step_displacement(st, k, ds, params=WAVE_MP)
    assert counts == {"assemble_stiffness": 1, "apply_dirichlet": 1}
    # a later state on the same mesh, with equal v (another array) and new
    # Dirichlet values on the same dofs
    later = DynamicState(n=st.n + 1, u_curr=st.du, du=st.u_curr,
                         v=FeFunction(st.v.values.copy(), st.v.generation),
                         crack=st.crack, mesh=st.mesh, wave=st.wave)
    ds2 = build_dirichlet(st.mesh, 1.5, LOAD)
    u, reactions, rep = step_displacement(later, k, ds2, params=WAVE_MP)
    assert counts == {"assemble_stiffness": 1, "apply_dirichlet": 1}
    assert later.wave is st.wave
    assert rep.converged and rep.iterations > 0
    fresh = dataclasses.replace(later, wave=None)
    u_ref, reactions_ref, rep_ref = step_displacement(fresh, k, ds2,
                                                      params=WAVE_MP)
    assert np.array_equal(u.values, u_ref.values)
    assert np.array_equal(reactions, reactions_ref)
    assert rep.iterations == rep_ref.iterations


@pytest.mark.parametrize("change", ["v", "k", "mesh"])
def test_changed_v_k_or_mesh_rebuilds_the_operator(change, monkeypatch):
    st, ds = wave_state()
    step_displacement(st, STIFF_K, ds, params=WAVE_MP)
    kept = st.wave
    cycle, coarse = kept.cycle, kept.cycle.ops[1:]
    k = STIFF_K
    if change == "v":
        st.v.values[:5] *= 0.5
    elif change == "k":
        k = 0.8 * STIFF_K
    else:
        twin, ds = wave_state()
        st = dataclasses.replace(twin, wave=kept)
    counts = count_builds(monkeypatch)
    inverses = []
    inverse = multigrid._spd_inverse
    monkeypatch.setattr(multigrid, "_spd_inverse",
                        lambda a: inverses.append(a) or inverse(a))
    step_displacement(st, k, ds, params=WAVE_MP, cycle=cycle)
    assert counts == {"assemble_stiffness": 1, "apply_dirichlet": 1}
    assert st.wave is not kept
    assert np.array_equal(st.wave.v, st.v.values)
    assert st.wave.cycle.ops[0] is st.wave.Sc
    if change == "mesh":
        # another mesh object: a new cycle, and the kept one left as it was
        assert st.wave.cycle is not cycle and len(inverses) == 1
        assert cycle.ops[0] is kept.Sc
    else:
        # the same mesh and constrained dofs: the kept cycle, refit
        assert st.wave.cycle is cycle and inverses == []
        assert all(x is y for x, y in zip(cycle.ops[1:], coarse))


def test_wave_vcycle_refit_after_damage_is_symmetric_positive():
    st, ds = wave_state()
    step_displacement(st, STIFF_K, ds, params=WAVE_MP)
    cycle = st.wave.cycle
    # a band of full damage along the slit line
    y = st.mesh.vertices[:, 1]
    st.v = FeFunction(np.where(np.abs(y - 1.5) < 0.3, 0.0, st.v.values),
                      st.mesh.generation)
    assert ratio(st, STIFF_K) >= dynamics.VCYCLE_RATIO
    _, _, rep = step_displacement(st, STIFF_K, ds, params=WAVE_MP,
                                  cycle=cycle)
    assert rep.converged and st.wave.cycle is cycle
    assert_symmetric_positive(st.mesh, ds.dofs, cycle)


def test_rebuilt_wave_system_handed_no_cycle_builds_one():
    # the kept system's cycle is its preconditioner, not a cycle to refit:
    # a rebuilt system refits only the cycle it is handed
    st, ds = wave_state()
    step_displacement(st, STIFF_K, ds, params=WAVE_MP)
    kept = st.wave
    st.v.values[:5] *= 0.5
    step_displacement(st, STIFF_K, ds, params=WAVE_MP)
    assert st.wave is not kept and st.wave.cycle is not kept.cycle
    assert kept.cycle.ops[0] is kept.Sc
    assert st.wave.cycle.ops[0] is st.wave.Sc


def jacobi_solve(st, k, ds, mp=WAVE_MP):
    """The wave step assembled by hand and solved by Jacobi CG from the
    predictor."""
    M = unit_mass(st.mesh)
    A = assemble_stiffness(st.mesh, degradation(st.v, mp))
    S = (mp.varrho / k ** 2) * M + (mp.mu + mp.eta / k) * A
    u_old, du_old = st.u_curr.values, st.du.values
    rhs = (mp.varrho / k ** 2) * (M @ u_old) + (mp.varrho / k) * (M @ du_old) \
        + (mp.eta / k) * (A @ u_old)
    Sc, rhsc = apply_dirichlet(S, rhs, ds)
    return solve_spd(Sc, rhsc, x0=u_old + k * du_old)


def test_mass_dominated_system_solves_like_plain_jacobi():
    st, ds = wave_state()
    u, _, rep = step_displacement(st, MASS_K, ds, params=WAVE_MP)
    assert st.wave.cycle is None
    x, jacobi = jacobi_solve(st, MASS_K, ds)
    assert np.array_equal(u.values, x)
    assert rep.iterations == jacobi.iterations


def test_stiffness_dominated_system_takes_the_vcycle():
    st, ds = wave_state()
    u, _, rep = step_displacement(st, STIFF_K, ds, params=WAVE_MP)
    assert st.wave.cycle is not None
    x, jacobi = jacobi_solve(st, STIFF_K, ds)
    assert rep.converged and 4 * rep.iterations < jacobi.iterations
    assert np.abs(u.values - x).max() <= 1e-9 * np.abs(x).max()


# ----------------------------------------------------------------------
# manufactured-solution convergence (module-scale smoke; the full check
# lives in the acceptance suite)
# ----------------------------------------------------------------------

def mms_error(n0, n_steps, t_final, mp):
    """Max-in-time L2 error against the nodal interpolant for
    u = cos(t) (sin(pi x) sin(pi y) + (x + y) / 2)."""
    mesh = build_initial_mesh((1.0, 1.0), None, n0)
    k = t_final / n_steps

    def s_sin(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def s_lin(x, y):
        return 0.5 * (x + y)

    def exact(t):
        return FeFunction.from_callable(
            mesh, lambda x, y: np.cos(t) * (s_sin(x, y) + s_lin(x, y)))

    u0 = exact(0.0)
    st = init_state(mesh, u0, FeFunction.zeros(mesh), k)
    bnd = boundary_dofs(mesh)
    xy = mesh.vertices[bnd]
    g_shape = s_lin(xy[:, 0], xy[:, 1]) + s_sin(xy[:, 0], xy[:, 1])
    M = assemble_mass(mesh, 1.0)
    ssin = FeFunction.from_callable(mesh, s_sin)
    slin = FeFunction.from_callable(mesh, s_lin)

    err = 0.0
    for n in range(2, n_steps + 1):
        t_n, t_p = n * k, (n - 1) * k
        cbar = (np.sin(t_n) - np.sin(t_p)) / k
        sbar = (np.cos(t_p) - np.cos(t_n)) / k
        lap = 2.0 * np.pi ** 2
        fvals = (-mp.varrho * cbar) * (ssin.values + slin.values) \
            + (mp.mu * lap * cbar - mp.eta * lap * sbar) * ssin.values
        f = FeFunction(fvals, mesh.generation)
        ds = DirichletSet(bnd, np.cos(t_n) * g_shape)
        u, _, _ = step_displacement(st, k, ds, f=f, params=mp)
        st = advance(st, u, k)
        diff = u.values - exact(t_n).values
        err = max(err, np.sqrt(diff @ (M @ diff)))
    return err


def test_mms_error_decreases_under_refinement():
    # resolutions chosen so the O(k) error dominates the spatial one
    mp = MaterialParams(mu=1.0, varrho=1.0, eta=0.1, epsilon=0.2)
    e_coarse = mms_error(16, 5, 1.0, mp)
    e_fine = mms_error(32, 10, 1.0, mp)
    assert e_fine < e_coarse / 1.5
