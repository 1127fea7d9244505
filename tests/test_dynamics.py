"""Implicit wave stepping: initialization, dissipation, loading ramp, MMS."""

import numpy as np
import pytest

from fracture_afem.driver import build_dirichlet
from fracture_afem.dynamics import (DynamicState, LoadingParams,
                                    MaterialParams, boundary_ramp,
                                    degradation, init_state,
                                    step_displacement)
from fracture_afem.fem import (DirichletSet, FeFunction, assemble_mass,
                               assemble_stiffness)
from fracture_afem.mesh import build_initial_mesh


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
