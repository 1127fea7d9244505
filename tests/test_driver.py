"""Staggered stepping, energy reports, and the adaptive loop."""

import dataclasses
import re
import weakref

import numpy as np
import pytest

import fracture_afem.driver as driver
from fracture_afem.driver import (RunConfig, adapt_step, build_dirichlet,
                                  energies, mark_for_adaptation, run,
                                  staggered_step, transfer_state)
from fracture_afem.dynamics import DynamicState, init_state
from fracture_afem.estimator import EstimatorField, estimate
from fracture_afem.fem import FeFunction
from fracture_afem.mesh import BoundaryLabel, adapt
from fracture_afem.phasefield import CrackSet


def quiet_cfg(tmp_path, **kw):
    cfg = RunConfig.with_defaults(**kw)
    cfg.output.directory = str(tmp_path / "out")
    return cfg


def zero_loading_cfg(tmp_path, n0=4, n_steps=3):
    cfg = quiet_cfg(tmp_path, n0=n0, n_steps=n_steps, t_final=1.0,
                    eps_v=1e-30)
    return cfg


@pytest.mark.parametrize("section, key, value", [
    ("mesh", "lx", 1.0), ("mesh", "n0", 8), ("mesh", "max_levels", 2),
    ("time", "t_final", 1.0), ("time", "n_steps", 10)])
def test_mesh_and_time_sections_are_frozen(section, key, value):
    # epsilon, varrho, eta and t_g are derived from these sections once, so
    # a later assignment would leave them stale
    cfg = RunConfig.with_defaults(n0=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(getattr(cfg, section), key, value)


# ----------------------------------------------------------------------
# staggered_step
# ----------------------------------------------------------------------

def test_zero_loading_fixed_point_one_inner_iteration(tmp_path):
    cfg = zero_loading_cfg(tmp_path)
    mesh = cfg.build_mesh()
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                    cfg.time.k)
    new, rec = staggered_step(st, 2 * cfg.time.k, cfg)
    assert rec.inner_iterations == 1
    assert np.abs(new.u_curr.values).max() < 1e-12
    assert np.allclose(new.v.values, 1.0)
    assert new.n == st.n + 1


def test_infinite_tolerance_single_iteration(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=4, t_final=1.0)
    cfg.tolerances.xi_vn = np.inf
    mesh = cfg.build_mesh()
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                    cfg.time.k)
    _, rec = staggered_step(st, 2 * cfg.time.k, cfg)
    assert rec.inner_iterations == 1


def test_inner_loop_converges_on_strained_fixture(tmp_path):
    # strong gradient band: the inner loop has real work but terminates fast
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=10, t_final=1.0)
    mesh = cfg.build_mesh()
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                    cfg.time.k)
    band = FeFunction.from_callable(
        mesh, lambda x, y: 3.0 * np.tanh(8.0 * (y - 1.4)))
    st = DynamicState(n=st.n, u_prev=st.u_prev, u_curr=band,
                      du=st.du, v=st.v, crack=st.crack, mesh=mesh)
    new, rec = staggered_step(st, 2 * cfg.time.k, cfg)
    assert rec.converged
    assert rec.inner_iterations <= 50
    assert 0.0 <= new.v.values.min() and new.v.values.max() <= 1.0


def test_dirichlet_signs_respect_slit_faces(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=8, n_steps=4)
    mesh = cfg.build_mesh()
    ds = build_dirichlet(mesh, 1.0, cfg.loading)
    assert len(ds.dofs)
    coords = mesh.vertices[ds.dofs]
    assert (coords[:, 0] == 0.0).all()
    up = ds.values > 0
    lo = ds.values < 0
    assert up.any() and lo.any()
    assert (coords[up, 1] >= cfg.mesh.slit_y).all()
    assert (coords[lo, 1] <= cfg.mesh.slit_y).all()
    # the duplicated corner vertex appears on both faces with opposite signs
    corner = np.isclose(coords[:, 1], cfg.mesh.slit_y)
    assert corner.sum() == 2
    assert np.isclose(ds.values[corner].sum(), 0.0)


# ----------------------------------------------------------------------
# energies
# ----------------------------------------------------------------------

def test_energies_all_zero_for_rest_state(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=2)
    mesh = cfg.build_mesh()
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                    cfg.time.k)
    rep = energies(st, cfg.material)
    assert rep.kinetic == rep.strain == rep.surface == 0.0


def test_surface_energy_of_fully_broken_field(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=2)
    mesh = cfg.build_mesh()
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                    cfg.time.k)
    st.v.values[:] = 0.0
    rep = energies(st, cfg.material)
    area = 9.0
    expected = cfg.material.lambda_c / cfg.material.c_w \
        * area / cfg.material.epsilon
    assert np.isclose(rep.surface, expected)


def test_kinetic_energy_of_constant_velocity(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=2)
    mesh = cfg.build_mesh()
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                    cfg.time.k)
    st.du.values[:] = 0.75
    rep = energies(st, cfg.material)
    expected = 0.5 * cfg.material.varrho * 0.75 ** 2 * 9.0
    assert np.isclose(rep.kinetic, expected)


# ----------------------------------------------------------------------
# adaptation within a step
# ----------------------------------------------------------------------

def balanced_state(cfg):
    """A state whose residual indicator is exactly zero."""
    mesh = cfg.build_mesh()
    mp = cfg.material
    c = 0.6
    slope = np.sqrt(mp.nu_pf / (c * mp.mu * (1.0 - mp.kappa)))
    u = FeFunction.from_callable(mesh, lambda x, y: slope * x)
    v = FeFunction.constant(mesh, c)
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                    cfg.time.k)
    return DynamicState(n=1, u_prev=st.u_prev, u_curr=u, du=st.du, v=v,
                        crack=st.crack, mesh=mesh), mesh


def test_adapt_step_noop_for_flat_indicator(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=2)
    state, mesh = balanced_state(cfg)
    est = estimate(state.u_curr, state.v, mesh, cfg.material)
    assert est.r_h < 1e-13
    assert adapt_step(state, state, est, cfg) is None


def test_dorfler_single_hot_triangle_refines_with_closure(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=1, n_steps=2, slit=False, lx=1.0, ly=1.0)
    cfg.marking.strategy = "dorfler"
    cfg.marking.theta = 0.99
    mesh = cfg.build_mesh()
    r2 = np.array([1.0, 1e-9])
    est = EstimatorField(r2, float(np.sqrt(r2.sum())), mesh.generation)
    refine, coarsen = mark_for_adaptation(est, cfg)
    assert np.array_equal(refine, [0])
    assert coarsen.size == 0
    # hand-computed closure: the neighbor shares the refinement edge, so
    # both split and the result has four triangles
    new_mesh = adapt(mesh, refine, coarsen)
    assert new_mesh.n_triangles == 4


def test_transfer_state_preserves_bounds_and_pins(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=2)
    mesh = cfg.build_mesh()
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                    cfg.time.k)
    rng = np.random.default_rng(31)
    st.v.values[:] = rng.uniform(0, 1, mesh.n_vertices)
    a, b = mesh.edges[0]
    st.v.values[[a, b]] = 0.0
    crack = CrackSet(np.array([a, b]), mesh.generation)
    st = DynamicState(n=2, u_prev=st.u_prev, u_curr=st.u_curr, du=st.du,
                      v=st.v, crack=crack, mesh=mesh)
    fine = adapt(mesh, range(mesh.n_triangles))
    moved = transfer_state(st, mesh, fine)
    assert moved.v.values.min() >= 0.0 and moved.v.values.max() <= 1.0
    assert moved.crack.ids.size >= 2
    assert np.allclose(moved.v.values[moved.crack.ids], 0.0)


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

def test_single_step_zero_loading_writes_one_zero_row(tmp_path):
    cfg = zero_loading_cfg(tmp_path, n0=4, n_steps=1)
    res = run(cfg)
    assert len(res.records) == 1
    r = res.records[0].report
    assert r.kinetic == r.strain == r.surface == 0.0
    csv = (tmp_path / "out" / "energies.csv").read_text().splitlines()
    assert len(csv) == 2
    assert csv[0].startswith("step,time,")


def test_zero_loading_fixed_point_independent_of_step_count(tmp_path):
    cfg1 = zero_loading_cfg(tmp_path, n0=4, n_steps=2)
    cfg1.output.directory = str(tmp_path / "a")
    cfg2 = zero_loading_cfg(tmp_path, n0=4, n_steps=4)
    cfg2.output.directory = str(tmp_path / "b")
    r1 = run(cfg1)
    r2 = run(cfg2)
    for res in (r1, r2):
        assert np.abs(res.state.u_curr.values).max() < 1e-12
        assert np.allclose(res.state.v.values, 1.0)


def test_run_rows_strictly_increasing_steps(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=6, t_final=2.0)
    res = run(cfg)
    steps = [rec.report.step for rec in res.records]
    assert steps == sorted(steps)
    assert len(set(steps)) == len(steps)


def test_run_acceptance_observables_collected(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=8, n_steps=8, t_final=4.0)
    seen = []
    res = run(cfg, on_step=lambda s, e, r, d: seen.append(r.step))
    assert seen == list(range(2, 9))
    assert len(res.records) == 8
    assert not any(rec.pinned_violation for rec in res.records)
    assert all(0.0 <= rec.v_min <= rec.v_max <= 1.0 for rec in res.records)


def test_aborted_run_leaves_finished_rows_on_disk(tmp_path, monkeypatch):
    cfg = quiet_cfg(tmp_path, n0=8, n_steps=8, t_final=4.0)
    calls = []

    def failing_estimate(*args, **kwargs):
        calls.append(args)
        if len(calls) == 4:
            raise FloatingPointError("injected failure")
        return estimate(*args, **kwargs)

    monkeypatch.setattr(driver, "estimate", failing_estimate)
    with pytest.raises(RuntimeError, match="aborted at step") as info:
        run(cfg)
    failed_step = int(re.search(r"step (\d+)", str(info.value)).group(1))
    assert failed_step > 1
    trace = tmp_path / "out" / "energies.csv"
    aborted = trace.read_text().splitlines()
    # header plus one row per finished step
    assert [int(line.split(",")[0]) for line in aborted[1:]] == \
        list(range(1, failed_step))

    # a complete run in the same directory replaces the old file; the rows
    # written before the failure are its first rows
    monkeypatch.setattr(driver, "estimate", estimate)
    run(cfg)
    full = trace.read_text().splitlines()
    assert len(full) == 1 + cfg.time.n_steps
    assert full[:len(aborted)] == aborted


def test_initial_mesh_is_released_after_first_adaptation(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=8, n_steps=10, t_final=2.0)
    built = []
    build_mesh = cfg.build_mesh

    def recording_build_mesh():
        mesh = build_mesh()
        built.append(weakref.ref(mesh))
        return mesh

    cfg.build_mesh = recording_build_mesh
    alive = []

    def on_step(state, est, report, record):
        if state.mesh.generation > 0 and not alive:
            alive.append(built[0]() is not None)

    run(cfg, on_step=on_step)
    assert alive == [False]


def test_desk_run_damage_onset_and_vmin_monotone(desk16):
    # at this resolution the damage zone stays wide: the field degrades but
    # never crosses the crack threshold, so the crack set stays empty
    vmin = np.array([rec.v_min for rec in desk16.records])
    assert (np.diff(vmin) <= 1e-12).all()
    first_damage = int(np.argmax(vmin < 1.0)) + 1
    assert first_damage == 83           # pinned from a measured run
    assert desk16.records[-1].pinned == 0
    strain = [rec.report.strain for rec in desk16.records]
    assert strain[first_damage - 2] > 2.0


def test_dissipation_ledger_with_boundary_work(desk32):
    # E_n <= E_{n-1} + reaction force times boundary-displacement increment
    cfg, res = desk32
    scale = max(max(rec.report.total for rec in res.records), 1.0)
    assert max(rec.ledger_slack for rec in res.records[1:]) <= 1e-8 * scale
    assert not any(rec.warnings for rec in res.records)


def test_load_holds_after_ramp_window(tmp_path):
    # a loading window shorter than the run is valid: the Dirichlet data
    # freezes at its final ramp value
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=6, t_final=2.0, t_s=0.25, t_g=1.0)
    cfg.validate()
    res = run(cfg)
    assert len(res.records) == 6
    mesh = cfg.build_mesh()
    late = build_dirichlet(mesh, 2.0, cfg.loading)
    end = build_dirichlet(mesh, 1.0, cfg.loading)
    assert np.array_equal(late.values, end.values)
    with pytest.raises(ValueError, match="loading window"):
        quiet_cfg(tmp_path, n0=4, n_steps=2, t_final=0.5, t_g=1.0).validate()
