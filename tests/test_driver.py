"""Staggered stepping, energy reports, and the adaptive loop."""

import dataclasses
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracture_afem.driver as driver
import fracture_afem.dynamics as dynamics
import fracture_afem.estimator as estimator
import fracture_afem.fem as fem
import fracture_afem.io as fio
import fracture_afem.multigrid as multigrid
import fracture_afem.phasefield as phasefield
from fracture_afem.driver import (RunConfig, adapt_step, build_dirichlet,
                                  energies, mark_for_adaptation, run,
                                  staggered_step, transfer_state)
from fracture_afem.dynamics import (DynamicState, MaterialParams, degradation,
                                    init_state, step_displacement)
from fracture_afem.estimator import EstimatorField, estimate
from fracture_afem.fem import (FeFunction, StepMemo, assemble_stiffness,
                               element_gradients, transfer)
from fracture_afem.mesh import BoundaryLabel, adapt
from fracture_afem.phasefield import (CrackSet, clamp_and_threshold,
                                      reaction_weight, solve_phasefield)

from test_fem import adapted_meshes


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
    st = DynamicState(n=st.n, u_curr=band, du=st.du, v=st.v, crack=st.crack,
                      mesh=mesh)
    new, rec = staggered_step(st, 2 * cfg.time.k, cfg)
    assert rec.converged
    assert rec.inner_iterations <= 50
    assert 0.0 <= new.v.values.min() and new.v.values.max() <= 1.0


def banded_state(cfg, amplitude=1.0):
    """A rest state on the initial mesh with a strong gradient band in
    ``u``."""
    mesh = cfg.build_mesh()
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                    cfg.time.k)
    band = FeFunction.from_callable(
        mesh, lambda x, y: amplitude * np.tanh(8.0 * (y - 1.4)))
    return DynamicState(n=st.n, u_curr=band, du=st.du, v=st.v,
                        crack=st.crack, mesh=mesh)


def strained_state(cfg, amplitude=1.0):
    """The banded state advanced by one staggered step, so that the next
    step starts from a consistent displacement, velocity and damage
    field."""
    return staggered_step(banded_state(cfg, amplitude), 2 * cfg.time.k,
                          cfg)[0]


def test_dofs_pinned_in_a_step_are_zero_in_its_state(tmp_path):
    # xi_cr above xi_v pins edges whose clamped v is still positive; the
    # state the step returns must hold 0 there, as the next solve would
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=10, t_final=1.0, xi_cr=0.3)
    assert cfg.tolerances.xi_cr > cfg.tolerances.xi_v
    new = strained_state(cfg)
    assert new.crack.ids.size
    assert (new.v.values[new.crack.ids] == 0.0).all()
    assert (new.v.values > 0.0).any()


def count_solves(monkeypatch):
    """Record the CG iterations of every wave and damage solve, and count
    the coarse-grid inversions, one per V-cycle built."""
    counts = {"wave": [], "damage": [], "coarse": 0}

    def counting(module, key):
        original = module.solve_spd

        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            counts[key].append(out[1].iterations)
            return out
        monkeypatch.setattr(module, "solve_spd", wrapped)

    counting(dynamics, "wave")
    counting(phasefield, "damage")
    inverse = multigrid._spd_inverse

    def counted_inverse(a):
        counts["coarse"] += 1
        return inverse(a)
    monkeypatch.setattr(multigrid, "_spd_inverse", counted_inverse)
    return counts


def test_inner_iterations_reuse_coarse_levels_and_warm_start(
        tmp_path, monkeypatch):
    # the state carries the damage V-cycle of its step, on the same mesh and
    # pins: every inner iteration refits it and none builds a cycle
    cfg = quiet_cfg(tmp_path, n0=16, n_steps=10, t_final=1.0)
    st = strained_state(cfg)
    assert st.cycle is not None
    counts = count_solves(monkeypatch)
    new, rec = staggered_step(st, 3 * cfg.time.k, cfg)
    assert rec.converged and rec.inner_iterations >= 3
    assert counts["coarse"] == rec.cycle_builds == 0
    assert new.cycle is st.cycle
    wave, damage = counts["wave"], counts["damage"]
    assert len(wave) == len(damage) == rec.inner_iterations
    assert all(n < wave[0] for n in wave[1:])
    assert all(n < damage[0] for n in damage[1:])
    assert rec.wave_iterations == sum(wave)
    assert rec.pf_iterations == sum(damage)


def test_stiff_wave_refits_its_cycle_within_a_step_only(
        tmp_path, monkeypatch):
    # at k = 1 on the n0 = 16 grid stiffness dominates the wave system, so
    # it takes the V-cycle; every inner iteration changes v and rebuilds
    # the system.  A step builds one wave cycle, in its first iteration,
    # and refits it in the later ones; the damage cycle it carries is refit
    # throughout, and the next step builds its own wave cycle
    cfg = quiet_cfg(tmp_path, n0=16, n_steps=4, t_final=4.0)
    st = strained_state(cfg)
    carried = st.wave.cycle
    assert carried is not None and st.cycle is not None
    counts = count_solves(monkeypatch)
    new, rec = staggered_step(st, 3 * cfg.time.k, cfg)
    assert rec.new_pins == 0 and rec.inner_iterations >= 3
    assert counts["coarse"] == rec.cycle_builds == 1
    assert new.cycle is st.cycle and new.wave.cycle is not carried
    assert new.wave.cycle.ops[0] is new.wave.Sc

    built, counts["coarse"] = new.wave.cycle, 0
    later, rec = staggered_step(new, 4 * cfg.time.k, cfg)
    assert rec.inner_iterations >= 3
    assert counts["coarse"] == rec.cycle_builds == 1
    assert later.wave.cycle is not built


def test_carried_cycle_fits_its_mesh_and_pins_only(tmp_path, monkeypatch):
    # xi_cr above xi_v pins dofs in the first banded step: its state carries
    # the cycle, which left those dofs free, and the next step builds one;
    # a state moved to a new mesh carries none
    cfg = quiet_cfg(tmp_path, n0=8, n_steps=10, t_final=1.0, xi_cr=0.1)
    st = banded_state(cfg)
    mesh = st.mesh
    grown, rec = staggered_step(st, 2 * cfg.time.k, cfg)
    assert rec.new_pins > 0 and rec.cycle_builds >= 1
    assert grown.cycle is not None
    assert (grown.v_raw.values[grown.crack.ids] == 0.0).all()

    counts = count_solves(monkeypatch)
    kept, rec = staggered_step(grown, 3 * cfg.time.k, cfg)
    assert counts["coarse"] == rec.cycle_builds >= 1
    assert kept.cycle is not grown.cycle
    assert rec.new_pins == 0 and kept.cycle is not None
    assert (kept.v_raw.values[kept.crack.ids] == 0.0).all()
    # the same mesh and pins: the next step refits the cycle it was handed
    again, rec = staggered_step(kept, 4 * cfg.time.k, cfg)
    assert rec.new_pins == 0 and rec.cycle_builds == 0
    assert again.cycle is kept.cycle

    r2 = np.zeros(mesh.n_triangles)
    r2[0] = 1.0
    moved = adapt_step(kept, kept, EstimatorField(r2, 1.0), cfg)
    assert moved.mesh is not mesh
    assert moved.cycle is None and moved.wave is None
    assert kept.cycle is None       # dropped before the new mesh is built
    assert (moved.v_raw.values[moved.crack.ids] == 0.0).all()


def test_resolve_starts_from_the_first_solve(tmp_path, monkeypatch):
    # adapt_step moves the first solve's u, clamped v and unclamped v to the
    # new mesh; the re-solve's first wave CG, staggered iterate and damage
    # CG start there, while its equations keep the previous step's state
    cfg = quiet_cfg(tmp_path, n0=16, n_steps=10, t_final=1.0)
    prev = strained_state(cfg)
    t = 3 * cfg.time.k
    post, _ = staggered_step(prev, t, cfg)
    mesh = prev.mesh
    r2 = np.zeros(mesh.n_triangles)
    r2[:40] = 1.0
    moved = adapt_step(prev, post, EstimatorField(r2, 1.0), cfg)
    new_mesh = moved.mesh
    for got, want in [(moved.start[0], post.u_curr), (moved.start[1], post.v),
                      (moved.v_raw, post.v_raw), (moved.u_curr, prev.u_curr),
                      (moved.v, prev.v)]:
        assert np.array_equal(got.values,
                              transfer(want, mesh, new_mesh).values)
    calls = []

    def recording(name):
        original = getattr(driver, name)

        def wrapped(*args, **kwargs):
            calls.append((name, args, kwargs))
            return original(*args, **kwargs)
        monkeypatch.setattr(driver, name, wrapped)

    recording("step_displacement")
    recording("solve_phasefield")
    new, rec = staggered_step(moved, t, cfg)
    (_, args, wave), (_, _, damage) = calls[:2]
    assert args[0] is moved and wave["v"] is moved.start[1]
    assert wave["x0"] is moved.start[0].values
    assert damage["x0"] is moved.v_raw.values
    assert new.start is None and new.mesh is new_mesh


def test_cycle_builds_count_every_coarse_inversion(tmp_path, monkeypatch):
    # the records, with the solves an adaptation replaced, count every
    # V-cycle the run builds, damage and wave: each inverts its coarsest
    # grid once
    counts = count_solves(monkeypatch)
    res = run(quiet_cfg(tmp_path, n0=8, n_steps=8, t_final=4.0))
    records = res.records + [rec.first_solve for rec in res.records
                             if rec.first_solve is not None]
    assert counts["coarse"] > 0
    assert sum(rec.cycle_builds for rec in records) == counts["coarse"]


def test_later_inner_iterations_start_from_the_last_iterate(
        tmp_path, monkeypatch):
    # the wave solve of iteration j >= 2 starts from iteration j-1's u_new
    # and the damage solve from its unclamped v; iteration 1 from the
    # predictor (x0 None) and the unclamped v the state carries
    cfg = quiet_cfg(tmp_path, n0=16, n_steps=10, t_final=1.0)
    st = strained_state(cfg)
    calls = []

    def recording(name):
        original = getattr(driver, name)

        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append((name, kwargs["x0"], out[0].values))
            return out
        monkeypatch.setattr(driver, name, wrapped)

    recording("step_displacement")
    recording("solve_phasefield")
    _, rec = staggered_step(st, 3 * cfg.time.k, cfg)
    assert rec.inner_iterations >= 3
    wave = [c for c in calls if c[0] == "step_displacement"]
    damage = [c for c in calls if c[0] == "solve_phasefield"]
    assert wave[0][1] is None and damage[0][1] is st.v_raw.values
    for prev, this in zip(wave, wave[1:]):
        assert this[1] is prev[2]
    for prev, this in zip(damage, damage[1:]):
        assert this[1] is prev[2]


def test_one_inner_iteration_equals_direct_solves(tmp_path):
    # the first inner iteration starts from the predictor, the state's
    # damage field, its unclamped iterate and its V-cycle, so a step of one
    # inner iteration is these two solves
    cfg = quiet_cfg(tmp_path, n0=16, n_steps=10, t_final=1.0)
    st = strained_state(cfg)
    cfg.tolerances.xi_vn = np.inf
    t = 3 * cfg.time.k
    new, rec = staggered_step(st, t, cfg)
    assert rec.inner_iterations == 1
    tol = cfg.tolerances
    u, _, _ = step_displacement(
        st, cfg.time.k, build_dirichlet(st.mesh, t, cfg.loading),
        params=cfg.material, v=st.v, tol=tol.solver_tol,
        max_iter=tol.solver_max_iter)
    v_raw, info = solve_phasefield(
        u, cfg.material, st.crack, st.mesh, x0=st.v_raw.values,
        tol=tol.solver_tol, max_iter=tol.solver_max_iter, cycle=st.cycle)
    assert not info["shortcut"]
    assert np.array_equal(new.u_curr.values, u.values)
    assert np.array_equal(new.v.values,
                          clamp_and_threshold(v_raw, tol.xi_v).values)


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


@settings(max_examples=40, deadline=None)
@given(adapted_meshes(), st.integers(0, 2 ** 32 - 1))
def test_strain_energy_equals_assembled_quadratic_form(mesh, seed):
    # the element sum is 0.5 mu u^T A u of the degraded stiffness
    rng = np.random.default_rng(seed)
    mp = MaterialParams(mu=rng.uniform(0.5, 2.0))
    u = FeFunction(rng.standard_normal(mesh.n_vertices), mesh.generation)
    v = FeFunction(rng.uniform(0.0, 1.0, mesh.n_vertices), mesh.generation)
    rest = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                      1.0)
    state = DynamicState(n=1, u_curr=u, du=rest.du, v=v, crack=rest.crack,
                         mesh=mesh)
    A = assemble_stiffness(mesh, degradation(v, mp))
    want = 0.5 * mp.mu * (u.values @ (A @ u.values))
    assert abs(energies(state, mp).strain - want) <= 1e-13 * want


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
    return DynamicState(n=1, u_curr=u, du=st.du, v=v, crack=st.crack,
                        mesh=mesh), mesh


def test_adapt_step_noop_for_flat_indicator(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=2)
    state, mesh = balanced_state(cfg)
    est = estimate(state.u_curr, state.v, mesh, cfg.material)
    assert est.r_h < 1e-13
    assert adapt_step(state, state, est, cfg) is None


def test_adapt_step_returns_the_state_on_the_new_mesh(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=2)
    mesh = cfg.build_mesh()
    state = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                       cfg.time.k)
    r2 = np.zeros(mesh.n_triangles)
    r2[0] = 1.0
    moved = adapt_step(state, state, EstimatorField(r2, 1.0), cfg)
    assert isinstance(moved, DynamicState)
    assert moved.mesh.source_generation == mesh.generation
    assert moved.mesh.adapt_summary.refined >= 1
    moved.v.check_bound(moved.mesh)


def test_adapt_step_skips_an_adaptation_that_changes_nothing(tmp_path):
    # at max_levels = 0 every Dorfler mark is at the level cap, so the
    # adaptation would rebuild the same mesh and re-solve the step on it
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=2, max_levels=0,
                    strategy="dorfler")
    mesh = cfg.build_mesh()
    state = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                       cfg.time.k)
    r2 = np.zeros(mesh.n_triangles)
    r2[[0, 5]] = 1.0
    est = EstimatorField(r2, 1.0)
    refine, _ = mark_for_adaptation(est, cfg)
    assert refine.size > 0
    assert adapt(mesh, refine).adapt_summary.skipped_capped == refine.size
    assert adapt_step(state, state, est, cfg) is None


def test_dorfler_single_hot_triangle_refines_with_closure(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=1, n_steps=2, slit=False, lx=1.0, ly=1.0)
    cfg.marking.strategy = "dorfler"
    cfg.marking.theta = 0.99
    mesh = cfg.build_mesh()
    r2 = np.array([1.0, 1e-9])
    est = EstimatorField(r2, float(np.sqrt(r2.sum())))
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
    st = DynamicState(n=2, u_curr=st.u_curr, du=st.du, v=st.v, crack=crack,
                      mesh=mesh)
    fine = adapt(mesh, range(mesh.n_triangles))
    moved = transfer_state(st, mesh, fine, st.crack)
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


def test_rerun_removes_the_snapshots_of_an_earlier_run(tmp_path):
    # a shorter rerun into the same directory leaves only its own
    # snapshots; files that are not snapshots stay
    out = tmp_path / "out"
    run(quiet_cfg(tmp_path, n0=8, n_steps=12, t_final=5.0, snapshot_every=4))
    (out / "snapshot_notes.vtk").write_text("kept")
    cfg = quiet_cfg(tmp_path, n0=8, n_steps=8, t_final=5.0, snapshot_every=4)
    run(cfg)
    assert sorted(f.name for f in out.glob("*.vtk")) == [
        "snapshot_000001.vtk", "snapshot_000004.vtk", "snapshot_000008.vtk",
        "snapshot_notes.vtk"]
    cfg.output.snapshot_every = 0
    run(cfg)
    assert [f.name for f in out.glob("*.vtk")] == ["snapshot_notes.vtk"]


def test_failure_in_energies_names_its_step(tmp_path, monkeypatch):
    cfg = quiet_cfg(tmp_path, n0=8, n_steps=8, t_final=4.0)
    energies = driver.energies

    def failing_energies(*args, **kwargs):
        if kwargs["step"] == 3:
            raise FloatingPointError("injected failure")
        return energies(*args, **kwargs)

    monkeypatch.setattr(driver, "energies", failing_energies)
    with pytest.raises(RuntimeError,
                       match="aborted at step 3 during energies"):
        run(cfg)
    trace = (tmp_path / "out" / "energies.csv").read_text().splitlines()
    assert [int(line.split(",")[0]) for line in trace[1:]] == [1, 2]


def test_records_count_every_solve_of_an_adapted_step(tmp_path,
                                                      monkeypatch):
    # the records, with the solve an adaptation replaced, account for every
    # conjugate-gradient iteration of the run
    done = {"wave": 0, "pf": 0}

    def counting(kind, solve):
        def counted(*args, **kwargs):
            x, report = solve(*args, **kwargs)
            done[kind] += report.iterations
            return x, report
        return counted

    monkeypatch.setattr(dynamics, "solve_spd",
                        counting("wave", dynamics.solve_spd))
    monkeypatch.setattr(phasefield, "solve_spd",
                        counting("pf", phasefield.solve_spd))
    res = run(quiet_cfg(tmp_path, n0=8, n_steps=8, t_final=4.0))
    firsts = [rec.first_solve for rec in res.records
              if rec.first_solve is not None]
    assert firsts
    assert all(rec.first_solve is None for rec in res.records
               if rec.adapt is None)
    for kind in ("wave", "pf"):
        name = f"{kind}_iterations"
        assert sum(getattr(rec, name) for rec in res.records) \
            + sum(getattr(first, name) for first in firsts) == done[kind]
    assert done["pf"] > 0


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


def test_first_solve_state_is_released_before_the_resolve(tmp_path,
                                                          monkeypatch):
    # the re-solve of an adapted step is the second staggered_step call at
    # the same time; by then the old mesh, held by the first solve's state,
    # its wave system and the state it came from, must be gone
    cfg = quiet_cfg(tmp_path, n0=8, n_steps=8, t_final=4.0)
    last = {}
    released = []
    solve = driver.staggered_step

    def watched(state, t_n, cfg, *memo):
        if last.get("t") == t_n:
            released.append(last["mesh"]() is None)
        out = solve(state, t_n, cfg, *memo)
        last.update(t=t_n, mesh=weakref.ref(state.mesh))
        return out

    monkeypatch.setattr(driver, "staggered_step", watched)
    run(cfg)
    assert released and all(released)


@pytest.mark.parametrize("section, key, value, message", [
    ("marking", "strategy", "Dorfler", "marking strategy"),
    ("tolerances", "max_inner", 0, "iteration limits")])
def test_run_rechecks_values_assigned_after_construction(
        tmp_path, section, key, value, message):
    cfg = quiet_cfg(tmp_path, n0=4, n_steps=3, t_final=1.0)
    setattr(getattr(cfg, section), key, value)
    with pytest.raises(ValueError, match=message):
        run(cfg)
    assert not (tmp_path / "out" / "energies.csv").exists()


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


# ----------------------------------------------------------------------
# one gradient pass per field
# ----------------------------------------------------------------------

def gradient_passes(tmp_path, monkeypatch, **kw):
    """Run ``quiet_cfg(**kw)`` with a counting ``element_gradients`` in
    every module that calls it; step -> (calls, record) from step 3 on
    (the calls of step 2 hold those of step 1)."""
    calls, steps = [0], {}
    original = fem.element_gradients

    def counting(u, mesh):
        calls[0] += 1
        return original(u, mesh)
    for module in (driver, estimator, phasefield, fio):
        monkeypatch.setattr(module, "element_gradients", counting)

    def on_step(state, est, report, rec):
        steps[report.step] = (calls[0], rec)
        calls[0] = 0
    run(quiet_cfg(tmp_path, **kw), on_step=on_step)
    del steps[2]
    return steps


def test_a_step_forms_the_gradients_of_each_field_once(tmp_path,
                                                        monkeypatch):
    # an intact step forms those of its u (the damage solve's reaction
    # weight) and of its v (the indicator); the energies and the snapshot
    # read them: 2, where each evaluation forming its own made 6.  A step
    # that adapts, with one inner iteration per solve, forms those of the
    # first solve's u and v, of the moved state's (its energy) and of the
    # re-solve's: 6, against 11
    steps = gradient_passes(tmp_path, monkeypatch, n0=8, n_steps=12,
                            t_final=1.5, snapshot_every=1)
    intact = [calls for calls, rec in steps.values() if rec.shortcut]
    adapted = [calls for calls, rec in steps.values()
               if rec.adapt is not None and rec.inner_iterations == 1
               and rec.first_solve.inner_iterations == 1]
    assert intact and adapted
    assert intact == [2] * len(intact)
    assert adapted == [6] * len(adapted)


def test_shared_gradients_equal_per_call_ones_bit_for_bit(tmp_path):
    cfg = quiet_cfg(tmp_path, n0=16, n_steps=10, t_final=1.0)
    st = strained_state(cfg)
    memo = StepMemo()
    new, rec = staggered_step(st, 3 * cfg.time.k, cfg, memo)
    assert not rec.shortcut
    u, v, mesh, params = new.u_curr, new.v, new.mesh, cfg.material
    est = estimate(u, v, mesh, params, memo)
    report = energies(new, params, est, memo=memo)

    def kept(f, key):
        def refuse(*_):
            raise AssertionError(f"{key} formed again")
        return memo.get(f, mesh, key, refuse)
    # the estimate read the reaction weight the last damage solve formed
    assert reaction_weight(u, params, mesh, memo) is kept(
        u, ("reaction", params.mu * (1.0 - params.kappa)))
    assert np.array_equal(reaction_weight(u, params, mesh),
                          kept(u, ("reaction",
                                   params.mu * (1.0 - params.kappa))))
    for f in (u, v):
        assert np.array_equal(kept(f, "gradients"),
                              element_gradients(f, mesh))
    assert np.array_equal(est.r2, estimate(u, v, mesh, params).r2)
    assert report == energies(new, params, est)
