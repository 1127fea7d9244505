"""Acceptance gate: one test per criterion, each printing a verdict line."""

import time

import numpy as np
import pytest

from fracture_afem import io as fio
from fracture_afem.driver import (RunConfig, build_dirichlet, energies, run,
                                  staggered_step)
from fracture_afem.dynamics import MaterialParams, init_state
from fracture_afem.estimator import (EstimatorField, dorfler_mark, estimate,
                                     fraction_mark, reliability_ratio)
from fracture_afem.fem import DirichletSet, FeFunction, transfer
from fracture_afem.mesh import adapt, build_initial_mesh, geometry
from fracture_afem.phasefield import CrackSet, solve_phasefield

from test_dynamics import mms_error
from test_estimator import estimator_oracle


def verdict(num, name, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {name}")
    assert ok, f"criterion {num} failed: {name}"


# ----------------------------------------------------------------------
# 1. bound preservation
# ----------------------------------------------------------------------

def test_criterion_01_bound_preservation(desk16):
    lo = min(rec.v_min for rec in desk16.records)
    hi = max(rec.v_max for rec in desk16.records)
    verdict(1, f"damage bounds over full run: min {lo:.3e}, max {hi:.3e}",
            lo >= 0.0 and hi <= 1.0)


# ----------------------------------------------------------------------
# 2. irreversibility
# ----------------------------------------------------------------------

def test_criterion_02_irreversibility(desk32):
    cfg, res = desk32
    pinned_total = res.records[-1].pinned
    violations = sum(rec.pinned_violation for rec in res.records)
    nonvacuous = pinned_total > 0
    verdict(2, f"{pinned_total} pinned dofs, "
               f"{violations} steps with a pinned dof leaving 0",
            nonvacuous and violations == 0)


# ----------------------------------------------------------------------
# 3. stationarity residual
# ----------------------------------------------------------------------

def test_criterion_03_stationarity(desk16):
    stats = np.array([rec.stationarity for rec in desk16.records[1:]])
    solved = stats[~np.isnan(stats)]
    worst = solved.max() if solved.size else 0.0
    verdict(3, f"max damage-solve residual {worst:.3e} of rhs norm "
               f"over {solved.size} solved steps",
            solved.size > 0 and worst <= 1e-9)


# ----------------------------------------------------------------------
# 4. estimator oracle equivalence
# ----------------------------------------------------------------------

def test_criterion_04_estimator_oracle():
    mp = MaterialParams(mu=1.4, varrho=1.0, eta=0.3, kappa=1e-10,
                        epsilon=0.21)
    rng = np.random.default_rng(1234)
    worst = 0.0
    base = build_initial_mesh((1.0, 1.0), None, 2)
    meshes = [base,
              adapt(base, [0, 3]),
              adapt(base, [1, 4, 6]),
              build_initial_mesh((2.0, 1.0), None, 2)]
    count = 0
    for mesh in meshes:
        assert mesh.n_triangles <= 32
        trials = 3 if count < 9 else 1
        for _ in range(trials):
            if count >= 10:
                break
            u = FeFunction(rng.standard_normal(mesh.n_vertices),
                           mesh.generation)
            v = FeFunction(rng.uniform(0, 1, mesh.n_vertices),
                           mesh.generation)
            got = estimate(u, v, mesh, mp).r_h
            ref = estimator_oracle(mesh, u.values, v.values, mp)
            worst = max(worst, abs(got - ref) / ref)
            count += 1
    verdict(4, f"{count} random fixtures, worst relative gap {worst:.3e}",
            count == 10 and worst <= 1e-10)


# ----------------------------------------------------------------------
# 5. reliability boundedness
# ----------------------------------------------------------------------

def test_criterion_05_reliability_bounded():
    mp = MaterialParams(mu=1.3, varrho=1.0, eta=0.5, kappa=1e-10,
                        epsilon=0.25)
    rng = np.random.default_rng(5150)
    maxima = []
    for n0 in (2, 4, 8):
        mesh = build_initial_mesh((1.0, 1.0), None, n0)
        u = FeFunction.from_callable(
            mesh, lambda x, y: 4.0 * np.sin(np.pi * x) * y)
        v, _ = solve_phasefield(u, mp, CrackSet.empty(mesh), mesh)
        r_h = estimate(u, v, mesh, mp).r_h
        fine1 = adapt(mesh, range(mesh.n_triangles))
        fine2 = adapt(fine1, range(fine1.n_triangles))
        uf = transfer(transfer(u, mesh, fine1), fine1, fine2)
        vf = transfer(transfer(v, mesh, fine1), fine1, fine2)
        worst = 0.0
        for _ in range(100):
            a = rng.standard_normal(5)
            phi = FeFunction.from_callable(
                fine2,
                lambda x, y: a[0] * np.sin(np.pi * x) * np.sin(np.pi * y)
                + a[1] * x * y + a[2] * np.cos(np.pi * y)
                + a[3] * x ** 2 + a[4] * np.sin(2 * np.pi * y) * x)
            worst = max(worst,
                        reliability_ratio(uf, vf, fine2, mp, phi, r_h=r_h))
        maxima.append(worst)
    growth = [maxima[1] / maxima[0], maxima[2] / maxima[1]]
    verdict(5, f"ratio maxima per level {[f'{m:.3f}' for m in maxima]}, "
               f"growth {[f'{g:.3f}' for g in growth]}",
            all(g <= 1.2 for g in growth))


# ----------------------------------------------------------------------
# 6. wave-solver convergence
# ----------------------------------------------------------------------

def test_criterion_06_wave_convergence():
    mp = MaterialParams(mu=1.0, varrho=1.0, eta=0.1, epsilon=0.2)
    t0 = time.perf_counter()
    errs = [mms_error(n0, n, 1.0, mp)
            for n0, n in ((16, 5), (32, 10), (64, 20))]
    elapsed = time.perf_counter() - t0
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = all(1.7 <= r <= 2.6 for r in ratios) and elapsed < 120.0
    verdict(6, f"L2-error ratios {[f'{r:.2f}' for r in ratios]} "
               f"in [1.7, 2.6], {elapsed:.1f}s", ok)


# ----------------------------------------------------------------------
# 7. discrete dissipation
# ----------------------------------------------------------------------

def test_criterion_07_discrete_dissipation(tmp_path):
    cfg = RunConfig.with_defaults(n0=16, n_steps=120, t_final=3.0)
    cfg.output.directory = str(tmp_path / "out")
    mesh = cfg.build_mesh()
    # frozen (zero) boundary data, no body force, smooth initial velocity
    u1 = FeFunction.from_callable(
        mesh, lambda x, y: 0.2 * np.sin(np.pi * x / 3.0)
        * np.sin(np.pi * y / 3.0))
    state = init_state(mesh, FeFunction.zeros(mesh), u1, cfg.time.k)
    cfg.loading.eps_v = 1e-30
    e_prev = None
    worst = -np.inf
    n_steps = 0
    for n in range(2, cfg.time.n_steps + 1):
        state, _ = staggered_step(state, n * cfg.time.k, cfg)
        rep = energies(state, cfg.material)
        e = rep.kinetic + rep.strain + rep.surface
        if e_prev is not None:
            worst = max(worst, e - e_prev * (1.0 + 1e-10))
        e_prev = e
        n_steps += 1
    verdict(7, f"total energy non-increasing over {n_steps} steps "
               f"(worst overshoot {worst:.3e})",
            n_steps >= 100 and worst <= 1e-14)


# ----------------------------------------------------------------------
# 8. qualitative edge-crack reproduction
# ----------------------------------------------------------------------

def test_criterion_08_edge_crack_qualitative(desk32):
    cfg, res = desk32
    tip = np.array([cfg.mesh.slit_x_end, cfg.mesh.slit_y])
    h0 = cfg.mesh.h_initial

    # (a) damage initiates at the slit tip
    if res.first_pin is None:
        ok_a = False
        print("  (a) no pinning occurred")
    else:
        step0, coords = res.first_pin
        dist = np.linalg.norm(coords - tip, axis=1).max()
        ok_a = dist <= 2.0 * h0
        print(f"  (a) first pins (step {step0}) within {dist:.3f} of tip "
              f"(2 h0 = {2 * h0:.3f})")

    # (b) single strain peak followed by monotone-rising surface energy
    strain = np.array([rec.report.strain for rec in res.records])
    surface = np.array([rec.report.surface for rec in res.records])
    peak = int(strain.argmax())
    after = strain[peak + 5:]
    ok_b = 0 < peak < len(strain) - 10
    ok_b = ok_b and (after < strain[peak]).all()
    dsurf = np.diff(surface[peak:])
    ok_b = ok_b and (dsurf >= -1e-8 * max(1.0, surface.max())).all()
    ok_b = ok_b and surface[-1] > surface[peak]
    print(f"  (b) strain peak at step {peak + 1}/{len(strain)}, "
          f"surface rises monotonically after")

    # (c) refinement concentrates along the damage zone
    mesh = res.state.mesh
    maxlev = mesh.levels == mesh.max_levels
    vmin_patch = res.state.v.values[mesh.triangles].min(axis=1)
    frac = float((vmin_patch[maxlev] < 0.5).mean()) if maxlev.any() else 0.0
    ok_c = maxlev.any() and frac >= 0.80
    print(f"  (c) {100 * frac:.1f}% of max-level cells carry damage < 0.5")

    # initial dof count within 2x of the published 4257, and the minimum
    # diameter formula under the level cap
    mesh64 = build_initial_mesh((3.0, 3.0), (0.0, 1.5, 1.5), 64, max_levels=4)
    ok_d = 4257 / 2 <= mesh64.n_vertices <= 4257 * 2
    geo = geometry(mesh)
    h_at_cap = geo.h[maxlev]
    ok_e = maxlev.any() and np.allclose(h_at_cap.min(), cfg.mesh.h_min,
                                        rtol=1e-9)
    print(f"  initial dofs at n0=64: {mesh64.n_vertices} (published 4257); "
          f"min diameter {h_at_cap.min():.6f} vs formula {cfg.mesh.h_min:.6f}")
    verdict(8, "edge-crack qualitative reproduction (a)+(b)+(c)+counts",
            ok_a and ok_b and ok_c and ok_d and ok_e)


# ----------------------------------------------------------------------
# 9. marking correctness
# ----------------------------------------------------------------------

def test_criterion_09_marking():
    rng = np.random.default_rng(99)
    ok = True
    checked = 0
    for trial in range(60):
        n = int(rng.integers(1, 101))
        r2 = rng.uniform(0.0, 1.0, n) ** 2
        if trial % 3 == 0 and n > 4:
            r2[rng.integers(0, n, size=3)] = r2.max()   # force ties
        est = EstimatorField(r2, float(np.sqrt(r2.sum())), 0)
        theta = float(rng.uniform(0.05, 1.0))
        marked = dorfler_mark(est, theta)
        total = r2.sum()
        ok &= r2[marked].sum() >= theta * total * (1 - 1e-9)
        if marked.size:
            smallest = marked[np.argmin(r2[marked])]
            rest = np.setdiff1d(marked, [smallest])
            ok &= r2[rest].sum() < theta * total * (1 - 1e-9)
        refine, coarsen = fraction_mark(est, 0.2, 0.05)
        ok &= len(refine) == int(np.ceil(0.2 * n))
        ok &= len(coarsen) == int(np.floor(0.05 * n))
        ok &= np.intersect1d(refine, coarsen).size == 0
        checked += 1
    verdict(9, f"Dorfler minimality and fraction counts on {checked} "
               "random fields (n <= 100)", ok)


# ----------------------------------------------------------------------
# 10. determinism
# ----------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        cfg = RunConfig.with_defaults(n0=8, n_steps=12, t_final=5.0)
        cfg.output.directory = str(tmp_path / tag)
        cfg.output.snapshot_every = 4
        run(cfg)
        files = sorted((tmp_path / tag).iterdir())
        outputs.append({f.name: f.read_bytes() for f in files})
    same_names = set(outputs[0]) == set(outputs[1])
    same_bytes = same_names and all(outputs[0][k] == outputs[1][k]
                                    for k in outputs[0])
    verdict(10, f"two runs produced {len(outputs[0])} identical files "
                "(energy trace + snapshots)", same_names and same_bytes)
