"""Benchmark workloads: deterministic run configs built from a seed.

The program only ever sees the ``RunConfig`` built here.  Seed 0 is the
canonical seed and reproduces the configs below exactly; any other seed
scales the loading amplitude ``eps_v`` by a factor drawn uniformly from
``[1 - EPS_V_JITTER, 1 + EPS_V_JITTER]``, so a claim can be confirmed on
inputs that were not used while writing it.  Runs on a non-canonical seed
are checked against the invariants only, not against the reference traces.

This module imports nothing from the package at import time, so that the
set-up measurement in ``child.py`` includes the package import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CANONICAL_SEED = 0
EPS_V_JITTER = 0.02

# Energy columns of ``energies.csv`` compared against the reference trace
# recorded from the seed commit; each may differ by at most TRACE_RTOL times
# the largest magnitude that column reaches in the reference.
TRACE_COLUMNS = ("time", "kinetic", "strain", "surface", "total")
TRACE_RTOL = 1e-6

# Bound of acceptance criterion 3 on the worst stationarity residual.
STATIONARITY_MAX = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n0: int
    n_steps: int
    t_final: float
    strategy: str
    snapshot_every: int
    # step_ms_tail percentile: the highest one with at least ten step
    # samples beyond it when only the minimum number of runs completes
    tail_pct: int
    # invariant the run must show besides the common ones: "refines"
    # (final mesh has more dofs than the initial one) or "pins" (the crack
    # set is non-empty at the end)
    expect: str


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="desk16",
            why="first 100 steps of the n0=16 fixture: 80 of 99 steps adapt "
                "and are solved twice, from step 83 on with 5 staggered "
                "iterations; phase-field CG, assembly and adapt dominate",
            n0=16, n_steps=100, t_final=2.5, strategy="fraction",
            snapshot_every=0, tail_pct=96, expect="refines"),
        # Not in BENCHMARK.json: about half of its steps are intact
        # shortcut steps, so the step-time median falls between the two
        # step-cost modes and spread by 27% (IQR / median) over ten seeds.
        # It stays runnable by name for the pinned-Dirichlet path.
        Workload(
            name="desk32",
            why="n0=32 threshold fixture plus 40 steps: 40 adaptations in 520"
                " steps, systems of at most 1.2k dofs reused for many steps, "
                "crack pins; per-call costs show, adapt does not",
            n0=32, n_steps=520, t_final=6.5, strategy="threshold",
            snapshot_every=0, tail_pct=99, expect="pins"),
        Workload(
            name="paper64",
            why="published n0=64 mesh, 40 steps with VTK snapshots: 28 intact"
                " wave-only steps, then refinement to 26k dofs; CG, adapt, "
                "assembly and output all weigh in",
            n0=64, n_steps=40, t_final=2.0, strategy="fraction",
            snapshot_every=5, tail_pct=91, expect="refines"),
    )
}


def eps_v_factor(seed):
    """Loading-amplitude scale of a workload seed (1 for the canonical one)."""
    if seed == CANONICAL_SEED:
        return 1.0
    return 1.0 + random.Random(seed).uniform(-EPS_V_JITTER, EPS_V_JITTER)


def build_config(wl, seed, out_dir):
    """The run config of workload ``wl`` on ``seed``, writing to ``out_dir``.

    The time step of every window equals that of the fixture it is cut from
    (``t_final / n_steps``), and the ramp never reaches ``t_g``, so a window
    reproduces the first ``n_steps`` steps of the full run.
    """
    from fracture_afem.driver import RunConfig

    cfg = RunConfig.with_defaults(n0=wl.n0, n_steps=wl.n_steps,
                                  t_final=wl.t_final)
    cfg.marking.strategy = wl.strategy
    cfg.output.snapshot_every = wl.snapshot_every
    cfg.output.directory = str(out_dir)
    cfg.loading.eps_v *= eps_v_factor(seed)
    return cfg
