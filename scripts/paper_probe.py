"""Run the first N steps of the published edge-crack experiment and print
where the time goes, phase by phase.

    PYTHONPATH=src python3 scripts/paper_probe.py [--uniform] [N]

The run is ``RunConfig.with_defaults(n_steps=N, t_final=N * 5 / 1600)``:
the published ``n0 = 64`` mesh with ``max_levels = 4`` at the published
time step ``k = 5/1600`` (default ``N = 1600``, the whole run).  Every
derived parameter follows the mesh alone, and the ramp end ``t_g =
t_final`` is never passed inside the window, so the run is an exact prefix
of the 1600-step one.  The window must reach past the ramp's switch time
``t_s = 0.5``, so ``N`` must exceed 160; a smaller ``N`` is a usage error
(exit status 2), as is any other ``N`` the run config refuses.

``--uniform`` runs the uniform reference over the same window instead:
``UNIFORM``, the ``n0 = 256`` grid at the adaptive run's finest mesh size
``h_min`` (so the same regularization length, density and viscosity),
never refined (``max_levels = 0``) and never coarsened (``xi_rf = 1e9``
marks nothing).

Consecutive steps of the same kind (intact shortcut, adapted, or kept
mesh), the same number of staggered iterations and the same median cell
level form a phase; consecutive phases shorter than ``MIN_PHASE_STEPS``
are pooled into one, and a pool still that short joins the phase before
it.  Each row gives the step range, the dofs at its first and last
step, the wall time between ``on_step`` callbacks (the first row also
holds the set-up and step 1), the wave and damage conjugate-gradient
iterations, including the solves an adaptation replaced, and the wave and
damage iterations per staggered iteration (each staggered iteration makes
one wave solve and one damage solve, or takes the intact shortcut), and
the V-cycles built per step (``StepRecord.cycle_builds``, damage and wave,
both solves of an adapted step).  The run's output files go to a temporary
directory.
"""

from __future__ import annotations

import argparse
import tempfile
import time

import numpy as np

from fracture_afem.driver import RunConfig, StepRecord, run

PUBLISHED_STEPS = 1600
PUBLISHED_T_FINAL = 5.0
MIN_PHASE_STEPS = 10
# the uniform reference: the adaptive run's finest mesh everywhere
UNIFORM = {"n0": 256, "max_levels": 0, "xi_rf": 1e9}


def step_row(n, seconds, record, level):
    """The per-step numbers a phase sums, from the step's record and the
    median cell level ``level`` of its mesh."""
    first = record.first_solve or StepRecord()
    kind = ("intact" if record.shortcut
            else "adapted" if record.adapt is not None else "kept mesh")
    return {"step": n, "seconds": seconds, "dofs": record.report.n_dofs,
            "kind": kind, "inner": record.inner_iterations, "level": level,
            "staggered": record.inner_iterations + first.inner_iterations,
            "wave": record.wave_iterations + first.wave_iterations,
            "pf": record.pf_iterations + first.pf_iterations,
            "builds": record.cycle_builds + first.cycle_builds}


def phases(rows, min_steps):
    """Group consecutive rows by (kind, inner iterations, median cell
    level).  A run of consecutive groups shorter than ``min_steps``, such
    as a refinement burst that passes a level every few steps, is pooled
    into one group; a pool still shorter than ``min_steps`` is merged into
    the group before it, and so is a group with the same key as that one."""
    groups = []
    for row in rows:
        key = (row["kind"], row["inner"], row["level"])
        if groups and groups[-1][0] == key:
            groups[-1][1].append(row)
        else:
            groups.append((key, [row]))
    pooled = []                 # a pool has no key
    for key, members in groups:
        if len(members) < min_steps:
            if pooled and pooled[-1][0] is None:
                pooled[-1][1].extend(members)
            else:
                pooled.append((None, list(members)))
        else:
            pooled.append((key, members))
    merged = []
    for key, members in pooled:
        if merged and (len(members) < min_steps or merged[-1][0] == key):
            merged[-1][1].extend(members)
        else:
            merged.append((key, list(members)))
    return [members for _, members in merged]


def _span(values):
    values = sorted(set(values))
    return (f"{values[0]}" if len(values) == 1
            else f"{values[0]}-{values[-1]}")


def describe(members):
    kinds = sorted({m["kind"] for m in members})
    return (f"{'/'.join(kinds)}, {_span(m['inner'] for m in members)} "
            f"inner, level {_span(m['level'] for m in members)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n_steps", nargs="?", type=int, metavar="N",
                        default=PUBLISHED_STEPS,
                        help="steps to run, more than 160 (default 1600)")
    parser.add_argument("--uniform", action="store_true",
                        help="run the uniform n0 = 256 reference instead")
    args = parser.parse_args(argv)

    n = args.n_steps
    try:
        cfg = RunConfig.with_defaults(
            n_steps=n, t_final=n * PUBLISHED_T_FINAL / PUBLISHED_STEPS,
            **(UNIFORM if args.uniform else {}))
    except ValueError as exc:
        parser.error(f"N = {n} steps give no valid run: {exc}")
    rows = []
    stamp = [0.0]

    def on_step(state, est, report, record):
        now = time.perf_counter()
        rows.append(step_row(report.step, now - stamp[0], record,
                             int(np.median(state.mesh.levels))))
        stamp[0] = now

    with tempfile.TemporaryDirectory() as tmp:
        cfg.output.directory = tmp
        stamp[0] = time.perf_counter()
        result = run(cfg, on_step=on_step)

    print(f"{'steps':>11} {'dofs':>15} {'wall s':>8} {'s/step':>7} "
          f"{'wave CG':>8} {'damage CG':>9} {'wave/st':>7} {'dmg/st':>6} "
          f"{'cyc/step':>8}  phase")
    for members in phases(rows, MIN_PHASE_STEPS):
        first, last = members[0], members[-1]
        wall = sum(m["seconds"] for m in members)
        wave = sum(m["wave"] for m in members)
        pf = sum(m["pf"] for m in members)
        staggered = sum(m["staggered"] for m in members)
        builds = sum(m["builds"] for m in members)
        print(f"{first['step']:>5}-{last['step']:<5} "
              f"{first['dofs']:>7}-{last['dofs']:<7} {wall:>8.2f} "
              f"{wall / len(members):>7.3f} {wave:>8} {pf:>9} "
              f"{wave / staggered:>7.1f} {pf / staggered:>6.1f} "
              f"{builds / len(members):>8.2f}  {describe(members)}")
    s = result.summary
    print(f"total {sum(m['seconds'] for m in rows):.2f} s over steps 2-{n}; "
          f"{s['final_dofs']} dofs and {s['pinned_dofs']} pinned dofs at "
          f"the end; {s['warnings']} warnings")


if __name__ == "__main__":
    main()
