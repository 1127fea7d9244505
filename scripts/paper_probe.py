"""Run the first N steps of the published edge-crack experiment and print
where the time goes, phase by phase.

    PYTHONPATH=src python3 scripts/paper_probe.py [N]

The run is ``RunConfig.with_defaults(n_steps=N, t_final=N * 5 / 1600)``:
the published ``n0 = 64`` mesh with ``max_levels = 4`` at the published
time step ``k = 5/1600`` (default ``N = 1600``, the whole run).  Every
derived parameter follows the mesh alone, and the ramp end ``t_g =
t_final`` is never passed inside the window, so the run is an exact prefix
of the 1600-step one.

Consecutive steps of the same kind (intact shortcut, adapted, or kept
mesh) and the same number of staggered iterations form a phase; a phase
shorter than ``MIN_PHASE_STEPS`` joins the one before it.  Each row gives the
step range, the dofs at its first and last step, the wall time between
``on_step`` callbacks (the first row also holds the set-up and step 1),
the wave and damage conjugate-gradient iterations, including the solves an
adaptation replaced, and the damage iterations per staggered iteration
(each staggered iteration makes one damage solve, or takes the intact
shortcut).  The run's output files go to a temporary directory.
"""

from __future__ import annotations

import argparse
import tempfile
import time

from fracture_afem.driver import RunConfig, run

PUBLISHED_STEPS = 1600
PUBLISHED_T_FINAL = 5.0
MIN_PHASE_STEPS = 10


def step_row(n, seconds, record):
    """The per-step numbers a phase sums, from the step's record."""
    first = record.first_solve or {"inner_iterations": 0,
                                   "wave_iterations": 0, "pf_iterations": 0}
    kind = ("intact" if record.shortcut
            else "adapted" if record.adapt is not None else "kept mesh")
    return {"step": n, "seconds": seconds, "dofs": record.report.n_dofs,
            "kind": kind, "inner": record.inner_iterations,
            "staggered": record.inner_iterations + first["inner_iterations"],
            "wave": record.wave_iterations + first["wave_iterations"],
            "pf": record.pf_iterations + first["pf_iterations"]}


def phases(rows, min_steps):
    """Group consecutive rows by (kind, inner iterations); a group shorter
    than ``min_steps`` is merged into the group before it."""
    groups = []
    for row in rows:
        key = (row["kind"], row["inner"])
        if groups and groups[-1][0] == key:
            groups[-1][1].append(row)
        else:
            groups.append((key, [row]))
    merged = []
    for key, members in groups:
        if merged and len(members) < min_steps:
            merged[-1][1].extend(members)
        elif merged and merged[-1][0] == key:
            merged[-1][1].extend(members)
        else:
            merged.append((key, list(members)))
    return [members for _, members in merged]


def describe(members):
    kinds = sorted({m["kind"] for m in members})
    inner = sorted({m["inner"] for m in members})
    span = (f"{inner[0]}" if len(inner) == 1
            else f"{inner[0]}-{inner[-1]}")
    return f"{'/'.join(kinds)}, {span} inner"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n_steps", nargs="?", type=int,
                        default=PUBLISHED_STEPS)
    args = parser.parse_args(argv)

    n = args.n_steps
    cfg = RunConfig.with_defaults(
        n_steps=n, t_final=n * PUBLISHED_T_FINAL / PUBLISHED_STEPS)
    rows = []
    stamp = [0.0]

    def on_step(state, est, report, record):
        now = time.perf_counter()
        rows.append(step_row(report.step, now - stamp[0], record))
        stamp[0] = now

    with tempfile.TemporaryDirectory() as tmp:
        cfg.output.directory = tmp
        stamp[0] = time.perf_counter()
        result = run(cfg, on_step=on_step)

    print(f"{'steps':>11} {'dofs':>15} {'wall s':>8} {'s/step':>7} "
          f"{'wave CG':>8} {'damage CG':>9} {'per stag':>8}  phase")
    for members in phases(rows, MIN_PHASE_STEPS):
        first, last = members[0], members[-1]
        wall = sum(m["seconds"] for m in members)
        pf = sum(m["pf"] for m in members)
        print(f"{first['step']:>5}-{last['step']:<5} "
              f"{first['dofs']:>7}-{last['dofs']:<7} {wall:>8.2f} "
              f"{wall / len(members):>7.3f} "
              f"{sum(m['wave'] for m in members):>8} "
              f"{pf:>9} "
              f"{pf / sum(m['staggered'] for m in members):>8.1f}  "
              f"{describe(members)}")
    s = result.summary
    print(f"total {sum(m['seconds'] for m in rows):.2f} s over steps 2-{n}; "
          f"{s['final_dofs']} dofs and {s['pinned_dofs']} pinned dofs at "
          f"the end; {s['warnings']} warnings")


if __name__ == "__main__":
    main()
