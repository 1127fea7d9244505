"""One measured process of the benchmark; ``run.py`` starts a fresh one per run.

    python3 perfbench/child.py setup --workload NAME --seed N --work DIR
    python3 perfbench/child.py run --workload NAME --seed N --work DIR [--trace]

``setup`` times what a user pays before the first time step: the package
import, building and validating the config and the initial mesh.  ``run``
times ``fracture_afem.driver.run(cfg)``, takes a timestamp in the public
``on_step`` callback after every step, and checks the outputs.  With
``--trace`` the run goes through :class:`tracer.Tracer` and the per-layer
metrics are added; the spans are written to ``DIR/spans.jsonl``.  The last
line of standard output is one JSON object.

The parent sets ``PYTHONPATH`` to the checkout's ``src`` and pins the BLAS
pool to one thread.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads as wls


def read_trace(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_run(wl, cfg, result, out_dir, canonical):
    """The correctness checks of one run; returns the failures found."""
    errors = []
    rows = read_trace(out_dir / "energies.csv")
    steps = [int(r["step"]) for r in rows]
    if len(rows) != cfg.time.n_steps:
        errors.append(f"energies.csv has {len(rows)} rows, "
                      f"expected {cfg.time.n_steps}")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        errors.append("energies.csv steps are not strictly increasing")
    if min(result.v_min) < 0.0 or max(result.v_max) > 1.0:
        errors.append(f"damage left [0, 1]: min {min(result.v_min)}, "
                      f"max {max(result.v_max)}")
    if result.pinned_violations:
        errors.append(f"{result.pinned_violations} steps with a pinned dof "
                      "away from 0")
    # a step whose damage solves all took the intact shortcut records nan
    stat = max((s for s in result.stationarity if s == s), default=0.0)
    if stat > wls.STATIONARITY_MAX:
        errors.append(f"worst stationarity {stat:.3e} > "
                      f"{wls.STATIONARITY_MAX:g}")
    if wl.expect == "pins" and result.summary["pinned_dofs"] == 0:
        errors.append("no crack dofs were pinned")
    if wl.expect == "refines" and \
            result.summary["final_dofs"] <= result.reports[0].n_dofs:
        errors.append(f"mesh did not refine past its initial "
                      f"{result.reports[0].n_dofs} dofs")
    if canonical:
        errors.extend(compare_reference(wl, rows))
    return errors


def compare_reference(wl, rows):
    ref = read_trace(Path(__file__).parent / "reference" / f"{wl.name}.csv")
    if [r["step"] for r in rows] != [r["step"] for r in ref]:
        return ["energy trace steps differ from the reference trace"]
    errors = []
    for col in wls.TRACE_COLUMNS:
        want = [float(r[col]) for r in ref]
        got = [float(r[col]) for r in rows]
        scale = max(abs(x) for x in want)
        worst = max(abs(a - b) for a, b in zip(got, want))
        if worst > wls.TRACE_RTOL * scale:
            errors.append(f"energy trace column {col} differs from the "
                          f"reference by {worst:.3e} (scale {scale:.3e})")
    return errors


def do_setup(wl, seed, work):
    t0 = time.perf_counter()
    cfg = wls.build_config(wl, seed, work / "out")
    cfg.validate()
    cfg.build_mesh()
    return {"setup_s": time.perf_counter() - t0}


def do_run(wl, seed, work, trace):
    from fracture_afem.driver import run

    cfg = wls.build_config(wl, seed, work / "out")
    stamps = []
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()

    def on_step(state, est, report, diag):
        stamps.append(time.perf_counter())
        if tracer is not None:
            tracer.end_step(report.step)

    if tracer is None:
        t0 = time.perf_counter()
        result = run(cfg, on_step=on_step)
        run_s = time.perf_counter() - t0
    else:
        with tracer:
            t0 = time.perf_counter()
            with tracer.span("run"):
                result = run(cfg, on_step=on_step)
            run_s = time.perf_counter() - t0
    out = {
        "run_s": run_s,
        "step_s": [b - a for a, b in zip(stamps, stamps[1:])],
        "dof_steps": sum(r.n_dofs for r in result.reports),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "errors": check_run(wl, cfg, result, Path(cfg.output.directory),
                            seed == wls.CANONICAL_SEED),
    }
    if tracer is not None:
        from tracer import layer_metrics
        tracer.write(work / "spans.jsonl")
        out["layers"] = layer_metrics(tracer.spans, tracer.steps_done)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    wl = wls.WORKLOADS[args.workload]
    try:
        if args.mode == "setup":
            out = do_setup(wl, args.seed, args.work)
        else:
            out = do_run(wl, args.seed, args.work, args.trace)
    except Exception as exc:
        traceback.print_exc()
        out = {"errors": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
