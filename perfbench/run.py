"""End-to-end and per-layer benchmark of fracture-afem.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk16 --seed 0 --seconds 45 --trace 0

Every run of the workload happens in a fresh child process (``child.py``)
that imports the package from ``src/`` with the BLAS pool pinned to one
thread.  Children are started one after another until ``--seconds`` is
spent, and at least ``MIN_RUNS`` times.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

- ``run_s``: median wall time of ``run(cfg)``;
- ``setup_s``: median over ``SETUP_RUNS`` fresh processes of package import,
  config build and validation and the initial mesh build;
- ``step_ms_p50`` and ``step_ms_tail``: median and the workload's fixed
  high percentile of the per-step wall times of all runs, taken between
  consecutive ``on_step`` callbacks;
- ``dof_steps_per_s``: sum over steps of the dof count, divided by
  ``run_s`` (median over runs);
- ``peak_rss_mb``: peak resident memory of a child (median over runs).

``--trace 1`` alternates an untraced and a traced child and reports the
per-layer metrics of ``tracer.layer_metrics`` (median over traced runs)
plus ``trace.overhead_s``, the traced minus the untraced run time.

Every run is checked (``child.check_run``); a run that raises or fails a
check counts in ``failed``, and ``failed / attempted`` is the failure
fraction.  The last line of standard output is the JSON result; the lines
before it print each metric with its unit.  The full record, with the
environment (commit, Python/numpy/scipy versions, BLAS configuration,
thread settings, ``nproc``) and the raw per-run numbers, goes to
``.perfbench_work/<workload>-trace<0|1>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SRC = ROOT / "src"

MIN_RUNS = 3            # untraced runs per benchmark run; one pair when traced
SETUP_RUNS = 7          # measured set-up processes, after one warm-up
DEADLINE_S = 170.0      # the whole benchmark run must end within 180 s

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "step_ms_p50": "ms",
                    "step_ms_tail": "ms", "dof_steps_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_frac", "_yield", "_per_solve")):
        return "ratio"
    if name == "mesh.final_dofs":
        return "dofs"
    return "count"


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class Children:
    """Starts the child processes of one benchmark run and keeps their output."""

    def __init__(self, wl, seed, deadline):
        self.wl = wl
        self.seed = seed
        self.deadline = deadline
        self.count = 0

    def start(self, mode, trace=False):
        self.count += 1
        work = WORK / f"{self.wl.name}-{os.getpid()}-{self.count}"
        work.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               "--workload", self.wl.name, "--seed", str(self.seed),
               "--work", str(work)]
        if trace:
            cmd.append("--trace")
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=timeout)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0:
                out.setdefault("errors", []).append(
                    f"child exited with code {proc.returncode}")
        except subprocess.TimeoutExpired:
            out = {"errors": [f"{mode} child timed out after {timeout:.0f} s"]}
        except (ValueError, IndexError):
            out = {"errors": [f"{mode} child printed no result: "
                              + proc.stderr.strip()[-2000:]]}
        if trace and (work / "spans.jsonl").exists():
            (work / "spans.jsonl").replace(WORK / f"{self.wl.name}.spans.jsonl")
        shutil.rmtree(work, ignore_errors=True)
        if out.get("errors"):
            sys.stderr.write(f"{mode} run failed: {out['errors']}\n")
        return out


def measure(children, seconds, trace):
    """Untraced runs (or untraced/traced pairs) until ``seconds`` is spent."""
    runs, traced = [], []
    min_rounds = 1 if trace else MIN_RUNS
    t0 = time.monotonic()
    rounds = 0
    while True:
        runs.append(children.start("run"))
        if trace:
            traced.append(children.start("run", trace=True))
        rounds += 1
        elapsed = time.monotonic() - t0
        per_round = elapsed / rounds
        if rounds >= min_rounds and elapsed + per_round > seconds:
            break
        if time.monotonic() + per_round > children.deadline:
            break
    return runs, traced


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(wl, runs, setups):
    ok = [r for r in runs if not r.get("errors")]
    steps = [s for r in ok for s in r["step_s"]]
    tail = percentile(steps, wl.tail_pct) * 1e3
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in ok),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "step_ms_p50": statistics.median(steps) * 1e3,
        "step_ms_tail": tail,
        "dof_steps_per_s": statistics.median(r["dof_steps"] / r["run_s"]
                                             for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    notes = {"step_samples": len(steps), "tail_pct": wl.tail_pct,
             "tail_beyond": sum(1 for s in steps if s * 1e3 > tail)}
    return metrics, notes


def per_layer(runs, traced):
    ok = [r for r in traced if not r.get("errors")]
    names = ok[0]["layers"]
    metrics = {name: statistics.median(r["layers"][name] for r in ok)
               for name in names}
    plain = [r["run_s"] for r in runs if not r.get("errors")]
    metrics["trace.overhead_s"] = statistics.median(
        r["run_s"] for r in ok) - statistics.median(plain)
    return metrics


def environment():
    def show(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except Exception as exc:        # the config layout varies by version
            return f"unavailable ({exc})"

    import numpy
    import scipy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": show(numpy), "scipy_blas": show(scipy),
            "thread_env": THREAD_ENV, "nproc": os.cpu_count(),
            "platform": platform.platform()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "fracture_afem" / "__init__.py").is_file():
        sys.stderr.write(f"no fracture_afem sources under {SRC}; run from the "
                         "root of a fracture-afem checkout\n")
        return 2

    wl = wls.WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    children = Children(wl, args.seed, deadline)
    WORK.mkdir(exist_ok=True)
    setups = []
    if not args.trace:
        children.start("setup")                 # warm-up: bytecode, file cache
        setups = [children.start("setup") for _ in range(SETUP_RUNS)]
    runs, traced = measure(children, args.seconds, args.trace)

    attempted = len(runs) + len(traced)
    failed = sum(1 for r in runs + traced if r.get("errors"))
    setup_failed = any(s.get("errors") for s in setups)
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "eps_v_factor": wls.eps_v_factor(args.seed),
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(), "runs": runs, "traced": traced,
              "setups": setups}
    usable = not setup_failed and any(not r.get("errors") for r in runs) \
        and (not args.trace or any(not r.get("errors") for r in traced))
    if not usable:
        record["metrics"] = {}
    elif args.trace:
        record["metrics"] = per_layer(runs, traced)
    else:
        record["metrics"], record["notes"] = end_to_end(wl, runs, setups)
    (WORK / f"{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    if not usable:
        sys.stderr.write("no run passed its checks; no result\n")
        return 1

    env = record["env"]
    print(f"# {wl.name} seed {args.seed} (eps_v x {record['eps_v_factor']:.4f})"
          f": {wl.why}")
    print(f"# commit {env['commit']}, python {env['python']}, numpy "
          f"{env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, "
          f"{' '.join(f'{k}={v}' for k, v in THREAD_ENV.items())}")
    units = {}
    for name, value in record["metrics"].items():
        units[name] = layer_unit(name) if args.trace \
            else END_TO_END_UNITS[name]
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':32s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} runs)")
    if not args.trace:
        n = record["notes"]
        print(f"# step_ms_tail is p{n['tail_pct']} of {n['step_samples']} "
              f"step samples, {n['tail_beyond']} beyond it")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
