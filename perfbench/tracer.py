"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces the names that each consumer module of
``fracture_afem`` imported (``driver.step_displacement``,
``dynamics.solve_spd``, ``phasefield.assemble_stiffness``, ...) with timing
wrappers, so the per-layer numbers need no change to the package.  Spans are
kept in memory; every wrapped name is restored on exit.  A span records its
name, call site, start, end, parent span and the time-step index, which is
the id shared by all spans of one step.  Counts come from the wrapped calls'
return values: ``SolveReport.iterations``, ``Mesh.adapt_summary``, the
phase-field report's ``shortcut`` flag and ``StepDiagnostics``.

:func:`layer_metrics` turns the spans into the per-layer metrics.  A span's
self time is its duration minus the time its child spans cover, so the
layer self times plus the self time of the root ``run`` span (time in
``run`` outside every wrapped call) add up to the traced run time.

The end-to-end metric each group should move, and on which workload:

- ``linsolve.pf.*``: ``run_s`` on desk16, ``step_ms_tail`` on paper64;
  ``linsolve.wave.*``: ``step_ms_p50`` on paper64;
- ``fem.*``: ``run_s`` and ``step_ms_p50`` on desk32; caches also show in
  ``peak_rss_mb`` on paper64;
- ``mesh.adapt.*``: ``run_s`` on desk16 and paper64, no change on desk32;
  ``mesh.build.s``: ``setup_s`` on paper64;
- ``dynamics.step.*``: ``step_ms_p50`` on paper64 and desk32;
- ``phasefield.*``: ``run_s`` on desk16 and desk32;
- ``estimator.*``: ``step_ms_p50`` on desk32 and paper64;
- ``driver.*``: ``run_s`` on desk16;
- ``io.*``: ``run_s`` on paper64 only (the desk workloads write no
  snapshots).

desk32 is not in ``BENCHMARK.json`` (see ``workloads.py``); its predictions
are checked by running it by name.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("mesh", "fem", "linsolve", "dynamics", "phasefield", "estimator",
          "driver", "io")

# (consumer module, imported name, span name); the layer of a span is the
# first component of its name
SITES = (
    ("driver", "build_initial_mesh", "mesh.build"),
    ("driver", "adapt", "mesh.adapt"),
    ("driver", "geometry", "mesh.geometry"),
    ("estimator", "geometry", "mesh.geometry"),
    ("driver", "assemble_mass", "fem.assemble"),
    ("driver", "assemble_stiffness", "fem.assemble"),
    ("dynamics", "assemble_mass", "fem.assemble"),
    ("dynamics", "assemble_stiffness", "fem.assemble"),
    ("phasefield", "assemble_mass", "fem.assemble"),
    ("phasefield", "assemble_stiffness", "fem.assemble"),
    ("phasefield", "weighted_mass", "fem.assemble"),
    ("dynamics", "apply_dirichlet", "fem.dirichlet"),
    ("phasefield", "apply_dirichlet", "fem.dirichlet"),
    ("driver", "transfer", "fem.transfer"),
    ("phasefield", "transfer_pinned", "fem.transfer"),
    ("phasefield", "element_gradients", "fem.gradients"),
    ("estimator", "element_gradients", "fem.gradients"),
    ("dynamics", "solve_spd", "linsolve.wave"),
    ("phasefield", "solve_spd", "linsolve.pf"),
    ("driver", "init_state", "dynamics.init"),
    ("driver", "step_displacement", "dynamics.step"),
    ("driver", "solve_phasefield", "phasefield.solve"),
    ("driver", "clamp_and_threshold", "phasefield.clamp"),
    ("driver", "update_crack_set", "phasefield.crack"),
    ("driver", "estimate", "estimator.estimate"),
    ("driver", "mark_for_adaptation", "estimator.mark"),
    ("driver", "staggered_step", "driver.staggered"),
    ("driver", "adapt_step", "driver.adapt_step"),
    ("driver", "transfer_state", "driver.transfer_state"),
    ("driver", "build_dirichlet", "driver.dirichlet"),
    ("driver", "energies", "driver.energies"),
    # the driver reaches the writers through the module (``fio.*``)
    ("io", "prepare_output", "io.prepare"),
    ("io", "make_snapshot", "io.snapshot"),
    ("io", "write_snapshot", "io.snapshot"),
    ("io", "write_energy_trace", "io.csv"),
)


def _counts(name, args, out):
    """Counters of one call, read from its arguments and return value."""
    if name.startswith("linsolve."):
        report = out[1]
        return {"iters": report.iterations, "nnz": int(args[0].nnz),
                "converged": bool(report.converged)}
    if name == "mesh.adapt":
        s = out.adapt_summary
        return {"requested_refine": s.requested_refine, "refined": s.refined,
                "requested_coarsen": s.requested_coarsen,
                "coarsened": s.coarsened_pairs}
    if name == "phasefield.solve":
        return {"shortcut": bool(out[1]["shortcut"])}
    if name == "phasefield.crack":
        return {"pins": int(out.ids.size)}
    if name == "driver.staggered":
        state, diag = out
        return {"inner": diag.inner_iterations, "converged": diag.converged,
                "dofs": state.mesh.n_vertices}
    if name == "driver.adapt_step":
        return {"adapted": out is not None}
    if name in ("io.snapshot", "io.csv") and isinstance(out, Path):
        return {"bytes": out.stat().st_size}    # the writers return the file
    return None


class Tracer:
    """Context manager that wraps :data:`SITES` and records spans."""

    def __init__(self):
        self.spans = []
        self.step = 1           # index of the time step in progress
        self.steps_done = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        try:
            for mod_name, attr, name in SITES:
                mod = importlib.import_module(f"fracture_afem.{mod_name}")
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr,
                        self._wrap(original, name, f"{mod_name}.{attr}"))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def end_step(self, step):
        """Call from ``on_step``: step ``step`` is complete."""
        self.step = step + 1
        self.steps_done += 1

    @contextmanager
    def span(self, name, site=None):
        rec = {"id": len(self.spans), "name": name, "site": site or name,
               "parent": self._stack[-1] if self._stack else None,
               "step": self.step, "start": time.perf_counter(), "end": None,
               "counts": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, site):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, site) as rec:
                out = fn(*args, **kwargs)
            rec["counts"] = _counts(name, args, out)
            return out
        return traced

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Self time of every span, indexed like ``spans``."""
    own = [rec["end"] - rec["start"] for rec in spans]
    for rec in spans:
        if rec["parent"] is not None:
            own[rec["parent"]] -= rec["end"] - rec["start"]
    return own


def layer_metrics(spans, steps):
    """Per-layer metrics of one traced run whose root span is ``run``.

    ``steps`` is the number of completed time steps of the run loop.  Ratios
    whose base is zero (no coarsening requested, no damage solve) read 0.
    """
    own = self_times(spans)
    by_name = {}
    for rec, s in zip(spans, own):
        by_name.setdefault(rec["name"], []).append((rec, s))

    def group(name):
        return by_name.get(name, [])

    def calls(name):
        return len(group(name))

    def total(name):
        return sum(rec["end"] - rec["start"] for rec, _ in group(name))

    def own_total(name):
        return sum(s for _, s in group(name))

    def count_sum(name, key):
        return sum(rec["counts"][key] for rec, _ in group(name)
                   if rec["counts"] is not None)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for kind in ("pf", "wave"):
        g = f"linsolve.{kind}"
        m[f"{g}.calls"] = calls(g)
        m[f"{g}.iters"] = count_sum(g, "iters")
        m[f"{g}.s"] = total(g)
    m["linsolve.pf.iters_per_solve"] = ratio(m["linsolve.pf.iters"],
                                             m["linsolve.pf.calls"])
    m["linsolve.pf.nnz_iters"] = sum(rec["counts"]["nnz"]
                                     * rec["counts"]["iters"]
                                     for rec, _ in group("linsolve.pf"))
    m["linsolve.failed"] = sum(
        1 for g in ("linsolve.pf", "linsolve.wave") for rec, _ in group(g)
        if rec["counts"] is None or not rec["counts"]["converged"])

    for g in ("fem.assemble", "fem.dirichlet", "fem.transfer"):
        m[f"{g}.calls"] = calls(g)
        m[f"{g}.s"] = total(g)

    m["mesh.adapt.calls"] = calls("mesh.adapt")
    m["mesh.adapt.s"] = total("mesh.adapt")
    m["mesh.refine_yield"] = ratio(count_sum("mesh.adapt", "refined"),
                                   count_sum("mesh.adapt", "requested_refine"))
    m["mesh.coarsen_yield"] = ratio(
        count_sum("mesh.adapt", "coarsened"),
        count_sum("mesh.adapt", "requested_coarsen"))
    staggered = group("driver.staggered")
    m["mesh.final_dofs"] = staggered[-1][0]["counts"]["dofs"] \
        if staggered else 0
    m["mesh.build.s"] = total("mesh.build")

    m["dynamics.step.calls"] = calls("dynamics.step")
    m["dynamics.step.s"] = total("dynamics.step")
    m["dynamics.step.self_s"] = own_total("dynamics.step")

    m["phasefield.solve.calls"] = calls("phasefield.solve")
    m["phasefield.solve.s"] = total("phasefield.solve")
    m["phasefield.solve.self_s"] = own_total("phasefield.solve")
    m["phasefield.shortcut_frac"] = ratio(
        count_sum("phasefield.solve", "shortcut"), calls("phasefield.solve"))
    m["phasefield.crack.s"] = total("phasefield.crack")
    crack = group("phasefield.crack")
    m["phasefield.pins"] = crack[-1][0]["counts"]["pins"] if crack else 0

    m["estimator.estimate.calls"] = calls("estimator.estimate")
    m["estimator.estimate.s"] = total("estimator.estimate")
    m["estimator.mark.s"] = total("estimator.mark")

    m["driver.steps"] = steps
    m["driver.resolve_frac"] = ratio(count_sum("driver.adapt_step", "adapted"),
                                     steps)
    m["driver.inner_iters"] = count_sum("driver.staggered", "inner")
    m["driver.unconverged"] = sum(1 for rec, _ in staggered
                                  if not rec["counts"]["converged"])
    m["driver.energies.s"] = total("driver.energies")
    m["driver.staggered.self_s"] = own_total("driver.staggered")

    snaps = [rec for rec, _ in group("io.snapshot")
             if rec["counts"] is not None]
    m["io.snapshot.calls"] = len(snaps)
    m["io.snapshot.s"] = total("io.snapshot")
    m["io.snapshot.bytes"] = sum(rec["counts"]["bytes"] for rec in snaps)
    m["io.csv.s"] = total("io.csv")
    m["io.csv.bytes"] = count_sum("io.csv", "bytes")

    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            s for rec, s in zip(spans, own)
            if rec["name"].split(".")[0] == layer)
    m["trace.untraced_s"] = own_total("run")
    m["trace.run_s"] = total("run")
    return m
