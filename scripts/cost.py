"""Time the per-mesh builders, the per-step kernels and the snapshot on the
final state of a benchmark run.

    PYTHONPATH=src python3 scripts/cost.py [-n N] RUN

RUN is one of the runs of ``scripts/output_digest.py``.  The script runs it
once (outputs go to a temporary directory), then times, in this order:

- the per-mesh builders on the final mesh: ``Mesh`` (the constructor, from
  copies of the primary arrays), ``element_data``, ``unit_mass``,
  ``geometry`` and the prolongation (``mesh_prolongation``), then
  ``set-up``, the sum of these five rows, the V-cycle build (``vcycle`` for
  the unit stiffness plus mass, without pins) and ``adapt`` with the marks
  ``driver.mark_for_adaptation`` gives for the final indicator.  Every
  repetition builds on a fresh copy of the mesh that shares the run's
  initial grid, so no per-mesh cache is hit, while the grid hierarchy is,
  as in a run; what the timed builder reads is built before the clock
  starts;
- the kernels every time step evaluates, on warm per-mesh caches:
  ``element_gradients`` (of ``u``), ``reaction_weight``, ``estimate``,
  ``energies`` (with the indicator) and ``update_crack_set`` (with the
  run's crack threshold and crack set);
- the snapshot of the final state: ``make_snapshot``, ``write_snapshot``.

Each row is the minimum of N repetitions (default 30) after one warm-up, in
ms, with the mesh's dofs and triangles.  The last line gives the size of
the snapshot file.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_digest import RUNS, build  # noqa: E402  (paths, BLAS threads)
from fracture_afem import io as fio  # noqa: E402
from fracture_afem.driver import (energies,  # noqa: E402
                                  mark_for_adaptation, run)
from fracture_afem.estimator import estimate  # noqa: E402
from fracture_afem.fem import (assemble_stiffness, element_data,  # noqa: E402
                               element_gradients, unit_mass)
from fracture_afem.mesh import Mesh, adapt, geometry  # noqa: E402
from fracture_afem.multigrid import mesh_prolongation, vcycle  # noqa: E402
from fracture_afem.phasefield import (reaction_weight,  # noqa: E402
                                      update_crack_set)

def best_of(repeats, call, prepare=lambda: None):
    """The minimum over ``repeats`` calls ``call(prepare())``, after one
    warm-up, of the seconds ``call`` takes; ``prepare`` runs before the
    clock starts."""
    times = []
    for _ in range(repeats + 1):
        arg = prepare()
        t0 = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t0)
    return min(times[1:])


def primary(mesh):
    """Copies of the primary data of ``mesh``: the arguments of
    :class:`Mesh` that a checkpoint keeps, with the same grid."""
    return ((mesh.vertices.copy(), mesh.triangles.copy(), mesh.levels.copy()),
            dict(generation=mesh.generation, max_levels=mesh.max_levels,
                 child_side=mesh.child_side.copy(), grid=mesh.grid))


def builders(mesh, marks):
    """The per-mesh builders: name, call and the ``prepare`` that returns
    the call's argument, built on a fresh copy of ``mesh``."""
    def fresh(*before):
        def prepare():
            args, kwargs = primary(mesh)
            m = Mesh(*args, **kwargs)
            for builder in before:
                builder(m)
            return m
        return prepare

    def cycle_inputs():
        m = fresh(mesh_prolongation)()
        return assemble_stiffness(m, 1.0) + unit_mass(m), m

    return (
        ("Mesh", lambda p: Mesh(*p[0], **p[1]), lambda: primary(mesh)),
        ("element_data", element_data, fresh()),
        ("unit_mass", unit_mass, fresh(element_data)),
        ("geometry", geometry, fresh()),
        ("prolongation", mesh_prolongation, fresh()),
        ("V-cycle build", lambda a: vcycle(*a), cycle_inputs),
        ("adapt", lambda m: adapt(m, *marks), fresh()),
    )


def kernels(state, cfg, est, snap, directory):
    """The per-step kernels and snapshot calls on ``state``: name, call."""
    u, v, mesh, params = state.u_curr, state.v, state.mesh, cfg.material
    return (
        ("element_gradients", lambda _: element_gradients(u, mesh)),
        ("reaction_weight", lambda _: reaction_weight(u, params, mesh)),
        ("estimate", lambda _: estimate(u, v, mesh, params)),
        ("energies", lambda _: energies(state, params, est)),
        ("update_crack_set", lambda _: update_crack_set(
            v, mesh, cfg.tolerances.xi_cr, state.crack)),
        ("make_snapshot", lambda _: fio.make_snapshot(
            state, est, cfg, snap.step, snap.time)),
        ("write_snapshot", lambda _: fio.write_snapshot(snap, directory)),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("run", metavar="RUN", choices=RUNS,
                        help=f"one of {', '.join(RUNS)}")
    parser.add_argument("-n", type=int, default=30, metavar="N",
                        help="timed repetitions of each call (default 30)")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("N must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = build(args.run, Path(tmp) / args.run)
        state = run(cfg).state
        mesh = state.mesh
        est = estimate(state.u_curr, state.v, mesh, cfg.material)
        n = cfg.time.n_steps
        snap = fio.make_snapshot(state, est, cfg, n, n * cfg.time.k)
        path = fio.write_snapshot(snap, Path(tmp) / "snapshot")
        calls = (builders(mesh, mark_for_adaptation(est, cfg))
                 + kernels(state, cfg, est, snap, path.parent))
        rows = [(name, 1e3 * best_of(args.n, *call)) for name, *call in calls]
        size = path.stat().st_size
    # set-up: the five builders before the V-cycle
    rows.insert(5, ("set-up", sum(ms for _, ms in rows[:5])))
    for name, ms in rows:
        print(f"{name:<20}{ms:9.3f} ms{mesh.n_vertices:9,} dofs"
              f"{mesh.n_triangles:9,} triangles")
    print(f"{size:,} bytes")


if __name__ == "__main__":
    main()
