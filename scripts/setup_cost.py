"""Time each per-mesh builder, and one adaptation, on the final mesh of a
benchmark run.

    PYTHONPATH=src python3 scripts/setup_cost.py [-n N] RUN

RUN is ``desk16``, ``paper64`` or ``determinism``, with the configs of
``scripts/output_digest.py``.  The script runs it once (outputs go to a
temporary directory), then times each builder of the per-mesh data on the
run's final mesh:

- ``Mesh``: the constructor, from copies of the mesh's primary arrays
  (edges, areas, boundary labels, the validation and the check of the
  newest-vertex level rule);
- ``element_data``, ``unit_mass``, ``geometry`` (the geometry of the
  residual indicator) and the multigrid prolongation
  (``mesh_prolongation``);
- the V-cycle build: ``vcycle`` for the unit stiffness plus mass, without
  pins;
- ``adapt``: ``mesh.adapt`` with the marks ``driver.mark_for_adaptation``
  gives for the indicator of the run's final state.

Every repetition times one builder on a fresh copy of the mesh that
shares the run's initial grid, so no per-mesh cache is hit, while the
grid hierarchy is, as in a run; the builders the timed one reads are
built before the clock starts.  Each row is the minimum of N repetitions
(default 30) after one warm-up, in ms; ``set-up`` sums the first five rows,
all but the V-cycle and the adaptation.  The last two columns are the
mesh's dofs and triangles.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_digest import build  # noqa: E402  (sets paths, BLAS threads)
from fracture_afem.driver import mark_for_adaptation, run  # noqa: E402
from fracture_afem.estimator import estimate  # noqa: E402
from fracture_afem.fem import (assemble_stiffness, element_data,  # noqa: E402
                               unit_mass)
from fracture_afem.mesh import Mesh, adapt, geometry  # noqa: E402
from fracture_afem.multigrid import mesh_prolongation, vcycle  # noqa: E402

RUNS = ("desk16", "paper64", "determinism")


def primary(mesh):
    """Copies of the primary data of ``mesh``: the arguments of
    :class:`Mesh` that a checkpoint keeps, with the same grid."""
    return ((mesh.vertices.copy(), mesh.triangles.copy(), mesh.levels.copy()),
            dict(generation=mesh.generation, max_levels=mesh.max_levels,
                 child_side=mesh.child_side.copy(), grid=mesh.grid))


def copy(mesh):
    """A new mesh built from the primary data of ``mesh``; it shares no
    per-mesh cache."""
    args, kwargs = primary(mesh)
    return Mesh(*args, **kwargs)


def _cycle_inputs(m):
    """The system of the V-cycle, with the prolongation built first."""
    mesh_prolongation(m)
    return (assemble_stiffness(m, 1.0) + unit_mass(m),)


# name, what is built before the clock starts (the extra arguments of the
# timed builder), the timed builder
BUILDERS = (
    ("Mesh", primary, lambda m, args, kwargs: Mesh(*args, **kwargs)),
    ("element_data", lambda m: (), element_data),
    ("unit_mass", lambda m: (element_data(m),), lambda m, _: unit_mass(m)),
    ("geometry", lambda m: (), geometry),
    ("prolongation", lambda m: (), mesh_prolongation),
    ("V-cycle build", _cycle_inputs, lambda m, A: vcycle(A, m)),
)
SETUP_ROWS = 5                  # the rows before the V-cycle


def time_builder(mesh, prepare, builder, repeats):
    """The minimum over ``repeats`` fresh copies of ``mesh``, after one
    warm-up, of the seconds ``builder`` takes on a copy."""
    times = []
    for _ in range(repeats + 1):
        m = copy(mesh)
        args = prepare(m)
        t0 = time.perf_counter()
        builder(m, *args)
        times.append(time.perf_counter() - t0)
    return min(times[1:])


def final_run(name):
    """The last mesh of the run ``name`` and the refine and coarsen marks
    of its final state."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = build(name, Path(tmp) / name)
        state = run(cfg).state
    est = estimate(state.u_curr, state.v, state.mesh, cfg.material)
    return state.mesh, mark_for_adaptation(est, cfg)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("run", metavar="RUN", choices=RUNS,
                        help=f"one of {', '.join(RUNS)}")
    parser.add_argument("-n", type=int, default=30, metavar="N",
                        help="timed repetitions per builder (default 30)")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("N must be at least 1")
    mesh, marks = final_run(args.run)
    builders = BUILDERS + (("adapt", lambda m: marks, adapt),)
    rows = [(name, 1e3 * time_builder(mesh, prepare, builder, args.n))
            for name, prepare, builder in builders]
    rows.insert(SETUP_ROWS, ("set-up", sum(ms for _, ms in
                                            rows[:SETUP_ROWS])))
    for name, ms in rows:
        print(f"{name:<20}{ms:9.3f} ms{mesh.n_vertices:9,} dofs"
              f"{mesh.n_triangles:9,} triangles")


if __name__ == "__main__":
    main()
