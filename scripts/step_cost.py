"""Time each per-step kernel on the final state of a benchmark run.

    PYTHONPATH=src python3 scripts/step_cost.py [-n N] RUN

RUN is one of the runs of ``scripts/output_digest.py``.  The script runs it
once (outputs go to a temporary directory), then times, on the run's final
state, the kernels every time step evaluates: ``fem.element_gradients``
(of ``u``), ``phasefield.reaction_weight``, ``estimator.estimate``,
``driver.energies`` (with the indicator, as the run reports it) and
``phasefield.update_crack_set`` (with the run's crack threshold and crack
set).  The per-mesh caches are built before the clock starts, as in a run
after a step's first solve.  Each row is the minimum of N repetitions
(default 30) after one warm-up, in ms, with the mesh's dofs and triangles.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_digest import RUNS, build  # noqa: E402  (paths, BLAS threads)
from snapshot_cost import best_of  # noqa: E402
from fracture_afem.driver import energies, run  # noqa: E402
from fracture_afem.estimator import estimate  # noqa: E402
from fracture_afem.fem import element_gradients  # noqa: E402
from fracture_afem.phasefield import (reaction_weight,  # noqa: E402
                                      update_crack_set)


def kernels(state, cfg):
    """The timed calls on ``state``, by name, in the order printed."""
    u, v, mesh, params = state.u_curr, state.v, state.mesh, cfg.material
    est = estimate(u, v, mesh, params)
    return (
        ("element_gradients", lambda: element_gradients(u, mesh)),
        ("reaction_weight", lambda: reaction_weight(u, params, mesh)),
        ("estimate", lambda: estimate(u, v, mesh, params)),
        ("energies", lambda: energies(state, params, est)),
        ("update_crack_set", lambda: update_crack_set(
            v, mesh, cfg.tolerances.xi_cr, state.crack)),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("run", metavar="RUN", choices=RUNS,
                        help=f"one of {', '.join(RUNS)}")
    parser.add_argument("-n", type=int, default=30, metavar="N",
                        help="timed repetitions of each kernel (default 30)")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("N must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = build(args.run, Path(tmp) / args.run)
        state = run(cfg).state
    mesh = state.mesh
    for name, call in kernels(state, cfg):
        _, seconds = best_of(args.n, call)
        print(f"{name:<20}{1e3 * seconds:9.3f} ms{mesh.n_vertices:9,} dofs"
              f"{mesh.n_triangles:9,} triangles")


if __name__ == "__main__":
    main()
