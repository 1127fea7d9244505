"""Time the snapshot of the final state of a benchmark run.

    PYTHONPATH=src python3 scripts/snapshot_cost.py [-n N] RUN

RUN is one of the runs of ``scripts/output_digest.py``.  The script runs it
once (outputs go to a temporary directory), then times, on the run's final
state and indicator, ``io.make_snapshot`` (the fields) and
``io.write_snapshot`` (the file), each the minimum of N repetitions
(default 30) after one warm-up, in ms.  The last line gives the size of the
file and the mesh's dofs and triangles.
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
from fracture_afem.driver import run  # noqa: E402
from fracture_afem.estimator import estimate  # noqa: E402


def best_of(repeats, call):
    """The result of ``call()`` and the minimum over ``repeats`` calls,
    after one warm-up, of the seconds it takes."""
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - t0)
    return out, min(times[1:])


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
        est = estimate(state.u_curr, state.v, state.mesh, cfg.material)
        n = cfg.time.n_steps
        snap, make_s = best_of(args.n, lambda: fio.make_snapshot(
            state, est, cfg, n, n * cfg.time.k))
        path, write_s = best_of(args.n, lambda: fio.write_snapshot(
            snap, Path(tmp) / "snapshot"))
        size = path.stat().st_size
    mesh = snap.mesh
    print(f"{'make_snapshot':<16}{1e3 * make_s:9.3f} ms")
    print(f"{'write_snapshot':<16}{1e3 * write_s:9.3f} ms")
    print(f"{size:,} bytes, {mesh.n_vertices:,} dofs, "
          f"{mesh.n_triangles:,} triangles")


if __name__ == "__main__":
    main()
