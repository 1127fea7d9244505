"""Run the benchmark workloads and print one SHA-256 digest per output file.

    PYTHONPATH=src python3 scripts/output_digest.py [RUN ...]

Each RUN is ``desk16``, ``paper64`` or ``desk32``, whose config comes from
``perfbench/workloads.build_config`` on the canonical seed 0, or
``determinism``, the two-snapshot run of acceptance criterion 10
(``n0 = 8``, 12 steps, a snapshot every 4).  With no RUN all four run.
Their outputs go to a temporary directory that is removed afterwards.  The
script prints ``sha256  run/file`` for every output file, sorted, so that
``diff`` between the printouts of two checkouts shows whether they write
byte-identical files.  It imports the package from the ``src/`` of its own
checkout.

The bytes depend on the BLAS thread count: CG's dot products split across
threads sum in another order.  So before numpy loads, the script sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
where the caller left them unset, and keeps a value the caller set.  The
scripts that import it (``cost.py``, ``paper_probe.py``) inherit this.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREADS:
    os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py)
from fracture_afem.driver import RunConfig, run  # noqa: E402

RUNS = ("desk16", "paper64", "desk32", "determinism")


def build(name, out_dir):
    """The run config of ``name``, writing to ``out_dir``."""
    if name == "determinism":
        cfg = RunConfig.with_defaults(n0=8, n_steps=12, t_final=5.0)
        cfg.output.directory = str(out_dir)
        cfg.output.snapshot_every = 4
        return cfg
    return workloads.build_config(workloads.WORKLOADS[name],
                                  workloads.CANONICAL_SEED, out_dir)


def digests(names):
    """``(sha256, run/file)`` for every file the runs write, sorted."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out_dir = Path(tmp) / name
            run(build(name, out_dir))
            lines += [(hashlib.sha256(f.read_bytes()).hexdigest(),
                       f"{name}/{f.name}") for f in out_dir.iterdir()]
    return sorted(lines, key=lambda line: line[1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="*", metavar="RUN",
                        help=f"any of {', '.join(RUNS)} (default: all)")
    names = parser.parse_args(argv).runs or list(RUNS)
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        parser.error(f"unknown runs {unknown}; choose from {', '.join(RUNS)}")
    for digest, path in digests(names):
        print(f"{digest}  {path}")


if __name__ == "__main__":
    main()
