"""The checked-in scripts: their command lines."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_paper_probe_refuses_a_run_too_short_to_load(src_env):
    # N = 3 steps end at t = 3 k, before the ramp's switch time t_s = 0.5:
    # a usage error, not a traceback from the config
    out = subprocess.run([sys.executable, str(SCRIPTS / "paper_probe.py"),
                          "3"], env=src_env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 2
    assert "usage:" in out.stderr and "N = 3 steps" in out.stderr
    assert "Traceback" not in out.stderr


def test_paper_probe_uniform_refuses_the_same_short_windows(src_env):
    # N = 160 steps end exactly at t_s = 0.5: refused for the uniform
    # reference too, before its n0 = 256 grid is built
    out = subprocess.run([sys.executable, str(SCRIPTS / "paper_probe.py"),
                          "--uniform", "160"], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "usage:" in out.stderr and "N = 160 steps" in out.stderr
    assert "Traceback" not in out.stderr


def test_output_digest_prints_one_digest_per_file(src_env):
    out = subprocess.run([sys.executable, str(SCRIPTS / "output_digest.py"),
                          "determinism"], env=src_env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = [line.split("  ") for line in out.stdout.splitlines()]
    assert [path for _, path in rows] == ["determinism/energies.csv"] + [
        f"determinism/snapshot_{step:06d}.vtk" for step in (1, 4, 8, 12)]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _ in rows)


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# imports the module named by its second argument and prints the BLAS
# variables as numpy saw them when it was first imported
READ_BLAS_THREADS = f"""
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(k, "-") for k in {BLAS_THREADS}])
sys.meta_path.insert(0, Spy())
sys.path.insert(0, sys.argv[1])
__import__(sys.argv[2])
print(*seen[0])
"""


@pytest.mark.parametrize("module", ["output_digest", "cost", "paper_probe"])
def test_output_digest_pins_blas_threads_the_caller_left_unset(src_env,
                                                               module):
    # the digests and CG counts depend on the BLAS thread count, so before
    # numpy loads, output_digest and the scripts that import it set each
    # variable the caller left unset to 1, and keep the value of one the
    # caller set
    env = {k: v for k, v in src_env.items() if k not in BLAS_THREADS}
    for caller, want in (({}, "1 1 1"), ({"OMP_NUM_THREADS": "2"}, "1 2 1")):
        out = subprocess.run([sys.executable, "-c", READ_BLAS_THREADS,
                              str(SCRIPTS), module], env={**env, **caller},
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == want


def test_code_lines_total_is_the_sum_of_its_rows():
    out = subprocess.run([sys.executable, str(SCRIPTS / "code_lines.py"),
                          "-v"], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    *rows, total = out.stdout.splitlines()
    names = [row.split()[1] for row in rows]
    assert names == sorted(p.name for p in
                           (ROOT / "src" / "fracture_afem").glob("*.py"))
    counts = [int(row.split()[0].replace(",", "")) for row in rows]
    assert int(total.replace(",", "")) == sum(counts) > 0


def test_trace_moves_prints_each_column_move_over_its_peak(tmp_path):
    header = "step,time,kinetic,ndofs\n"
    old = tmp_path / "old.csv"
    new = tmp_path / "new.csv"
    old.write_text(header + "1,0.5,0.0,10\n2,1.0,-4.0,10\n")
    new.write_text(header + "1,0.5,0.002,10\n2,1.0,-3.99,10\n")
    out = subprocess.run([sys.executable, str(SCRIPTS / "trace_moves.py"),
                          str(old), str(new)], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    moves = {name: float(move) for name, move in
             (line.split() for line in out.stdout.splitlines())}
    assert moves.keys() == {"time", "kinetic", "ndofs"}
    assert moves["time"] == moves["ndofs"] == 0.0
    # the largest move, 0.01 at step 2, over the peak magnitude 4
    assert abs(moves["kinetic"] - 0.0025) <= 1e-12

    new.write_text(header + "1,0.5,0.0,10\n3,1.0,-4.0,10\n")
    out = subprocess.run([sys.executable, str(SCRIPTS / "trace_moves.py"),
                          str(old), str(new)], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 2 and "different steps" in out.stderr


@pytest.mark.parametrize("text, message", [
    ("step,time,kinetic\n", "has no data rows"),
    ("", "has no data rows"),
    ("step,time,kinetic\n1,0.5,0.0\n2,1.0\n", "line 3: 2 values for 3"),
    ("step,time,kinetic\n1,0.5,zero\n", "could not convert"),
])
def test_trace_moves_refuses_a_trace_it_cannot_read(tmp_path, text, message):
    # a usage error, not a traceback from max() or an index
    good = tmp_path / "good.csv"
    good.write_text("step,time,kinetic\n1,0.5,0.0\n2,1.0,-4.0\n")
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    for old, new in ((good, bad), (bad, good)):
        out = subprocess.run([sys.executable, str(SCRIPTS / "trace_moves.py"),
                              str(old), str(new)], capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 2, out.stderr
        assert "usage:" in out.stderr and message in out.stderr
        assert "Traceback" not in out.stderr


ROW = re.compile(r"(.+?) +([0-9.]+) ms +([0-9,]+) dofs +([0-9,]+) triangles")


@pytest.fixture(scope="module")
def cost_rows(src_env):
    """The rows and the last line of one ``cost.py -n 2 determinism`` run."""
    out = subprocess.run([sys.executable, str(SCRIPTS / "cost.py"),
                          "-n", "2", "determinism"], env=src_env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    *lines, size = out.stdout.splitlines()
    rows = [ROW.fullmatch(line) for line in lines]
    assert all(rows), out.stdout
    return rows, size


def test_setup_cost_prints_one_row_per_builder(cost_rows):
    rows = cost_rows[0][:8]
    assert [row[1] for row in rows] == [
        "Mesh", "element_data", "unit_mass", "geometry", "prolongation",
        "set-up", "V-cycle build", "adapt"]
    ms = [float(row[2]) for row in rows]
    assert all(t > 0.0 for t in ms)
    assert abs(ms[5] - sum(ms[:5])) <= 0.01
    # every row times the same final mesh
    assert len({(row[3], row[4]) for row in rows}) == 1


def test_step_cost_times_each_kernel_on_one_mesh(cost_rows):
    rows = cost_rows[0][8:13]
    assert [row[1] for row in rows] == ["element_gradients",
                                        "reaction_weight", "estimate",
                                        "energies", "update_crack_set"]
    assert all(float(row[2]) > 0.0 for row in rows)
    assert len({(row[3], row[4]) for row in rows}) == 1


def test_snapshot_cost_times_both_calls_on_the_final_state(cost_rows):
    rows, size = cost_rows[0][13:], cost_rows[1]
    assert [row[1] for row in rows] == ["make_snapshot", "write_snapshot"]
    assert all(float(row[2]) > 0.0 for row in rows)
    tail = re.fullmatch(r"([0-9,]+) bytes", size)
    assert tail, size
    assert int(tail[1].replace(",", "")) > 0


def test_cost_times_every_call_on_the_final_state(src_env, cost_rows):
    # the three groups above are all the rows, and all time one mesh
    rows = cost_rows[0]
    assert len(rows) == 15
    assert len({(row[3], row[4]) for row in rows}) == 1

    # N = 0 repetitions time nothing: a usage error, not a traceback
    out = subprocess.run([sys.executable, str(SCRIPTS / "cost.py"),
                          "-n", "0", "determinism"], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "usage:" in out.stderr and "Traceback" not in out.stderr
