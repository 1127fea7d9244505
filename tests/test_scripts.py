"""The checked-in scripts: their command lines."""

import re
import subprocess
import sys
from pathlib import Path

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
