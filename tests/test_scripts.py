"""The checked-in scripts: their command lines."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_paper_probe_refuses_a_run_too_short_to_load(src_env):
    # N = 3 steps end at t = 3 k, before the ramp's switch time t_s = 0.5:
    # a usage error, not a traceback from the config
    out = subprocess.run([sys.executable, str(SCRIPTS / "paper_probe.py"),
                          "3"], env=src_env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 2
    assert "usage:" in out.stderr and "N = 3 steps" in out.stderr
    assert "Traceback" not in out.stderr
