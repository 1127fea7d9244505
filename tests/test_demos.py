"""The short demos run end to end.  Demo 04 is a minute-long run of the
edge-crack experiment and is left to the acceptance fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_mesh_adaptivity.py",
                                  "02_wave_energy_decay.py",
                                  "03_damage_and_estimator.py"])
def test_demo_runs(name, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
