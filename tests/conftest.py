import os
from pathlib import Path

import numpy as np
import pytest

from fracture_afem.driver import RunConfig, run

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def src_env():
    """The environment of a child Python that imports the package from
    this checkout's ``src/``."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


@pytest.fixture(scope="session")
def desk16(tmp_path_factory):
    """Edge-crack experiment at desk scale: n0 = 16, 200 steps."""
    cfg = RunConfig.with_defaults(n0=16, n_steps=200, t_final=5.0)
    cfg.output.directory = str(tmp_path_factory.mktemp("desk16"))
    return run(cfg)


@pytest.fixture(scope="session")
def desk32(tmp_path_factory):
    """Edge-crack experiment at n0 = 32 with enough steps and loading time
    for the crack set to form and the energy exchange to complete.  Cell
    flagging by indicator threshold keeps refinement concentrated."""
    cfg = RunConfig.with_defaults(n0=32, n_steps=480, t_final=6.0)
    cfg.marking.strategy = "threshold"
    cfg.output.directory = str(tmp_path_factory.mktemp("desk32"))
    return cfg, run(cfg)
