"""Config parsing, writers, and the command line."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture_afem import io as fio
from fracture_afem.driver import EnergyReport, RunConfig, run
from fracture_afem.dynamics import init_state
from fracture_afem.estimator import estimate
from fracture_afem.fem import FeFunction


GOLDEN_SNAPSHOT = (
    "# vtk DataFile Version 3.0\n"
    "fracture state step 7 time 5.000000000e-01\n"
    "ASCII\n"
    "DATASET UNSTRUCTURED_GRID\n"
    "POINTS 4 double\n"
    "0.000000000e+00 0.000000000e+00 0.000000000e+00\n"
    "1.000000000e+00 0.000000000e+00 0.000000000e+00\n"
    "0.000000000e+00 1.000000000e+00 0.000000000e+00\n"
    "1.000000000e+00 1.000000000e+00 0.000000000e+00\n"
    "CELLS 2 8\n"
    "3 1 3 0\n"
    "3 2 0 3\n"
    "CELL_TYPES 2\n"
    "5\n"
    "5\n"
    "POINT_DATA 4\n"
    "SCALARS u double 1\n"
    "LOOKUP_TABLE default\n"
    + "0.000000000e+00\n" * 4 +
    "SCALARS du double 1\n"
    "LOOKUP_TABLE default\n"
    + "0.000000000e+00\n" * 4 +
    "SCALARS v double 1\n"
    "LOOKUP_TABLE default\n"
    + "1.000000000e+00\n" * 4 +
    "SCALARS stress_proxy double 1\n"
    "LOOKUP_TABLE default\n"
    + "0.000000000e+00\n" * 4 +
    "CELL_DATA 2\n"
    "SCALARS estimator double 1\n"
    "LOOKUP_TABLE default\n"
    + "0.000000000e+00\n" * 2
)


def tiny_snapshot():
    cfg = RunConfig.with_defaults(n0=1, n_steps=1, t_final=1.0, slit=False,
                                  lx=1.0, ly=1.0)
    mesh = cfg.build_mesh()
    st = init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh), 1.0)
    est = estimate(st.u_curr, st.v, mesh, cfg.material)
    est.r2[:] = 0.0
    return fio.make_snapshot(st, est, cfg, 7, 0.5)


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------

def test_empty_file_gives_full_defaults(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("")
    cfg = fio.load_config(p)
    ref = RunConfig.with_defaults()
    assert cfg.mesh == ref.mesh
    assert cfg.material == ref.material
    assert cfg.time == ref.time
    assert cfg.marking == ref.marking


def test_kappa_override(tmp_path):
    p = tmp_path / "k.cfg"
    p.write_text("[material]\nkappa = 1e-10\n")
    cfg = fio.load_config(p)
    assert cfg.material.kappa == 1e-10
    assert cfg.provenance["material.kappa"] == "config-file"


def test_epsilon_rederived_from_configured_mesh(tmp_path):
    p = tmp_path / "m.cfg"
    p.write_text("[mesh]\nn0 = 16\n")
    cfg = fio.load_config(p)
    assert np.isclose(cfg.material.epsilon, 5.0 * cfg.mesh.h_min)


def test_derived_values_follow_configured_domain(tmp_path, capsys):
    # a 6 x 6 domain doubles h_min, so epsilon = 5 h_min doubles with it
    p = tmp_path / "d.cfg"
    p.write_text("[mesh]\nlx = 6\nly = 6\nslit_x_end = 3\nslit_y = 3\n")
    cfg = fio.load_config(p)
    h_f = cfg.mesh.h_min
    assert h_f == 2.0 * RunConfig.with_defaults().mesh.h_min
    assert cfg.material.epsilon == 5.0 * h_f
    assert cfg.material.varrho == 10.0 * np.sqrt(h_f)
    assert cfg.material.eta == 1.0 / (10.0 * np.sqrt(h_f))
    assert fio.cli(["check-config", "--config", str(p)]) == 0
    assert (f"epsilon = {5.0 * h_f}   (published-experiment default (5 h_f))"
            in capsys.readouterr().out)


_MESH_TIME_KEYS = {
    "lx": st.floats(0.25, 20.0), "ly": st.floats(0.25, 20.0),
    "n0": st.integers(1, 256), "max_levels": st.integers(0, 10),
    "t_final": st.floats(0.5, 50.0),
}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional=_MESH_TIME_KEYS))
def test_load_config_equals_with_defaults(keys):
    text = "[mesh]\n" + "".join(f"{k} = {v!r}\n" for k, v in keys.items()
                                if k != "t_final")
    if "t_final" in keys:
        text += f"[time]\nt_final = {keys['t_final']!r}\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text(text)
        cfg = fio.load_config(path)
    ref = RunConfig.with_defaults(**keys)
    for section in RunConfig.sections():
        assert getattr(cfg, section) == getattr(ref, section)
    h_f = cfg.mesh.h_min
    assert cfg.material.epsilon == 5.0 * h_f
    assert cfg.material.varrho == 10.0 * np.sqrt(h_f)
    assert cfg.material.eta == 1.0 / (10.0 * np.sqrt(h_f))
    assert cfg.loading.t_g == cfg.time.t_final
    for key in keys:
        section = "time" if key == "t_final" else "mesh"
        assert cfg.provenance[f"{section}.{key}"] == "config-file"


def test_with_defaults_rejects_unknown_key():
    with pytest.raises(TypeError, match="colour"):
        RunConfig.with_defaults(n0=8, colour="blue")
    with pytest.raises(TypeError, match="debug_checks"):
        RunConfig.with_defaults(debug_checks=True)


def test_with_defaults_labels_keys_set_by_name():
    cfg = RunConfig.with_defaults(n0=16, kappa=1e-8)
    assert cfg.provenance["mesh.n0"] == "set by name"
    assert cfg.provenance["material.kappa"] == "set by name"
    assert cfg.provenance["mesh.max_levels"] == "published-experiment default"


def test_removed_jump_mode_key_rejected(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[marking]\njump_mode = magnitude\n")
    with pytest.raises(fio.ConfigError, match="jump_mode"):
        fio.load_config(p)
    with pytest.raises(TypeError, match="jump_mode"):
        RunConfig.with_defaults(jump_mode="magnitude")


@pytest.mark.parametrize("line", ["n0 = 0", "max_levels = -1", "lx = -3"])
def test_bad_mesh_section_is_a_config_error(tmp_path, line, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(f"[mesh]\n{line}\n")
    assert fio.cli(["check-config", "--config", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


def test_negative_step_count_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[time]\nn_steps = -5\n")
    with pytest.raises(fio.ConfigError):
        fio.load_config(p)


def test_unknown_key_rejected_with_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[mesh]\nn0 = 8\ncolour = blue\n")
    with pytest.raises(fio.ConfigError, match="line 3"):
        fio.load_config(p)


def test_type_mismatch_rejected_with_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[time]\n\nn_steps = soon\n")
    with pytest.raises(fio.ConfigError, match="line 3"):
        fio.load_config(p)


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[physics]\nmu = 2\n")
    with pytest.raises(fio.ConfigError, match="line 1"):
        fio.load_config(p)


def test_config_round_trip(tmp_path):
    cfg = RunConfig.with_defaults(n0=8, n_steps=17, t_final=2.5)
    cfg.material.mu = 1.75
    cfg.marking.strategy = "dorfler"
    cfg.marking.theta = 0.33
    cfg.tolerances.xi_rf = 4.2e-2
    cfg.output.snapshot_every = 3
    p = tmp_path / "rt.cfg"
    fio.write_config(cfg, p)
    back = fio.load_config(p)
    assert back.mesh == cfg.mesh
    assert back.material == cfg.material
    assert back.loading == cfg.loading
    assert back.time == cfg.time
    assert back.tolerances == cfg.tolerances
    assert back.marking == cfg.marking
    assert back.output == cfg.output


# ----------------------------------------------------------------------
# snapshot writer
# ----------------------------------------------------------------------

def test_snapshot_matches_golden_bytes(tmp_path):
    path = fio.write_snapshot(tiny_snapshot(), tmp_path)
    assert path.read_text() == GOLDEN_SNAPSHOT


def test_snapshot_counts_match_mesh(tmp_path):
    snap = tiny_snapshot()
    text = fio.write_snapshot(snap, tmp_path).read_text()
    assert f"POINTS {snap.mesh.n_vertices} double" in text
    assert f"CELLS {snap.mesh.n_triangles} {4 * snap.mesh.n_triangles}" in text
    assert text.count("SCALARS") == len(snap.point_fields) \
        + len(snap.cell_fields)


def test_snapshot_rewrite_identical(tmp_path):
    snap = tiny_snapshot()
    a = fio.write_snapshot(snap, tmp_path / "a").read_bytes()
    b = fio.write_snapshot(snap, tmp_path / "b").read_bytes()
    assert a == b


def test_stress_proxy_of_uniform_gradient():
    # |grad u| = 1 everywhere and intact damage give a unit energy density
    cfg = RunConfig.with_defaults(n0=2, n_steps=1, t_final=1.0, slit=False,
                                  lx=1.0, ly=1.0)
    mesh = cfg.build_mesh()
    st = init_state(mesh, FeFunction.from_callable(mesh, lambda x, y: x),
                    FeFunction.zeros(mesh), 1.0)
    est = estimate(st.u_curr, st.v, mesh, cfg.material)
    snap = fio.make_snapshot(st, est, cfg, 1, 0.0)
    assert np.allclose(snap.point_fields["stress_proxy"], 1.0)


# ----------------------------------------------------------------------
# energy trace
# ----------------------------------------------------------------------

def zero_report(step=1):
    return EnergyReport(step=step, time=0.0, kinetic=0.0, strain=0.0,
                        surface=0.0, total=0.0, r_h=0.0, r_min=0.0,
                        r_max=0.0, n_dofs=4, n_cells=2)


def test_energy_trace_single_zero_row(tmp_path):
    p = fio.write_energy_trace([zero_report()], tmp_path / "e.csv")
    lines = p.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == ("step,time,kinetic,strain,surface,total,"
                        "estimator,est_min,est_max,ndofs,ncells")
    assert lines[1].startswith("1,0.000000000e+00,0.000000000e+00")


def test_energy_trace_rows_in_step_order(tmp_path):
    reports = [zero_report(s) for s in (1, 2, 3)]
    p = fio.write_energy_trace(reports, tmp_path / "e.csv")
    steps = [int(line.split(",")[0])
             for line in p.read_text().splitlines()[1:]]
    assert steps == [1, 2, 3]
    with pytest.raises(ValueError):
        fio.write_energy_trace([], tmp_path / "x.csv")


def test_desk_run_cell_counts_nondecreasing_before_first_coarsening(tmp_path):
    cfg = RunConfig.with_defaults(n0=8, n_steps=12, t_final=5.0)
    cfg.output.directory = str(tmp_path / "out")
    res = run(cfg)
    ncells = [rec.report.n_cells for rec in res.records]
    diffs = np.diff(ncells)
    drops = np.where(diffs < 0)[0]
    first_drop = drops[0] if drops.size else len(diffs)
    assert (diffs[:first_drop] >= 0).all()
    # refinement does kick in immediately on this configuration
    assert ncells[1] > ncells[0]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_version(capsys):
    assert fio.cli(["version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_cli_run_missing_config():
    assert fio.cli(["run", "--config", "/definitely/not/here.cfg"]) == 2


def test_cli_unknown_flag():
    assert fio.cli(["run", "--config", "x", "--frobnicate"]) == 2


def test_cli_steps_override_and_run(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("[mesh]\nn0 = 4\n[time]\nn_steps = 1600\nt_final = 1.0\n"
                 f"[output]\ndirectory = {tmp_path / 'o'}\n")
    rc = fio.cli(["run", "--config", str(p), "--steps", "3"])
    assert rc == 0
    csv = (tmp_path / "o" / "energies.csv").read_text().splitlines()
    assert len(csv) == 1 + 3
    assert "completed 3 steps" in capsys.readouterr().out


def test_cli_prints_every_warning(tmp_path, capsys):
    # one staggered iteration per step cannot reach the sup-norm tolerance
    # once the damage field moves
    p = tmp_path / "c.cfg"
    p.write_text("[mesh]\nn0 = 4\n[time]\nn_steps = 10\nt_final = 5\n"
                 "[tolerances]\nmax_inner = 1\n"
                 f"[output]\ndirectory = {tmp_path / 'o'}\n")
    assert fio.cli(["run", "--config", str(p)]) == 0
    captured = capsys.readouterr()
    assert "9 warnings" in captured.out
    warnings = [line for line in captured.err.splitlines()
                if line.startswith("warning: ")]
    assert len(warnings) == 9
    assert "hit max_inner=1" in captured.err


def test_cli_check_config(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("[material]\nmu = 2.0\n")
    assert fio.cli(["check-config", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "mu = 2.0   (config-file)" in out
    assert "(assumption)" not in out.split("mu = 2.0")[1].split("\n")[0]


def test_cli_rejects_removed_seed_flag(tmp_path):
    # nothing in a run is random, so there is no seed to set
    p = tmp_path / "c.cfg"
    p.write_text("[time]\nn_steps = 2\n")
    out = tmp_path / "o"
    assert fio.cli(["run", "--config", str(p), "--output", str(out),
                    "--seed", "1"]) == 2
    assert not out.exists()
