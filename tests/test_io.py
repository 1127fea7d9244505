"""Config parsing, writers, and the command line."""

import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture_afem import io as fio
from fracture_afem.driver import EnergyReport, RunConfig, run
from fracture_afem.dynamics import init_state
from fracture_afem.estimator import estimate
from fracture_afem.fem import FeFunction
from fracture_afem.mesh import build_initial_mesh


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


def test_module_run_reads_the_config(tmp_path, src_env):
    # `python -m fracture_afem.io` runs the command line, as the installed
    # console script does
    p = tmp_path / "bad.cfg"
    p.write_text("[mesh]\nslit_y = 1.4\n")
    proc = subprocess.run([sys.executable, "-m", "fracture_afem.io",
                           "check-config", "--config", str(p)],
                          cwd=tmp_path, env=src_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "config error:" in proc.stderr


_MESH_TIME_KEYS = {
    "lx": st.floats(0.25, 20.0), "ly": st.floats(0.25, 20.0),
    "n0": st.integers(1, 256), "max_levels": st.integers(0, 10),
    "t_final": st.floats(0.5, 50.0), "slit": st.booleans(),
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
        try:
            build_initial_mesh((keys.get("lx", 3.0), keys.get("ly", 3.0)),
                               (0.0, 1.5, 1.5) if keys.get("slit", True)
                               else None, keys.get("n0", 64))
        except ValueError:
            # the default slit is off this grid: both refuse the layout, with
            # one message
            with pytest.raises(ValueError) as by_name:
                RunConfig.with_defaults(**keys)
            with pytest.raises(fio.ConfigError) as from_file:
                fio.load_config(path)
            assert "slit" in str(by_name.value)
            assert str(from_file.value) == str(by_name.value)
            return
        if keys.get("t_final", 5.0) <= 0.5:
            # the ramp end t_g = t_final leaves no window after t_s = 0.5
            with pytest.raises(fio.ConfigError, match="loading window"):
                fio.load_config(path)
            with pytest.raises(ValueError, match="loading window"):
                RunConfig.with_defaults(**keys)
            return
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


@st.composite
def mesh_layouts(draw):
    """``[mesh]`` keys whose slit row and end are each drawn on a grid line
    of the ``n0`` grid (the sides and the outside included) or anywhere."""
    n0 = draw(st.integers(1, 64))
    lx, ly = draw(st.floats(0.25, 20.0)), draw(st.floats(0.25, 20.0))

    def coordinate(length):
        if draw(st.booleans()):
            return draw(st.integers(-1, n0 + 1)) * (length / n0)
        return draw(st.floats(-1.0, length + 1.0))

    return {"n0": n0, "lx": lx, "ly": ly, "slit": draw(st.booleans()),
            "slit_x_end": coordinate(lx), "slit_y": coordinate(ly)}


@settings(max_examples=150, deadline=None)
@given(mesh_layouts())
def test_config_is_accepted_exactly_when_its_mesh_builds(keys):
    slit = (0.0, keys["slit_x_end"], keys["slit_y"]) if keys["slit"] else None
    try:
        build_initial_mesh((keys["lx"], keys["ly"]), slit, keys["n0"])
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            RunConfig.with_defaults(**keys)
        assert str(refused.value) == str(exc)
    else:
        cfg = RunConfig.with_defaults(**keys)
        mesh = cfg.build_mesh()
        assert mesh.grid.n0 == keys["n0"] and (mesh.grid.slit is None) \
            == (not keys["slit"])


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


def test_removed_slit_x_start_key_rejected(tmp_path, capsys):
    # the edge crack starts on the loaded edge; any other start gave one
    # left-edge vertex both loads, which passed check-config and made run
    # fail at step 2
    p = tmp_path / "c.cfg"
    p.write_text("[mesh]\nn0 = 4\nslit_x_start = 0.75\n")
    assert fio.cli(["check-config", "--config", str(p)]) == 2
    assert "unknown key 'slit_x_start'" in capsys.readouterr().err
    with pytest.raises(TypeError, match="slit_x_start"):
        RunConfig.with_defaults(slit_x_start=0.0)


@pytest.mark.parametrize("keys", [
    {"theta": 0.0}, {"theta": 2.0}, {"refine_fraction": -0.1},
    {"coarsen_fraction": 1.5}, {"refine_fraction": 0.6, "coarsen_fraction": 0.5}])
def test_marking_ranges_checked_at_load(keys):
    # checked for every strategy, not only when a marking runs
    with pytest.raises(ValueError, match="must"):
        RunConfig.with_defaults(strategy="threshold", **keys)


def test_negative_snapshot_cadence_rejected():
    # 0 is the one spelling of "no snapshots"
    with pytest.raises(ValueError, match="snapshot_every"):
        RunConfig.with_defaults(snapshot_every=-3)
    cfg = RunConfig.with_defaults(snapshot_every=0)
    cfg.output.snapshot_every = -1
    with pytest.raises(ValueError, match="snapshot_every"):
        cfg.validate()


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


def test_repeated_key_rejected_with_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[mesh]\nn0 = 4\nmax_levels = 2\nn0 = 8\n")
    with pytest.raises(fio.ConfigError, match="line 4: repeated key 'n0'"):
        fio.load_config(p)


def test_load_config_overrides_win_and_are_labelled(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("[time]\nn_steps = 1600\nt_final = 2.0\n")
    cfg = fio.load_config(p, n_steps=3, directory="elsewhere")
    assert cfg.time.n_steps == 3 and cfg.time.t_final == 2.0
    assert cfg.output.directory == "elsewhere"
    assert cfg.provenance["time.n_steps"] == "command-line override"
    assert cfg.provenance["output.directory"] == "command-line override"
    assert cfg.provenance["time.t_final"] == "config-file"
    with pytest.raises(fio.ConfigError, match="n_steps"):
        fio.load_config(p, n_steps=0)


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


@pytest.mark.parametrize("directory", [
    "runs/#3", "runs/\n3", "runs/3\r", " runs", "runs ", "runs\t"])
def test_write_config_refuses_a_value_it_cannot_restore(tmp_path, directory):
    # '#' starts a comment, a value ends at the line break and is stripped
    cfg = RunConfig.with_defaults(n0=8)
    cfg.output.directory = directory
    p = tmp_path / "rt.cfg"
    with pytest.raises(ValueError, match=r"output\.directory"):
        fio.write_config(cfg, p)
    assert not p.exists()


def test_write_config_restores_inner_blanks_and_symbols(tmp_path):
    cfg = RunConfig.with_defaults(n0=8)
    cfg.output.directory = "runs/a b=c;[d]"
    back = fio.load_config(fio.write_config(cfg, tmp_path / "rt.cfg"))
    assert back.output.directory == cfg.output.directory


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


def per_line_snapshot(snap):
    """The snapshot text written one line and one f-string at a time."""
    mesh = snap.mesh
    lines = ["# vtk DataFile Version 3.0",
             f"fracture state step {snap.step} time {snap.time:.9e}",
             "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_vertices} double"]
    lines += [f"{x:.9e} {y:.9e} {0.0:.9e}" for x, y in mesh.vertices]
    lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {mesh.n_triangles}")
    lines += ["5"] * mesh.n_triangles
    for kind, size, fields in (("POINT", mesh.n_vertices, snap.point_fields),
                               ("CELL", mesh.n_triangles, snap.cell_fields)):
        lines.append(f"{kind}_DATA {size}")
        for name, values in fields.items():
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            lines += [f"{x:.9e}" for x in values]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
                     np.finfo(float).max, 0.5, 1.0 - 2.0 ** -53]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_whole_array_writer_equals_per_line_reference(tmp_path_factory, data):
    nv = data.draw(st.integers(0, 12))
    nt = data.draw(st.integers(0, 12))

    def floats(*shape):
        n = int(np.prod(shape))
        return np.array(data.draw(st.lists(EDGE_FLOATS, min_size=n,
                                           max_size=n)),
                        dtype=np.float64).reshape(shape)

    ids = data.draw(st.lists(st.integers(0, 2 ** 63 - 1), min_size=3 * nt,
                             max_size=3 * nt))
    mesh = SimpleNamespace(vertices=floats(nv, 2),
                           triangles=np.array(ids, dtype=np.int64).reshape(
                               nt, 3),
                           n_vertices=nv, n_triangles=nt)
    snap = fio.Snapshot(step=data.draw(st.integers(0, 10 ** 7)),
                        time=float(floats(1)[0]), mesh=mesh,
                        point_fields={"u": floats(nv), "v": floats(nv)},
                        cell_fields={"estimator": floats(nt)})
    # blocks of 3 rows, so that a field of up to 12 rows spans several
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fio, "ROW_BLOCK", 3)
        path = fio.write_snapshot(snap, tmp_path_factory.mktemp("snap"))
    assert path.read_text() == per_line_snapshot(snap)


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
    # once the damage field moves: every solve warns, the 9 steps' final
    # solves and the 8 solves that an adaptation replaced
    p = tmp_path / "c.cfg"
    p.write_text("[mesh]\nn0 = 4\n[time]\nn_steps = 10\nt_final = 5\n"
                 "[tolerances]\nmax_inner = 1\n"
                 f"[output]\ndirectory = {tmp_path / 'o'}\n")
    assert fio.cli(["run", "--config", str(p)]) == 0
    captured = capsys.readouterr()
    assert "17 warnings" in captured.out
    warnings = [line for line in captured.err.splitlines()
                if line.startswith("warning: ")]
    assert len(warnings) == 17
    assert all("hit max_inner=1" in line for line in warnings)
    assert sum(line.startswith("warning: before adaptation: ")
               for line in warnings) == 8


def test_cli_check_config(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("[material]\nmu = 2.0\n")
    assert fio.cli(["check-config", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "mu = 2.0   (config-file)" in out
    assert "(assumption)" not in out.split("mu = 2.0")[1].split("\n")[0]


# one row per class of config error: the file text and the extra flags of
# ``run``; ``check-config`` takes the file alone
CONFIG_ERRORS = [
    ("unknown key", "[mesh]\ncolour = blue\n", []),
    ("bad type", "[time]\nn_steps = soon\n", []),
    ("repeated key", "[mesh]\nn0 = 4\nn0 = 8\n", []),
    ("no steps", "[mesh]\nn0 = 4\n", ["--steps", "0"]),
    ("ramp end after final time", "[time]\nt_final = 1.0\n"
     "[loading]\nt_g = 2.0\n", []),
    ("empty ramp window", "[time]\nt_final = 1.0\n[loading]\nt_s = 1.0\n",
     []),
    ("marking range", "[marking]\nstrategy = dorfler\ntheta = 2.0\n", []),
]


def assert_config_error(tmp_path, capsys, name, text, flags):
    """``run`` (and ``check-config`` when no flag is needed) exit 2 with a
    one-line config error and write nothing."""
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    out = tmp_path / "o"
    commands = [["run", "--config", str(p), "--output", str(out), *flags]]
    if not flags:
        commands.append(["check-config", "--config", str(p)])
    for argv in commands:
        assert fio.cli(argv) == 2, (name, argv[0])
        err = capsys.readouterr().err
        assert err.startswith("config error: "), (name, argv[0], err)
        assert "Traceback" not in err
    assert not out.exists(), name


def test_cli_config_errors_exit_2_without_traceback(tmp_path, capsys):
    for name, text, flags in CONFIG_ERRORS:
        assert_config_error(tmp_path, capsys, name, text, flags)


# a layout the mesh build refuses and a negative snapshot cadence; each
# passed check-config before the grid checked itself at load.  The short
# runs keep a file that loads from running the published experiment.
@pytest.mark.parametrize("name, text", [
    ("slit row off the grid", "[mesh]\nn0 = 16\nslit_y = 1.4\n"),
    ("slit end off the grid", "[mesh]\nn0 = 16\nslit_x_end = 3.5\n"),
    ("slit of zero length", "[mesh]\nn0 = 16\nslit_x_end = 0\n"),
    ("slit on a one-cell grid", "[mesh]\nn0 = 1\n"),
    ("negative snapshot cadence",
     "[mesh]\nn0 = 4\n[time]\nn_steps = 2\n[output]\nsnapshot_every = -1\n"),
])
def test_cli_layout_and_cadence_errors_exit_2(tmp_path, capsys, name, text):
    assert_config_error(tmp_path, capsys, name, text, [])


# values a run cannot use, which passed check-config: each of the first
# six made run exit 1 at step 2 or later, and a NaN xi_rf ran to the end,
# adapting whatever the indicator, since r_h <= nan is never true.  xi_vn,
# xi_rf and cell_threshold stay legal at inf
# (test_infinite_tolerance_single_iteration runs xi_vn = inf).
@pytest.mark.parametrize("section, line", [
    ("tolerances", "solver_tol = 1.0"), ("tolerances", "solver_tol = 5"),
    ("loading", "eps_v = nan"), ("material", "mu = inf"),
    ("material", "epsilon = inf"), ("time", "t_final = inf"),
    ("tolerances", "xi_rf = nan"),
])
def test_cli_values_a_run_cannot_use_exit_2(tmp_path, capsys, section, line):
    text = f"[mesh]\nn0 = 8\n[time]\nn_steps = 30\n[{section}]\n{line}\n"
    assert_config_error(tmp_path, capsys, line, text, [])


def test_nan_refused_in_every_float_key():
    floats = [f.name for typ in RunConfig.sections().values()
              for f in fields(typ) if type(f.default) is float]
    assert len(floats) == 24
    for key in floats:
        with pytest.raises(ValueError):
            RunConfig.with_defaults(n0=8, slit=False, **{key: float("nan")})


@pytest.mark.parametrize("key", ["xi_vn", "xi_rf", "cell_threshold"])
def test_infinite_thresholds_load(key):
    cfg = RunConfig.with_defaults(n0=8, **{key: float("inf")})
    assert cfg.validate() is cfg


def test_cli_rejects_removed_seed_flag(tmp_path):
    # nothing in a run is random, so there is no seed to set
    p = tmp_path / "c.cfg"
    p.write_text("[time]\nn_steps = 2\n")
    out = tmp_path / "o"
    assert fio.cli(["run", "--config", str(p), "--output", str(out),
                    "--seed", "1"]) == 2
    assert not out.exists()
