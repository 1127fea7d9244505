"""Config files, output writers, and the command line.

The config format is flat sectioned key-value text (INI-like), parsed
strictly: unknown sections or keys and malformed values are rejected with
the offending line number, so a typo cannot silently fall back to a
default.  Snapshots are legacy-ASCII unstructured-grid files with fixed
``%.9e`` float formatting, byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .driver import RunConfig, run as run_driver
from .fem import element_gradients

__all__ = [
    "ConfigError",
    "load_config",
    "write_config",
    "Snapshot",
    "make_snapshot",
    "write_snapshot",
    "write_energy_trace",
    "cli",
    "main",
]


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "mesh": {"n0": int, "max_levels": int, "lx": float, "ly": float,
             "slit": bool, "slit_x_start": float, "slit_x_end": float,
             "slit_y": float},
    "material": {"mu": float, "varrho": float, "eta": float, "kappa": float,
                 "lambda_c": float, "c_w": float, "epsilon": float},
    "loading": {"eps_v": float, "t_s": float, "t_g": float},
    "time": {"n_steps": int, "t_final": float},
    "tolerances": {"xi_v": float, "xi_cr": float, "xi_vn": float,
                   "xi_rf": float, "solver_tol": float,
                   "solver_max_iter": int, "max_inner": int},
    "marking": {"strategy": str, "theta": float, "refine_fraction": float,
                "coarsen_fraction": float, "cell_threshold": float,
                "jump_mode": str},
    "output": {"directory": str, "snapshot_every": int},
}


def _parse_value(raw, typ, lineno):
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("true", "on", "yes", "1"):
                return True
            if raw.lower() in ("false", "off", "no", "0"):
                return False
            raise ValueError(raw)
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"line {lineno}: cannot parse {raw!r} as {typ.__name__}") from None


def _read_entries(path):
    entries = {}
    section = None
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} "
                              f"in section [{section}]")
        entries[(section, key)] = _parse_value(raw, _SCHEMA[section][key],
                                               lineno)
    return entries


def load_config(path):
    """Parse a config file into a fully populated :class:`RunConfig`.

    Omitted keys take the edge-crack experiment defaults (dependent
    quantities such as the regularization length are re-derived from the
    mesh resolution actually configured); every default's provenance is
    recorded on the config.
    """
    entries = _read_entries(path)

    def take(section, key, fallback):
        return entries.get((section, key), fallback)

    base_mesh = RunConfig.with_defaults().mesh
    n0 = take("mesh", "n0", base_mesh.n0)
    max_levels = take("mesh", "max_levels", base_mesh.max_levels)
    n_steps = take("time", "n_steps", 1600)
    t_final = take("time", "t_final", 5.0)
    try:
        cfg = RunConfig.with_defaults(n0=n0, max_levels=max_levels,
                                      n_steps=n_steps, t_final=t_final)
        sections = {"mesh": cfg.mesh, "material": cfg.material,
                    "loading": cfg.loading, "time": cfg.time,
                    "tolerances": cfg.tolerances, "marking": cfg.marking,
                    "output": cfg.output}
        for (section, key), value in sorted(entries.items()):
            setattr(sections[section], key, value)
            cfg.provenance[f"{section}.{key}"] = "config-file"
        # re-run dataclass validation after the overrides
        for obj in sections.values():
            if hasattr(obj, "__post_init__"):
                obj.__post_init__()
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def write_config(cfg, path):
    """Serialize every configurable key; ``load_config`` restores it exactly."""
    sections = {"mesh": cfg.mesh, "material": cfg.material,
                "loading": cfg.loading, "time": cfg.time,
                "tolerances": cfg.tolerances, "marking": cfg.marking,
                "output": cfg.output}
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        obj = sections[section]
        for key in keys:
            lines.append(f"{key} = {getattr(obj, key)}")
        lines.append("")
    Path(path).write_text("\n".join(lines))
    return Path(path)


# ----------------------------------------------------------------------
# Snapshots and traces
# ----------------------------------------------------------------------

@dataclass
class Snapshot:
    step: int
    time: float
    mesh: "Mesh"
    point_fields: dict      # name -> (n_vertices,) arrays
    cell_fields: dict       # name -> (n_triangles,) arrays


def make_snapshot(state, est, cfg, step, time):
    """Collect the visualization fields of one snapshot.

    The stress proxy is the regularized elastic energy density
    ``((1 - kappa) v^2 + kappa) |grad u|^2`` with the element gradient
    magnitudes averaged onto vertices (area weighted).
    """
    mesh = state.mesh
    from .mesh import geometry
    geo = geometry(mesh)
    gu = element_gradients(state.u_curr, mesh)
    gu2 = (gu ** 2).sum(axis=1)
    num = np.zeros(mesh.n_vertices)
    den = np.zeros(mesh.n_vertices)
    np.add.at(num, mesh.triangles.ravel(),
              np.repeat(gu2 * geo.area, 3))
    np.add.at(den, mesh.triangles.ravel(), np.repeat(geo.area, 3))
    gu2_nodal = num / np.maximum(den, 1e-300)
    kap = cfg.material.kappa
    stress = ((1.0 - kap) * state.v.values ** 2 + kap) * gu2_nodal
    return Snapshot(step=step, time=time, mesh=mesh,
                    point_fields={"u": state.u_curr.values,
                                  "du": state.du.values,
                                  "v": state.v.values,
                                  "stress_proxy": stress},
                    cell_fields={"estimator": est.r2})


def prepare_output(directory):
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x):
    return f"{x:.9e}"


def write_snapshot(snap, directory):
    """Legacy-ASCII unstructured-grid file, byte-deterministic."""
    mesh = snap.mesh
    out = prepare_output(directory)
    path = out / f"snapshot_{snap.step:06d}.vtk"
    lines = [
        "# vtk DataFile Version 3.0",
        f"fracture state step {snap.step} time {_fmt(snap.time)}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    for p in mesh.vertices:
        lines.append(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(0.0)}")
    nt = mesh.n_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    for t in mesh.triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)
    lines.append(f"POINT_DATA {mesh.n_vertices}")
    for name, values in snap.point_fields.items():
        if len(values) != mesh.n_vertices:
            raise ValueError(f"point field {name!r} not bound to this mesh")
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_fmt(v) for v in values)
    lines.append(f"CELL_DATA {nt}")
    for name, values in snap.cell_fields.items():
        if len(values) != nt:
            raise ValueError(f"cell field {name!r} not bound to this mesh")
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_fmt(v) for v in values)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_energy_trace(reports, path):
    """CSV with one row per step; floats in fixed %.9e format."""
    if not reports:
        raise ValueError("no energy reports to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ("step,time,kinetic,strain,surface,total,"
              "estimator,est_min,est_max,ndofs,ncells")
    rows = [header]
    for r in reports:
        rows.append(",".join([
            str(r.step), _fmt(r.time), _fmt(r.kinetic), _fmt(r.strain),
            _fmt(r.surface), _fmt(r.total), _fmt(r.r_h), _fmt(r.r_min),
            _fmt(r.r_max), str(r.n_dofs), str(r.n_cells)]))
    path.write_text("\n".join(rows) + "\n")
    return path


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fracture-afem",
        description="Adaptive phase-field simulation of dynamic brittle "
                    "fracture (edge-crack anti-plane shear experiment)")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="execute a simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", default=None)
    p_run.add_argument("--steps", type=int, default=None)

    p_check = sub.add_parser("check-config", help="parse and echo a config")
    p_check.add_argument("--config", required=True)

    sub.add_parser("version", help="print the package version")
    return parser


def cli(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "version":
        print(__version__)
        return 0
    if args.command is None:
        parser.print_usage()
        return 2

    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "check-config":
        for section in _SCHEMA:
            obj = {"mesh": cfg.mesh, "material": cfg.material,
                   "loading": cfg.loading, "time": cfg.time,
                   "tolerances": cfg.tolerances, "marking": cfg.marking,
                   "output": cfg.output}[section]
            print(f"[{section}]")
            for key in _SCHEMA[section]:
                origin = cfg.provenance.get(f"{section}.{key}", "default")
                print(f"  {key} = {getattr(obj, key)}   ({origin})")
        return 0

    if args.output is not None:
        cfg.output.directory = args.output
        cfg.provenance["output.directory"] = "command-line override"
    if args.steps is not None:
        cfg.time = type(cfg.time)(n_steps=args.steps,
                                  t_final=cfg.time.t_final)
        cfg.provenance["time.n_steps"] = "command-line override"

    try:
        result = run_driver(cfg)
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    s = result.summary
    print(f"completed {s['n_steps']} steps: {s['final_cells']} cells, "
          f"{s['final_dofs']} dofs, {s['pinned_dofs']} pinned dofs, "
          f"{s['warnings']} warnings, {s['wall_time_s']:.1f}s")
    return 0


def main():
    raise SystemExit(cli())
