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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .driver import RunConfig, run as run_driver
from .dynamics import degradation
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


# section -> key -> type, read off the section dataclasses: each key's type
# is that of its default
_SCHEMA = {section: {f.name: type(f.default) for f in fields(typ)}
           for section, typ in RunConfig.sections().items()}


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
        if (section, key) in entries:
            raise ConfigError(f"line {lineno}: repeated key {key!r} "
                              f"in section [{section}]")
        entries[(section, key)] = _parse_value(raw, _SCHEMA[section][key],
                                               lineno)
    return entries


def load_config(path, **overrides):
    """Parse a config file into a fully populated, validated
    :class:`RunConfig`.

    The keys found, with ``overrides`` (config keys by name) on top, go to
    :meth:`RunConfig.with_defaults`, so omitted keys take the edge-crack
    experiment defaults and the derived quantities (regularization length,
    density, viscosity, ramp end) follow the mesh and time configured; every
    value's provenance is recorded on the config.
    """
    entries = _read_entries(path)
    try:
        cfg = RunConfig.with_defaults(**{
            **{key: value for (_, key), value in entries.items()},
            **overrides})
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    for section, keys in _SCHEMA.items():
        for key in keys:
            if key in overrides:
                cfg.provenance[f"{section}.{key}"] = "command-line override"
            elif (section, key) in entries:
                cfg.provenance[f"{section}.{key}"] = "config-file"
    return cfg


def write_config(cfg, path):
    """Serialize every configurable key; ``load_config`` restores it exactly.

    Raises
    ------
    ValueError
        Naming the key, for a string value the format cannot carry: one
        with a ``#`` (a comment starts there), a line break, or leading or
        trailing blanks (the parser strips them).
    """
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        obj = getattr(cfg, section)
        for key in keys:
            value = getattr(obj, key)
            if isinstance(value, str) and ("#" in value or value != value.strip()
                                           or len(value.splitlines()) > 1):
                raise ValueError(f"cannot write {section}.{key} = {value!r}: "
                                 "it holds '#', a line break or outer blanks")
            lines.append(f"{key} = {value}")
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
    area = mesh.signed_areas()
    gu = element_gradients(state.u_curr, mesh)
    gu2 = (gu ** 2).sum(axis=1)
    corners = mesh.triangles.ravel()
    num = np.bincount(corners, weights=np.repeat(gu2 * area, 3),
                      minlength=mesh.n_vertices)
    den = np.bincount(corners, weights=np.repeat(area, 3),
                      minlength=mesh.n_vertices)
    gu2_nodal = num / np.maximum(den, 1e-300)
    stress = degradation(state.v, cfg.material).values * gu2_nodal
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


# rows formatted per write of a snapshot: a block's text and value tuple
# are all that is held at once, not the whole file's
ROW_BLOCK = 4096


def _write_rows(fh, fmt, values):
    """Write one ``fmt`` line per row of ``values``, ``ROW_BLOCK`` rows at a
    time, each block formatted by a single ``%`` (the same text as
    formatting each value alone)."""
    values = np.asarray(values)
    for start in range(0, len(values), ROW_BLOCK):
        block = values[start:start + ROW_BLOCK]
        fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def write_snapshot(snap, directory):
    """Legacy-ASCII unstructured-grid file, byte-deterministic.

    Raises
    ------
    ValueError
        If a field's length is not the vertex or triangle count of the
        snapshot's mesh; checked before the file is opened.
    """
    mesh = snap.mesh
    nv, nt = mesh.n_vertices, mesh.n_triangles
    sections = (("POINT", nv, snap.point_fields),
                ("CELL", nt, snap.cell_fields))
    for kind, size, fields in sections:
        for name, values in fields.items():
            if len(values) != size:
                raise ValueError(f"{kind.lower()} field {name!r} not bound "
                                 "to this mesh")
    path = prepare_output(directory) / f"snapshot_{snap.step:06d}.vtk"
    with path.open("w") as fh:
        fh.write("# vtk DataFile Version 3.0\n"
                 f"fracture state step {snap.step} time {_fmt(snap.time)}\n"
                 "ASCII\nDATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {nv} double\n")
        _write_rows(fh, "%.9e %.9e %.9e\n",
                    np.column_stack([mesh.vertices, np.zeros(nv)]))
        fh.write(f"CELLS {nt} {4 * nt}\n")
        _write_rows(fh, "3 %d %d %d\n", mesh.triangles)
        fh.write(f"CELL_TYPES {nt}\n" + "5\n" * nt)
        for kind, size, fields in sections:
            fh.write(f"{kind}_DATA {size}\n")
            for name, values in fields.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                _write_rows(fh, "%.9e\n", values)
    return path


def write_energy_trace(reports, path):
    """Append one CSV row per report, floats in fixed %.9e format; a new
    file starts with the header line."""
    if not reports:
        raise ValueError("no energy reports to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [",".join([
        str(r.step), _fmt(r.time), _fmt(r.kinetic), _fmt(r.strain),
        _fmt(r.surface), _fmt(r.total), _fmt(r.r_h), _fmt(r.r_min),
        _fmt(r.r_max), str(r.n_dofs), str(r.n_cells)]) for r in reports]
    with open(path, "a") as fh:
        if fh.tell() == 0:
            rows.insert(0, "step,time,kinetic,strain,surface,total,"
                           "estimator,est_min,est_max,ndofs,ncells")
        fh.write("\n".join(rows) + "\n")
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
    # the overrides are config keys, passed to load_config by name
    p_run.add_argument("--output", dest="directory", metavar="OUTPUT",
                       default=argparse.SUPPRESS)
    p_run.add_argument("--steps", dest="n_steps", metavar="STEPS", type=int,
                       default=argparse.SUPPRESS)

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

    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("command", "config")}
    try:
        cfg = load_config(args.config, **overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "check-config":
        for section, keys in _SCHEMA.items():
            obj = getattr(cfg, section)
            print(f"[{section}]")
            for key in keys:
                origin = cfg.provenance.get(f"{section}.{key}", "default")
                print(f"  {key} = {getattr(obj, key)}   ({origin})")
        return 0

    def print_warnings(state, est, report, record):
        for warning in record.warnings:
            print(f"warning: {warning}", file=sys.stderr)

    try:
        result = run_driver(cfg, on_step=print_warnings)
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


if __name__ == "__main__":
    main()
