"""Config files, output writers, and the command line.

The config format is flat sectioned key-value text (INI-like), parsed
strictly: unknown sections or keys and malformed values are rejected with
the offending line number, so a typo cannot silently fall back to a
default.  Snapshots are legacy-ASCII unstructured-grid files with fixed
``%.9e`` float formatting, byte-deterministic for identical inputs.  Their
text comes from a vectorized kernel that writes the bytes ``%.9e`` and
``%d`` would, value for value; ``%`` itself formats only the floats the
kernel cannot prove (those near a decimal tie, NaN, the infinities,
magnitudes outside ``[1e-290, 1e299]``) and every block of rows that
holds an id outside ``[0, 10^8)``.
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
    gx, gy = element_gradients(state.u_curr, mesh)
    gu2 = gx ** 2 + gy ** 2
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


# rows formatted per write of a snapshot: a block's text and temporaries
# are all that is held at once, not the whole file's
ROW_BLOCK = 4096

# Snapshot text.  Every value gets a fixed-width slot of ASCII bytes with
# NULs where its text is shorter (no sign, a two-digit exponent, a short
# id); a block's slots are joined and the NULs deleted in one pass, which
# leaves the text of ``%.9e`` and ``%d`` byte for byte.  A float the kernel
# cannot prove it formats exactly is formatted into its slot by ``%``, and a
# block of ids that holds one it cannot write is formatted by ``%`` whole.

_POW0 = 300                 # _POW10[_POW0 + k] is 10^k, correctly rounded
_POW10 = np.array([float(f"1e{k}") for k in range(-_POW0, 309)])
# the kernel's range of magnitudes: there ``9 - e``, with ``e`` moved by
# one either way, stays an index of the power table
_LOW, _HIGH = 1e-290, 1e299


def _ascii(texts, width):
    """``texts`` NUL-padded to ``width`` bytes, ``width / 4`` uint32 words
    each; in memory the words hold the bytes of the text in order."""
    return np.array(texts, dtype=f"S{width}").view(np.uint32).reshape(
        len(texts), width // 4)


# the five words of a float's slot: sign, first digit, point and second
# digit; two words of four digits; "e", the exponent sign and two digits;
# a third exponent digit if any, then the separator
_HEAD = _ascii([b"%s%d.%d" % (sign, k // 10, k % 10)
                for sign in (b"", b"-") for k in range(100)], 4)[:, 0]
_QUAD = _ascii([b"%04d" % k for k in range(10000)], 4)[:, 0]
_EXP0 = 310                 # exponent e is entry e + _EXP0


def _exponents(sep):
    """The last two words of a float's slot for each exponent, the slot
    ending in ``sep``."""
    return _ascii([b"e%+03d%s" % (e, sep) for e in range(-_EXP0, _EXP0)],
                  8).T.copy()


_EXP, _BLANK = _exponents(b" ")
_NEWLINE = _exponents(b"\n")[1]


def _decimal(a):
    """The ten significant digits of ``%.9e`` for the absolute values
    ``a``, as ``(D, e, ok)``: where ``ok``, ``a`` rounds to the integer
    ``D`` in ``[1e9, 1e10)`` times ``10^(e - 9)`` (``D = e = 0`` for a
    zero), as ``%`` rounds it: to the nearest, a tie to even.

    ``e = floor(log10 a)``, moved by one where ``y = a 10^(9 - e)`` is not
    in ``[1e9, 1e10)``.  With the correctly rounded power of the table,
    ``y`` is within ``2^-52 y`` of the exact ``a 10^(9 - e)``, and forming
    ``y + 0.5`` and then ``y + 0.5 -+ b``, ``b = 2^-50 y``, rounds by at
    most ``2^-52 y`` each (``b`` is at least four ulps of ``y``).  So the
    exact value plus one half lies strictly inside the two, and where their
    floors agree that floor is the rounded ``D``: no decimal tie, which
    ``%`` would round to even, is that near.  An exact power of ten has
    ``y = 1e9`` exactly and passes.  ``ok`` is false, and ``%`` formats
    the value, within ``b`` of a tie (about one in 10^5 of random digits,
    exact ties among them), for NaN and the infinities, and for nonzero
    magnitudes outside ``[_LOW, _HIGH]``, subnormals among them.
    """
    normal = (a >= _LOW) & (a <= _HIGH)
    kernel = normal | (a == 0.0)
    a = np.where(normal, a, 0.0)
    e = np.floor(np.log10(np.where(normal, a, 1.0))).astype(np.intp)
    y = a * _POW10[_POW0 + 9 - e]
    off = normal & ((y < 1e9) | (y >= 1e10))
    if off.any():
        e[off] += np.where(y[off] < 1e9, -1, 1)
        y[off] = a[off] * _POW10[_POW0 + 9 - e[off]]
    h = y + 0.5
    b = y * 2.0 ** -50
    D = np.floor(h)
    ok = kernel & (np.floor(h - b) == np.floor(h + b))
    carry = D == 1e10
    D[carry] = 1e9
    e[carry] += 1
    return D, e, ok


def _float_rows(x):
    """The text of the rows of the 2-D float block ``x``, each value as
    ``%.9e``, blank-separated, a newline after each row."""
    x = np.asarray(x, dtype=np.float64)
    D, e, ok = _decimal(np.abs(x))
    lead = np.floor(D / 1e8)                    # the first two digits
    rest = (D - lead * 1e8).astype(np.uint32)   # the last eight
    quad = rest // 10000
    head = lead.astype(np.intp)
    head[np.signbit(x)] += 100
    e += _EXP0
    slots = np.empty(x.shape + (5,), dtype=np.uint32)
    slots[..., 0] = _HEAD[head]
    slots[..., 1] = np.take(_QUAD, quad)
    slots[..., 2] = np.take(_QUAD, rest - 10000 * quad)
    slots[..., 3] = np.take(_EXP, e)
    slots[:, :-1, 4] = np.take(_BLANK, e[:, :-1])
    slots[:, -1, 4] = np.take(_NEWLINE, e[:, -1])
    bad = ~ok
    if bad.any():
        last = np.nonzero(bad)[1] == x.shape[1] - 1
        slots[bad] = _ascii([b"%.9e%s" % (v, b"\n" if end else b" ")
                             for v, end in zip(x[bad].tolist(), last)], 20)
    return slots.tobytes().translate(None, b"\0")


# an id's two words: its high four digits as ``%d``, nothing for none; its
# low four from _QUAD after a high word, else as ``%d``
_DIGITS = np.arange(10000).astype("S4").view(np.uint32)
_LEAD = np.where(np.arange(10000) > 0, _DIGITS, 0)
_CELL, _SPACE, _LINE = _ascii([b"3 ", b" ", b"\n"], 4)[:, 0]


def _cell_rows(triangles):
    """The text of the rows of the 2-D integer block ``triangles``, each
    ``3 i j k`` with the ids as ``%d``: an id in ``[0, 10^8)`` as two words
    of digits; a block that holds any other id is formatted by ``%``."""
    ids = np.asarray(triangles)
    rows, cols = ids.shape
    if not _ids_fit(ids):
        return (b"3" + b" %d" * cols + b"\n") * rows % tuple(
            ids.ravel().tolist())
    high, low = np.divmod(ids.astype(np.uint32), 10000)
    line = np.empty((rows, 1 + 3 * cols), dtype=np.uint32)
    line[:, 0] = _CELL
    words = line[:, 1:].reshape(rows, cols, 3)
    words[..., 0] = np.take(_LEAD, high)
    words[..., 1] = np.where(high > 0, np.take(_QUAD, low),
                             np.take(_DIGITS, low))
    words[..., 2] = _SPACE
    words[:, -1, 2] = _LINE
    return line.tobytes().translate(None, b"\0")


def _ids_fit(ids):
    """Whether the kernel writes the block of ids ``ids``: all in ``[0,
    10^8)``."""
    return ids.size == 0 or (ids.min() >= 0 and ids.max() < 10 ** 8)


def _fallbacks(values):
    """How many of ``values`` the snapshot text formats with ``%`` rather
    than by the kernel: floats that :func:`_decimal` does not prove, and
    every id of a block of ``ROW_BLOCK`` rows that holds an id outside
    ``[0, 10^8)``."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return int(np.count_nonzero(~_decimal(np.abs(values))[2]))
    blocks = (values[i:i + ROW_BLOCK] for i in range(0, len(values),
                                                     ROW_BLOCK))
    return sum(block.size for block in blocks if not _ids_fit(block))


def _write_rows(fh, text, values):
    """Write the rows of ``values`` (a 1-D array is one column) as the
    ``text`` of blocks of ``ROW_BLOCK`` rows."""
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    for start in range(0, len(values), ROW_BLOCK):
        fh.write(text(values[start:start + ROW_BLOCK]))


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
    with path.open("wb") as fh:
        fh.write("# vtk DataFile Version 3.0\n"
                 f"fracture state step {snap.step} time {_fmt(snap.time)}\n"
                 "ASCII\nDATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {nv} double\n".encode())
        _write_rows(fh, _float_rows,
                    np.column_stack([mesh.vertices, np.zeros(nv)]))
        fh.write(f"CELLS {nt} {4 * nt}\n".encode())
        _write_rows(fh, _cell_rows, mesh.triangles)
        fh.write(f"CELL_TYPES {nt}\n".encode() + b"5\n" * nt)
        for kind, size, fields in sections:
            fh.write(f"{kind}_DATA {size}\n".encode())
            for name, values in fields.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
                         .encode())
                _write_rows(fh, _float_rows, values)
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
