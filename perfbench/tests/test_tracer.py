"""The tracer changes no output, restores what it wraps, and accounts for
the whole traced run; the reference-trace check catches a changed trace."""

import importlib
from pathlib import Path

import pytest

from child import compare_reference, read_trace
from fracture_afem.driver import RunConfig, run
from tracer import LAYERS, SITES, Tracer, layer_metrics
import workloads as wls


def tiny_config(out_dir):
    cfg = RunConfig.with_defaults(n0=8, n_steps=12, t_final=3.0)
    cfg.output.snapshot_every = 2
    cfg.output.directory = str(out_dir)
    return cfg


def originals():
    return {(mod, attr): getattr(importlib.import_module(
        f"fracture_afem.{mod}"), attr) for mod, attr, _ in SITES}


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    plain_dir = tmp_path_factory.mktemp("plain")
    traced_dir = tmp_path_factory.mktemp("traced")
    run(tiny_config(plain_dir))
    tracer = Tracer()
    with tracer:
        with tracer.span("run"):
            run(tiny_config(traced_dir),
                on_step=lambda s, e, report, d: tracer.end_step(report.step))
    return plain_dir, traced_dir, tracer


def test_outputs_byte_identical_with_tracing(traced_pair):
    plain_dir, traced_dir, tracer = traced_pair
    plain = sorted(p.name for p in plain_dir.iterdir())
    assert plain == sorted(p.name for p in traced_dir.iterdir())
    assert "energies.csv" in plain and len(plain) > 2    # snapshots written
    for name in plain:
        assert (plain_dir / name).read_bytes() == \
            (traced_dir / name).read_bytes(), name
    # the wrappers were on the paths that matter
    m = layer_metrics(tracer.spans, tracer.steps_done)
    assert m["mesh.adapt.calls"] > 0 and m["linsolve.pf.iters"] > 0
    assert m["io.snapshot.calls"] == len(plain) - 1
    assert m["driver.steps"] == 11


def test_every_wrapped_name_is_restored():
    before = originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert all(getattr(importlib.import_module(f"fracture_afem.{m}"),
                               a) is not before[(m, a)] for m, a, _ in SITES)
            raise RuntimeError("leave the block early")
    assert originals() == before


def test_layer_self_times_account_for_run(traced_pair):
    m = layer_metrics(traced_pair[2].spans, traced_pair[2].steps_done)
    layers = sum(m[f"layer.{name}.self_s"] for name in LAYERS)
    assert layers + m["trace.untraced_s"] == pytest.approx(m["trace.run_s"],
                                                           abs=1e-9)
    assert m["trace.untraced_s"] >= 0.0


def test_reference_check_catches_a_changed_trace():
    wl = wls.WORKLOADS["paper64"]
    ref = read_trace(Path(wls.__file__).parent / "reference" / "paper64.csv")
    assert compare_reference(wl, ref) == []
    ref[-1]["strain"] = repr(float(ref[-1]["strain"]) * (1 + 1e-4))
    assert any("strain" in e for e in compare_reference(wl, ref))
