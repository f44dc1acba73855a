"""The layer trace of perfbench/tracer.py must find every hook it patches.

The tracer replaces functions where their callers look them up, so a
refactor that renames a hook, or that binds a hooked name before the study
runs, would silently stop counting.  These tests load the tracer as it is.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from cavityuq import cli, tracking

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves(tracer):
    hooks = tracer.SPANS + tracer.COUNTERS
    assert hooks
    for _, owner, attr in hooks:
        assert callable(tracer._lookup(owner, attr))


def _counted_study(tracer, monkeypatch, tmp_path, doc):
    """Run one uq study with every hook replaced by a call counter."""
    counts = tracer.Tracer()
    for name, owner, attr in tracer.SPANS + tracer.COUNTERS:
        monkeypatch.setattr(owner, attr, counts.counted(name, tracer._lookup(owner, attr)))
    monkeypatch.setattr(cli, "_PENCIL_CACHE", {})
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["uq", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    return counts.calls


def test_pillbox_study_calls_hooks_at_run_time(tracer, monkeypatch, tmp_path):
    calls = _counted_study(tracer, monkeypatch, tmp_path, {
        "problem": {
            "kind": "pillbox", "length": 0.1, "p_max": 1,
            "distribution": {"family": "uniform", "support": [0.04, 0.06]},
        },
        "discretization": {"degree": 2, "elements": 6},
        "modes": 2,
        "grid": {"kind": "tensor", "family": "clenshaw-curtis", "orders": [3]},
    })
    assert calls["cli.node_tasks"] == 3
    assert calls["pencil.build"] == 1
    assert calls["eigen.solve"] >= 1
    assert calls["pencil.block"] >= 2 * calls["tracking.track_modes"] > 0


_SMALL_DISK = {
    "problem": {
        "kind": "deformed-disk", "radius": 0.05,
        "synthetic": {"variables": 18, "samples": 500, "seed": 1234},
    },
    "discretization": {"degree": 2, "refinement": 2},
    "modes": 1,
    "grid": {"kind": "tensor", "family": "gauss-hermite", "orders": [2, 1, 1, 1, 1, 1, 1]},
}


def test_disk_study_calls_hooks_at_run_time(tracer, monkeypatch, tmp_path):
    calls = _counted_study(tracer, monkeypatch, tmp_path, _SMALL_DISK)
    assert calls["cli.node_tasks"] == 2
    assert calls["tracking.track_modes"] == 2
    assert calls["eigen.solve"] >= 1
    assert calls["assembly.assemble"] >= 3


def test_factorization_hook_sees_every_bordered_solve(tracer, monkeypatch, tmp_path):
    """Every bordered solve must be one splu factorization and one .solve
    that the tracer's tracking.spla proxy counts; a solve path that bypasses
    the proxy would leave the benchmark's factorization counts short."""
    # register every name install() replaces, so the test restores it
    for _, owner, attr in tracer.SPANS + tracer.COUNTERS:
        monkeypatch.setattr(owner, attr, tracer._lookup(owner, attr))
    monkeypatch.setattr(tracking, "spla", tracking.spla)
    monkeypatch.setattr(cli, "_PENCIL_CACHE", {})
    trace = tracer.Tracer()
    tracer.install(trace)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_SMALL_DISK))
    out = tmp_path / "run"
    assert cli.main(["uq", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    solves = summary["bordered_solves"]
    assert solves > 0
    assert trace.calls["tracking.factorize"] == trace.calls["tracking.backsolve"] == solves
    report = tracer.report(trace, 0)
    assert report["bordered_solves"] == solves
    assert report["min_overlap"] == summary["min_overlap"]
