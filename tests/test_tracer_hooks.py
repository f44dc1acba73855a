"""The layer trace of perfbench/tracer.py must find every hook it patches.

The tracer replaces functions where their callers look them up, so a
refactor that renames a hook, or that binds a hooked name before the study
runs, would silently stop counting.  These tests load the tracer, and the
spans perfbench/run.py requires, as they are.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from cavityuq import cli, tracking

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("perfbench_tracer", _PERFBENCH / "tracer.py")


@pytest.fixture(scope="module")
def bench_run():
    return _load("perfbench_run", _PERFBENCH / "run.py")


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


_SMALL_PILLBOX = {
    "problem": {
        "kind": "pillbox", "length": 0.1, "p_max": 1,
        "distribution": {"family": "uniform", "support": [0.04, 0.06]},
    },
    "discretization": {"degree": 2, "elements": 6},
    "modes": 2,
    "grid": {"kind": "tensor", "family": "clenshaw-curtis", "orders": [3]},
}


def test_pillbox_study_calls_hooks_at_run_time(tracer, monkeypatch, tmp_path):
    calls = _counted_study(tracer, monkeypatch, tmp_path, _SMALL_PILLBOX)
    # one node task per chunk: the 3 nodes fit one (15 nodes at n = 64)
    assert calls["cli.node_tasks"] == 1
    assert calls["pencil.build"] == 1
    assert calls["eigen.solve"] >= 1
    assert calls["pencil.block"] >= calls["tracking.track_modes"] > 0


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
    # one node task and one track_modes per chunk: the 2 nodes fit one
    assert calls["cli.node_tasks"] == 1
    assert calls["tracking.track_modes"] == 1
    assert calls["eigen.solve"] >= 1
    # the base pencil and one per node, neither grid node being the base
    assert calls["geometry.deform"] == calls["assembly.assemble"] == 3


def test_disk_node_evaluates_no_basis(tracer, monkeypatch, tmp_path):
    """A disk node is an axpy of the model's Jacobian fields and a scatter
    on the kept kernel: the basis kernel runs as often on 6 nodes as on 2."""
    evals = []
    for order in (2, 6):
        doc = dict(_SMALL_DISK, grid=dict(_SMALL_DISK["grid"], orders=[order] + [1] * 6))
        (tmp_path / str(order)).mkdir()
        calls = _counted_study(tracer, monkeypatch, tmp_path / str(order), doc)
        assert calls["cli.node_tasks"] == 1   # one chunk holds every node
        assert calls["geometry.deform"] == calls["assembly.assemble"] == order + 1
        evals.append(calls["splines.basis_evals"])
    assert evals[0] == evals[1] > 0


def test_pillbox_node_assembles_nothing(tracer, monkeypatch, tmp_path):
    """A pillbox node scales the mass data of the two cross-sections, which
    are assembled once per study: 2 assemblies at 3 nodes and at 5."""
    for order in (3, 5):
        doc = dict(_SMALL_PILLBOX, grid=dict(_SMALL_PILLBOX["grid"], orders=[order]))
        (tmp_path / str(order)).mkdir()
        calls = _counted_study(tracer, monkeypatch, tmp_path / str(order), doc)
        assert calls["cli.node_tasks"] == 1   # one chunk holds every node
        assert calls["pencil.build"] == 1
        assert calls["assembly.assemble"] == 2


def _installed(tracer, monkeypatch):
    """A Tracer put in place by tracer.install(); every name install()
    replaces is registered with monkeypatch, so the test restores it."""
    for _, owner, attr in tracer.SPANS + tracer.COUNTERS:
        monkeypatch.setattr(owner, attr, tracer._lookup(owner, attr))
    monkeypatch.setattr(tracking, "spla", tracking.spla)
    monkeypatch.setattr(cli, "_PENCIL_CACHE", {})
    trace = tracer.Tracer()
    tracer.install(trace)
    return trace


def test_factorization_hook_sees_every_bordered_solve(tracer, monkeypatch, tmp_path):
    """Every factorization must be one splu call, and every bordered solve
    one .solve, that the tracer's tracking.spla proxy counts; a solve path
    that bypasses the proxy would leave the benchmark's counts short."""
    trace = _installed(tracer, monkeypatch)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_SMALL_DISK))
    out = tmp_path / "run"
    assert cli.main(["uq", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    solves = summary["bordered_solves"]
    assert 0 < summary["factorizations"] < solves
    assert trace.calls["tracking.factorize"] == summary["factorizations"]
    assert trace.calls["tracking.backsolve"] == solves
    report = tracer.report(trace, 0)
    assert report["bordered_solves"] == solves
    assert report["min_overlap"] == summary["min_overlap"]


def test_factorization_hook_sees_every_cluster_solve(tracer, monkeypatch, tmp_path):
    """The cluster path factorizes through tracking.spla as well: with the
    m = 1 pair tracked as one cluster, every factorization is still one
    traced splu call and every bordered solve one traced back-solve."""
    trace = _installed(tracer, monkeypatch)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(_SMALL_DISK, modes=3)))
    out = tmp_path / "run"
    assert cli.main(["uq", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["clusters"] > 0
    assert trace.calls["tracking.factorize"] == summary["factorizations"]
    assert trace.calls["tracking.backsolve"] == summary["bordered_solves"]


def _assert_report_counts_summary(tracer, monkeypatch, tmp_path, modes):
    """Run the small disk traced at the given mode count; the tracer's
    step, Newton and solve counts must be summary.json's.  Returns the
    summary."""
    trace = _installed(tracer, monkeypatch)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(_SMALL_DISK, modes=modes)))
    out = tmp_path / "run"
    assert cli.main(["uq", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    report = tracer.report(trace, 0)
    newton = summary["newton"]
    assert report["accepted_steps"] == newton["accepted_steps"]
    assert report["rejected_steps"] == summary["rejected_steps"]
    assert report["newton_iterations"] == newton["mean"] * newton["accepted_steps"]
    assert report["bordered_solves"] == summary["bordered_solves"]
    return summary


def test_track_statistics_count_cluster_members(tracer, monkeypatch, tmp_path):
    """The tracer reads per-track statistics through tracking.track, which
    tracks every group, clusters as well as lone starts: with the m = 1
    pair tracked as one cluster and no partner tracked, its step, Newton
    and solve counts are summary.json's."""
    summary = _assert_report_counts_summary(tracer, monkeypatch, tmp_path, modes=3)
    assert summary["clusters"] > 0


def test_track_statistics_count_the_partner(tracer, monkeypatch, tmp_path):
    """At two modes the second start's cluster takes the next pair of the
    start pencil as partner, whose track is not returned: its accepted
    steps, Newton iterations and rejections count with the last start, as
    its solves do, so summary.json's counts are the tracer's (6 accepted
    steps, against 4 when only the solves were counted)."""
    summary = _assert_report_counts_summary(tracer, monkeypatch, tmp_path, modes=2)
    assert summary["clusters"] > 0
    assert summary["newton"]["accepted_steps"] == 6


def test_factorization_hook_sees_the_sparse_tier(tracer, monkeypatch, tmp_path):
    """Above DENSE_CUTOFF the tracker factors CSC matrices with SuperLU
    through the same seam: at 24 elements (n = 576 and 676) every
    factorization and back-solve is still one traced call."""
    trace = _installed(tracer, monkeypatch)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(_SMALL_PILLBOX, discretization={"degree": 2, "elements": 24})))
    out = tmp_path / "run"
    assert cli.main(["uq", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    layouts = [pen.pattern.bordered for pen in cli._pillbox_parametric(
        0.05, 0.1, 1, 2, 24).base.values()]
    assert all(layout.perm_c is not None for layout in layouts)
    assert 0 < summary["factorizations"] < summary["bordered_solves"]
    assert trace.calls["tracking.factorize"] == summary["factorizations"]
    assert trace.calls["tracking.backsolve"] == summary["bordered_solves"]


@pytest.mark.parametrize(
    "kind, doc", [("pillbox", _SMALL_PILLBOX), ("deformed-disk", _SMALL_DISK)]
)
def test_benchmark_required_spans_run(tracer, bench_run, monkeypatch, tmp_path, kind, doc):
    """Every span perfbench/run.py requires of a workload kind fires in a
    traced study, with cli.main timed as tracer.main times it; otherwise
    --trace 1 would report "span never ran"."""
    trace = _installed(tracer, monkeypatch)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    argv = ["uq", "--config", str(cfg), "--out", str(tmp_path / "run"), "--workers", "1"]
    assert trace.timed("cli.main", cli.main)(argv) == 0
    required = bench_run.EXPECTED_CALLS["common"] + bench_run.EXPECTED_CALLS[kind]
    assert [span for span in required if not trace.calls[span]] == []
