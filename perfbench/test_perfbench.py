"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import csv
import json
import re
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cavityuq import cli  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def cc5_output(tmp_path_factory):
    """The seed's pillbox-cc5 study, run once in this process."""
    work = tmp_path_factory.mktemp("cc5")
    w = workloads.WORKLOADS["pillbox-cc5"]
    config = workloads.study_config(w)
    path = workloads.write_config(work / "study.json", config)
    out = work / "out"
    assert cli.main(["uq", "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
    return checker.Reference(config), out


def _write_table(path, freq):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode"] + [f"node_{k}_f_hz" for k in range(freq.shape[1])])
        for j, row in enumerate(freq):
            writer.writerow([j] + [f"{v:.17g}" for v in row])


def test_checker_passes_seed_pillbox_table(cc5_output):
    reference, out = cc5_output
    score = reference.score(out)
    assert score.problems == []
    assert (score.entries, score.bad) == (30, 0)
    assert score.oracle_rel_err <= checker.ORACLE_TOL


def test_checker_flags_duplicated_track(cc5_output, tmp_path):
    reference, out = cc5_output
    bad_out = tmp_path / "out"
    shutil.copytree(out, bad_out)
    freq = checker.read_mode_table(out / "mode_table.csv")
    moments = checker.read_moments(out / "moments.csv")
    k = 0
    # two tracks of one block whose values at node k are distinct
    j1, j2 = next(
        (a, b)
        for a in range(len(moments))
        for b in range(a + 1, len(moments))
        if moments[a][:2] == moments[b][:2]
        and abs(freq[a, k] - freq[b, k]) > 1e-6 * freq[a, k]
    )
    freq[j2, k] = freq[j1, k]
    _write_table(bad_out / "mode_table.csv", freq)
    assert reference.score(bad_out).bad == 1


def test_distinct_matching_counts_collapsed_pair():
    spectrum = [1.0, 2.0, 2.0 * (1 + 7e-5), 3.0]
    assert checker.count_unmatched([1.0, 2.0, 2.0 * (1 + 7e-5)], spectrum) == 0
    # track 2 ends on track 1's eigenpair: one entry is left without a match
    assert checker.count_unmatched([1.0, 2.0, 2.0], spectrum) == 1
    # an exactly degenerate pair absorbs two equal tracked values
    assert checker.count_unmatched([2.0, 2.0], [2.0, 2.0, 3.0]) == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_setup_grid_is_the_base_point(name):
    w = workloads.WORKLOADS[name]
    reference = checker.Reference(workloads.study_config(w, setup=True))
    assert reference.grid.n_nodes == 1
    assert np.array_equal(reference.grid.nodes[0], np.atleast_1d(reference.base_point))
    assert reference.base_column() == 0


def test_metric_names_are_printable_and_match_benchmark_json():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_cover_every_per_layer_name_and_sum_to_total():
    spans = {s for group in run.SELF_TIME_GROUPS.values() for s in group}
    trace = {
        "self_s": {s: 0.25 for s in spans},
        "calls": {s: 3 for s in spans},
        "param_misses": 1, "tracks": 2, "accepted_steps": 4, "rejected_steps": 1,
        "bordered_solves": 12, "newton_iterations": 8, "min_overlap": 0.9,
        "total_s": 0.25 * len(spans),
    }
    values = run.layer_metrics(trace, untraced_s=2.0, traced_s=2.5)
    assert set(values) == set(run.PER_LAYER)
    assert all(NAME.match(n) for n in values)
    assert sum(values[m] for m in run.SELF_TIME_GROUPS) == pytest.approx(trace["total_s"])
    assert values["trace.overhead_frac"] == pytest.approx(0.25)


def test_study_past_the_deadline_is_killed(tmp_path):
    t0 = time.monotonic()
    res = run.run_study(["-c", "import time; time.sleep(60)"], tmp_path / "out", t0 + 0.5)
    assert res.code == -9
    assert time.monotonic() - t0 < 10
