"""End-to-end driver tests on small study configurations."""

import concurrent.futures
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cavityuq import cli, oracle, tracking, uq
from cavityuq.assembly import DiscreteSpace
from cavityuq.eigen import DENSE_CUTOFF, solve_smallest
from cavityuq.errors import TrackingFailure
from cavityuq.geometry import load_deformation_spec
from cavityuq.pencil import (
    block_pencil,
    build_pillbox_pencil,
    eigenvalue_to_frequency,
    is_spurious,
)


def run_cli(*argv):
    return cli.main(list(argv))


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def count_lu_calls(monkeypatch):
    """Route the tracker's factorizations through counters, on a cold
    pencil cache.

    Returns (factorizations, solves): the permc_spec of every splu call
    ("default" when none is given) and one entry per back-solve.
    """
    factorizations, solves = [], []
    seam = tracking.spla.splu

    def splu(A, **options):
        factorizations.append(options.get("permc_spec", "default"))
        lu = seam(A, **options)

        def solve(rhs):
            solves.append(A.shape)
            return lu.solve(rhs)

        return SolveSpy(lu, solve)

    monkeypatch.setattr(tracking, "spla", SimpleNamespace(splu=splu))
    monkeypatch.setattr(cli, "_PENCIL_CACHE", {})
    return factorizations, solves


class SolveSpy:
    """An LU whose solve is the given function; every other attribute (a
    SuperLU's perm_c) is the LU's own."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


PILLBOX_UQ = {
    "problem": {
        "kind": "pillbox",
        "length": 0.1,
        "p_max": 1,
        "distribution": {"family": "uniform", "support": [0.04, 0.06]},
    },
    "discretization": {"degree": 2, "elements": 8},
    "modes": 3,
    "grid": {"kind": "tensor", "family": "clenshaw-curtis", "orders": [5]},
}


# TM010 (block TM0) and TE111 (block TE1) cross near r = 0.049 m
PILLBOX_TRACK = {
    "problem": {"kind": "pillbox", "length": 0.1, "p_max": 1},
    "discretization": {"degree": 2, "elements": 8},
    "modes": 2,
    "sweep": {"start": 0.06, "stop": 0.04, "samples": 11},
}


# the small disk study of tests/test_tracer_hooks.py: two nodes off the base
SMALL_DISK = {
    "problem": {
        "kind": "deformed-disk", "radius": 0.05,
        "synthetic": {"variables": 18, "samples": 500, "seed": 1234},
    },
    "discretization": {"degree": 2, "refinement": 2},
    "modes": 1,
    "grid": {"kind": "tensor", "family": "gauss-hermite", "orders": [2, 1, 1, 1, 1, 1, 1]},
}


class TestConfigValidation:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("uq", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("uq", "--config", str(path), "--out", str(tmp_path)) == 2

    def test_unknown_top_level_key(self, tmp_path):
        doc = dict(PILLBOX_UQ, surprise=1)
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("uq", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    def test_unknown_problem_key(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PILLBOX_UQ))
        doc["problem"]["typo"] = True
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("uq", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "typo" in capsys.readouterr().err

    def test_range_checks(self, tmp_path):
        doc = json.loads(json.dumps(PILLBOX_UQ))
        doc["modes"] = 0
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("uq", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    def test_bad_tracking_overrides(self, tmp_path):
        doc = json.loads(json.dumps(PILLBOX_UQ))
        doc["tracking"] = {"n1": 5, "n2": 2}
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("uq", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize(
        "override",
        [{"n1": 0}, {"n2": 3}, {"eta1": 1.0}, {"eta2": 1.0}, {"newton_tol": 0.0},
         {"min_step": 0.0}],
        ids=["n1=0", "n2<=n1", "eta1<=1", "eta2>=1", "newton_tol=0", "min_step=0"],
    )
    def test_tracking_bounds_are_trackconfigs(self, tmp_path, capsys, override):
        # the parser leaves every bound to TrackConfig, so each one reads the
        # same: the section, then TrackConfig's own message
        cfg = write_config(tmp_path, "c.json", dict(PILLBOX_UQ, tracking=override))
        assert run_cli("uq", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("config error: config.tracking: ")

    @pytest.mark.parametrize(
        "command, doc",
        [("uq", PILLBOX_UQ), ("uq", SMALL_DISK), ("track", PILLBOX_TRACK)],
        ids=["pillbox", "disk", "track"],
    )
    def test_empty_sections_read_as_missing(self, tmp_path, command, doc):
        base = {key: value for key, value in doc.items() if key != "discretization"}
        outputs = []
        for name, extra in (("missing", {}), ("empty", {"discretization": {}, "tracking": {}})):
            cfg = write_config(tmp_path, f"{name}.json", dict(base, **extra))
            out = tmp_path / name
            assert run_cli(command, "--config", cfg, "--out", str(out)) == 0
            outputs.append({
                p.name: p.read_bytes() for p in out.iterdir() if p.name != "summary.json"
            })
            summary = json.loads((out / "summary.json").read_text())
            outputs[-1]["summary.json"] = dict(summary, timestamp_utc=None)
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) >= 4

    def test_readme_lists_exactly_the_tracking_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        head = "Optional `tracking` overrides (any config): `"
        start = readme.index(head) + len(head)
        documented = json.loads(readme[start:readme.index("`", start)])
        taken = []

        class Recording(cli._Section):
            def take(self, key, *args, **kwargs):
                taken.append(key)
                return super().take(key, *args, **kwargs)

        cli._parse_tracking(Recording({}, "tracking"))
        assert sorted(taken) == sorted(documented)
        cfg = cli._parse_tracking(cli._Section(documented, "tracking"))
        assert {key: getattr(cfg, key) for key in documented} == documented

    def test_readme_lists_exactly_the_summary_keys(self, tmp_path, pillbox_uq_run):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        head = "`summary.json` keys of `uq`:\n\n"
        start = readme.index(head) + len(head)
        bullets = readme[start:readme.index("\n\n", start)].split("\n- ")
        documented = [bullet.split("`")[1] for bullet in bullets]
        grid = {"kind": "tensor", "family": "gauss-hermite", "orders": [1] * 7}
        cfg = write_config(tmp_path, "c.json", dict(SMALL_DISK, grid=grid))
        assert cli.main(["uq", "--config", cfg, "--out", str(tmp_path / "disk")]) == 0
        written = set()
        for out in (pillbox_uq_run[1], tmp_path / "disk"):
            written.update(json.loads((out / "summary.json").read_text()))
        assert sorted(documented) == sorted(written)

    @pytest.mark.parametrize(
        "where, value",
        [
            ("modes", math.nan),
            ("modes", math.inf),
            ("problem.length", math.inf),
            ("problem.length", math.nan),
            ("problem.length", 10**400),
            ("problem.distribution.support", [0.04, math.inf]),
            ("tracking.min_step", math.nan),
        ],
        ids=["modes-nan", "modes-inf", "length-inf", "length-nan", "length-beyond-float",
             "support-inf", "min-step-nan"],
    )
    def test_non_finite_number(self, tmp_path, capsys, where, value):
        # json writes NaN and Infinity, and Python's json reads them back
        doc = json.loads(json.dumps(PILLBOX_UQ))
        *path, key = where.split(".")
        section = doc
        for name in path:
            section = section.setdefault(name, {})
        section[key] = value
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("uq", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config.{where}: ") and "Traceback" not in err

    def test_bad_worker_count(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", PILLBOX_UQ)
        assert run_cli("uq", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "0") == 2

    @pytest.mark.parametrize(
        "command, key, content",
        [(command, "observations", content) for command in ("kl-fit", "uq") for content in (
            None,                           # missing
            "a,b\n1.0,2.0\n3.0,x\n",        # non-numeric cell
            "a,b\n1.0,2.0\n3.0\n",          # ragged row
            "a,b\n1.0,2.0\n",               # too few sample rows
            "a,b\n1.0,2.0\n3.0,nan\n",      # NaN cell
            "a,b\n1.0,2.0\n3.0,inf\n",      # infinite cell
        )] + [("uq", "model", content) for content in (
            None,
            "{not json",
            json.dumps({"station_angles": [0.0, 3.0], "kind": "radial", "mean": [0.0, 0.0]}),
            json.dumps({"station_angles": [0.0, 3.0], "kind": "radial", "mean": [0.0, 0.0],
                        "modes": []}),
            json.dumps({"station_angles": [0.0, 3.0], "kind": "radial", "mean": [0.0],
                        "modes": [[1e-4], [2e-4]]}),
            json.dumps({"station_angles": [0.0, 3.0], "kind": "radial", "mean": [math.nan, 0.0],
                        "modes": [[1e-4], [2e-4]]}),
        )],
        ids=[f"{c}-observations-{k}" for c in ("kl-fit", "uq")
             for k in ("missing", "non-numeric", "ragged", "short", "nan", "inf")]
        + ["uq-model-missing", "uq-model-invalid-json", "uq-model-without-modes",
           "uq-model-empty-modes", "uq-model-short-mean", "uq-model-nan-mean"],
    )
    def test_bad_file_named_by_config(self, tmp_path, capsys, command, key, content):
        path = tmp_path / ("model.json" if key == "model" else "obs.csv")
        if content is not None:
            path.write_text(content)
        if command == "kl-fit":
            doc = {key: str(path)}
        else:
            doc = {
                "problem": {"kind": "deformed-disk", "radius": 0.05, key: str(path)},
                "modes": 1,
                "grid": {"kind": "smolyak", "family": "gauss-hermite", "level": 1},
            }
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value, message",
        [("seed", -1, "config.problem.synthetic.seed: -1 is below the minimum 0"),
         ("criterion", 0, "config.problem.criterion: criterion must lie in (0, 1]"),
         ("criterion", 2.0, "config.problem.criterion: criterion must lie in (0, 1]"),
         # one sample above 10**7 entries of 18 variables
         ("samples", 555_556,
          "config.problem.synthetic.samples: 555556 exceeds the maximum 555555"),
         # value is the criterion given beside a model
         ("model", 5.0, "config.problem.criterion: a model fixes its retained modes")],
        ids=["seed=-1", "criterion=0", "criterion=2.0", "samples-over-cap",
             "criterion-with-model"],
    )
    def test_disk_source_bounds(self, tmp_path, capsys, key, value, message):
        doc = json.loads(json.dumps(SMALL_DISK))
        if key in ("seed", "samples"):
            doc["problem"]["synthetic"][key] = value
        elif key == "model":
            model = tmp_path / "model.json"
            model.write_text(json.dumps({"station_angles": [0.0, 3.0], "kind": "radial",
                                         "mean": [0.0, 0.0], "modes": [[1e-4], [2e-4]]}))
            doc["problem"] = {"kind": "deformed-disk", "radius": 0.05, "model": str(model),
                              "criterion": value}
            doc["grid"]["orders"] = [2]
        else:
            doc["problem"][key] = value
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("uq", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_kl_fit_criterion_bound(self, tmp_path, capsys, save_observations):
        obs = uq.generate_synthetic_observations(np.eye(3), np.zeros(3), 20, seed=5)
        save_observations(tmp_path / "obs.csv", obs)
        cfg = write_config(tmp_path, "c.json",
                           {"observations": str(tmp_path / "obs.csv"), "criterion": 1.5})
        assert run_cli("kl-fit", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config.criterion: criterion must lie in (0, 1], got 1.5"
        )

    def test_numerical_failure_exit(self, tmp_path):
        # 18 stations cannot be interpolated on a once-refined patch
        doc = {
            "problem": {
                "kind": "deformed-disk",
                "radius": 0.05,
                "synthetic": {"variables": 18, "samples": 200, "seed": 3},
            },
            "discretization": {"degree": 2, "refinement": 1},
            "modes": 1,
            "grid": {"kind": "smolyak", "family": "gauss-hermite", "level": 1},
        }
        cfg = write_config(tmp_path, "c.json", doc)
        assert run_cli("uq", "--config", cfg, "--out", str(tmp_path / "o")) == 3


class TestPillboxReference:
    def test_labeled_table(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"radius": 0.05, "length": 0.1, "count": 10})
        out = tmp_path / "ref"
        assert run_cli("pillbox-reference", "--config", cfg, "--out", str(out)) == 0
        rows = read_csv(out / "pillbox_reference.csv")
        assert rows[0] == ["family", "m", "n", "p", "degeneracy", "f_hz"]
        assert rows[1][0] == "TM" and rows[1][3] == "0"
        f_tm010 = oracle.C0 * oracle.bessel_zero(0, 1) / (2.0 * math.pi * 0.05)
        assert abs(float(rows[1][5]) - f_tm010) < 1e-3
        assert len(rows) == 1 + 10
        assert all(int(r[4]) == (2 if int(r[1]) >= 1 else 1) for r in rows[1:])

    def test_count_50_writes_50_rows(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"radius": 0.05, "length": 0.1, "count": 50})
        out = tmp_path / "ref"
        assert run_cli("pillbox-reference", "--config", cfg, "--out", str(out)) == 0
        assert len(read_csv(out / "pillbox_reference.csv")) == 1 + 50


class TestGridCommand:
    def test_smolyak_dump(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"grid": {"kind": "smolyak", "family": "gauss-hermite", "dim": 7, "level": 2}},
        )
        out = tmp_path / "g"
        assert run_cli("grid", "--config", cfg, "--out", str(out)) == 0
        back = uq.load_grid_csv(out / "grid.csv")
        assert back.n_nodes == 127 and back.dim == 7
        assert abs(back.weights.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "grid, message",
        [({"kind": "smolyak", "family": "gauss-hermite", "dim": 7, "level": 6},
          "smolyak grid of level 6 in dimension 7 visits more than 142857 points"),
         ({"kind": "tensor", "family": "gauss-legendre", "orders": [2050]},
          "gauss-legendre rule of order 2050 exceeds the cap of 2049")],
        ids=["smolyak-level-6", "legendre-order-2050"],
    )
    def test_grid_over_its_cap_is_refused(self, tmp_path, capsys, grid, message):
        cfg = write_config(tmp_path, "c.json", {"grid": grid})
        out = tmp_path / "g"
        assert run_cli("grid", "--config", cfg, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"config error: config.grid: {message}")
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize(
        "orders", [[2049, 2049, 2], [64, 64, 64, 1, 1, 1, 1]], ids=["nodes", "dimension"]
    )
    def test_tensor_grid_over_its_cap_is_refused_before_any_rule(
        self, tmp_path, capsys, monkeypatch, orders
    ):
        # 8,396,802 nodes, and 262,144 nodes in dimension 7: both over the
        # 10^6 coordinates, checked on the orders alone
        def no_rule(*args):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(uq, "rule_1d", no_rule)
        cfg = write_config(
            tmp_path, "c.json",
            {"grid": {"kind": "tensor", "family": "clenshaw-curtis", "orders": orders}},
        )
        out = tmp_path / "g"
        assert run_cli("grid", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config.grid: tensor grid in dimension {len(orders)}")
        assert "over the cap of 1000000 coordinates" in err
        assert not (out / "grid.csv").exists()

    def test_smolyak_grid_of_any_dimension(self, tmp_path):
        # level 0 is one node in any dimension; its index block is
        # enumerated without recursion
        cfg = write_config(
            tmp_path, "c.json",
            {"grid": {"kind": "smolyak", "family": "gauss-hermite", "level": 0, "dim": 3000}},
        )
        out = tmp_path / "g"
        assert run_cli("grid", "--config", cfg, "--out", str(out)) == 0
        back = uq.load_grid_csv(out / "grid.csv")
        assert back.nodes.shape == (1, 3000) and not back.nodes.any()
        assert back.weights.tolist() == [1.0]

    def test_tensor_with_support(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"grid": {"kind": "tensor", "family": "gauss-legendre",
                      "orders": [3, 2], "support": [0.0, 1.0]}},
        )
        out = tmp_path / "g"
        assert run_cli("grid", "--config", cfg, "--out", str(out)) == 0
        back = uq.load_grid_csv(out / "grid.csv")
        assert back.n_nodes == 6
        assert back.nodes.min() >= 0.0 and back.nodes.max() <= 1.0

    def test_gauss_hermite_takes_no_support(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"grid": {"kind": "tensor", "family": "gauss-hermite",
                      "orders": [3], "support": [0.0, 1.0]}},
        )
        assert run_cli("grid", "--config", cfg, "--out", str(tmp_path / "g")) == 2
        assert "gauss-hermite has fixed Gaussian support" in capsys.readouterr().err

    def test_gauss_hermite_order_without_finite_rule_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"grid": {"kind": "tensor", "family": "gauss-hermite", "orders": [400]}},
        )
        out = tmp_path / "g"
        assert run_cli("grid", "--config", cfg, "--out", str(out)) == 2
        assert "no finite gauss-hermite rule of order 400" in capsys.readouterr().err
        assert not (out / "grid.csv").exists()


class TestKlFit:
    def test_fit_and_reuse(self, tmp_path, save_observations):
        C = uq.default_correlated_covariance()
        obs = uq.generate_synthetic_observations(C, np.zeros(18), 3000, seed=77)
        obs_path = tmp_path / "obs.csv"
        save_observations(obs_path, obs)
        cfg = write_config(tmp_path, "c.json",
                           {"observations": str(obs_path), "criterion": 0.95})
        out = tmp_path / "kl"
        assert run_cli("kl-fit", "--config", cfg, "--out", str(out)) == 0
        sampler, mean, modes = load_deformation_spec(out / "kl_model.json")
        assert modes.shape == (18, 7)
        assert sampler.kind == "radial" and sampler.n_stations == 18
        rows = read_csv(out / "kl_spectrum.csv")
        assert len(rows) == 19
        variances = [float(r[1]) for r in rows[1:]]
        assert variances == sorted(variances, reverse=True)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["retained"] == 7
        assert summary["captured_ratio"] >= 0.95


@pytest.fixture(scope="module")
def track_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("track")
    cfg = write_config(tmp, "c.json", PILLBOX_TRACK)
    out = tmp / "run"
    code = cli.main(["track", "--config", cfg, "--out", str(out)])
    return code, out


class TestTrack:
    def test_exit_code(self, track_run):
        assert track_run[0] == 0

    def test_trajectory_files(self, track_run):
        _, out = track_run
        for j in range(2):
            rows = read_csv(out / f"mode_{j:02d}.csv")
            assert rows[0] == ["radius_m", "lambda", "f_hz"]
            assert len(rows) == 12
            radii = [float(r[0]) for r in rows[1:]]
            assert radii[0] == 0.06 and radii[-1] == 0.04
            # tracked identity: each fundamental family is monotone over r
            fs = [float(r[2]) for r in rows[1:]]
            assert all(b > a for a, b in zip(fs, fs[1:]))

    def test_crossing_location(self, track_run):
        _, out = track_run
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["crossing_radius_m"] - oracle.crossing_radius(0.1)) < 1e-3

    def test_discrete_samples_rank_ordered(self, track_run):
        _, out = track_run
        rows = read_csv(out / "discrete_samples.csv")
        assert len(rows) == 12
        for r in rows[1:]:
            assert float(r[1]) <= float(r[2])

    def test_newton_stats_reported(self, track_run):
        _, out = track_run
        summary = json.loads((out / "summary.json").read_text())
        for stats in summary["per_mode"].values():
            assert 1.0 <= stats["newton_mean"] <= 3.5
            assert stats["newton_max"] <= 5

    def test_tracked_values_are_discrete_eigenvalues(self, track_run):
        # Above the crossing the tracked TM010 and TE111 are the two lowest
        # modes, so sorted they are discrete_samples.csv's row.  Below it
        # TE111's degenerate partner displaces TM010 from that row, so each
        # radius is also checked against the three lowest modes.
        _, out = track_run
        tracked = np.array([
            [float(row[2]) for row in read_csv(out / f"mode_{j:02d}.csv")[1:]] for j in range(2)
        ])
        crossing = json.loads((out / "summary.json").read_text())["crossing_radius_m"]
        par = build_pillbox_pencil(0.06, 0.1, 1, DiscreteSpace(2, 8))
        rows = read_csv(out / "discrete_samples.csv")[1:]
        assert len(rows) == tracked.shape[1] == 11
        above = 0
        for k, row in enumerate(rows):
            r = float(row[0])
            selected, _ = cli._select_pillbox_modes(par.blocks, par.at([r]), 3)
            lowest = [eigenvalue_to_frequency(pair.value) for _, pair in selected]
            for f in tracked[:, k]:
                assert min(abs(f / g - 1.0) for g in lowest) <= 1e-8
            if r > crossing:
                above += 1
                samples = [float(v) for v in row[1:]]
                np.testing.assert_allclose(np.sort(tracked[:, k]), samples, rtol=1e-8)
        assert above == 6

    def test_worker_invariance(self, track_run, tmp_path):
        _, out = track_run
        out2 = tmp_path / "w2"
        cfg = str(out.parent / "c.json")
        assert cli.main(["track", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            a, b = (out / name).read_bytes(), (out2 / name).read_bytes()
            if name == "summary.json":
                # each process factors a start pair's t = 0 matrix once, so
                # only the factorization counts may depend on the workers
                a, b = (dict(json.loads(doc), timestamp_utc=None) for doc in (a, b))
                for doc in (a, b):
                    for stats in doc["per_mode"].values():
                        del stats["factorizations"]
            assert a == b, name

    def test_one_node_task_per_radius(self, monkeypatch, tmp_path):
        # one task per chunk of consecutive radii: at 8 elements the TE
        # cross-section has n = 100 unknowns, so a chunk holds 6 radii
        task, chunks = cli._pillbox_node_task, []

        def counted(job, first, nodes):
            chunks.append(list(range(first, first + len(nodes))))
            return task(job, first, nodes)

        monkeypatch.setattr(cli, "_pillbox_node_task", counted)
        cfg = write_config(tmp_path, "c.json", PILLBOX_TRACK)
        assert cli.main(["track", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert tracking.batch_size(100) == 6
        assert chunks == [list(range(6)), list(range(6, 11))]

    def test_per_mode_solves_add_up_to_factorizations(self, monkeypatch, tmp_path):
        # modes 1 and 2 are the TE111 pair, tracked together in block TE1;
        # each mode reports its own bordered solves and factorizations, not
        # its block's
        factorizations, solves = count_lu_calls(monkeypatch)
        doc = dict(PILLBOX_TRACK, modes=3, sweep={"start": 0.06, "stop": 0.04, "samples": 5})
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "run"
        assert cli.main(["track", "--config", cfg, "--out", str(out)]) == 0
        per_mode = json.loads((out / "summary.json").read_text())["per_mode"].values()
        mode_solves = [stats["bordered_solves"] for stats in per_mode]
        mode_factorizations = [stats["factorizations"] for stats in per_mode]
        assert len(mode_solves) == 3 and min(mode_solves) > 0 and min(mode_factorizations) > 0
        assert sum(mode_solves) == len(solves)
        assert sum(mode_factorizations) == len(factorizations)
        par = build_pillbox_pencil(0.06, 0.1, 1, DiscreteSpace(2, 8))
        groups = cli._group_by_block(*cli._select_pillbox_modes(par.blocks, par.base, 3))
        assert [[j for j, _ in members] for members, _ in groups.values()] == [[0], [1, 2]]

    def test_discrete_samples_come_from_the_node_tasks(self, monkeypatch, tmp_path):
        # the rank-ordered spectrum of each radius is solved once, in its
        # node task, from the pencil it tracked in; a uq study solves only
        # its base point
        select, calls = cli._select_pillbox_modes, []

        def counted(blocks, pencil, n_modes):
            calls.append(n_modes)
            return select(blocks, pencil, n_modes)

        monkeypatch.setattr(cli, "_select_pillbox_modes", counted)
        cfg = write_config(tmp_path, "t.json", PILLBOX_TRACK)
        assert cli.main(["track", "--config", cfg, "--out", str(tmp_path / "track")]) == 0
        assert calls == [2] * 12
        calls.clear()
        cfg = write_config(tmp_path, "u.json", PILLBOX_UQ)
        assert cli.main(["uq", "--config", cfg, "--out", str(tmp_path / "uq")]) == 0
        assert calls == [3]

    def test_identity_sweep_single_row(self, tmp_path):
        doc = {
            "problem": {"kind": "pillbox", "length": 0.1, "p_max": 1},
            "discretization": {"degree": 2, "elements": 8},
            "modes": 1,
            "sweep": {"start": 0.05, "stop": 0.05, "samples": 7},
        }
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "run"
        assert cli.main(["track", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "mode_00.csv")
        assert len(rows) == 2


@pytest.fixture(scope="module")
def pillbox_uq_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("uq")
    cfg = write_config(tmp, "c.json", PILLBOX_UQ)
    out = tmp / "run"
    code = cli.main(["uq", "--config", cfg, "--out", str(out)])
    return code, out, cfg, tmp


class TestPillboxUq:
    def test_exit_and_outputs(self, pillbox_uq_run):
        code, out, _, _ = pillbox_uq_run
        assert code == 0
        for name in ("grid.csv", "mode_table.csv", "moments.csv", "summary.json"):
            assert (out / name).exists()

    def test_moment_table_shape(self, pillbox_uq_run):
        _, out, _, _ = pillbox_uq_run
        rows = read_csv(out / "moments.csv")
        assert rows[0] == ["mode", "family", "axial_order", "base_f_hz", "mean_f_hz", "sd_f_hz"]
        assert len(rows) == 4
        assert rows[1][1] == "TM"

    def test_moments_match_oracle_quadrature(self, pillbox_uq_run):
        # same rule applied to the closed-form frequencies of the matched
        # labels; the discretization bias cancels to first order in the
        # relative comparison
        _, out, _, _ = pillbox_uq_run
        grid = uq.load_grid_csv(out / "grid.csv")
        rows = read_csv(out / "moments.csv")
        labels = {lbl: f for lbl, f in oracle.pillbox_frequencies(0.05, 0.1, 12)}
        for row in rows[1:]:
            base_f, mean_f, sd_f = float(row[3]), float(row[4]), float(row[5])
            label = min(labels, key=lambda L: abs(labels[L] - base_f))
            fs = np.array([oracle.mode_frequency(label, r, 0.1) for r in grid.nodes[:, 0]])
            e_ref, v_ref = uq.estimate_moments(fs, grid)
            assert abs(mean_f - e_ref[0]) / e_ref[0] < 2e-3
            assert abs(sd_f - math.sqrt(v_ref[0])) / math.sqrt(v_ref[0]) < 5e-3

    def test_newton_economy(self, pillbox_uq_run):
        _, out, _, _ = pillbox_uq_run
        summary = json.loads((out / "summary.json").read_text())
        assert 1.5 <= summary["newton"]["mean"] <= 3.5
        assert summary["newton"]["max"] <= 5

    def test_worker_invariance(self, pillbox_uq_run):
        _, out, cfg, tmp = pillbox_uq_run
        out2 = tmp / "run2"
        assert cli.main(["uq", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
        for name in ("moments.csv", "mode_table.csv", "grid.csv"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_min_overlap_in_summary(self, pillbox_uq_run, tmp_path):
        _, out, cfg, _ = pillbox_uq_run
        overlap = json.loads((out / "summary.json").read_text())["min_overlap"]
        assert 0.0 < overlap <= 1.0
        w2 = tmp_path / "w2"
        assert cli.main(["uq", "--config", cfg, "--out", str(w2), "--workers", "2"]) == 0
        assert json.loads((w2 / "summary.json").read_text())["min_overlap"] == overlap
        doc = json.loads(json.dumps(PILLBOX_UQ))
        doc["problem"]["distribution"]["support"] = [0.05, 0.05]
        doc["grid"] = {"kind": "tensor", "family": "clenshaw-curtis", "orders": [1]}
        base_cfg = write_config(tmp_path, "base.json", doc)
        assert cli.main(["uq", "--config", base_cfg, "--out", str(tmp_path / "base")]) == 0
        assert json.loads((tmp_path / "base" / "summary.json").read_text())["min_overlap"] == 1.0
        for name in ("grid.csv", "mode_table.csv", "moments.csv"):
            assert "overlap" not in (out / name).read_text()

    def test_zero_variance_distribution(self, tmp_path):
        doc = json.loads(json.dumps(PILLBOX_UQ))
        doc["problem"]["distribution"]["support"] = [0.05, 0.05]
        doc["grid"] = {"kind": "tensor", "family": "clenshaw-curtis", "orders": [1]}
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "run"
        assert cli.main(["uq", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "moments.csv")
        for row in rows[1:]:
            assert float(row[5]) == 0.0
            assert float(row[4]) == pytest.approx(float(row[3]), rel=1e-14)

    @pytest.mark.parametrize("orders", [[5, 7, "x"], [5], [1, 1], [1.0], "1"])
    def test_zero_variance_grid_takes_one_node(self, tmp_path, capsys, orders):
        doc = json.loads(json.dumps(PILLBOX_UQ))
        doc["problem"]["distribution"]["support"] = [0.05, 0.05]
        doc["grid"] = {"kind": "tensor", "family": "clenshaw-curtis", "orders": orders}
        cfg = write_config(tmp_path, "c.json", doc)
        assert cli.main(["uq", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert "orders" in capsys.readouterr().err

    def test_zero_width_takes_any_one_node_grid(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PILLBOX_UQ))
        doc["problem"]["distribution"]["support"] = [0.05, 0.05]
        doc["grid"] = {"kind": "tensor", "family": "clenshaw-curtis", "orders": [1]}
        tensor = tmp_path / "tensor"
        assert cli.main(["uq", "--config", write_config(tmp_path, "t.json", doc),
                         "--out", str(tensor)]) == 0
        doc["grid"] = {"kind": "smolyak", "family": "gauss-legendre", "level": 0}
        smolyak = tmp_path / "smolyak"
        assert cli.main(["uq", "--config", write_config(tmp_path, "s.json", doc),
                         "--out", str(smolyak)]) == 0
        for name in ("grid.csv", "mode_table.csv", "moments.csv"):
            assert (smolyak / name).read_bytes() == (tensor / name).read_bytes()
        doc["grid"]["level"] = 1
        capsys.readouterr()
        assert cli.main(["uq", "--config", write_config(tmp_path, "l1.json", doc),
                         "--out", str(tmp_path / "l1")]) == 2
        assert "zero width for orders of 1" in capsys.readouterr().err
        # an explicit radius is where tracking starts, as for any support
        doc["problem"]["radius"] = 0.052
        doc["grid"]["level"] = 0
        start = tmp_path / "start"
        assert cli.main(["uq", "--config", write_config(tmp_path, "r.json", doc),
                         "--out", str(start)]) == 0
        assert json.loads((start / "summary.json").read_text())["base_radius_m"] == 0.052

    @pytest.mark.parametrize("grid", [
        {"kind": "tensor", "family": "gauss-hermite", "orders": [3]},
        {"kind": "smolyak", "family": "gauss-hermite", "level": 1},
    ], ids=["tensor", "smolyak"])
    def test_gauss_hermite_grid_is_a_config_error(self, tmp_path, capsys, grid):
        # a radius takes a uniform family: Gauss-Hermite nodes are no radii
        doc = json.loads(json.dumps(PILLBOX_UQ))
        doc["grid"] = grid
        cfg = write_config(tmp_path, "c.json", doc)
        assert cli.main(["uq", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert "gauss-hermite has fixed Gaussian support" in capsys.readouterr().err

    def test_cold_study_does_not_import_scipy_special(self, tmp_path):
        # a study at or below DENSE_CUTOFF unknowns runs on numpy alone, and
        # the oracle loads scipy.special at its first Bessel zero, which a
        # study does not ask for: a fresh process imports no scipy module
        doc = json.loads(json.dumps(PILLBOX_UQ))
        doc["discretization"]["elements"] = 6
        doc["modes"] = 2
        doc["grid"]["orders"] = [3]
        cfg = write_config(tmp_path, "c.json", doc)
        assert cold_study(cfg, tmp_path / "run") == "0 []"


_ROOT = Path(__file__).resolve().parents[1]


def cold_python(script, *argv):
    """The last line a fresh interpreter prints, running script with the
    package on its path."""
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def cold_study(cfg, out, probe=_SCIPY_MODULES):
    """'<exit code> <probe>' of a uq study at one worker in a fresh process:
    by default, the scipy modules it loaded."""
    script = (
        "import sys\n"
        "from cavityuq import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        f"print(code, {probe})\n"
    )
    return cold_python(script, "uq", "--config", cfg, "--out", out, "--workers", "1")


def load_workloads():
    """perfbench/workloads.py, the benchmark's study configs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_one_worker_study_imports_no_process_pool(tmp_path):
    # the pool's modules are about 20 ms of a cold import; the --workers 2
    # invariance tests cover the pool path
    cfg = write_config(tmp_path, "c.json", SMALL_DISK)
    probe = "'concurrent.futures.process' in sys.modules"
    assert cold_study(cfg, tmp_path / "run", probe) == "0 False"


# the small pillbox study of tests/test_tracer_hooks.py
SMALL_PILLBOX = dict(
    PILLBOX_UQ,
    discretization={"degree": 2, "elements": 6},
    modes=2,
    grid={"kind": "tensor", "family": "clenshaw-curtis", "orders": [3]},
)


@pytest.mark.parametrize("doc", [SMALL_PILLBOX, SMALL_DISK], ids=["pillbox", "disk"])
def test_spawned_workers_write_the_one_worker_tables(tmp_path, doc):
    """Workers started by spawn, as under forkserver, import the package
    afresh and rebuild their pencils from the study's spec: their tables are
    the one-worker run's bits.  Pencil arrays handed to the workers by
    pickling instead moved a disk table by up to 3.9e-16 relative."""
    cfg = write_config(tmp_path, "c.json", doc)
    assert cli.main(["uq", "--config", cfg, "--out", str(tmp_path / "1"), "--workers", "1"]) == 0
    script = (
        "import multiprocessing, sys\n"
        "from cavityuq import cli\n"
        "multiprocessing.set_start_method('spawn', force=True)\n"
        "print(cli.main(sys.argv[1:]))\n"
    )
    out = tmp_path / "2"
    assert cold_python(script, "uq", "--config", cfg, "--out", out, "--workers", "2") == "0"
    for name in ("grid.csv", "mode_table.csv", "moments.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("workload", ["pillbox-cc5", "disk-readme"])
def test_base_point_study_never_looks_up_lapack(tmp_path, workload):
    # the benchmark's set-up study: a one-node grid at the base point
    # factors no bordered matrix, so neither the import nor the study looks
    # up the kept-LU routines, and ctypes, which the lookup uses, is loaded
    # by numpy before the package is imported
    workloads = load_workloads()
    config = workloads.study_config(workloads.WORKLOADS[workload], setup=True)
    cfg = workloads.write_config(tmp_path / "setup.json", config)
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "from cavityuq import cli, tracking\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, tracking._lapack.cache_info().currsize,\n"
        "      sorted(m for m in set(sys.modules) - before if 'ctypes' in m))\n"
    )
    argv = ("uq", "--config", cfg, "--out", tmp_path / "run", "--workers", "1")
    assert cold_python(script, *argv) == "0 0 []"


@pytest.mark.parametrize("name", ["pillbox-6", "readme-2-nodes"])
def test_gesv_fallback_gives_the_kept_lu_bits(monkeypatch, tmp_path, name):
    """Where numpy's build exports no getrf, every dense back-solve is one
    gesv on its matrix.  The tables and summary.json (bar timestamp_utc),
    with its bordered_solves and factorizations, equal the kept LU's."""
    if tracking._lapack() is None:
        pytest.skip("numpy's LAPACK exports no 64-bit-integer getrf and getrs")
    if name == "pillbox-6":
        doc = json.loads(json.dumps(PILLBOX_UQ))
        doc["discretization"]["elements"] = 6
    else:
        grid = {"kind": "tensor", "family": "gauss-hermite", "orders": [2, 1, 1, 1, 1, 1, 1]}
        doc = readme_disk(1234, 3, grid=grid)
    cfg = write_config(tmp_path, "c.json", doc)
    seam, kinds = tracking.spla.splu, []

    def splu(A, **options):
        lu = seam(A, **options)
        kinds.append(type(lu))
        return lu

    monkeypatch.setattr(tracking, "spla", SimpleNamespace(splu=splu))
    for path, lapack in (("getrf", tracking._lapack), ("gesv", lambda: None)):
        monkeypatch.setattr(tracking, "_lapack", lapack)
        assert cli.main(["uq", "--config", cfg, "--out", str(tmp_path / path)]) == 0
    n = len(kinds) // 2
    assert n > 0 and set(kinds[:n]) == {tracking._DenseLU} and set(kinds[n:]) == {SimpleNamespace}
    for table in ("grid.csv", "mode_table.csv", "moments.csv"):
        assert (tmp_path / "getrf" / table).read_bytes() == (tmp_path / "gesv" / table).read_bytes()
    kept, fallback = (
        dict(json.loads((tmp_path / path / "summary.json").read_text()), timestamp_utc=None)
        for path in ("getrf", "gesv")
    )
    assert kept["factorizations"] == n and kept["bordered_solves"] > n
    assert kept == fallback


def test_pool_never_exceeds_the_node_count(monkeypatch, tmp_path):
    """A pool forks all its processes at its first task, so --workers 64 on
    a study of 2 chunks must ask for 2, and on one of 1 chunk (3 nodes) for
    none.  The stand-in pool records its size and runs the tasks in this
    process; the tables equal a 1-worker run's."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    # 6 nodes per chunk at 8 elements (TE cross-section n = 100)
    for orders, chunks in (([3], []), ([9], [2])):
        sizes.clear()
        grid = {"kind": "tensor", "family": "clenshaw-curtis", "orders": orders}
        doc = dict(PILLBOX_UQ, grid=grid)
        cfg = write_config(tmp_path, "c.json", doc)
        for workers in ("1", "64"):
            out = str(tmp_path / workers)
            assert cli.main(["uq", "--config", cfg, "--out", out, "--workers", workers]) == 0
        assert sizes == chunks
        for name in ("grid.csv", "mode_table.csv", "moments.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "64" / name).read_bytes()


def test_chunked_tables_do_not_depend_on_the_workers(monkeypatch, tmp_path):
    """18 disk nodes at n = 64 unknowns are two chunks, of 15 nodes and 3:
    the tables are the same bytes at 1, 2 and 3 workers, and no run starts
    more processes than there are chunks."""
    sizes = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    doc = dict(
        SMALL_DISK, discretization={"degree": 2, "refinement": 3}, modes=3,
        grid={"kind": "tensor", "family": "gauss-hermite", "orders": [3, 3, 2, 1, 1, 1, 1]},
    )
    cfg = write_config(tmp_path, "c.json", doc)
    assert tracking.batch_size(64) == 15
    for workers in ("1", "2", "3"):
        out = str(tmp_path / workers)
        assert cli.main(["uq", "--config", cfg, "--out", out, "--workers", workers]) == 0
    assert json.loads((tmp_path / "1" / "summary.json").read_text())["nodes"] == 18
    assert sizes == [2, 2]
    for name in ("mode_table.csv", "moments.csv"):
        first = (tmp_path / "1" / name).read_bytes()
        assert (tmp_path / "2" / name).read_bytes() == first
        assert (tmp_path / "3" / name).read_bytes() == first


class TestTiers:
    """Up to DENSE_CUTOFF unknowns a study runs on numpy alone; above it,
    the tracker takes the sparse tier, which imports scipy."""

    def test_cold_import_loads_no_scipy(self):
        assert cold_python(f"import sys, cavityuq.cli; print({_SCIPY_MODULES})") == "[]"

    def test_cold_benchmark_studies_load_no_scipy(self, tmp_path):
        workloads = load_workloads()
        assert workloads.WORKLOADS
        for name, workload in workloads.WORKLOADS.items():
            cfg = workloads.write_config(tmp_path / f"{name}.json", workloads.study_config(workload))
            assert cold_study(cfg, tmp_path / name) == "0 []", name

    def test_cold_benchmark_studies_load_no_numpy_ma(self, tmp_path):
        # numpy's plain np.unique imports numpy.ma for its masked-array test
        workloads = load_workloads()
        probe = "'numpy.ma' in sys.modules"
        for name, workload in workloads.WORKLOADS.items():
            path = tmp_path / f"{name}.json"
            cfg = workloads.write_config(path, workloads.study_config(workload))
            assert cold_study(cfg, tmp_path / name, probe) == "0 False", name

    def test_sparse_tier_agrees_with_dense_solves(self, monkeypatch):
        """PILLBOX_SPARSE tracks on CSC layouts with SuperLU; at each node,
        each tracked value is a value of a dense solve of its family's
        cross-section, shifted into its block.  Identity is kept, not rank:
        the TE111 pair passes TM010 between the nodes."""
        monkeypatch.setattr(cli, "_PENCIL_CACHE", {})
        study, run = cli._run_study(json.loads(json.dumps(PILLBOX_SPARSE)),
                                    SimpleNamespace(seed=None, workers=1))
        sections = study.par.base
        assert min(pen.n for pen in sections.values()) > DENSE_CUTOFF
        for pen in sections.values():
            assert not pen.pattern.bordered.dense and pen.pattern.bordered.perm_c is not None
        assert len(study.starts) == 2 and study.grid.n_nodes == 3
        for k, node in enumerate(study.grid.nodes):
            dense = {
                family: np.array([pair.value for pair in solve_smallest(pen, 4, method="dense")])
                for family, pen in study.par.at(node).items()
            }
            for j, (family, axial) in enumerate(study.labels):
                shift = next(b.axial_shift for b in study.par.blocks
                             if (b.family, b.axial) == (family, axial))
                lam = run.values[j, k]
                assert np.abs(dense[family] + shift - lam).min() <= 1e-10 * lam, (k, j)


class TestDeformedDiskUq:
    def test_synthetic_pipeline(self, tmp_path, capsys):
        doc = {
            "problem": {
                "kind": "deformed-disk",
                "radius": 0.05,
                "criterion": 0.95,
                "synthetic": {"variables": 18, "samples": 5000, "seed": 1234},
            },
            "discretization": {"degree": 2, "refinement": 2},
            "modes": 1,
            "grid": {"kind": "smolyak", "family": "gauss-hermite", "level": 1},
        }
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "run"
        assert cli.main(["uq", "--config", cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "18 variables -> 7 retained" in printed
        assert "collocation nodes: 15" in printed
        summary = json.loads((out / "summary.json").read_text())
        assert summary["retained_variables"] == 7
        assert summary["nodes"] == 15
        rows = read_csv(out / "moments.csv")
        base_f, mean_f, sd_f = (float(v) for v in rows[1][3:6])
        # fundamental of the mean-shape disk sits near the analytic value
        f_ref = oracle.C0 * oracle.bessel_zero(0, 1) / (2.0 * math.pi * 0.05)
        assert abs(base_f - f_ref) / f_ref < 5e-3
        assert abs(mean_f - base_f) / base_f < 5e-3
        assert 0.0 < sd_f < 0.05 * base_f

    def test_base_frequency_without_a_zero_node(self, tmp_path):
        # the 2-point Gauss-Hermite rule in the first coordinate has no node at
        # delta = 0; base_f_hz must still be the base eigensolve's frequency,
        # which a one-node grid at delta = 0 reports too
        doc = {
            "problem": {
                "kind": "deformed-disk",
                "radius": 0.05,
                "synthetic": {"variables": 18, "samples": 5000, "seed": 1234},
            },
            "discretization": {"degree": 2, "refinement": 2},
            "modes": 2,
            "grid": {"kind": "tensor", "family": "gauss-hermite", "orders": [1] * 7},
        }
        base_cfg = write_config(tmp_path, "base.json", doc)
        doc["grid"]["orders"] = [2, 1, 1, 1, 1, 1, 1]
        cfg = write_config(tmp_path, "c.json", doc)
        assert cli.main(["uq", "--config", base_cfg, "--out", str(tmp_path / "base")]) == 0
        assert cli.main(["uq", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        base = read_csv(tmp_path / "base" / "moments.csv")
        rows = read_csv(tmp_path / "run" / "moments.csv")
        assert [r[3] for r in rows] == [r[3] for r in base]
        table = read_csv(tmp_path / "run" / "mode_table.csv")
        assert all(r[1] != b[3] for r, b in zip(table[1:], base[1:]))


def readme_disk(seed, modes, refinement=3, grid=None):
    return {
        "problem": {
            "kind": "deformed-disk", "radius": 0.05, "criterion": 0.95,
            "synthetic": {"variables": 18, "samples": 5000, "seed": seed},
        },
        "discretization": {"degree": 2, "refinement": refinement},
        "modes": modes,
        "grid": grid or {"kind": "smolyak", "family": "gauss-hermite", "level": 2},
    }


class TestClusters:
    @pytest.mark.parametrize(
        "seed, modes", [(1234, 3), (7, 6), (1234, 2)], ids=["readme", "seed7", "cut-cluster"]
    )
    def test_tracked_values_are_the_lowest_eigenvalues(self, seed, modes):
        """At every node the tracked values are the lowest discrete
        eigenvalues.  The near-degenerate m = 1 pair mixes under the
        deformation and is tracked as one cluster; at modes 2 the second
        member, unreported, is tracked with the first."""
        args = SimpleNamespace(seed=None, workers=1)
        study, run = cli._run_study(readme_disk(seed, modes), args)
        assert run.tallies["clusters"] > 0 and run.tallies["cluster_retracks"] == 0
        for k, node in enumerate(study.grid.nodes):
            lowest = [p.value for p in solve_smallest(study.par.at(node), modes, method="dense")]
            np.testing.assert_allclose(np.sort(run.values[:, k]), lowest, rtol=1e-9)
        # a cluster member's overlap is that of its subspace, which turns
        # slowly, not that of its own vector, which turns inside the pair
        assert run.min_overlap.min() > 0.5

    def test_tallies_in_every_summary(self, tmp_path, track_run, pillbox_uq_run):
        grid = {"kind": "tensor", "family": "gauss-hermite", "orders": [3, 1, 1, 1, 1, 1, 1]}
        cfg = write_config(tmp_path, "c.json", readme_disk(1234, 3, refinement=2, grid=grid))
        assert cli.main(["uq", "--config", cfg, "--out", str(tmp_path / "uq")]) == 0
        assert cli.main(["bench", "--config", cfg, "--out", str(tmp_path / "bench")]) == 0
        summary = json.loads((tmp_path / "uq" / "summary.json").read_text())
        tracked = json.loads((tmp_path / "bench" / "bench.json").read_text())["tracked"]
        # the two nodes off the base point, one cluster each
        assert summary["clusters"] == tracked["clusters"] == 2
        assert summary["cluster_retracks"] == tracked["cluster_retracks"] == 0
        for out in (track_run[1], pillbox_uq_run[1]):
            summary = json.loads((out / "summary.json").read_text())
            assert summary["clusters"] == summary["cluster_retracks"] == 0


class TestBench:
    def test_tracking_beats_direct(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", PILLBOX_UQ)
        out = tmp_path / "b1"
        assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "bench.json").read_text())
        assert doc["tracked"]["per_mode_point"] < doc["direct"]["per_mode_point"]
        assert doc["solve_ratio"] > 1.0

        out2 = tmp_path / "b2"
        assert cli.main(["bench", "--config", cfg, "--out", str(out2)]) == 0
        doc2 = json.loads((out2 / "bench.json").read_text())
        assert doc2["tracked"]["total_solves"] == doc["tracked"]["total_solves"]
        assert doc2["direct"]["solves_per_node"] == doc["direct"]["solves_per_node"]

    def test_bench_and_uq_share_one_runner(self, tmp_path, pillbox_uq_run):
        _, uq_out, cfg, _ = pillbox_uq_run
        out = tmp_path / "b"
        assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "bench.json").read_text())
        summary = json.loads((uq_out / "summary.json").read_text())
        assert doc["tracked"]["bordered_solves"] == summary["bordered_solves"]
        assert doc["nodes"] == summary["nodes"] and doc["modes"] == summary["modes"]

    def test_direct_count_ignores_the_last_bit_of_tracked_values(self, monkeypatch, tmp_path):
        cfg = write_config(tmp_path, "c.json", PILLBOX_UQ)
        run_study, counts = cli._run_study, []

        def nudged(direction):
            def nudged_study(cfg, args):
                study, run = run_study(cfg, args)
                if direction:
                    run.values = np.nextafter(run.values, direction * np.inf)
                return study, run
            return nudged_study

        for direction in (0, 1, -1):
            monkeypatch.setattr(cli, "_run_study", nudged(direction))
            out = tmp_path / f"b{direction}"
            assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
            counts.append(json.loads((out / "bench.json").read_text())["direct"]["solves_per_node"])
        assert counts[1] == counts[0] and counts[2] == counts[0]

    def test_single_node_grid(self, tmp_path):
        doc = json.loads(json.dumps(PILLBOX_UQ))
        doc["problem"]["distribution"]["support"] = [0.05, 0.05]
        doc["grid"] = {"kind": "tensor", "family": "clenshaw-curtis", "orders": [1]}
        doc["modes"] = 2
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "b"
        assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "bench.json").read_text())
        assert doc["solve_ratio"] == pytest.approx(1.0)
        assert doc["tracked"]["per_mode_point"] is None


def fail_group_ends(monkeypatch, failing):
    """Make cli.track_modes report TrackingFailure("injected") at the ends
    failing[call] of its calls, numbered from 0 at one worker; returns the
    list of its calls' (start count, end count).

    A call tracks one group at every node of a chunk that is not the base
    point, one homotopy end per node, in node order; the groups of a chunk
    are called in turn.  So on PILLBOX_TRACK, which tracks two groups per
    node and nothing at node 0, the start radius, end 1 of call 0 is the
    first group of node 2.
    """
    track_modes, calls = cli.track_modes, []

    def injected(homotopy, starts, cfg, partner=None):
        calls.append((len(starts), len(homotopy.ends)))
        outcomes = track_modes(homotopy, starts, cfg, partner)
        for b in failing.get(len(calls) - 1, ()):
            outcomes[b] = TrackingFailure("injected")
        return outcomes

    monkeypatch.setattr(cli, "track_modes", injected)
    return calls


# PILLBOX_UQ at 24 elements: cross-sections of n = 576 (TM) and 676 (TE)
# unknowns, above DENSE_CUTOFF, tracked at 3 nodes
PILLBOX_SPARSE = dict(
    PILLBOX_UQ, discretization={"degree": 2, "elements": 24}, modes=2,
    grid={"kind": "tensor", "family": "clenshaw-curtis", "orders": [3]},
)


class TestColumnOrdering:
    """Above DENSE_CUTOFF the tracker's factorizations take SuperLU's
    default column ordering once per sparsity pattern a study tracks on, and
    reuse it after; at or below it, a layout is dense and takes none."""

    @staticmethod
    def orderings(monkeypatch, tmp_path, doc):
        """The permc_spec of every factorization of a uq study, the
        bordered layouts of the patterns it tracked on, and the types of
        the matrices it factored."""
        specs, solves = count_lu_calls(monkeypatch)
        layouts, kinds = [], set()
        init = tracking._BorderedLU.__init__

        def spied(self, layout, A):
            if all(layout is not seen for seen in layouts):
                layouts.append(layout)
            kinds.add(type(A))
            init(self, layout, A)

        monkeypatch.setattr(tracking._BorderedLU, "__init__", spied)
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "run"
        assert cli.main(["uq", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(specs) == summary["factorizations"]
        assert len(solves) == summary["bordered_solves"]
        return specs, layouts, kinds

    def test_disk_study_takes_no_ordering(self, monkeypatch, tmp_path):
        doc = {
            "problem": {
                "kind": "deformed-disk", "radius": 0.05,
                "synthetic": {"variables": 18, "samples": 500, "seed": 1234},
            },
            "discretization": {"degree": 2, "refinement": 2},
            "modes": 2,
            "grid": {"kind": "smolyak", "family": "gauss-hermite", "level": 1},
        }
        specs, (layout,), kinds = self.orderings(monkeypatch, tmp_path, doc)
        assert layout.dense and layout.perm_c is None and kinds == {np.ndarray}
        assert specs and set(specs) == {"default"}

    def test_one_ordering_per_pillbox_block(self, monkeypatch, tmp_path):
        # PILLBOX_SPARSE tracks its 2 modes in 2 blocks, TM0 and TE1; the
        # blocks of one family share its cross-section's pattern and ordering
        specs, layouts, kinds = self.orderings(monkeypatch, tmp_path, PILLBOX_SPARSE)
        assert set(specs) == {"default", "NATURAL"} and specs.count("default") == 2
        assert len(layouts) == 2 and np.ndarray not in kinds
        for layout in layouts:
            assert not layout.dense and layout.perm_c is not None


def select_every_block(blocks, sections, n_modes):
    """The pillbox selection that solves every block pencil directly, in
    block order: the reference for cli._select_pillbox_modes.  A TE block's
    constant-mode pair sits at the block's shift, and its mass matrix is its
    cross-section's."""
    candidates = []
    for bi, b in enumerate(blocks):
        pen_b = block_pencil(sections, b)
        for pr in solve_smallest(pen_b, min(n_modes + 2, pen_b.n - 1)):
            at_zero = replace(pr, value=pr.value - b.axial_shift)
            if not is_spurious(at_zero, sections[b.family]):
                candidates.append((pr.value, bi, len(candidates), pr))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    partners = {}
    for _, bi, _, pr in candidates[n_modes:]:
        partners.setdefault(bi, pr)
    return [(bi, pr) for _, bi, _, pr in candidates[:n_modes]], partners


def pair_bytes(pair):
    return None if pair is None else (pair.value, pair.vector.tobytes())


class TestPillboxPruning:
    """The base selection solves no block pencil: each family's
    cross-section is solved once and its pairs are shifted into every block
    of the family.  It selects what solving every block selects."""

    @pytest.fixture(scope="class")
    def pencils(self):
        space = DiscreteSpace(2, 8)
        return {
            (r, p): build_pillbox_pencil(r, 0.1, p, space)
            for r in (0.04, 0.05, 0.06) for p in (1, 2, 3)
        }

    @pytest.mark.parametrize("modes", [1, 3, 6, 10])
    @pytest.mark.parametrize("p_max", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0.04, 0.05, 0.06])
    def test_same_selection_as_solving_every_block(self, pencils, radius, p_max, modes):
        par = pencils[radius, p_max]
        got, got_partners = cli._select_pillbox_modes(par.blocks, par.base, modes)
        want, want_partners = select_every_block(par.blocks, par.base, modes)
        assert [bi for bi, _ in got] == [bi for bi, _ in want]
        np.testing.assert_allclose(
            [pr.value for _, pr in got], [pr.value for _, pr in want], rtol=1e-10
        )
        assert sorted(got_partners) == sorted(want_partners)
        np.testing.assert_allclose(
            [got_partners[bi].value for bi in sorted(got_partners)],
            [want_partners[bi].value for bi in sorted(want_partners)],
            rtol=1e-10,
        )

    def test_benchmark_pillbox_solves_each_cross_section_once(self, monkeypatch):
        # the criterion-3 selection: 6 modes from 5 blocks, 2 dense solves
        par = build_pillbox_pencil(0.05, 0.1, 2, DiscreteSpace(2, 16))
        solve, solved = cli.solve_smallest, []

        def counted(pencil, k):
            solved.append((pencil, k))
            return solve(pencil, k)

        monkeypatch.setattr(cli, "solve_smallest", counted)
        sections = par.base
        selected, _ = cli._select_pillbox_modes(par.blocks, sections, 6)
        assert solved == [(sections["TM"], 8), (sections["TE"], 8)]
        assert {par.blocks[bi].family for bi, _ in selected} == {"TM", "TE"}


class TestStartRecords:
    """Every node's homotopy starts at one base pencil per group, so each
    start pair's bordered matrix at t = 0 is filled and factored once per
    process, and Newton confirms a converged residual on its last LU."""

    @pytest.mark.parametrize(
        "doc", [PILLBOX_UQ, SMALL_DISK, dict(SMALL_DISK, modes=2)],
        ids=["pillbox", "disk", "disk-partner"],
    )
    def test_one_start_factorization_per_start_pair(self, monkeypatch, tmp_path, doc):
        factorizations, _ = count_lu_calls(monkeypatch)
        fills, made, tracked, groups = [], [], set(), []
        factor, start, track_modes = tracking._factor, tracking._Start, cli.track_modes

        def filled(pencil, lam, Me, c):
            # one fill per matrix: a call fills one per pencil of its stack
            fills.extend(lam)
            return factor(pencil, lam, Me, c)

        def started(pencil, pair):
            made.append(pair.value)
            return start(pencil, pair)

        def recorded(homotopy, starts, cfg, partner=None):
            # start pairs tracked per (node, group), one node per end
            groups.append(len(starts) * len(homotopy.ends))
            outcomes = track_modes(homotopy, starts, cfg, partner)
            # the pairs tracked from the base pencil, the partner where it mixes
            tracked.update(homotopy.start.starts)
            return outcomes

        monkeypatch.setattr(tracking, "_factor", filled)
        monkeypatch.setattr(tracking, "_Start", started)
        monkeypatch.setattr(cli, "track_modes", recorded)
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "run"
        assert cli.main(["uq", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(fills) == len(factorizations) == summary["factorizations"]
        # more start pairs are tracked than there are distinct ones
        assert sum(groups) > len(tracked) >= doc["modes"]
        # one start record, and with it one fill at t = 0, per distinct pair
        assert len(made) == len(tracked)
        if doc["modes"] == 2:   # the partner is tracked with the pair
            assert len(tracked) == 3

    def test_readme_study_takes_the_same_steps(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_PENCIL_CACHE", {})
        cfg = write_config(tmp_path, "c.json", readme_disk(1234, 3))
        out = tmp_path / "run"
        assert cli.main(["uq", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["newton"] == {"accepted_steps": 379, "mean": 1008 / 379, "max": 5}
        assert summary["rejected_steps"] == 1
        assert summary["bordered_solves"] == 1392
        assert summary["factorizations"] <= 700

class TestFoldFreeDeformation:
    @pytest.mark.parametrize("seed", [103, 118])
    def test_synthetic_draws_that_folded_the_patch_complete(self, monkeypatch, tmp_path, seed):
        # under the ring-mean interior fill these draws folded the patch at
        # a level-2 node, and the study exited 3
        monkeypatch.setattr(cli, "_PENCIL_CACHE", {})
        cfg = write_config(tmp_path, "c.json", readme_disk(seed, 3))
        out = tmp_path / "run"
        assert cli.main(["uq", "--config", cfg, "--out", str(out)]) == 0
        assert not json.loads((out / "summary.json").read_text())["warnings"]


class TestPencilCache:
    @pytest.mark.parametrize("doc", [PILLBOX_UQ, SMALL_DISK], ids=["pillbox", "disk"])
    def test_repeated_study_reads_the_same_factorizations(self, tmp_path, doc):
        """Each command starts on an empty pencil cache, so a study's
        factorization count does not depend on what its process ran before:
        start records kept from an earlier run would save their
        factorizations."""
        cfg = write_config(tmp_path, "c.json", doc)
        counts = []
        for run in ("first", "second"):
            out = tmp_path / run
            assert cli.main(["uq", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
            counts.append(json.loads((out / "summary.json").read_text())["factorizations"])
        assert counts[0] == counts[1] > 0


class TestWarnings:
    def test_counted_at_any_worker_count(self, monkeypatch, tmp_path):
        """Warnings raised while a node is tracked are counted into
        summary.json, not swallowed; the total is the same at 1 and 2
        workers, and no table changes."""
        track_modes = cli.track_modes

        def warning(homotopy, starts, cfg, partner=None):
            for _ in homotopy.ends:   # one warning per (node, group)
                warnings.warn("tracked", UserWarning)
            return track_modes(homotopy, starts, cfg, partner)

        monkeypatch.setattr(cli, "track_modes", warning)
        # one mode, so one group per node; 4 of the 5 nodes are tracked
        cfg = write_config(tmp_path, "c.json", dict(PILLBOX_UQ, modes=1))
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert cli.main(["uq", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
            assert json.loads((out / "summary.json").read_text())["warnings"] == 4
            outs.append(out)
        for name in ("grid.csv", "mode_table.csv", "moments.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestFailureIsolation:
    def test_track_writes_every_other_entry(self, monkeypatch, tmp_path, track_run):
        fail_group_ends(monkeypatch, {0: [1]})
        cfg = write_config(tmp_path, "c.json", PILLBOX_TRACK)
        out = tmp_path / "run"
        assert cli.main(["track", "--config", cfg, "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [{"node": 2, "modes": [0], "error": "injected"}]
        assert summary["crossing_radius_m"] is None
        _, full = track_run
        rows = read_csv(full / "mode_00.csv")
        assert read_csv(out / "mode_00.csv") == rows[:3] + rows[4:]
        for name in ("mode_01.csv", "discrete_samples.csv"):
            assert (out / name).read_bytes() == (full / name).read_bytes()

    def test_uq_writes_no_table(self, monkeypatch, tmp_path, capsys):
        fail_group_ends(monkeypatch, {0: [1]})
        cfg = write_config(tmp_path, "c.json", PILLBOX_UQ)
        out = tmp_path / "run"
        assert cli.main(["uq", "--config", cfg, "--out", str(out)]) == 3
        assert "injected" in capsys.readouterr().err
        assert not (out / "mode_table.csv").exists()
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command", ["uq", "bench"])
    def test_study_stops_at_the_first_failed_node(self, monkeypatch, tmp_path, capsys, command):
        # PILLBOX_UQ on 9 nodes is two chunks, nodes 0-5 and 6-8, and tracks
        # two groups at each node but node 4, the base radius: the first
        # chunk's calls track nodes 0, 1, 2, 3 and 5.  Its first group fails
        # at node 3 and its second at node 1, so node 1 is the first failure
        # in node order, and the second chunk is never tracked.
        calls = fail_group_ends(monkeypatch, {0: [3], 1: [1]})
        task, chunks = cli._pillbox_node_task, []

        def recorded(job, first, nodes):
            chunks.append(first)
            return task(job, first, nodes)

        monkeypatch.setattr(cli, "_pillbox_node_task", recorded)
        doc = dict(PILLBOX_UQ, grid={"kind": "tensor", "family": "clenshaw-curtis", "orders": [9]})
        cfg = write_config(tmp_path, "c.json", doc)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err == "numerical failure: node 1, modes [1, 2]: injected\n"
        assert chunks == [0] and calls == [(1, 5), (2, 5)]

    @pytest.mark.parametrize("command", ["uq", "bench"])
    def test_disk_refuses_more_modes_than_unknowns(self, tmp_path, capsys, command):
        # the once-refined README disk has 16 unknowns: 20 modes are refused
        # as the pillbox refuses them, not cut to the 16 there are
        cfg = write_config(tmp_path, "c.json", readme_disk(1234, 20, refinement=2))
        out = tmp_path / "run"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: only 16 physical candidates found for 20 modes\n"
        )
        assert not out.exists() or list(out.iterdir()) == []

    def test_every_failed_node_is_listed(self, tmp_path):
        # a tolerance below rounding never converges a step, and the second
        # rejection takes the step below min_step
        doc = dict(PILLBOX_TRACK, tracking={"newton_tol": 1e-300, "min_step": 0.5})
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "run"
        assert cli.main(["track", "--config", cfg, "--out", str(out)]) == 3
        failures = json.loads((out / "summary.json").read_text())["failures"]
        assert [(f["node"], f["modes"]) for f in failures] == [
            (k, modes) for k in range(1, 11) for modes in ([0], [1])
        ]
        assert all(f["error"].startswith("step underflow") for f in failures)
        for j in range(2):
            assert len(read_csv(out / f"mode_{j:02d}.csv")) == 2


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_requires_config_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["uq"])
        assert exc.value.code == 2

    def test_no_seed_flag(self, tmp_path):
        # a synthetic draw's seed is set in the config alone
        with pytest.raises(SystemExit) as exc:
            cli.main(["uq", "--config", str(tmp_path / "c.json"), "--seed", "5"])
        assert exc.value.code == 2
