"""End-to-end acceptance gate.

Each test checks one study-level requirement and prints a single
``criterion N (...): PASS/FAIL`` line with the measured values, bypassing
pytest capture so the lines always appear in the run log.
"""

import csv
import itertools
import json
import math
import time

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import dense_pencil, derivative_at, pencil_at

from cavityuq import cli, oracle, uq
from cavityuq.assembly import DiscreteSpace
from cavityuq.eigen import Eigenpair, solve_smallest
from cavityuq.pencil import (
    HomotopyPencil,
    build_pillbox_pencil,
    eigenvalue_to_frequency,
    is_spurious,
)
from cavityuq.tracking import track_modes

RADIUS = 0.05
LENGTH = 0.1


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail):
        line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def _run_cli(argv):
    code = cli.main(argv)
    assert code == 0, f"cavityuq {argv[0]} exited {code}"


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


# -- 1: discrete spectrum vs closed-form cylinder frequencies -----------------

def _ten_lowest(elements, reference):
    p_max = max(lab.p for lab, _ in reference)
    space = DiscreteSpace(2, elements)
    par = build_pillbox_pencil(RADIUS, LENGTH, p_max, space)
    fs = []
    # a block's spectrum is its cross-section's, shifted
    for family, pen in par.at([RADIUS]).items():
        values = [p.value for p in solve_smallest(pen, 11) if not is_spurious(p, pen)]
        fs += [
            eigenvalue_to_frequency(v + b.axial_shift)
            for b in par.blocks if b.family == family for v in values
        ]
    fs = sorted(fs)[:10]
    return max(abs(f - fr) / fr for f, (_, fr) in zip(fs, reference))


def test_criterion_1_pillbox_analytic_agreement(report, pillbox_spectrum):
    reference = pillbox_spectrum(RADIUS, LENGTH, 10)
    t0 = time.perf_counter()
    err_coarse = _ten_lowest(16, reference)
    err_fine = _ten_lowest(32, reference)
    wall = time.perf_counter() - t0
    ok = err_coarse <= 5e-4 and err_fine < err_coarse and wall < 60.0
    report(
        1, "pillbox analytic agreement", ok,
        f"max rel err {err_coarse:.2e} @16x16 (tol 5e-4), "
        f"{err_fine:.2e} @32x32 (must decrease), {wall:.1f} s (< 60 s)",
    )


# -- 2: crossing radius of the two lowest modes -------------------------------

def test_criterion_2_crossing_reproduction(report, tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "problem": {"kind": "pillbox", "length": LENGTH, "p_max": 1},
        "discretization": {"degree": 2, "elements": 12},
        "modes": 2,
        "sweep": {"start": 0.06, "stop": 0.04, "samples": 21},
    })
    _run_cli(["track", "--config", cfg, "--out", str(tmp_path / "run")])
    found = json.loads((tmp_path / "run" / "summary.json").read_text())["crossing_radius_m"]
    exact = oracle.crossing_radius(LENGTH)
    err = abs(found - exact)
    report(
        2, "crossing reproduction", err <= 1e-3,
        f"crossing {found:.6f} m vs exact {exact:.6f} m, |err| {err:.1e} (tol 1e-3)",
    )


# -- 3 & 4: collocation moments and Newton economy on one shared run ----------

@pytest.fixture(scope="module")
def pillbox_uq(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("accept_uq")
    cfg = _write(tmp / "c.json", {
        "problem": {
            "kind": "pillbox", "length": LENGTH, "p_max": 2,
            "distribution": {"family": "uniform", "support": [0.04, 0.06]},
        },
        "discretization": {"degree": 2, "elements": 16},
        "modes": 6,
        "grid": {"kind": "tensor", "family": "clenshaw-curtis", "orders": [5]},
    })
    t0 = time.perf_counter()
    _run_cli(["uq", "--config", cfg, "--out", str(tmp / "run"), "--workers", "4"])
    wall = time.perf_counter() - t0
    return tmp / "run", cfg, wall


def test_criterion_3_pillbox_uq_moments(report, pillbox_uq):
    out, _, wall = pillbox_uq
    grid = uq.load_grid_csv(out / "grid.csv")
    labeled = oracle.pillbox_frequencies(RADIUS, LENGTH, 12)
    worst_e = worst_sd = 0.0
    for row in _read_rows(out / "moments.csv"):
        base_f, mean_f, sd_f = float(row[3]), float(row[4]), float(row[5])
        label, _ = min(labeled, key=lambda t: abs(t[1] - base_f))
        fs = np.array([oracle.mode_frequency(label, r, LENGTH) for r in grid.nodes[:, 0]])
        e_ref, v_ref = uq.estimate_moments(fs, grid)
        sd_ref = math.sqrt(v_ref[0])
        worst_e = max(worst_e, abs(mean_f - e_ref[0]) / e_ref[0])
        worst_sd = max(worst_sd, abs(sd_f - sd_ref) / sd_ref)
    ok = worst_e <= 3.5e-4 and worst_sd <= 3.5e-4 and wall < 300.0
    report(
        3, "pillbox uq moments", ok,
        f"6 modes, 5-pt grid: worst E err {worst_e:.2e}, worst sd err {worst_sd:.2e} "
        f"(tol 3.5e-4), {wall:.1f} s with 4 workers (< 300 s)",
    )


def test_criterion_4_newton_economy(report, pillbox_uq):
    out, _, _ = pillbox_uq
    newton = json.loads((out / "summary.json").read_text())["newton"]
    ok = 1.5 <= newton["mean"] <= 3.5 and newton["max"] <= 5
    report(
        4, "newton economy", ok,
        f"mean {newton['mean']:.2f} per accepted step (in [1.5, 3.5]), "
        f"max {newton['max']} (<= 5), {newton['accepted_steps']} steps",
    )


# -- 5: sparse grid size and polynomial exactness -----------------------------

def test_criterion_5_sparse_grid_count(report):
    # standard normal moments E[x^a] for a = 0..3
    moment = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0}
    grid = uq.build_smolyak_grid(7, 2)
    worst = 0.0
    for alpha in itertools.product(range(4), repeat=7):
        if sum(alpha) > 3:
            continue
        exact = math.prod(moment[a] for a in alpha)
        got = float(np.sum(grid.weights * np.prod(grid.nodes ** alpha, axis=1)))
        worst = max(worst, abs(got - exact))
    ok = grid.n_nodes == 127 and worst <= 1e-12
    report(
        5, "sparse grid count", ok,
        f"dim 7 level 2: {grid.n_nodes} nodes (expect 127), "
        f"worst degree-<=3 moment err {worst:.1e} (tol 1e-12)",
    )


# -- 6: covariance reduction from 18 stations to 7 parameters -----------------

def test_criterion_6_covariance_reduction(report):
    cov = uq.default_correlated_covariance(18)
    obs = uq.generate_synthetic_observations(cov, np.zeros(18), 5000, seed=1234)
    kl = uq.fit_kl(obs, criterion=0.95)
    gram_err = float(np.abs(kl.modes.T @ kl.modes - np.eye(kl.n_modes)).max())
    ordered = bool(np.all(np.diff(kl.variances) <= 0.0))
    rng = np.random.default_rng(7)
    Z = rng.standard_normal((40_000, kl.n_modes))
    X = kl.mean + Z @ kl.scaled_modes.T
    c_hat = np.cov(X.T)
    c_trunc = kl.scaled_modes @ kl.scaled_modes.T
    mc_err = float(
        np.linalg.norm(c_hat - c_trunc) / np.linalg.norm(c_trunc)
    )
    ok = kl.n_modes == 7 and gram_err <= 1e-12 and ordered and mc_err <= 0.03
    report(
        6, "covariance reduction", ok,
        f"retained {kl.n_modes} of 18 (expect 7, ratio {kl.captured_ratio:.4f}), "
        f"orthonormality err {gram_err:.1e}, ordered={ordered}, "
        f"40k-sample covariance round-trip err {mc_err:.1%} (tol 3%)",
    )


# -- 7: tracked eigenvalues and derivatives vs dense direct solves ------------

def test_criterion_7_tracking_oracle_equivalence(report):
    rng = np.random.default_rng(2024)
    n = 50
    worst_eig = worst_der = 0.0
    for _ in range(20):
        def spd(shift):
            A = rng.standard_normal((n, n)) / math.sqrt(n)
            return A @ A.T + shift * np.eye(n)

        hom = HomotopyPencil(
            dense_pencil(spd(0.5), spd(1.0)), [dense_pencil(spd(0.5), spd(1.0))]
        )
        starts = solve_smallest(hom.start, 3)
        (states,) = track_modes(hom, starts)
        end = hom.ends[0]
        w1 = sla.eigh(end.stiffness.toarray(), end.mass.toarray(), eigvals_only=True)
        for st in states:
            lam = st.eigenpair.value
            worst_eig = max(worst_eig, float(np.min(np.abs(w1 - lam)) / abs(lam)))

        # lowest-mode derivative at mid-homotopy vs central differences
        h = 1e-4
        pen = pencil_at(hom, 0.5)
        w, V = sla.eigh(pen.stiffness.toarray(), pen.mass.toarray())
        pair = Eigenpair(float(w[0]), V[:, 0], 0.0)
        c = pen.mass @ pair.vector
        [(_, dlam)] = derivative_at(hom, 0.5, pair, c)
        lo, hi = (
            sla.eigh(p.stiffness.toarray(), p.mass.toarray(), eigvals_only=True)[0]
            for p in (pencil_at(hom, 0.5 + s) for s in (-h, h))
        )
        worst_der = max(worst_der, abs(dlam - (hi - lo) / (2 * h)) / abs(dlam))
    ok = worst_eig <= 1e-9 and worst_der <= 1e-5
    report(
        7, "tracking oracle equivalence", ok,
        f"20 pencils of size 50: worst endpoint eigenvalue err {worst_eig:.1e} "
        f"(tol 1e-9), worst derivative-vs-FD err {worst_der:.1e} (tol 1e-5)",
    )


# -- 8: linear-solve budget of tracking vs per-node recomputation -------------

def test_criterion_8_solve_count_advantage(report, pillbox_uq, tmp_path):
    _, cfg, _ = pillbox_uq
    _run_cli(["bench", "--config", cfg, "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "bench.json").read_text())
    tracked = doc["tracked"]["per_mode_point"]
    direct = doc["direct"]["per_mode_point"]
    report(
        8, "solve count advantage", tracked < direct,
        f"{tracked:.2f} solves per (mode, point) tracked vs {direct:.2f} direct "
        f"({doc['direct']['modes_computed']} modes recomputed per node); "
        f"wall {doc['tracked']['wall_s']:.2f} s vs {doc['direct']['wall_s']:.2f} s "
        "(reported, not asserted)",
    )


# -- 9: worker-count invariance of the moment tables --------------------------

def test_criterion_9_parallel_determinism(report, tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "problem": {
            "kind": "deformed-disk", "radius": RADIUS, "criterion": 0.95,
            "synthetic": {"variables": 18, "samples": 5000, "seed": 1234},
        },
        "discretization": {"degree": 2, "refinement": 2},
        "modes": 3,
        "grid": {"kind": "smolyak", "family": "gauss-hermite", "level": 1},
    })
    _run_cli(["uq", "--config", cfg, "--out", str(tmp_path / "w1"), "--workers", "1"])
    _run_cli(["uq", "--config", cfg, "--out", str(tmp_path / "w8"), "--workers", "8"])
    same = all(
        (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w8" / name).read_bytes()
        for name in ("moments.csv", "mode_table.csv", "grid.csv")
    )
    report(
        9, "parallel determinism", same,
        "moments.csv, mode_table.csv, grid.csv byte-identical at workers 1 and 8"
        if same else "tables differ between workers 1 and 8",
    )
