"""Cold-process benchmark of `cavityuq uq` studies.

    python3 perfbench/run.py --workload pillbox-cc5 --seed 1234 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The program is imported from the checkout's `src/`, next to this directory.
Every study is a fresh `python3 -m cavityuq.cli uq --workers 1` process, one
at a time (closed loop), with BLAS and OpenMP threads pinned to 1.  --seed
is accepted and printed, but no workload's input depends on it
(workloads.py says why).  Each run:

1. builds the dense reference spectra of the workload (checker.py), untimed;
2. with --trace 0, times cold set-up studies (a grid holding only the base
   point) until a sixth of --seconds has been spent and at least three have
   run, then cold studies until --seconds have been spent and at least the
   workload's minimum count has run, and reports end-to-end metrics as
   medians;
3. with --trace 1, times one untraced study and one traced study
   (tracer.py) and reports per-layer metrics.

Every output directory is scored by the checker.  The human-readable report
goes to stdout first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170     # studies still running this long after a workload
                      # run started are killed
MIN_SETUPS = 3        # set-up studies per run, at least; more while they
SETUP_SHARE = 1 / 6   # have taken less than this share of --seconds
TABLES = ("mode_table.csv", "moments.csv")   # byte-identical across runs

# name -> (unit, direction); the order is the print order
END_TO_END = {
    "study_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "tracks_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "distinct_track_frac": ("ratio", "higher"),
}

PER_LAYER = {
    "geometry.deform_s": "s", "geometry.deform_calls": "count", "geometry.patch_s": "s",
    "splines.basis_evals": "count",
    "assembly.assemble_s": "s", "assembly.calls": "count",
    "eigen.solve_s": "s", "eigen.calls": "count",
    "pencil.homotopy_at_s": "s", "pencil.other_s": "s", "pencil.param_evals": "count",
    "pencil.param_hit_ratio": "ratio",
    "tracking.track_s": "s", "tracking.newton_s": "s", "tracking.derivative_s": "s",
    "tracking.factorize_s": "s", "tracking.backsolve_s": "s",
    "tracking.factorizations": "count", "tracking.backsolves": "count",
    "tracking.accepted_steps": "count", "tracking.rejected_steps": "count",
    "tracking.accept_ratio": "ratio", "tracking.solves_per_track": "count",
    "tracking.newton_iters_mean": "count", "tracking.min_overlap": "ratio",
    "uq.kl_s": "s", "uq.grid_s": "s", "uq.moments_s": "s",
    "cli.self_s": "s", "cli.node_tasks": "count",
    "trace.total_s": "s", "trace.overhead_frac": "ratio",
}

# per-layer time metric -> tracer spans whose self times it sums; together
# they cover every span, so they add up to trace.total_s
SELF_TIME_GROUPS = {
    "cli.self_s": ("cli.main",),
    "uq.kl_s": ("uq.kl",),
    "uq.grid_s": ("uq.grid",),
    "uq.moments_s": ("uq.moments",),
    "geometry.deform_s": ("geometry.deform",),
    "geometry.patch_s": ("geometry.patch",),
    "assembly.assemble_s": ("assembly.assemble",),
    "eigen.solve_s": ("eigen.solve",),
    "pencil.homotopy_at_s": ("pencil.homotopy_at",),
    "pencil.other_s": ("pencil.param_at", "pencil.build", "pencil.block", "pencil.derivative"),
    "tracking.track_s": ("tracking.track_modes", "tracking.track"),
    "tracking.newton_s": ("tracking.newton",),
    "tracking.derivative_s": ("tracking.derivative",),
    "tracking.factorize_s": ("tracking.factorize",),
    "tracking.backsolve_s": ("tracking.backsolve",),
}

# spans that must run on every workload of a kind; a hook that silently
# stopped firing would otherwise report zero
EXPECTED_CALLS = {
    "common": (
        "cli.main", "cli.node_tasks", "uq.grid", "uq.moments", "assembly.assemble",
        "eigen.solve", "pencil.param_at", "pencil.homotopy_at", "tracking.track_modes",
        "tracking.track", "tracking.newton", "tracking.derivative", "tracking.factorize",
        "tracking.backsolve", "splines.basis_evals", "geometry.patch",
    ),
    "pillbox": ("pencil.build", "pencil.block"),
    "deformed-disk": ("geometry.deform", "uq.kl"),
}


@dataclass
class StudyResult:
    out_dir: Path
    code: int           # exit code of the study process
    wall_s: float       # spawn to exit
    cpu_s: float        # user + system time of the process tree
    rss_mb: float       # largest resident set in the tree
    score: object = None


def child_env():
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_study(argv, out_dir, deadline):
    """Run one cold process to exit; its wall time, CPU time and peak RSS.

    os.wait4 reports the child's user and system time and its largest
    resident set, both including any children it waited for.
    """
    out_dir.mkdir(parents=True)
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable] + argv, env=child_env(), cwd=ROOT,
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, start_new_session=True,
        )
        left = max(deadline - time.monotonic(), 1.0)
        timer = threading.Timer(left, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    return StudyResult(
        out_dir, os.waitstatus_to_exitcode(status), wall,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
    )


def uq_args(config_path, out_dir):
    return ["uq", "--config", str(config_path), "--out", str(out_dir), "--workers", "1"]


def tail(values, better):
    """(label, value): the worst-side percentile with at least ten samples
    beyond it, or the worst sample when there are too few."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100)
            return f"p{pct}", q[pct - 1] if better == "lower" else q[99 - pct]
    return "worst", max(values) if better == "lower" else min(values)


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Session:
    """One workload run: reference, studies, checks and metrics."""

    def __init__(self, workload, work):
        import checker
        import workloads

        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.workload = workload
        self.work = work
        self.config = workloads.study_config(workload)
        self.config_path = workloads.write_config(work / "study.json", self.config)
        self.setup_path = workloads.write_config(
            work / "setup.json", workloads.study_config(workload, setup=True)
        )
        t0 = time.perf_counter()
        self.reference = checker.Reference(self.config).prepare()
        self.reference_s = time.perf_counter() - t0
        self.studies = []      # every study run, checked
        self.problems = []
        self._count = 0

    def study(self, setup=False):
        self._count += 1
        out = self.work / f"{'setup' if setup else 'study'}-{self._count:03d}"
        config = self.setup_path if setup else self.config_path
        res = run_study(["-m", "cavityuq.cli"] + uq_args(config, out), out, self.deadline)
        self._check(res, setup)
        return res

    def traced_study(self):
        self._count += 1
        out = self.work / f"traced-{self._count:03d}"
        trace_path = self.work / "trace.json"
        res = run_study(
            [str(HERE / "tracer.py"), str(trace_path), "--"]
            + uq_args(self.config_path, out),
            out,
            self.deadline,
        )
        self._check(res, setup=False)
        if res.code != 0 or not trace_path.is_file():
            return res, None
        return res, json.loads(trace_path.read_text())

    def _check(self, res, setup):
        import checker

        self.studies.append((res, setup))
        if res.code != 0:
            err = (res.out_dir / "stderr.txt").read_text().strip().splitlines()
            n = self.reference.entries
            res.score = checker.Score(n, n, math.nan, [f"exit {res.code}: {err[-1:]}"])
        elif not setup:
            res.score = self.reference.score(res.out_dir)
        if res.score is not None:
            self.problems.extend(f"{res.out_dir.name}: {p}" for p in res.score.problems)

    def check_identical(self):
        """Tables are byte-identical across studies, and each set-up table
        equals the base column of the full study."""
        import checker

        groups = {True: [], False: []}
        for res, setup in self.studies:
            if res.code == 0:
                groups[setup].append(res.out_dir)
        for dirs in groups.values():
            for name in TABLES:
                first = (dirs[0] / name).read_bytes() if dirs else None
                for d in dirs[1:]:
                    if (d / name).read_bytes() != first:
                        self.problems.append(f"{d.name}/{name} differs from {dirs[0].name}")
        col = self.reference.base_column()
        if groups[True] and groups[False] and col is not None:
            base = checker.read_mode_table(groups[True][0] / "mode_table.csv")[:, 0]
            full = checker.read_mode_table(groups[False][0] / "mode_table.csv")[:, col]
            if not (base == full).all():
                self.problems.append("set-up table differs from the study's base column")

    def result(self, metrics):
        self.check_identical()
        failed = sum(1 for res, _ in self.studies if res.score and res.score.problems)
        return {
            "correct": not self.problems and failed == 0,
            "attempted": len(self.studies),
            "failed": failed,
            "metrics": metrics,
        }


def distinct_frac(results):
    """Share of mode-table entries that match a distinct eigenvalue; a run
    that exits non-zero counts every entry as bad."""
    entries = sum(r.score.entries for r in results)
    bad = sum(r.score.bad for r in results)
    return (entries - bad) / entries, bad, entries


def measure(session, seconds, say):
    w = session.workload
    setups = []
    while len(setups) < MIN_SETUPS or sum(r.wall_s for r in setups) < SETUP_SHARE * seconds:
        setups.append(session.study(setup=True))
    studies = []
    spent = 0.0
    while spent < seconds or len(studies) < w.min_studies:
        res = session.study()
        studies.append(res)
        spent += res.wall_s
        if res.code != 0:
            break

    entries = session.reference.entries
    samples = {
        "study_s": [r.wall_s for r in studies],
        "setup_s": [r.wall_s for r in setups],
        "tracks_per_s": [entries / r.wall_s for r in studies],
        "cpu_s": [r.cpu_s for r in studies],
        "peak_rss_mb": [r.rss_mb for r in studies],
    }
    frac, bad, total = distinct_frac(studies)
    say(f"reference spectra: {session.reference_s:.2f} s (untimed)")
    for name, values in samples.items():
        unit, better = END_TO_END[name]
        label, t = tail(values, better)
        say(
            f"{name:<20} median {statistics.median(values):.6g} {unit}  "
            f"{label} {t:.6g} {unit}  (n={len(values)})"
        )
    say(f"{'bad_track_frac':<20} {bad}/{total} = {bad / total:.6g}  (n={len(studies)})")
    say(f"{'distinct_track_frac':<20} {frac:.6g} ratio  (n={len(studies)})")
    errs = [r.score.oracle_rel_err for r in studies if r.code == 0]
    if errs and not any(math.isnan(e) for e in errs):
        say(f"{'oracle_rel_err':<20} {max(errs):.6g}  (criterion 3 bound 3.5e-4, n={len(errs)})")
    metrics = {
        name: {"value": statistics.median(values), "unit": END_TO_END[name][0]}
        for name, values in samples.items()
    }
    metrics["distinct_track_frac"] = {"value": frac, "unit": "ratio"}
    return {name: metrics[name] for name in END_TO_END}


def layer_metrics(trace, untraced_s, traced_s):
    self_s, calls = trace["self_s"], trace["calls"]
    out = {
        metric: sum(self_s.get(span, 0.0) for span in spans)
        for metric, spans in SELF_TIME_GROUPS.items()
    }
    tracks = max(trace["tracks"], 1)
    steps = trace["accepted_steps"] + trace["rejected_steps"]
    param_evals = calls.get("pencil.param_at", 0)
    out.update({
        "geometry.deform_calls": calls.get("geometry.deform", 0),
        "splines.basis_evals": calls.get("splines.basis_evals", 0),
        "assembly.calls": calls.get("assembly.assemble", 0),
        "eigen.calls": calls.get("eigen.solve", 0),
        "pencil.param_evals": param_evals,
        "pencil.param_hit_ratio": (param_evals - trace["param_misses"]) / max(param_evals, 1),
        "tracking.factorizations": calls.get("tracking.factorize", 0),
        "tracking.backsolves": calls.get("tracking.backsolve", 0),
        "tracking.accepted_steps": trace["accepted_steps"],
        "tracking.rejected_steps": trace["rejected_steps"],
        "tracking.accept_ratio": trace["accepted_steps"] / max(steps, 1),
        "tracking.solves_per_track": trace["bordered_solves"] / tracks,
        "tracking.newton_iters_mean": trace["newton_iterations"] / max(trace["accepted_steps"], 1),
        "tracking.min_overlap": trace["min_overlap"],
        "cli.node_tasks": calls.get("cli.node_tasks", 0),
        "trace.total_s": trace["total_s"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    return out


def measure_traced(session, say):
    untraced = session.study()
    traced, trace = session.traced_study()
    if trace is None:
        session.problems.append("traced study produced no trace")
        return {}
    kind = session.workload.kind
    calls = trace["calls"]
    for span in EXPECTED_CALLS["common"] + EXPECTED_CALLS[kind]:
        if not calls.get(span):
            session.problems.append(f"trace: span {span} never ran")
    self_sum = sum(trace["self_s"].values())
    if abs(self_sum - trace["total_s"]) > 1e-6 * trace["total_s"] + 1e-6:
        session.problems.append(
            f"trace: self times sum to {self_sum:.6f} s, total is {trace['total_s']:.6f} s"
        )
    values = layer_metrics(trace, untraced.wall_s, traced.wall_s)
    say(f"untraced study {untraced.wall_s:.4f} s, traced study {traced.wall_s:.4f} s")
    for name, unit in PER_LAYER.items():
        say(f"{name:<28} {values[name]:.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_workload(name, seed, seconds, trace, say):
    import workloads

    workload = workloads.WORKLOADS[name]
    work = ROOT / ".perfbench_runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        say(f"workload {name}  seed {seed} (unused)  seconds {seconds}  trace {trace}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        say("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == name))
        session = Session(workload, work)
        if trace:
            metrics = measure_traced(session, say)
        else:
            metrics = measure(session, seconds, say)
        result = session.result(metrics)
        for p in session.problems:
            say(f"CHECK FAILED: {p}")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cavityuq" / "cli.py").is_file():
        print(f"error: no cavityuq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update({v: "1" for v in THREAD_VARS})   # before numpy loads

    def say(line):
        print(f"# {line}", flush=True)

    say("env " + json.dumps(environment(), sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, say) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
