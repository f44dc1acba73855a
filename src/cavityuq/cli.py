"""Batch drivers for cavity eigenfrequency studies.

Subcommands
-----------
track               radius sweep with identity-preserving mode tracking
uq                  collocation study: moment tables for tracked modes
kl-fit              covariance reduction of a station observation matrix
grid                stand-alone collocation grid construction
pillbox-reference   closed-form labeled mode table of the cylinder cavity
bench               linear-solve count comparison: tracking vs. direct solves

Every subcommand takes --config PATH (JSON), --out DIR and --workers N.
Exit codes: 0 success, 2 configuration error (a bad config, or a missing or
malformed file it names; a NaN or infinite number in either is one), 3
numerical failure.

uq, bench and track share one runner: solve the base pencil once, then cut
the nodes (grid nodes, or the radii of the track sweep) into chunks of
consecutive nodes and run one node task per chunk on at most --workers
processes, and never more processes than chunks.  A chunk holds as many
nodes as the tracker takes homotopy ends at once (tracking.batch_size of
the largest pencil tracked in), so its boundaries depend on the study
alone.  A task tracks every start pair to each node of its chunk, the
chunk's homotopies in lockstep, and returns the chunk's _Record; the
study's _Record merges them, node k at column k.

Config schema (strict: unknown keys are rejected)
-------------------------------------------------
problem (track, uq, bench):
  kind: "pillbox"
    radius: nominal radius in meters (uq/bench)
    length: cavity length in meters
    p_max: highest axial order kept (default 2)
    distribution: {family: "uniform", support: [lo, hi]}   (uq/bench)
  kind: "deformed-disk" (uq/bench)
    radius: base disk radius in meters
    criterion: variance fraction for the covariance truncation (not with model)
    observations: CSV path of station offsets (radial, equally spaced angles)
    synthetic: {variables: int, samples: int, seed: int}  (alternative source;
      samples x variables at most SYNTHETIC_ENTRY_CAP)
    model: path of a saved reduction (kl-fit output, third alternative)
discretization:
  degree: B-spline degree (default 2)
  elements: elements per direction (pillbox, default 16)
  refinement: dyadic refinement levels of the disk patch (deformed-disk)
modes: number of tracked eigenmodes
sweep (track): {start, stop, samples}  radii in meters
grid (uq, bench, grid):
  {kind: "tensor", family, orders: [n, ...]} or
  {kind: "smolyak", family, level}
  The support and the dimension come from the problem: a pillbox takes a
  uniform family, and a zero-width support a one-node grid.  The grid
  command takes an explicit "dim", and "support" for the uniform families.
tracking (optional): step-control overrides, keys as in TrackConfig
kl-fit config: {observations: path, criterion: fraction}
pillbox-reference config: {radius, length, count}
"""

import argparse
import csv
import json
import math
import sys
import time
import warnings
from collections import Counter
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import geometry, oracle, uq
from .assembly import DiscreteSpace, assemble
from .eigen import solve_smallest
from .errors import CavityError, ConfigError, DomainError, SolverError
from .pencil import (
    HomotopyPencil,
    ParametricPencil,
    block_pencil,
    build_pillbox_pencil,
    eigenvalue_to_frequency,
    is_spurious,
)
from .tracking import Tally, TrackConfig, batch_size, track_modes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_REQUIRED = object()
# entries of one synthetic observation matrix: 80 MB; drawing it peaks at
# three such matrices
SYNTHETIC_ENTRY_CAP = 10**7


# -- strict configuration parsing -------------------------------------------

class _Section:
    """Dict wrapper that consumes keys and rejects leftovers."""

    def __init__(self, data, where):
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
        self._data = dict(data)
        self.where = where

    def take(self, key, default=_REQUIRED, kind=None, choices=None, lo=None, hi=None):
        if key in self._data:
            value = self._data.pop(key)
        elif default is _REQUIRED:
            raise ConfigError(f"{self.where}: missing required key {key!r}")
        else:
            return default
        if kind is int or kind is float:
            if not _is_finite(value) or (kind is int and int(value) != value):
                noun = "an integer" if kind is int else "a finite number"
                raise ConfigError(f"{self.where}.{key}: expected {noun}, got {value!r}")
            value = kind(value)
        elif kind is str and not isinstance(value, str):
            raise ConfigError(f"{self.where}.{key}: expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(f"{self.where}.{key}: {value!r} not one of {tuple(choices)}")
        if lo is not None and value < lo:
            raise ConfigError(f"{self.where}.{key}: {value} is below the minimum {lo}")
        if hi is not None and value > hi:
            raise ConfigError(f"{self.where}.{key}: {value} exceeds the maximum {hi}")
        return value

    def section(self, key, default=_REQUIRED):
        value = self.take(key, default=default)
        if value is default and default is not _REQUIRED:
            return None if value is None else _Section(value, f"{self.where}.{key}")
        return _Section(value, f"{self.where}.{key}")

    def done(self):
        if self._data:
            extra = ", ".join(sorted(self._data))
            raise ConfigError(f"{self.where}: unknown keys: {extra}")


def _is_finite(value):
    """A number, not a bool, that is finite as a float: not NaN or infinite."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _read_input(load, path):
    """load(path) for the config file or a file it names: input from outside
    the program, so a missing or malformed one is a configuration error."""
    try:
        return load(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except (ValueError, TypeError, CavityError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_tracking(sec):
    """TrackConfig from each of its fields by name, default and type; the
    bounds are TrackConfig's own."""
    kwargs = {
        f.name: sec.take(f.name, default=f.default, kind=f.type) for f in fields(TrackConfig)
    }
    sec.done()
    try:
        return TrackConfig(**kwargs)
    except CavityError as exc:
        raise ConfigError(f"{sec.where}: {exc}") from None


def _grid_from_section(sec, dim, support, allow_explicit):
    kind = sec.take("kind", kind=str, choices=("tensor", "smolyak"))
    family = sec.take("family", kind=str, choices=uq.RULE_FAMILIES)
    if allow_explicit:
        support = sec.take("support", default=support)
        if support is not None:
            support = _check_interval(support, f"{sec.where}.support", allow_empty=False)
    try:
        if kind == "tensor":
            orders = sec.take("orders")
            if not isinstance(orders, list) or not orders or not all(
                isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in orders
            ):
                raise ConfigError(f"{sec.where}.orders: expected a list of positive integers")
            if dim is not None and len(orders) != dim:
                raise ConfigError(
                    f"{sec.where}.orders: expected {dim} entries for this problem, "
                    f"got {len(orders)}"
                )
            sec.done()
            uq.check_tensor_orders(orders)
            rules = {n: uq.rule_1d(family, n, support) for n in dict.fromkeys(orders)}
            return uq.build_tensor_grid([rules[n] for n in orders])
        level = sec.take("level", kind=int, lo=0)
        if allow_explicit:
            dim = sec.take("dim", default=dim, kind=int, lo=1)
        if dim is None:
            raise ConfigError(f"{sec.where}: smolyak grids need a dimension")
        sec.done()
        return uq.build_smolyak_grid(dim, level, family, support)
    except ConfigError:
        raise
    except CavityError as exc:
        raise ConfigError(f"{sec.where}: {exc}") from None


def _check_interval(value, where, allow_empty):
    if not isinstance(value, list) or len(value) != 2 or not all(map(_is_finite, value)):
        raise ConfigError(f"{where}: expected [lo, hi] of finite numbers")
    lo, hi = float(value[0]), float(value[1])
    if hi < lo or (hi == lo and not allow_empty):
        raise ConfigError(f"{where}: need lo < hi, got [{lo}, {hi}]")
    return lo, hi


# -- study problems ----------------------------------------------------------
#
# Each problem gives the study runner a namespace: its node task (looked up
# by name among this module's globals at run time, so that wrappers
# installed on the module are seen), the picklable arguments that rebuild
# its ParametricPencil in a worker, the grid, the start pairs grouped by the
# pencil they are tracked in, each group with its partner (the next base
# eigenpair of that pencil, tracked where the group's highest start mixes
# with it, see tracking.track_modes), the nodes per chunk, moment labels,
# and extra summary fields.  Grid nodes are the deformation coordinates
# delta of both problems.

_PENCIL_CACHE = {}


def _pillbox_parametric(base_radius, length, p_max, degree, elements):
    key = ("pillbox", base_radius, length, p_max, degree, elements)
    if key not in _PENCIL_CACHE:
        space = DiscreteSpace(degree, elements)
        _PENCIL_CACHE[key] = build_pillbox_pencil(base_radius, length, p_max, space)
    return _PENCIL_CACHE[key]


def _pillbox_base_block(spec, bi):
    """Block bi of the base pencil of spec's pillbox, built once per study
    and process: every node's homotopy of that block starts there, so the
    tracker's start records kept on it serve every node."""
    key = ("pillbox-base-block", *spec, bi)
    if key not in _PENCIL_CACHE:
        par = _pillbox_parametric(*spec)
        _PENCIL_CACHE[key] = block_pencil(par.base, par.blocks[bi])
    return _PENCIL_CACHE[key]


def _select_pillbox_modes(blocks, sections, n_modes):
    """Lowest physical modes of a pillbox at one radius, from its cross-sections.

    sections maps each family to its cross-section pencil (a value of
    build_pillbox_pencil's at).  Each is solved once for its n_modes + 2
    lowest pairs, less the TE constant-mode pair at 0.  A block's candidates
    are its family's pairs with the block's shift added to the value:
    eigenpairs of the block's pencil (block_pencil) with the same vectors.
    Returns (selected, partners): [(block_index, Eigenpair), ...] ascending,
    and block index -> that block's lowest candidate left unselected.  Keeping
    candidates per block keeps exactly degenerate cross-family coincidences
    from mixing.
    """
    pairs = {}
    for family, pen in sections.items():
        k = min(n_modes + 2, pen.n - 1)
        pairs[family] = [pr for pr in solve_smallest(pen, k) if not is_spurious(pr, pen)]
    candidates = sorted(
        (pr.value + b.axial_shift, bi, j, pr)
        for bi, b in enumerate(blocks) for j, pr in enumerate(pairs[b.family])
    )
    if len(candidates) < n_modes:
        raise SolverError(
            f"only {len(candidates)} physical candidates found for {n_modes} modes"
        )
    shifted = [(bi, replace(pr, value=value)) for value, bi, _, pr in candidates]
    partners = {}
    for bi, pr in shifted[n_modes:]:
        partners.setdefault(bi, pr)
    return shifted[:n_modes], partners


def _group_by_block(selected, partners):
    groups = {}
    for j, (bi, pair) in enumerate(selected):
        groups.setdefault(bi, []).append((j, pair))
    return {bi: (members, partners.get(bi)) for bi, members in sorted(groups.items())}


def _pillbox_modes(spec, n_modes, **extra):
    """A pillbox study namespace: the lowest modes at spec's base radius."""
    par = _pillbox_parametric(*spec)
    selected, partners = _select_pillbox_modes(par.blocks, par.base, n_modes)
    return SimpleNamespace(
        task="_pillbox_node_task", spec=spec, par=par,
        starts=[pair for _, pair in selected],
        groups=_group_by_block(selected, partners),
        chunk=batch_size(max(pen.n for pen in par.base.values())),
        labels=[(par.blocks[bi].family, par.blocks[bi].axial) for bi, _ in selected],
        **extra,
    )


def _station_angles(n):
    return np.arange(n) * (2.0 * math.pi / n)


def _disk_parametric(radius, refinement, degree, mean, modes, angles, kind):
    key = (
        "disk-model", radius, refinement, degree, kind,
        mean.tobytes(), modes.tobytes(), angles.tobytes(),
    )
    if key not in _PENCIL_CACHE:
        base = geometry.refine_patch(geometry.build_disk_patch(radius), refinement)
        sampler = geometry.BoundarySampler(angles, kind)
        reduced = SimpleNamespace(mean=mean, scaled_modes=modes)
        model = geometry.deformation_from_kl(reduced, base, sampler)
        space = DiscreteSpace(degree, 2**refinement)

        def evaluate(delta):
            return assemble(geometry.deform(model, delta), space, bc="dirichlet")

        _PENCIL_CACHE[key] = ParametricPencil(evaluate, np.zeros(modes.shape[1]))
    return _PENCIL_CACHE[key]


def _parse_pillbox_problem(sec, need_distribution):
    length = sec.take("length", kind=float, lo=1e-6)
    p_max = sec.take("p_max", default=2, kind=int, lo=1, hi=12)
    radius = sec.take("radius", default=None, kind=float, lo=1e-6)
    distribution = None
    if need_distribution:
        dist = sec.section("distribution")
        family = dist.take("family", kind=str, choices=("uniform",))
        support = _check_interval(dist.take("support"), f"{dist.where}.support", allow_empty=True)
        dist.done()
        distribution = (family, support)
    sec.done()
    return SimpleNamespace(length=length, p_max=p_max, radius=radius, distribution=distribution)


def _parse_pillbox_discretization(sec):
    degree = sec.take("degree", default=2, kind=int, lo=1, hi=6)
    elements = sec.take("elements", default=16, kind=int, lo=2, hi=256)
    sec.done()
    return degree, elements


def _pillbox_study(root, prob_sec, n_modes):
    problem = _parse_pillbox_problem(prob_sec, need_distribution=True)
    degree, elements = _parse_pillbox_discretization(root.section("discretization", default={}))
    _, (lo, hi) = problem.distribution
    base_r = problem.radius if problem.radius is not None else 0.5 * (lo + hi)
    grid = _grid_from_section(root.section("grid"), dim=1, support=(lo, hi), allow_explicit=False)
    root.done()

    spec = (base_r, problem.length, problem.p_max, degree, elements)
    summary = {"problem": "pillbox", "base_radius_m": base_r}
    return _pillbox_modes(spec, n_modes, grid=grid, summary=summary)


def _parse_disk_problem(sec):
    radius = sec.take("radius", kind=float, lo=1e-6)
    criterion = sec.take("criterion", default=None, kind=float)
    obs_path = sec.take("observations", default=None, kind=str)
    synth = sec.section("synthetic", default=None)
    model_path = sec.take("model", default=None, kind=str)
    sec.done()
    sources = [s for s in (obs_path, synth, model_path) if s is not None]
    if len(sources) != 1:
        raise ConfigError(
            "problem: give exactly one of observations, synthetic, model"
        )
    if model_path is not None:
        if criterion is not None:
            raise ConfigError(
                f"{sec.where}.criterion: a model fixes its retained modes; "
                "give criterion with observations or synthetic"
            )
        sampler, mean, modes = _read_input(geometry.load_deformation_spec, model_path)
        return radius, sampler.angles, sampler.kind, mean, modes, None
    if obs_path is not None:
        obs = _read_input(uq.load_observations, obs_path)
    else:
        variables = synth.take("variables", default=18, kind=int, lo=1, hi=512)
        samples = synth.take(
            "samples", default=5000, kind=int, lo=2, hi=SYNTHETIC_ENTRY_CAP // variables
        )
        seed = synth.take("seed", default=20240817, kind=int, lo=0)
        synth.done()
        cov = uq.default_correlated_covariance(variables)
        obs = uq.generate_synthetic_observations(cov, np.zeros(variables), samples, seed)
    kl = _fit_kl(obs, 0.95 if criterion is None else criterion, sec.where)
    angles = _station_angles(obs.n_variables)
    return radius, angles, "radial", kl.mean, kl.scaled_modes, kl


def _fit_kl(obs, criterion, where):
    """uq.fit_kl, whose bound on the criterion is the config's at where."""
    try:
        return uq.fit_kl(obs, criterion)
    except DomainError as exc:
        raise ConfigError(f"{where}.criterion: {exc}") from None


def _disk_study(root, prob_sec, n_modes):
    radius, angles, skind, mean_vec, modes_mat, kl = _parse_disk_problem(prob_sec)
    disc = root.section("discretization", default={})
    degree = disc.take("degree", default=2, kind=int, lo=1, hi=6)
    refinement = disc.take("refinement", default=3, kind=int, lo=1, hi=8)
    disc.done()
    n_t = modes_mat.shape[1]
    grid = _grid_from_section(root.section("grid"), dim=n_t, support=None, allow_explicit=False)
    root.done()

    if kl is not None:
        print(f"covariance reduction: {len(mean_vec)} variables -> {n_t} retained")
    print(f"collocation nodes: {grid.n_nodes}")

    spec = (radius, refinement, degree, mean_vec, modes_mat, angles, skind)
    par = _disk_parametric(*spec)
    pairs = solve_smallest(par.base, min(n_modes + 1, par.base.n))
    if len(pairs) < n_modes:
        raise SolverError(f"only {len(pairs)} physical candidates found for {n_modes} modes")
    starts = pairs[:n_modes]
    return SimpleNamespace(
        task="_disk_node_task", spec=spec, par=par, grid=grid, starts=starts,
        groups={0: (list(enumerate(starts)), pairs[n_modes] if len(pairs) > n_modes else None)},
        chunk=batch_size(par.base.n),
        labels=[("cross-section", 0)] * n_modes,
        summary={
            "problem": "deformed-disk",
            "radius_m": radius,
            "retained_variables": n_t,
            "captured_ratio": None if kl is None else kl.captured_ratio,
        },
    )


# -- study runner ------------------------------------------------------------

# each summary.json count of tracking work, and the Tally field it reads
COUNTS = {"bordered_solves": "n_solves", "factorizations": "n_factorizations",
          "rejected_steps": "n_rejects"}
TALLIES = ("clusters", "cluster_retracks", "warnings")


def _counts(tally):
    return {key: getattr(tally, name) for key, name in COUNTS.items()}


class _Record:
    """Tracking results at n_nodes nodes: one chunk task's, or a study's.

    values is mode x node, NaN where a mode's group failed; per_mode holds
    each mode's tracking.Tally, its tracks at node after node folded in (a
    cluster member's overlap is the smallest principal cosine between
    consecutive cluster subspaces; 1.0 where nothing is tracked).  failures
    is [{node, modes, error}, ...] in node order, tallies counts the
    warnings raised (recorded, not shown), the clusters tracked jointly,
    their endpoint re-tracks and the tracks flagged as starting nearly
    degenerate, and discrete (node x discrete) holds each node's lowest
    discrete eigenvalues, rank-ordered.
    """

    def __init__(self, n_modes, n_nodes, discrete):
        self.values = np.full((n_modes, n_nodes), np.nan)
        self.per_mode = [Tally() for _ in range(n_modes)]
        self.failures = []
        self.tallies = Counter()
        self.discrete = np.empty((n_nodes, discrete))

    def merge(self, k, rec):
        """Add the record rec of a chunk as the nodes from k on."""
        cols = slice(k, k + rec.values.shape[1])
        self.values[:, cols] = rec.values
        for tally, theirs in zip(self.per_mode, rec.per_mode):
            tally.fold(theirs)
        self.failures += rec.failures
        self.tallies.update(rec.tallies)
        self.discrete[cols] = rec.discrete


def _track_chunk(job, first, nodes, par, base, tracked):
    """Track every start pair from the base point to each node of the chunk
    that starts at node first, all nodes of a group in one batch homotopy.

    job holds the study's spec, groups (key -> ([(mode, start Eigenpair),
    ...] ascending by value, partner): the partner is the next base
    eigenpair of the group's pencil, or None), tracking config cfg and
    discrete count.  base(key) gives the base pencil a group is tracked
    from, the same object at every node of the process, and tracked(pencil,
    key) the pencil it is tracked in at a node.  The partner is tracked
    where it mixes with the group's highest start and not reported
    (tracking.track_modes).  A node that is the base point is not tracked.

    Returns the chunk's _Record, failures included, and each node's pencil.
    """
    n_modes = sum(len(members) for members, _ in job.groups.values())
    rec = _Record(n_modes, len(nodes), job.discrete)
    at_base = [np.array_equal(node, par.base_delta) for node in nodes]
    for members, _ in job.groups.values():
        for j, pair in members:
            rec.values[j, np.flatnonzero(at_base)] = pair.value
    cols = [i for i, base_node in enumerate(at_base) if not base_node]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pencils = [par.base if b else par.at(node) for node, b in zip(nodes, at_base)]
        for key, (members, partner) in job.groups.items() if cols else ():
            try:
                homotopy = HomotopyPencil(base(key), [tracked(pencils[i], key) for i in cols])
                outcomes = track_modes(homotopy, [pair for _, pair in members], job.cfg, partner)
            except CavityError as exc:
                outcomes = [exc] * len(cols)
            for i, states in zip(cols, outcomes):
                if isinstance(states, CavityError):
                    modes = [j for j, _ in members]
                    rec.failures.append({"node": first + i, "modes": modes, "error": str(states)})
                    continue
                rec.tallies["clusters"] += len({st.cluster for st in states if st.cluster})
                rec.tallies["cluster_retracks"] += len(
                    {st.cluster for st in states if st.retracked}
                )
                rec.tallies["degenerate_flags"] += sum(st.flagged for st in states)
                for (j, _), st in zip(members, states):
                    rec.values[j, i] = st.eigenpair.value
                    rec.per_mode[j].fold(st)
    rec.failures.sort(key=lambda failure: failure["node"])
    rec.tallies["warnings"] += len(caught)
    return rec, pencils


def _pillbox_node_task(job, first, nodes):
    """Pillbox chunk task: each group is tracked in its own axial block.

    Returns the chunk's _Record (see _track_chunk); with job.discrete > 0,
    its discrete rows hold the eigenvalues of each node's lowest discrete
    modes, rank-ordered, from the pencil tracked in.
    """
    par = _pillbox_parametric(*job.spec)
    rec, pencils = _track_chunk(
        job, first, nodes, par,
        lambda bi: _pillbox_base_block(job.spec, bi),
        lambda pen, bi: block_pencil(pen, par.blocks[bi]),
    )
    for i, pencil in enumerate(pencils if job.discrete else ()):
        selected, _ = _select_pillbox_modes(par.blocks, pencil, job.discrete)
        rec.discrete[i] = [pair.value for _, pair in selected]
    return rec


def _disk_node_task(job, first, nodes):
    """Deformed-disk chunk task: one group, tracked in the full pencil."""
    par = _disk_parametric(*job.spec)
    return _track_chunk(job, first, nodes, par, lambda _: par.base, lambda pen, _: pen)[0]


def _run_tasks(task, nodes, size, n_workers):
    """Yield (k, task(k, chunk)) for the chunks of size consecutive nodes,
    k the first node of each, in order, on at most n_workers processes and
    never more than there are chunks.  Closing the generator early cancels
    the tasks that have not started."""
    firsts = range(0, len(nodes), size)
    chunks = [nodes[k:k + size] for k in firsts]
    if n_workers <= 1 or len(chunks) <= 1:
        yield from zip(firsts, map(task, firsts, chunks))
        return
    # imported here: a study at one worker never starts a pool
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=min(n_workers, len(chunks)))
    try:
        yield from zip(firsts, pool.map(task, firsts, chunks))
    finally:
        pool.shutdown(cancel_futures=True)


def _track_nodes(study, nodes, cfg_track, n_workers, discrete, fail_fast):
    """Run study.task on every chunk of study.chunk nodes and merge the
    chunks' records, node k at column k, into the study's _Record, which
    gets freq too: values in Hz.  With fail_fast, no chunk after the first
    one that reports a failure is tracked.
    """
    job = SimpleNamespace(spec=study.spec, groups=study.groups, cfg=cfg_track, discrete=discrete)
    run = _Record(len(study.starts), len(nodes), discrete)
    results = _run_tasks(partial(globals()[study.task], job), nodes, study.chunk, n_workers)
    for k, rec in results:
        run.merge(k, rec)
        if rec.failures and fail_fast:
            results.close()
            break
    with np.errstate(invalid="ignore"):   # NaN < 0 is False, but numpy flags it
        run.freq = np.vectorize(eigenvalue_to_frequency)(run.values)
    return run


def _run_study(cfg, args):
    """Parse a uq/bench config, track its start pairs to every grid node.

    Returns the problem's study namespace and _track_nodes' record; the
    first failing node, in node order, stops the study and raises
    SolverError, before any table is written.
    """
    root = _Section(cfg, "config")
    prob_sec = root.section("problem")
    kind = prob_sec.take("kind", kind=str, choices=("pillbox", "deformed-disk"))
    n_modes = root.take("modes", kind=int, lo=1, hi=64)
    cfg_track = _parse_tracking(root.section("tracking", default={}))
    problem = _pillbox_study if kind == "pillbox" else _disk_study
    study = problem(root, prob_sec, n_modes)

    run = _track_nodes(study, study.grid.nodes, cfg_track, args.workers, 0, fail_fast=True)
    if run.failures:
        first = run.failures[0]
        raise SolverError(f"node {first['node']}, modes {first['modes']}: {first['error']}")
    return study, run


# -- shared reporting --------------------------------------------------------

def _write_csv(path, header, rows):
    """A CSV table: floats to 17 significant digits, other cells as they are."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)


def _write_summary(path, **fields):
    """A JSON summary of fields and the time it is written, keys sorted."""
    doc = {"timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **fields}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _newton_summary(log):
    if not log:
        return {"accepted_steps": 0, "mean": None, "max": None}
    return {"accepted_steps": len(log), "mean": float(np.mean(log)), "max": int(max(log))}


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommand: uq ----------------------------------------------------------

def cmd_uq(cfg, args):
    out = _out_dir(args)
    study, run = _run_study(cfg, args)
    mean, var = uq.estimate_moments(run.freq, study.grid)
    sd = np.sqrt(np.maximum(var, 0.0))
    total = Tally().fold(*run.per_mode)
    uq.save_grid_csv(out / "grid.csv", study.grid)
    _write_csv(
        out / "mode_table.csv",
        ["mode"] + [f"node_{k}_f_hz" for k in range(run.freq.shape[1])],
        ([j, *row] for j, row in enumerate(run.freq)),
    )
    _write_csv(
        out / "moments.csv",
        ["mode", "family", "axial_order", "base_f_hz", "mean_f_hz", "sd_f_hz"],
        ([j, family, axial, eigenvalue_to_frequency(pair.value), mean[j], sd[j]]
         for j, ((family, axial), pair) in enumerate(zip(study.labels, study.starts))),
    )
    _write_summary(
        out / "summary.json",
        **study.summary,
        **_counts(total),
        **{name: run.tallies[name] for name in TALLIES},
        degenerate_flags=run.tallies["degenerate_flags"],
        nodes=study.grid.n_nodes,
        modes=len(study.starts),
        workers=args.workers,
        newton=_newton_summary(total.newton_log),
        min_overlap=total.min_overlap,
    )
    print(f"{study.summary['problem']} uq: {len(study.starts)} modes over "
          f"{study.grid.n_nodes} nodes")


# -- subcommand: track -------------------------------------------------------

def cmd_track(cfg, args):
    out = _out_dir(args)
    root = _Section(cfg, "config")
    prob_sec = root.section("problem")
    kind = prob_sec.take("kind", kind=str, choices=("pillbox",))
    problem = _parse_pillbox_problem(prob_sec, need_distribution=False)
    degree, elements = _parse_pillbox_discretization(root.section("discretization", default={}))
    n_modes = root.take("modes", kind=int, lo=1, hi=64)
    sweep = root.section("sweep")
    start = sweep.take("start", kind=float, lo=1e-6)
    stop = sweep.take("stop", kind=float, lo=1e-6)
    samples = sweep.take("samples", kind=int, lo=1, hi=10_000)
    sweep.done()
    cfg_track = _parse_tracking(root.section("tracking", default={}))
    root.done()

    radii = np.array([start]) if start == stop else np.linspace(start, stop, samples)
    spec = (start, problem.length, problem.p_max, degree, elements)
    run = _track_nodes(
        _pillbox_modes(spec, n_modes), radii[:, None], cfg_track, args.workers, n_modes,
        fail_fast=False,
    )

    for j in range(n_modes):
        _write_csv(
            out / f"mode_{j:02d}.csv",
            ["radius_m", "lambda", "f_hz"],
            (row for row in zip(radii, run.values[j], run.freq[j]) if np.isfinite(row[1])),
        )
    _write_csv(
        out / "discrete_samples.csv",
        ["radius_m"] + [f"rank_{j}_f_hz" for j in range(n_modes)],
        ([r, *map(eigenvalue_to_frequency, values)] for r, values in zip(radii, run.discrete)),
    )

    per_mode = {}
    for j, tally in enumerate(run.per_mode):
        newton = _newton_summary(tally.newton_log)
        per_mode[j] = {"newton_mean": newton["mean"], "newton_max": newton["max"], **_counts(tally)}
    crossing = _locate_crossing(radii, run.freq)
    _write_summary(
        out / "summary.json",
        problem="pillbox",
        sweep={"start_m": start, "stop_m": stop, "samples": int(radii.size)},
        modes=n_modes,
        per_mode=per_mode,
        crossing_radius_m=crossing,
        failures=run.failures,
        **{name: run.tallies[name] for name in TALLIES},
    )
    if crossing is not None:
        print(f"fundamental-mode crossing at r = {crossing:.6g} m")
    if run.failures:
        raise SolverError(f"{len(run.failures)} tracking failure(s); see summary.json")


def _locate_crossing(radii, table_f):
    """First sign change of f0 - f1 along the sweep, linearly interpolated."""
    if table_f.shape[0] < 2 or not np.isfinite(table_f[:2]).all():
        return None
    d = table_f[0] - table_f[1]
    for k in range(len(radii) - 1):
        if d[k] == 0.0:
            return float(radii[k])
        if d[k] * d[k + 1] < 0.0:
            w = d[k] / (d[k] - d[k + 1])
            return float(radii[k] + w * (radii[k + 1] - radii[k]))
    return None


# -- subcommand: kl-fit ------------------------------------------------------

def cmd_kl_fit(cfg, args):
    out = _out_dir(args)
    root = _Section(cfg, "config")
    obs_path = root.take("observations", kind=str)
    criterion = root.take("criterion", default=0.95, kind=float)
    root.done()
    obs = _read_input(uq.load_observations, obs_path)
    kl = _fit_kl(obs, criterion, root.where)
    sampler = geometry.BoundarySampler(_station_angles(obs.n_variables), "radial")
    geometry.save_deformation_spec(out / "kl_model.json", sampler, kl.mean, kl.scaled_modes)

    cum = np.cumsum(kl.spectrum) / kl.spectrum.sum()
    _write_csv(
        out / "kl_spectrum.csv",
        ["mode", "variance", "cumulative_ratio"],
        ([j, v, c] for j, (v, c) in enumerate(zip(kl.spectrum, cum))),
    )
    _write_summary(
        out / "summary.json",
        observations=str(obs_path),
        n_samples=obs.n_samples,
        n_variables=obs.n_variables,
        criterion=criterion,
        retained=kl.n_modes,
        captured_ratio=kl.captured_ratio,
        total_variance=float(kl.spectrum.sum()),
    )
    print(f"retained {kl.n_modes} of {obs.n_variables} variables "
          f"({kl.captured_ratio:.4f} of the variance)")


# -- subcommand: grid --------------------------------------------------------

def cmd_grid(cfg, args):
    out = _out_dir(args)
    root = _Section(cfg, "config")
    grid = _grid_from_section(root.section("grid"), dim=None, support=None, allow_explicit=True)
    root.done()
    uq.save_grid_csv(out / "grid.csv", grid)
    print(f"{grid.kind} grid: {grid.n_nodes} nodes in dimension {grid.dim}")


# -- subcommand: pillbox-reference -------------------------------------------

def cmd_pillbox_reference(cfg, args):
    out = _out_dir(args)
    root = _Section(cfg, "config")
    radius = root.take("radius", kind=float, lo=1e-6)
    length = root.take("length", kind=float, lo=1e-6)
    count = root.take("count", default=10, kind=int, lo=1, hi=500)
    root.done()
    table = oracle.pillbox_frequencies(radius, length, count)
    _write_csv(
        out / "pillbox_reference.csv",
        ["family", "m", "n", "p", "degeneracy", "f_hz"],
        ([lab.family, lab.m, lab.n, lab.p, lab.degeneracy, f] for lab, f in table),
    )
    print(f"{len(table)} labeled modes written for r={radius} m, l={length} m")


# -- subcommand: bench -------------------------------------------------------

def _direct_matrices(par, pen):
    """The scipy CSR (K, M) the direct solve takes at a node whose pencil
    par gave as pen: the disk's own, or the pillbox's block pencils stacked
    block-diagonally."""
    if par.blocks is None:
        return pen.stiffness.tocsr(), pen.mass.tocsr()
    import scipy.sparse as sp

    blocks = [block_pencil(pen, b) for b in par.blocks]
    return (
        sp.block_diag([b.stiffness.tocsr() for b in blocks], format="csr"),
        sp.block_diag([b.mass.tocsr() for b in blocks], format="csr"),
    )


def _counted_direct_solve(K, M, k, sigma):
    """Shift-invert Lanczos for the k lowest modes, counting linear solves."""
    import scipy.sparse.linalg as spla

    counter = [0]
    op = spla.splu((K - sigma * M).tocsc())

    def apply(x):
        counter[0] += 1
        return op.solve(x)

    n = K.shape[0]
    opinv = spla.LinearOperator(K.shape, matvec=apply)
    v0 = np.full(n, 1.0 / math.sqrt(n))
    spla.eigsh(
        K, k=k, M=M, sigma=sigma, which="LA",
        v0=v0, OPinv=opinv, return_eigenvectors=False,
    )
    return counter[0]


def cmd_bench(cfg, args):
    out = _out_dir(args)
    t0 = time.perf_counter()
    study, run = _run_study(cfg, args)
    tracked_wall = time.perf_counter() - t0

    par, n_modes = study.par, len(study.starts)
    k_direct = min(2 * n_modes, _direct_matrices(par, par.base)[0].shape[0] - 1)
    # 3 significant digits: the Lanczos iteration count jumps with the last
    # bits of the shift, which must not follow the rounding of tracked values
    sigma = float(f"{0.9 * run.values.min():.3g}")
    direct_counts = []
    t0 = time.perf_counter()
    for node in study.grid.nodes:
        K, M = _direct_matrices(par, par.at(node))
        direct_counts.append(_counted_direct_solve(K, M, k_direct, sigma))
    direct_wall = time.perf_counter() - t0

    offsets = np.linalg.norm(study.grid.nodes - par.base_delta, axis=1)
    pairs = n_modes * int(np.count_nonzero(offsets))
    base_count = direct_counts[int(np.argmin(offsets))]
    counts = _counts(Tally().fold(*run.per_mode))
    tracked_solves = counts["bordered_solves"]
    tracked_total = base_count + tracked_solves
    direct_total = int(np.sum(direct_counts))
    _write_summary(
        out / "bench.json",
        nodes=study.grid.n_nodes,
        modes=n_modes,
        tracked={
            "bordered_solves": tracked_solves,
            "factorizations": counts["factorizations"],
            "base_eigensolve_solves": base_count,
            "total_solves": tracked_total,
            "per_mode_point": tracked_solves / pairs if pairs else None,
            "clusters": run.tallies["clusters"],
            "cluster_retracks": run.tallies["cluster_retracks"],
            "wall_s": tracked_wall,
        },
        direct={
            "modes_computed": k_direct,
            "solves_per_node": direct_counts,
            "total_solves": direct_total,
            "per_mode_point": (direct_total - base_count) / pairs if pairs else None,
            "wall_s": direct_wall,
        },
        solve_ratio=direct_total / tracked_total,
    )
    print(
        f"tracked {tracked_total} solves vs direct {direct_total} solves "
        f"(ratio {direct_total / tracked_total:.2f})"
    )


# -- entry point -------------------------------------------------------------

_HANDLERS = {
    "track": cmd_track,
    "uq": cmd_uq,
    "kl-fit": cmd_kl_fit,
    "grid": cmd_grid,
    "pillbox-reference": cmd_pillbox_reference,
    "bench": cmd_bench,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cavityuq",
        description="Eigenfrequency sensitivity studies for deformed cavities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "track": "radius sweep with identity-preserving mode tracking",
        "uq": "collocation moments of tracked eigenfrequencies",
        "kl-fit": "covariance reduction of a station observation matrix",
        "grid": "write a collocation grid as CSV",
        "pillbox-reference": "closed-form labeled cylinder mode table",
        "bench": "linear-solve comparison: tracking vs direct eigensolves",
    }
    for name, handler in _HANDLERS.items():
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", required=True, help="JSON study configuration")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--workers", type=int, default=1, help="parallel worker processes")
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    _PENCIL_CACHE.clear()   # one cache per command: counts depend on the study only
    try:
        cfg = _read_input(lambda p: json.loads(Path(p).read_text()), args.config)
        args.handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CavityError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
