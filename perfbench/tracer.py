"""Outside-in layer trace of one `cavityuq` command.

    python3 perfbench/tracer.py TRACE.json -- uq --config CFG --out DIR --workers 1

Wraps the public functions of each layer where their caller binds them,
runs ``cavityuq.cli.main`` in this process and writes span self times, call
counts and tracker statistics to TRACE.json.  Run it with one worker: spans
are kept on one stack, so work done in pool processes would be missed.
A hook target that no longer exists stops the run instead of reading zero.
"""

import json
import math
import sys
import time
from collections import Counter, defaultdict

from cavityuq import assembly, cli, eigen, geometry, pencil, splines, tracking, uq

# (span, owner, attribute): owner.attribute is replaced by a timed wrapper.
# Each name is patched where its caller looks it up.
SPANS = [
    ("uq.kl", uq, "default_correlated_covariance"),
    ("uq.kl", uq, "generate_synthetic_observations"),
    ("uq.kl", uq, "fit_kl"),
    ("uq.grid", uq, "build_tensor_grid"),
    ("uq.grid", uq, "build_smolyak_grid"),
    ("uq.grid", uq, "rule_1d"),
    ("uq.moments", uq, "estimate_moments"),
    ("geometry.deform", geometry, "deform"),
    ("geometry.patch", geometry, "build_disk_patch"),
    ("geometry.patch", pencil, "build_disk_patch"),
    ("geometry.patch", geometry, "refine_patch"),
    ("geometry.patch", geometry, "deformation_from_kl"),
    ("assembly.assemble", cli, "assemble"),
    ("assembly.assemble", pencil, "assemble"),
    ("assembly.assemble", assembly, "assemble"),
    ("eigen.solve", cli, "solve_smallest"),
    ("eigen.solve", eigen, "solve_smallest"),
    ("pencil.build", cli, "build_pillbox_pencil"),
    ("pencil.block", cli, "block_pencil"),
    ("pencil.param_at", pencil.ParametricPencil, "at"),
    ("pencil.homotopy_at", pencil.HomotopyPencil, "at"),
    ("pencil.derivative", pencil.HomotopyPencil, "derivative"),
    ("tracking.track_modes", cli, "track_modes"),
    ("tracking.track", tracking, "track"),
    ("tracking.newton", tracking, "newton_correct"),
    ("tracking.derivative", tracking, "eigenpair_derivative"),
]

# (counter, owner, attribute): counted, not timed, to keep the cost low.
COUNTERS = [
    ("splines.basis_evals", splines.BSplineBasis, "eval_basis_derivatives"),
    ("cli.node_tasks", cli, "_pillbox_node_task"),
    ("cli.node_tasks", cli, "_disk_node_task"),
]


class Tracer:
    def __init__(self):
        self.stack = []                    # child time of each open span
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.tracks = []                   # (accepted, rejected, solves, iters, min_overlap)
        self.param_misses = 0
        self.total_s = 0.0                 # duration of the outermost spans

    def timed(self, name, fn):
        def wrapper(*args, **kwargs):
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                children = self.stack.pop()
                self.self_s[name] += dur - children
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1] += dur
                else:
                    self.total_s += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _lookup(owner, attr):
    where = getattr(owner, "__qualname__", getattr(owner, "__name__", repr(owner)))
    target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if target is None or not callable(target):
        raise SystemExit(f"tracer: hook target {where}.{attr} is missing")
    return target


class _ModuleProxy:
    """Stand-in for an object seen by one caller, with some names replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer):
    for name, owner, attr in SPANS:
        setattr(owner, attr, tracer.timed(name, _lookup(owner, attr)))
    for name, owner, attr in COUNTERS:
        setattr(owner, attr, tracer.counted(name, _lookup(owner, attr)))

    # a ParametricPencil.at call that assembles was a cache miss
    param_at = pencil.ParametricPencil.at

    def at(self, delta):
        before = tracer.calls["assembly.assemble"]
        out = param_at(self, delta)
        tracer.param_misses += tracer.calls["assembly.assemble"] > before
        return out

    pencil.ParametricPencil.at = at

    # the tracker's sparse LU, replaced only where tracking binds it
    splu = _lookup(tracking.spla, "splu")
    timed_splu = tracer.timed("tracking.factorize", splu)

    def counted_splu(*args, **kwargs):
        # the tracker only calls .solve on the factorization
        lu = timed_splu(*args, **kwargs)
        return _ModuleProxy(lu, solve=tracer.timed("tracking.backsolve", lu.solve))

    tracking.spla = _ModuleProxy(tracking.spla, splu=counted_splu)

    track = tracking.track

    def track_with_stats(*args, **kwargs):
        st = track(*args, **kwargs)
        tracer.tracks.append(
            (len(st.newton_log), st.n_rejects, st.n_solves, sum(st.newton_log), st.min_overlap)
        )
        return st

    tracking.track = track_with_stats


def report(tracer, exit_code):
    accepted, rejected, solves, iters, min_ov = (
        [t[i] for t in tracer.tracks] for i in range(5)
    )
    return {
        "exit_code": exit_code,
        "total_s": tracer.total_s,
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "param_misses": tracer.param_misses,
        "tracks": len(tracer.tracks),
        "accepted_steps": sum(accepted),
        "rejected_steps": sum(rejected),
        "bordered_solves": sum(solves),
        "newton_iterations": sum(iters),
        "min_overlap": min(min_ov) if min_ov else math.nan,
    }


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    install(tracer)
    code = tracer.timed("cli.main", cli.main)(argv[2:])
    with open(argv[0], "w") as fh:
        json.dump(report(tracer, code), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
