"""Output checker: dense reference spectra and per-run scoring.

The reference is computed once per benchmark process, outside every timed
study, through the package's public functions.  It is independent of the
study's own pipeline where that is cheap:

* pillbox: one dense solve per cross-section (Dirichlet for TM, Neumann for
  TE) at the base radius.  A disk of radius r is the base disk scaled by
  r / r0, which leaves the stiffness matrix unchanged and scales the mass
  matrix by (r / r0)^2, so the block spectrum at node r is
  mu * (r0 / r)^2 + (p pi / L)^2 exactly, up to rounding.
* deformed disk: the KL model is rebuilt from the config, and every node's
  geometry is formed from the model's control-point fields, assembled and
  solved densely.  The Jacobian probe of ``geometry.deform`` is skipped: the
  study already applies it, and it would double the checker's time.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from cavityuq import assembly, eigen, geometry, oracle, uq
from cavityuq.splines import ControlNet

MATCH_RTOL = 1e-9     # a tracked value matches an eigenvalue within this
ORACLE_TOL = 3.5e-4   # criterion-3 bound on mean and sd against closed forms
MOMENT_RTOL = 1e-10   # moments.csv against the same quadrature of mode_table.csv


def frequency_to_eigenvalue(f):
    return (2.0 * math.pi * f / oracle.C0) ** 2


@dataclass
class Score:
    entries: int              # mode-table entries (modes x nodes)
    bad: int                  # entries that match no distinct eigenvalue
    oracle_rel_err: float     # pillbox only, else nan
    problems: list            # failed correctness gates, empty when correct


def read_mode_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def read_moments(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [
        (r[1], int(r[2]), float(r[3]), float(r[4]), float(r[5])) for r in rows[1:]
    ]


def count_unmatched(tracked, spectrum, rtol=MATCH_RTOL):
    """Tracked values with no distinct eigenvalue of ``spectrum`` within rtol.

    Each eigenvalue can absorb one tracked value, so two tracks that end on
    the same eigenpair leave one of them unmatched.
    """
    free = sorted(spectrum)
    bad = 0
    for lam in sorted(tracked):
        best = min(range(len(free)), key=lambda i: abs(free[i] - lam), default=None)
        if best is not None and abs(free[best] - lam) <= rtol * abs(lam):
            free.pop(best)
        else:
            bad += 1
    return bad


def count_non_eigenvalues(tracked, spectrum, rtol=MATCH_RTOL):
    """Tracked values that are no eigenvalue of ``spectrum`` at all."""
    spec = np.asarray(spectrum)
    return sum(1 for lam in tracked if np.min(np.abs(spec - lam)) > rtol * abs(lam))


class Reference:
    """Grid and dense spectra of one workload's study config."""

    def __init__(self, config):
        self.config = config
        self.kind = config["problem"]["kind"]
        self.n_modes = config["modes"]
        self._spectra = {}
        if self.kind == "pillbox":
            self._init_pillbox()
        else:
            self._init_disk()

    @property
    def entries(self):
        return self.n_modes * self.grid.n_nodes

    def _n_ref(self, n):
        return min(n, 4 * self.n_modes)

    def _dense_values(self, pencil):
        pairs = eigen.solve_smallest(pencil, self._n_ref(pencil.n), method="dense")
        return np.array([p.value for p in pairs])

    # -- pillbox ----------------------------------------------------------

    def _init_pillbox(self):
        prob = self.config["problem"]
        lo, hi = prob["distribution"]["support"]
        self.length = prob["length"]
        self.base_point = 0.5 * (lo + hi)
        self.grid = _grid(self.config["grid"], (lo, hi), dim=1)
        disc = self.config["discretization"]
        space = assembly.DiscreteSpace(disc["degree"], disc["elements"])
        disk = geometry.build_disk_patch(self.base_point)
        self._cross = {
            family: self._dense_values(assembly.assemble(disk, space, bc=bc))
            for family, bc in (("TM", "dirichlet"), ("TE", "neumann"))
        }

    def block_spectrum(self, k, family, axial):
        r = float(self.grid.nodes[k, 0])
        shift = (axial * math.pi / self.length) ** 2
        return self._cross[family] * (self.base_point / r) ** 2 + shift

    # -- deformed disk ----------------------------------------------------

    def _init_disk(self):
        prob = self.config["problem"]
        synth = prob["synthetic"]
        n_var = synth["variables"]
        cov = uq.default_correlated_covariance(n_var)
        obs = uq.generate_synthetic_observations(
            cov, np.zeros(n_var), synth["samples"], synth["seed"]
        )
        kl = uq.fit_kl(obs, prob["criterion"])
        refinement = self.config["discretization"]["refinement"]
        base = geometry.refine_patch(geometry.build_disk_patch(prob["radius"]), refinement)
        angles = np.arange(n_var) * (2.0 * math.pi / n_var)
        self.model = geometry.deformation_from_kl(
            kl, base, geometry.BoundarySampler(angles, "radial")
        )
        self.space = assembly.DiscreteSpace(self.config["discretization"]["degree"], 2**refinement)
        self.base_point = np.zeros(kl.n_modes)
        self.grid = _grid(self.config["grid"], None, dim=kl.n_modes)

    def node_spectrum(self, k):
        if k not in self._spectra:
            m = self.model
            pts = m.base.net.points + m.mean_field + np.tensordot(
                self.grid.nodes[k], m.mode_fields, axes=1
            )
            geom = geometry.GeometryMap(
                m.base.bases, ControlNet(pts, m.base.net.weights.copy()), validate=False
            )
            self._spectra[k] = self._dense_values(
                assembly.assemble(geom, self.space, bc="dirichlet")
            )
        return self._spectra[k]

    def base_column(self):
        """Index of the grid node that is exactly the base point, or None."""
        hits = np.nonzero(np.all(self.grid.nodes == self.base_point, axis=1))[0]
        return int(hits[0]) if hits.size else None

    def prepare(self):
        """Solve every node now, so that no timed study pays for it."""
        if self.kind != "pillbox":
            for k in range(self.grid.n_nodes):
                self.node_spectrum(k)
        return self

    # -- scoring ----------------------------------------------------------

    def score(self, out_dir):
        """Check one finished study's output directory."""
        problems = []
        grid = uq.load_grid_csv(out_dir / "grid.csv")
        if not (
            np.array_equal(grid.nodes, self.grid.nodes)
            and np.array_equal(grid.weights, self.grid.weights)
        ):
            problems.append("grid.csv differs from the reference grid")
        freq = read_mode_table(out_dir / "mode_table.csv")
        moments = read_moments(out_dir / "moments.csv")
        shape = (self.n_modes, self.grid.n_nodes)
        if freq.shape != shape or len(moments) != self.n_modes:
            problems.append(f"mode table shape {freq.shape}, expected {shape}")
            return Score(shape[0] * shape[1], shape[0] * shape[1], math.nan, problems)
        lam = np.vectorize(frequency_to_eigenvalue)(freq)

        bad = not_eigen = 0
        for k in range(self.grid.n_nodes):
            if self.kind == "pillbox":
                groups = {}
                for j, (family, axial, *_) in enumerate(moments):
                    groups.setdefault((family, axial), []).append(lam[j, k])
                for (family, axial), values in groups.items():
                    spec = self.block_spectrum(k, family, axial)
                    bad += count_unmatched(values, spec)
                    not_eigen += count_non_eigenvalues(values, spec)
            else:
                spec = self.node_spectrum(k)
                bad += count_unmatched(lam[:, k], spec)
                not_eigen += count_non_eigenvalues(lam[:, k], spec)
        if not_eigen:
            problems.append(f"{not_eigen} mode-table entries are no eigenvalue of their node")

        mean, var = uq.estimate_moments(freq, self.grid)
        for j, (_, _, _, mean_f, sd_f) in enumerate(moments):
            if abs(mean_f - mean[j]) > MOMENT_RTOL * mean[j] or abs(
                sd_f - math.sqrt(max(var[j], 0.0))
            ) > MOMENT_RTOL * mean[j]:
                problems.append(f"moments.csv row {j} disagrees with mode_table.csv")

        err = math.nan
        if self.kind == "pillbox":
            err = self.oracle_error(moments)
            if not err <= ORACLE_TOL:
                problems.append(f"oracle error {err:.3e} above {ORACLE_TOL:g}")
        return Score(int(lam.size), int(bad), err, problems)

    def oracle_error(self, moments):
        """Worst relative error of mean and sd against the same quadrature of
        the Bessel closed forms (criterion 3), labels matched by block."""
        labeled = oracle.pillbox_frequencies(self.base_point, self.length, 20)
        worst = 0.0
        for family, axial, base_f, mean_f, sd_f in moments:
            label, _ = min(
                ((lab, f) for lab, f in labeled if (lab.family, lab.p) == (family, axial)),
                key=lambda t: abs(t[1] - base_f),
            )
            fs = np.array(
                [oracle.mode_frequency(label, r, self.length) for r in self.grid.nodes[:, 0]]
            )
            e_ref, v_ref = uq.estimate_moments(fs, self.grid)
            worst = max(
                worst,
                abs(mean_f - e_ref[0]) / e_ref[0],
                abs(sd_f - math.sqrt(v_ref[0])) / math.sqrt(v_ref[0]),
            )
        return worst


def _grid(sec, support, dim):
    if sec["kind"] == "tensor":
        family = sec["family"]
        rule_support = None if family == "gauss-hermite" else support
        return uq.build_tensor_grid([uq.rule_1d(family, n, rule_support) for n in sec["orders"]])
    return uq.build_smolyak_grid(dim, sec["level"], sec["family"], None)

