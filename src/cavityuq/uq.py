"""Karhunen-Loeve reduction and stochastic collocation.

Observation matrices are reduced to a few dominant covariance modes; the
reduced coordinates are then sampled on tensor or Smolyak collocation grids
whose weights are probabilities, so density factors never appear explicitly.
"""

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, DomainError, GridSizeError

RULE_FAMILIES = ("gauss-hermite", "gauss-legendre", "clenshaw-curtis")
TENSOR_NODE_CAP = 10**7


class ObservationMatrix:
    """Rows are observed samples, columns geometric variables in meters."""

    def __init__(self, data, names=None):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise DomainError(f"observation matrix must be 2-D, got {data.shape}")
        if data.shape[0] < 2:
            raise DegenerateDataError(
                f"need at least 2 samples for a covariance, got {data.shape[0]}"
            )
        self.data = data
        if names is None:
            names = [f"x{j}" for j in range(data.shape[1])]
        if len(names) != data.shape[1]:
            raise DomainError("column name count disagrees with the data")
        self.names = list(names)

    @property
    def n_samples(self):
        return self.data.shape[0]

    @property
    def n_variables(self):
        return self.data.shape[1]


def save_observations(path, obs):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(obs.names)
        for row in obs.data:
            writer.writerow([f"{v:.17g}" for v in row])


def load_observations(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 3:
        raise DomainError(f"{path}: expected a header and at least 2 sample rows")
    return ObservationMatrix(np.array([[float(v) for v in r] for r in rows[1:]]), rows[0])


@dataclass(frozen=True)
class KLModel:
    """Truncated covariance eigenexpansion of an observation matrix."""

    mean: np.ndarray
    modes: np.ndarray        # orthonormal columns, one per retained mode
    variances: np.ndarray    # positive, descending
    total_variance: float
    criterion: float

    @property
    def n_modes(self):
        return self.variances.size

    @property
    def captured_ratio(self):
        return float(self.variances.sum() / self.total_variance)

    @property
    def scaled_modes(self):
        """Columns scaled by sqrt(variance): the reconstruction operator."""
        return self.modes * np.sqrt(self.variances)


def fit_kl(obs, criterion=0.95):
    """Truncate the sample-covariance eigenexpansion at the variance criterion.

    The retained count is minimal with (sum of leading eigenvalues) /
    (sum of all) >= criterion.  Equal eigenvalues keep their original order.
    """
    if not 0.0 < criterion <= 1.0:
        raise DomainError(f"criterion must lie in (0, 1], got {criterion}")
    X = obs.data
    mu = X.mean(axis=0)
    D = X - mu
    C = (D.T @ D) / (obs.n_samples - 1)
    w, V = np.linalg.eigh(C)
    order = np.argsort(-w, kind="stable")
    w, V = w[order], V[:, order]
    total = float(w.sum())
    if total <= 0.0:
        raise DegenerateDataError("observations have zero total variance")
    cum = np.cumsum(w) / total
    n_t = int(np.searchsorted(cum, criterion * (1.0 - 1e-12)) + 1)
    kept = w[:n_t]
    if kept.min() <= 0.0:
        raise DegenerateDataError(
            "variance criterion reaches into nonpositive covariance eigenvalues"
        )
    modes = V[:, :n_t].copy()
    for j in range(n_t):
        col = modes[:, j]
        if col[np.argmax(np.abs(col))] < 0.0:
            modes[:, j] = -col
    gram = modes.T @ modes
    if np.abs(gram - np.eye(n_t)).max() > 1e-12:
        raise DegenerateDataError("covariance eigenvectors lost orthonormality")
    return KLModel(mu, modes, kept.copy(), total, criterion)


def generate_synthetic_observations(cov, mean, n_samples, seed):
    """Draw a seeded Gaussian observation matrix with the given moments."""
    cov = np.asarray(cov, dtype=float)
    mean = np.asarray(mean, dtype=float)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DomainError("covariance matrix is not positive definite") from exc
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n_samples, mean.size))
    return ObservationMatrix(mean + Z @ L.T)


def _fourier_station_basis(n):
    """Orthonormal real Fourier basis on n equispaced circle stations.

    Columns ordered by spatial frequency: constant, cos/sin pairs, and the
    alternating Nyquist column for even n.
    """
    theta = np.arange(n) * (2.0 * np.pi / n)
    cols = [np.full(n, 1.0 / np.sqrt(n))]
    for k in range(1, (n - 1) // 2 + 1):
        cols.append(np.cos(k * theta) * np.sqrt(2.0 / n))
        cols.append(np.sin(k * theta) * np.sqrt(2.0 / n))
    if n % 2 == 0:
        cols.append(np.cos((n // 2) * theta) / np.sqrt(n))
    return np.column_stack(cols)


def default_correlated_covariance(n=18):
    """Synthetic stand-in for cavity-shape measurement covariance (meters^2).

    Variables are radial boundary offsets at n equispaced stations.  Low
    Fourier modes of the offset pattern dominate, as smooth manufacturing
    deviations would: the leading seven directions carry 97.0% of the
    variance and the leading six only 89.8%, so a 0.95 truncation criterion
    retains exactly seven.
    """
    lead = np.array([3.0, 2.5, 2.0, 1.5, 1.2, 1.0, 0.9]) * 1e-7
    if n < lead.size:
        raise DomainError(f"need at least {lead.size} variables, got {n}")
    eigs = np.concatenate([lead, np.full(n - lead.size, 0.034e-7)])
    Q = _fourier_station_basis(n)
    C = (Q * eigs) @ Q.T
    return 0.5 * (C + C.T)


# -- quadrature rules -------------------------------------------------------

@dataclass(frozen=True)
class Rule1D:
    family: str
    n: int
    nodes: np.ndarray
    weights: np.ndarray
    support: tuple | None


def _symmetrize(nodes, weights):
    # kill asymmetric rounding so mirrored nodes are exact +-pairs and the
    # center (odd counts) is exactly zero
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


def _clenshaw_curtis_reference(n):
    """Closed Clenshaw-Curtis rule on [-1, 1], weights normalized to sum 2."""
    if n == 1:
        return np.array([0.0]), np.array([2.0])
    N = n - 1
    k = np.arange(n)
    nodes = -np.cos(np.pi * k / N)
    weights = np.empty(n)
    js = np.arange(1, N // 2 + 1)
    b = np.where(js == N / 2, 1.0, 2.0)
    for i in k:
        s = np.sum(b / (4.0 * js**2 - 1.0) * np.cos(2.0 * np.pi * js * i / N))
        weights[i] = (2.0 / N) * (1.0 - s)
    weights[0] *= 0.5
    weights[N] *= 0.5
    return nodes, weights


def rule_1d(family, n, support=None):
    """Probabilists' 1-D rule: weights sum to one.

    gauss-hermite integrates against the standard normal density (support
    ignored); gauss-legendre and clenshaw-curtis integrate against the
    uniform density on the support interval (default [-1, 1]).
    """
    if family not in RULE_FAMILIES:
        raise DomainError(f"unknown rule family {family!r}; expected one of {RULE_FAMILIES}")
    if int(n) != n or n < 1:
        raise DomainError(f"node count must be a positive integer, got {n}")
    n = int(n)
    if family == "gauss-hermite":
        if support is not None:
            raise DomainError("gauss-hermite has fixed Gaussian support")
        nodes, weights = np.polynomial.hermite_e.hermegauss(n)
        weights = weights / weights.sum()
        nodes, weights = _symmetrize(nodes, weights)
        return Rule1D(family, n, nodes, weights, None)
    a, b = (-1.0, 1.0) if support is None else map(float, support)
    if not b > a:
        raise DomainError(f"support must be an increasing interval, got ({a}, {b})")
    if family == "gauss-legendre":
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        ref_weights = ref_weights / 2.0
    else:
        ref_nodes, ref_weights = _clenshaw_curtis_reference(n)
        ref_weights = ref_weights / 2.0
    ref_nodes, ref_weights = _symmetrize(ref_nodes, ref_weights)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * ref_nodes
    return Rule1D(family, n, nodes, ref_weights, (a, b))


@dataclass(frozen=True)
class CollocationGrid:
    """Multivariate nodes and probability weights."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def dim(self):
        return self.nodes.shape[1]


def build_tensor_grid(rules):
    """Cartesian product of 1-D rules with product weights."""
    rules = tuple(rules)
    if not rules:
        raise DomainError("need at least one dimension")
    count = math.prod(r.n for r in rules)
    if count > TENSOR_NODE_CAP:
        raise GridSizeError(
            f"tensor grid with {count} nodes exceeds the cap of {TENSOR_NODE_CAP}; "
            "use a Smolyak grid for this dimension"
        )
    nodes = np.empty((count, len(rules)))
    weights = np.ones(count)
    for d, r in enumerate(rules):
        reps_after = math.prod(x.n for x in rules[d + 1 :])
        tiled = np.repeat(r.nodes, reps_after)
        tiled = np.tile(tiled, count // tiled.size)
        nodes[:, d] = tiled
        wt = np.repeat(r.weights, reps_after)
        weights *= np.tile(wt, count // wt.size)
    meta = {"orders": tuple(r.n for r in rules), "families": tuple(r.family for r in rules)}
    return CollocationGrid(nodes, weights, "tensor", meta)


def _smolyak_order(level_index):
    return 2 * level_index - 1


def build_smolyak_grid(dim, level, family="gauss-hermite", support=None):
    """Smolyak combination of 1-D rules with orders 1, 3, 5, ...

    Duplicate nodes from different index blocks (the shared origin for
    Gauss-Hermite) are merged with summed weights.
    """
    if int(dim) != dim or dim < 1:
        raise DomainError(f"dimension must be a positive integer, got {dim}")
    if int(level) != level or level < 0:
        raise DomainError(f"level must be a nonnegative integer, got {level}")
    dim, level = int(dim), int(level)
    q = dim + level
    cache = {}

    def rule(order):
        if order not in cache:
            cache[order] = rule_1d(family, order, support)
        return cache[order]

    merged = {}
    lo = max(dim, q - dim + 1)
    for total in range(lo, q + 1):
        coeff = (-1.0) ** (q - total) * math.comb(dim - 1, q - total)
        for idx in _compositions(total, dim):
            rules = [rule(_smolyak_order(i)) for i in idx]
            for combo in itertools.product(*(range(r.n) for r in rules)):
                node = np.array([rules[d].nodes[j] for d, j in enumerate(combo)])
                w = coeff * math.prod(rules[d].weights[j] for d, j in enumerate(combo))
                key = (np.round(node, 12) + 0.0).tobytes()
                if key in merged:
                    merged[key][1] += w
                else:
                    merged[key] = [node, w]
    items = sorted(merged.values(), key=lambda it: tuple(it[0]))
    nodes = np.array([it[0] for it in items])
    weights = np.array([it[1] for it in items])
    meta = {"level": level, "family": family}
    return CollocationGrid(nodes, weights, "smolyak", meta)


def _compositions(total, parts):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def estimate_moments(values, grid):
    """Weighted mean and two-pass variance of each row over the grid nodes."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != grid.n_nodes:
        raise DomainError(
            f"value table has {values.shape[1]} columns, grid has {grid.n_nodes} nodes"
        )
    if np.isnan(values).any():
        raise DomainError("value table contains NaN entries")
    mean = values @ grid.weights
    var = ((values - mean[:, None]) ** 2) @ grid.weights
    return mean, var


def save_grid_csv(path, grid):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"delta_{d}" for d in range(grid.dim)] + ["weight"])
        for node, w in zip(grid.nodes, grid.weights):
            writer.writerow([f"{v:.17g}" for v in node] + [f"{w:.17g}"])


def load_grid_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise DomainError(f"{path}: empty grid file")
    body = np.array([[float(v) for v in r] for r in rows[1:]])
    return CollocationGrid(body[:, :-1], body[:, -1], "imported", {"source": str(path)})
