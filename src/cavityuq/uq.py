"""Karhunen-Loeve reduction and stochastic collocation.

Observation matrices are reduced to a few dominant covariance modes; the
reduced coordinates are then sampled on tensor or Smolyak collocation grids
whose weights are probabilities, so density factors never appear explicitly.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError, GridSizeError

RULE_FAMILIES = ("gauss-hermite", "gauss-legendre", "clenshaw-curtis")
# numpy's Gauss rules solve an order x order eigenproblem: at 2049 nodes
# (a nested Clenshaw-Curtis order) about 0.75 s and 70 MB
RULE_ORDER_CAP = 2049
# coordinates (points x dimension) of the points a Smolyak grid visits
# before merging them.  In a fresh process on a 2-vCPU VM, level 5 in
# dimension 7 (364,518 coordinates) took 0.05 s and 20 MB to build, and
# level 0 in dimension 999,999, one pass per block over its rules, 0.9 s and
# 56 MB
SMOLYAK_COORDINATE_CAP = 10**6
# coordinates (nodes x dimension) of a tensor grid, checked on its orders
# before any rule is built.  At the cap, measured like the Smolyak cap,
# building the grid took 0.015 s and 12 MB at orders [707, 707], and the
# grid command that writes it 3.0 s; in dimension 999,999 (orders of one)
# 0.4 s and 41 MB, and 1.5 s and 196 MB for the command
TENSOR_COORDINATE_CAP = 10**6


class ObservationMatrix:
    """Rows are observed samples, columns geometric variables in meters."""

    def __init__(self, data, names=None):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise DomainError(f"observation matrix must be 2-D, got {data.shape}")
        if not np.isfinite(data).all():
            raise DomainError("observation matrix has a non-finite entry")
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


def load_observations(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 3:
        raise DomainError("expected a header and at least 2 sample rows")
    return ObservationMatrix(np.array([[float(v) for v in r] for r in rows[1:]]), rows[0])


@dataclass(frozen=True)
class KLModel:
    """Truncated covariance eigenexpansion of an observation matrix."""

    mean: np.ndarray
    modes: np.ndarray        # orthonormal columns, one per retained mode
    variances: np.ndarray    # positive, descending
    total_variance: float

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
    return KLModel(mu, modes, kept.copy(), total)


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
    n: int
    nodes: np.ndarray
    weights: np.ndarray


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

    gauss-hermite integrates against the standard normal density and takes
    no support; gauss-legendre and clenshaw-curtis integrate against the
    uniform density on the support (default [-1, 1]), one node if it is [a, a].
    A rule whose nodes or weights numpy does not compute as finite numbers
    (gauss-hermite's overflow past a few hundred nodes) is a DomainError,
    and an order above RULE_ORDER_CAP a GridSizeError, raised before numpy
    runs.
    """
    if family not in RULE_FAMILIES:
        raise DomainError(f"unknown rule family {family!r}; expected one of {RULE_FAMILIES}")
    if int(n) != n or n < 1:
        raise DomainError(f"node count must be a positive integer, got {n}")
    n = int(n)
    if n > RULE_ORDER_CAP:
        raise GridSizeError(f"{family} rule of order {n} exceeds the cap of {RULE_ORDER_CAP}")
    if family == "gauss-hermite":
        if support is not None:
            raise DomainError("gauss-hermite has fixed Gaussian support")
        with np.errstate(all="ignore"):   # an overflow is reported below
            nodes, weights = np.polynomial.hermite_e.hermegauss(n)
            weights = weights / weights.sum()
        nodes, weights = _symmetrize(nodes, weights)
    else:
        a, b = (-1.0, 1.0) if support is None else map(float, support)
        if not (b > a or b == a and n == 1):
            raise DomainError(
                f"support ({a}, {b}) must increase, or have zero width for orders of 1"
            )
        if family == "gauss-legendre":
            ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        else:
            ref_nodes, ref_weights = _clenshaw_curtis_reference(n)
        ref_nodes, weights = _symmetrize(ref_nodes, ref_weights / 2.0)
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * ref_nodes
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
        raise DomainError(f"numpy computes no finite {family} rule of order {n}")
    return Rule1D(n, nodes, weights)


@dataclass(frozen=True)
class CollocationGrid:
    """Multivariate nodes and probability weights."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def dim(self):
        return self.nodes.shape[1]


def check_tensor_orders(orders):
    """Refuse, as GridSizeError, the tensor grid of 1-D rules of these
    orders if it holds more than TENSOR_COORDINATE_CAP coordinates: checked
    on the orders alone, so before any rule is built."""
    dim = len(orders)
    if math.prod(orders) * dim > TENSOR_COORDINATE_CAP:
        raise GridSizeError(
            f"tensor grid in dimension {dim} has more than {TENSOR_COORDINATE_CAP // dim} "
            f"nodes, over the cap of {TENSOR_COORDINATE_CAP} coordinates; "
            "use a Smolyak grid for this dimension"
        )


def build_tensor_grid(rules):
    """Cartesian product of 1-D rules with product weights, within
    TENSOR_COORDINATE_CAP (check_tensor_orders).  The last dimension varies
    fastest.  Each rule of order above one is broadcast along its own axis of
    the grid's shape, into that dimension's node column and into the
    weights; the rules of order one, which the cap allows in any number, are
    constant columns, and their weights one factor of every weight."""
    rules = tuple(rules)
    if not rules:
        raise DomainError("need at least one dimension")
    orders = [r.n for r in rules]
    check_tensor_orders(orders)
    wide = [d for d, n in enumerate(orders) if n > 1]
    shape = tuple(orders[d] for d in wide)
    nodes = np.empty((math.prod(shape), len(rules)))
    nodes[:, np.equal(orders, 1)] = np.fromiter((r.nodes[0] for r in rules if r.n == 1), float)
    weights = np.full(shape, float(math.prod(r.weights[0] for r in rules if r.n == 1)))
    grid = nodes.reshape(shape + (len(rules),))   # a view: node k at its index tuple
    for axis, d in enumerate(wide):
        along = [1] * len(shape)
        along[axis] = -1
        grid[..., d] = rules[d].nodes.reshape(along)
        weights *= rules[d].weights.reshape(along)
    return CollocationGrid(nodes, weights.ravel(), "tensor")


def _smolyak_order(level_index):
    return 2 * level_index - 1


def build_smolyak_grid(dim, level, family="gauss-hermite", support=None):
    """Smolyak combination of 1-D rules with orders 1, 3, 5, ...

    Duplicate nodes from different index blocks (the shared origin for
    Gauss-Hermite) are merged with summed weights.  A grid whose blocks
    hold more than SMOLYAK_COORDINATE_CAP coordinates is a GridSizeError,
    counted before any block is enumerated (_smolyak_visits).
    """
    if int(dim) != dim or dim < 1:
        raise DomainError(f"dimension must be a positive integer, got {dim}")
    if int(level) != level or level < 0:
        raise DomainError(f"level must be a nonnegative integer, got {level}")
    dim, level = int(dim), int(level)
    limit = SMOLYAK_COORDINATE_CAP // dim
    if _smolyak_visits(dim, level, limit) > limit:
        raise GridSizeError(
            f"smolyak grid of level {level} in dimension {dim} visits more than {limit} "
            f"points, over the cap of {SMOLYAK_COORDINATE_CAP} coordinates"
        )
    q = dim + level
    cache = {}

    def rule(order):
        if order not in cache:
            cache[order] = rule_1d(family, order, support)
        return cache[order]

    nodes, weights = [], []
    for total in range(max(dim, q - dim + 1), q + 1):
        coeff = (-1.0) ** (q - total) * math.comb(dim - 1, q - total)
        for idx in _compositions(total, dim):
            block = build_tensor_grid(rule(_smolyak_order(i)) for i in idx)
            nodes.append(block.nodes)
            weights.append(coeff * block.weights)
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    # one key per node: its coordinates rounded to 12 decimals, -0.0 as 0.0,
    # compared as bytes; a merged node is the first one visited, and its
    # weight sums the weights of its visits in visiting order
    keys = np.round(nodes, 12) + 0.0
    keys = keys.view(np.dtype((np.void, keys.itemsize * dim))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    merged = np.zeros(first.size)
    np.add.at(merged, inverse.ravel(), weights)
    # lexsort makes one view per key, a coordinate: sort only what needs it
    order = np.lexsort(nodes[first].T[::-1]) if first.size > 1 else [0]
    nodes, weights = nodes[first[order]], merged[order]
    return CollocationGrid(nodes, weights, "smolyak")


def _smolyak_visits(dim, level, cap):
    """The points build_smolyak_grid(dim, level) visits, the sum over its
    index blocks of prod(2 i_k - 1), or cap + 1 once it is known to exceed
    cap: counted without enumerating a block, in at most about cap steps."""
    if level == 0:
        return 1
    if dim * (2 * level + 1) > cap:   # the blocks (level + 1, 1, ..., 1) alone
        return cap + 1
    # g[r]: the points of the blocks of d parts summing to d + r, for d = 1;
    # a part i adds 2 i - 1 points per point of the other d - 1 parts
    g = [2 * r + 1 for r in range(level + 1)]
    for _ in range(dim - 1):
        g_next = []
        for r in range(level + 1):
            points = sum((2 * j + 1) * g[r - j] for j in range(r + 1))
            if points > cap:   # neither more parts nor a larger sum visit fewer
                return cap + 1
            g_next.append(points)
        g = g_next
    # the blocks with a nonzero combination coefficient
    return min(sum(g[max(0, level + 1 - dim):]), cap + 1)


def _compositions(total, parts):
    """All tuples of `parts` positive integers summing to `total`, in
    lexicographic order.  Iterative, so any number of parts: the next tuple
    adds one to the part before the last part above one, and sets every
    part after it to one but the last, which takes what the sum leaves."""
    if total < parts:
        return
    a = [1] * (parts - 1) + [total - parts + 1]
    while True:
        yield tuple(a)
        j = next((k for k in range(parts - 1, 0, -1) if a[k] > 1), 0)
        if not j:
            return
        a[j - 1] += 1
        a[j], a[-1] = 1, a[j] - 1


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
    return CollocationGrid(body[:, :-1], body[:, -1], "imported")
