"""Fixtures and pencil helpers shared by the test modules.

The pencil helpers are plain functions, imported as ``from conftest import ...``:
the library stores every pencil on a SparsityPattern, and these make one
from scipy or dense matrices.
"""

import csv
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp

from cavityuq import oracle, tracking
from cavityuq.assembly import MatrixPencil, SparsityPattern
from cavityuq.geometry import GeometryMap
from cavityuq.splines import BSplineBasis, ControlNet, KnotVector


def csr_pencil(K, M, validate=True):
    """The pencil of K and M, scipy sparse or dense, on the union of their
    stored entries and its transpose; stored zeros stay stored."""
    K, M = sp.csr_matrix(K), sp.csr_matrix(M)
    n = K.shape[0]
    coo = [A.tocoo() for A in (K, M)]
    rows = np.concatenate([c.row for c in coo] + [c.col for c in coo]).astype(np.int64)
    cols = np.concatenate([c.col for c in coo] + [c.row for c in coo]).astype(np.int64)
    keys = np.unique(rows * n + cols)
    pattern = SparsityPattern(np.searchsorted(keys, np.arange(n + 1) * n), keys % n)
    r, c = keys // n, keys % n
    return MatrixPencil(
        pattern, *(np.asarray(A[r, c]).ravel() for A in (K, M)), validate=validate
    )


@lru_cache(maxsize=None)
def full_pattern(n):
    """The n x n pattern holding every entry, one object per size."""
    return SparsityPattern(np.arange(n + 1) * n, np.tile(np.arange(n), n))


def dense_pencil(K, M=None, validate=True):
    """K and M (default the identity) on full_pattern(n), so that any two
    such pencils of one size can be a homotopy's endpoints."""
    n = K.shape[0]
    M = np.eye(n) if M is None else M
    return MatrixPencil(
        full_pattern(n), *(np.asarray(A, dtype=float).ravel() for A in (K, M)),
        validate=validate,
    )


def pencil_at(homotopy, t):
    """The pencil at t of a homotopy's first end: the row of
    homotopy.at(t, [0]), as a MatrixPencil of its own."""
    pen = homotopy.at(t, [0])
    return MatrixPencil(
        homotopy.pattern, pen.stiffness.data[0], pen.mass.data[0], validate=False
    )


def derivative_at(homotopy, t, pair, c):
    """tracking.eigenpair_derivative of pair, with normalization vector c,
    on the pencil at t of a homotopy's first end, whose bordered matrix is
    factored first: [(e', lambda')], or [the DegeneracyError]."""
    pen = pencil_at(homotopy, t)
    lus = tracking._factor(pen, [pair.value], [pen.mass @ pair.vector], [c])
    return tracking.eigenpair_derivative(homotopy.derivative([0]), pair, lus)


def _rectangle_patch(lx, ly):
    """Axis-aligned rectangle [0, lx] x [0, ly] as a bilinear patch."""
    pts = np.array([[[0.0, 0.0], [0.0, ly]], [[lx, 0.0], [lx, ly]]])
    basis = BSplineBasis(KnotVector([0, 0, 1, 1], 1), 1)
    return GeometryMap((basis, basis), ControlNet(pts))


@pytest.fixture
def rectangle_patch():
    """Factory of bilinear rectangle patches: rectangle_patch(lx, ly)."""
    return _rectangle_patch


@pytest.fixture
def unit_square_patch():
    """The identity map of the unit square."""
    return _rectangle_patch(1.0, 1.0)


def _save_observations(path, obs):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(obs.names)
        for row in obs.data:
            writer.writerow([f"{v:.17g}" for v in row])


@pytest.fixture
def save_observations():
    """Writer of an ObservationMatrix as the CSV uq.load_observations reads:
    save_observations(path, obs)."""
    return _save_observations


def _pillbox_spectrum(r, l, count):
    """The count lowest cylinder modes counted with multiplicity: each
    (ModeLabel, frequency_hz) of oracle.pillbox_frequencies repeated by its
    degeneracy, the flat list a discrete eigensolve should reproduce."""
    return [
        (label, f)
        for label, f in oracle.pillbox_frequencies(r, l, count)
        for _ in range(label.degeneracy)
    ][:count]


@pytest.fixture
def pillbox_spectrum():
    """pillbox_spectrum(r, l, count): see _pillbox_spectrum."""
    return _pillbox_spectrum
