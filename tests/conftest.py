"""Fixtures shared by the test modules."""

import csv

import numpy as np
import pytest

from cavityuq import oracle
from cavityuq.geometry import GeometryMap
from cavityuq.splines import BSplineBasis, ControlNet, KnotVector


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
