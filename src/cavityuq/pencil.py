"""Parametric pencils, algebraic homotopies, and the pillbox cross-sections.

A parametric pencil maps a deformation coordinate vector to the pencil
there and keeps only its base pencil.  Every pencil of a study lives on
one sparsity pattern (assembly.SparsityPattern) per assembly kernel: the
disk's, or one per pillbox cross-section, shared by that family's axial
blocks.  A homotopy is the convex combinations of one start pencil with
each of a batch of end pencils, all on one pattern, so a pencil at t is two
axpys on its data; its t-derivative is the constant matrix difference.  The
tracker builds its bordered matrices from them itself (tracking._Bordered,
one per pattern).
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import MatrixPencil, assemble
from .errors import DomainError
from .geometry import build_disk_patch
from .oracle import C0

SPURIOUS_ATOL = 1e-6
SPURIOUS_OVERLAP = 0.5


def eigenvalue_to_frequency(lam):
    """Map a squared wavenumber to a frequency in Hz."""
    if lam < 0:
        raise DomainError(f"negative squared wavenumber {lam}")
    return C0 * math.sqrt(lam) / (2.0 * math.pi)


class ParametricPencil:
    """delta -> the pencil at delta, evaluated afresh on every call to at.

    The evaluator assembles a deformed disk; for the pillbox it scales the
    data of cross-sections assembled once (build_pillbox_pencil).  A delta
    has as many coordinates as base_delta.  base, the pencil at base_delta,
    is evaluated on first use and kept: every homotopy of a study starts
    there.
    """

    def __init__(self, evaluator, base_delta, blocks=None):
        self._evaluator = evaluator
        self.base_delta = np.asarray(base_delta, dtype=float)
        self.blocks = blocks
        self._base = None

    def at(self, delta):
        arr = np.atleast_1d(np.asarray(delta, dtype=float))
        if arr.shape != self.base_delta.shape:
            raise DomainError(
                f"expected {self.base_delta.size} coordinates, got shape {arr.shape}"
            )
        return self._evaluator(arr)

    @property
    def base(self):
        if self._base is None:
            self._base = self.at(self.base_delta)
        return self._base


class HomotopyPencil:
    """Convex matrix combinations from one start pencil to each of a batch
    of end pencils.

    ends is a sequence of assembled pencils, whose homotopies the tracker
    advances together: their data are stacked once, row b for ends[b].
    Every end must be stored on the start's sparsity pattern, which every
    pencil assembled on one space shares; otherwise DomainError.  Every
    method takes an index array into ends and answers one row per listed
    end.  An end's row at its t is two axpys on the pattern's data, each
    entry fl(fl(s a) + fl(t b)) with s = 1 - t: at t = 0 start's entry a,
    where every track starts, and at t = 1 the end's own entry b, up to the
    sign of a zero.
    """

    def __init__(self, start, ends):
        self.ends = tuple(ends)
        if not self.ends:
            raise DomainError("a homotopy needs at least one end")
        for pen in self.ends:
            if pen.n != start.n:
                raise DomainError("homotopy endpoints have different sizes")
            if pen.pattern is not start.pattern:
                raise DomainError("homotopy endpoints are stored on different sparsity patterns")
        self.start = start
        self.pattern = start.pattern
        self._k0, self._m0 = start.stiffness.data, start.mass.data
        self._k1, self._m1 = (
            np.stack([getattr(pen, name).data for pen in self.ends])
            for name in ("stiffness", "mass")
        )
        self._derivative = None

    def at(self, t, ends):
        """The pencils of the listed ends, an index array into self.ends,
        each at its own t (one per end, or one for all), stored on the
        homotopy's pattern: its data stack them, row i for ends[i]."""
        ends = np.asarray(ends, dtype=np.intp)
        t = np.broadcast_to(np.asarray(t, dtype=float), ends.shape)
        if not ((t >= 0.0) & (t <= 1.0)).all():
            raise DomainError(f"homotopy parameter outside [0, 1] in {t}")
        s, t = (1.0 - t)[:, None], t[:, None]
        K, M = np.empty((2, ends.size, self._k0.size))
        for out, a, b in ((K, self._k0, self._k1), (M, self._m0, self._m1)):
            np.multiply(a, s, out=out)
            out += t * b[ends]
        return MatrixPencil(self.pattern, K, M, validate=False)

    def derivative(self, ends):
        """Constant t-derivative (K_end - K_start, M_end - M_start) of the
        listed ends, stacked on the homotopy's pattern."""
        if self._derivative is None:
            self._derivative = (self._k1 - self._k0, self._m1 - self._m0)
        ends = np.asarray(ends, dtype=np.intp)
        return tuple(self.pattern.matrix(d[ends]) for d in self._derivative)


@dataclass(frozen=True)
class PillboxBlock:
    """One axial block: its family's cross-section pencil shifted by
    axial_shift = (axial pi / length)^2 (see block_pencil)."""

    family: str
    axial: int
    axial_shift: float


def build_pillbox_pencil(radius, length, p_max, space):
    """Radius-parametrized cross-section pencils of a cylinder of the given length.

    A translation-invariant cavity factors into cross-section modes times
    axial sinusoids: TM blocks are the Dirichlet cross-section with axial
    orders p = 0..p_max, TE blocks the Neumann one with p = 1..p_max, each
    shifted by (p*pi/length)^2.  The disk is assembled once per boundary
    condition, at the base radius.  A radius r only dilates it: the 2-D
    stiffness does not change and the mass scales with the area, so at([r])
    is {"TM": ..., "TE": ...}, the base pencils with their mass data scaled
    by (r/radius)^2 on the same patterns.
    """
    if radius <= 0 or length <= 0:
        raise DomainError(f"cavity dimensions must be positive, got r={radius}, l={length}")
    if int(p_max) != p_max or p_max < 1:
        raise DomainError(f"axial order cap must be a positive integer, got {p_max}")
    p_max = int(p_max)

    blocks = [PillboxBlock("TM", p, (p * math.pi / length) ** 2) for p in range(0, p_max + 1)]
    blocks += [PillboxBlock("TE", p, (p * math.pi / length) ** 2) for p in range(1, p_max + 1)]
    geom = build_disk_patch(radius)
    base = {"TM": assemble(geom, space, bc="dirichlet"), "TE": assemble(geom, space, bc="neumann")}

    def evaluate(delta):
        r = float(delta[0])
        if r <= 0:
            raise DomainError(f"cavity radius must be positive, got r={r}")
        scale = (r / radius) ** 2
        return {
            family: MatrixPencil(
                pen.pattern, pen.stiffness.data, scale * pen.mass.data, validate=False
            )
            for family, pen in base.items()
        }

    return ParametricPencil(evaluate, [radius], blocks=tuple(blocks))


def is_spurious(pair, pencil):
    """True when a pair of a cross-section pencil is the constant mode.

    The Neumann (TE) cross-section carries this nonphysical branch at 0;
    the Dirichlet one has none, its boundary functions being eliminated.
    """
    ones = np.ones(pencil.n)
    m_ones = pencil.mass @ ones
    ov = abs(pair.vector @ m_ones) / math.sqrt(ones @ m_ones)
    return abs(pair.value) <= SPURIOUS_ATOL and ov >= SPURIOUS_OVERLAP


def block_pencil(sections, block):
    """One axial block: K + shift M of its family's pencil in sections (a
    value of build_pillbox_pencil's at), on that cross-section's pattern,
    which every block of the family shares."""
    pen = sections[block.family]
    return MatrixPencil(
        pen.pattern, pen.stiffness.data + block.axial_shift * pen.mass.data, pen.mass.data,
        validate=False,
    )
