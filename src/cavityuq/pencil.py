"""Parametric pencils, algebraic homotopies, and the pillbox cross-sections.

A parametric pencil maps a deformation coordinate vector to the pencil
there and keeps only its base pencil.  Every pencil of a study lives on
one sparsity pattern (assembly.SparsityPattern) per assembly kernel: the
disk's, or one per pillbox cross-section, shared by that family's axial
blocks.  Homotopies are convex combinations of two endpoints on one
pattern, so a pencil at t is two axpys on its data; their t-derivative is
the constant matrix difference.  The tracker's bordered matrix is the
pattern's BorderedLayout: one layout per pattern, dense up to DENSE_CUTOFF
unknowns, else CSC with the column ordering of the first factorization on
it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import MatrixPencil, assemble
from .eigen import DENSE_CUTOFF
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
    data of cross-sections assembled once (build_pillbox_pencil).  base,
    the pencil at base_delta, is evaluated on first use and kept: every
    homotopy of a study starts there.
    """

    def __init__(self, evaluator, n_parameters, base_delta=None, blocks=None):
        if n_parameters < 0:
            raise DomainError("parameter count cannot be negative")
        self._evaluator = evaluator
        self.n_parameters = int(n_parameters)
        self.base_delta = (
            np.zeros(self.n_parameters) if base_delta is None
            else np.asarray(base_delta, dtype=float)
        )
        if self.base_delta.shape != (self.n_parameters,):
            raise DomainError("base_delta length disagrees with the parameter count")
        self.blocks = blocks
        self._base = None

    def at(self, delta):
        arr = np.atleast_1d(np.asarray(delta, dtype=float))
        if arr.shape != (self.n_parameters,):
            raise DomainError(
                f"expected {self.n_parameters} coordinates, got shape {arr.shape}"
            )
        return self._evaluator(arr)

    @property
    def base(self):
        if self._base is None:
            self._base = self.at(self.base_delta)
        return self._base


class BorderedLayout:
    """[[K - lam M, -M e], [c^T, 0]] on one pencil pattern, in its tier.

    The tier is chosen here, once per pattern.  Up to DENSE_CUTOFF unknowns
    matrix is a dense (n + 1)^2 array: the pattern's entries, c and -M e are
    written through their flat positions, and every other entry stays zero.
    Above it, matrix is CSC: column j < n holds the pattern's column j, rows
    ascending, then row n (c_j); column n holds rows 0..n-1 (-M e) and no
    (n, n) entry.  Once given SuperLU's column ordering perm_c (see order),
    the CSC layout stores its matrix column-permuted from the next fill on:
    column perm_c[j] holds column j, so splu with the natural ordering
    factors it as the default ordering factors the unpermuted matrix, and
    x = y[perm_c].  Either tier keeps one matrix and refills its data in
    place (see fill).
    """

    def __init__(self, pattern):
        n = pattern.n
        rows, cols = pattern.rows, pattern.indices
        self.perm_c = None                  # column permutation the matrix is stored in
        self._ordering = None
        if n <= DENSE_CUTOFF:
            self.matrix = np.zeros((n + 1, n + 1))
            self._data = self.matrix.reshape(-1)
            self._pos = rows * (n + 1) + cols
            self._pos_c = n * (n + 1) + np.arange(n)
            self._pos_e = np.arange(n) * (n + 1) + n
            return
        import scipy.sparse as sp

        # each pattern entry moves down by one c slot per column before it
        by_col = np.argsort(cols, kind="stable")
        col_start = np.searchsorted(cols[by_col], np.arange(n + 1))
        size = cols.size + 2 * n
        self._pos = np.empty(cols.size, dtype=np.intp)
        self._pos[by_col] = np.arange(cols.size) + cols[by_col]
        self._pos_c = col_start[1:] + np.arange(n)
        self._pos_e = cols.size + n + np.arange(n)
        indptr = np.append(col_start + np.arange(n + 1), size).astype(np.int32)
        indices = np.empty(size, dtype=np.int32)
        indices[self._pos] = rows
        indices[self._pos_c] = n
        indices[self._pos_e] = np.arange(n)
        self.matrix = sp.csc_matrix((np.zeros(size), indices, indptr), shape=(n + 1, n + 1))
        self._data = self.matrix.data

    def order(self, perm_c):
        """Store the matrix column-permuted by perm_c from the next fill on;
        a dense factorization's perm_c, None, leaves it as it is."""
        self._ordering = None if perm_c is None else np.asarray(perm_c)

    def fill(self, kml, Me, c):
        """Refill the matrix in place with K - lam M data kml, M e and c.

        Every entry of the layout stays stored, zero or not, so the matrix
        keeps one structure: it is valid until the next fill.
        """
        if self._ordering is not None and self.perm_c is None:
            self._permute(self._ordering)
        data = self._data
        data[self._pos] = kml
        data[self._pos_c] = c
        data[self._pos_e] = -Me

    def _permute(self, perm_c):
        # column j of the natural layout becomes stored column perm_c[j]
        A = self.matrix
        counts = np.diff(A.indptr)
        col = np.repeat(np.arange(counts.size), counts)
        inverse = np.empty_like(perm_c)
        inverse[perm_c] = np.arange(perm_c.size)
        start = np.concatenate(([0], np.cumsum(counts[inverse])))
        stored = start[perm_c[col]] + np.arange(col.size) - A.indptr[col]
        A.indices[stored] = A.indices.copy()
        A.indptr[:] = start
        self._pos, self._pos_c, self._pos_e = (
            stored[p] for p in (self._pos, self._pos_c, self._pos_e)
        )
        self.perm_c = perm_c


class HomotopyPencil:
    """Convex matrix combination between two assembled endpoints.

    Both endpoints must be stored on one sparsity pattern, which every
    pencil assembled on one space shares; otherwise DomainError.  at(t) is
    then two axpys on the pattern's data: each entry is fl(fl(s a) +
    fl(t b)) with s = 1 - t.  Two pencils are kept with their infinity norms
    (see norms): the one at t = 0, where every track starts, and one
    refilled in place at every other t.  The tracker's bordered matrix is
    the pattern's BorderedLayout, shared by every homotopy on the pattern
    (see bordered).
    """

    def __init__(self, start, end):
        if start.n != end.n:
            raise DomainError("homotopy endpoints have different sizes")
        if end.pattern is not start.pattern:
            raise DomainError("homotopy endpoints are stored on different sparsity patterns")
        self.start = start
        self.end = end
        self.pattern = start.pattern
        if self.pattern.bordered is None:
            self.pattern.bordered = BorderedLayout(self.pattern)
        self._k0, self._m0, self._k1, self._m1 = (
            A.data for A in (start.stiffness, start.mass, end.stiffness, end.mass)
        )
        self._derivative = None
        self._kept = [None, None]   # [t, pencil, norms] at t = 0 and at the last other t

    def at(self, t):
        """The pencil at t, stored on the homotopy's pattern.

        It is kept: the tracker asks for the pencil at one t for every
        bordered solve there, the acceptance and the next derivative, and
        every track of the homotopy starts at t = 0.  The pencil at t != 0
        is refilled in place by the next call at another t != 0.
        """
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"homotopy parameter {t} outside [0, 1]")
        slot = 0 if t == 0.0 else 1
        kept = self._kept[slot]
        if kept is None:
            pencil = MatrixPencil(
                self.pattern, np.empty_like(self._k0), np.empty_like(self._m0), validate=False
            )
            kept = self._kept[slot] = [None, pencil, None]
        if kept[0] != t:
            s = 1.0 - t
            K, M = kept[1].stiffness, kept[1].mass
            for out, a, b in ((K.data, self._k0, self._k1), (M.data, self._m0, self._m1)):
                np.multiply(a, s, out=out)
                out += t * b
            kept[0], kept[2] = t, (K.norm_inf(), M.norm_inf())
        return kept[1]

    def norms(self, t):
        """(||K||_inf, ||M||_inf) of at(t), computed once per refill."""
        self.at(t)
        return self._kept[0 if t == 0.0 else 1][2]

    def bordered(self, t, lam, Me, c):
        """The pattern's BorderedLayout, its matrix refilled in place with
        [[K - lam M, -M e], [c^T, 0]] at t, given Me = M e."""
        pencil = self.at(t)
        layout = self.pattern.bordered
        layout.fill(pencil.stiffness.data - lam * pencil.mass.data, Me, c)
        return layout

    def derivative(self):
        """Constant t-derivative (K_end - K_start, M_end - M_start), on the
        homotopy's pattern."""
        if self._derivative is None:
            self._derivative = (
                self.pattern.matrix(self._k1 - self._k0),
                self.pattern.matrix(self._m1 - self._m0),
            )
        return self._derivative


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

    return ParametricPencil(evaluate, 1, base_delta=[radius], blocks=tuple(blocks))


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
