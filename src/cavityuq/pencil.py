"""Parametric pencils, algebraic homotopies, and the pillbox block pencil.

A parametric pencil maps a deformation coordinate vector to assembled
matrices and keeps only its base pencil.  Homotopies are convex combinations of two assembled endpoints;
their t-derivative is the constant matrix difference.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import MatrixPencil, assemble, boundary_dofs
from .errors import DomainError
from .geometry import build_disk_patch
from .oracle import C0

SPURIOUS_RTOL = 1e-6
SPURIOUS_OVERLAP = 0.5


def _inf_norm(A):
    """spla.norm(A, inf) over the nonzero entries of the CSR matrix A.

    That is scipy's abs(A).sum(axis=1).max(): the same np.add.reduceat over
    the non-empty rows gives the same bits.  numpy sums each row pairwise,
    so a stored zero could move the last bit; zeros are dropped first.
    """
    data, indptr = A.data, A.indptr
    if not data.all():
        keep = data != 0.0
        data = data[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
    if not data.size:
        return 0.0
    starts = indptr[:-1][np.diff(indptr) > 0]
    return np.add.reduceat(np.abs(data), starts).max()


def eigenvalue_to_frequency(lam):
    """Map a squared wavenumber to a frequency in Hz."""
    if lam < 0:
        raise DomainError(f"negative squared wavenumber {lam}")
    return C0 * math.sqrt(lam) / (2.0 * math.pi)


class ParametricPencil:
    """delta -> MatrixPencil, assembled afresh on every call to at.

    base, the pencil at base_delta, is assembled on first use and kept:
    every homotopy of a study starts there.
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


class HomotopyPencil:
    """Convex matrix combination between two assembled endpoints.

    K0, K1, M0 and M1 are spread once onto the CSR union of their patterns,
    zero where a matrix stores no entry, so at(t) is two axpys on that
    pattern.  Each entry is fl(fl(s a) + fl(t b)) with s = 1 - t, the
    arithmetic of scipy's s * K0 + t * K1, and an exact zero where scipy
    stores none.  Two pencils are kept with their infinity norms (see
    norms): the one at t = 0, where every track starts, and the last one at
    another t.  The tracker's bordered matrix takes its fixed CSC layout
    from the same pattern and is one matrix refilled in place, valid until
    the next bordered call (see bordered).
    """

    def __init__(self, start, end):
        if start.stiffness.shape != end.stiffness.shape:
            raise DomainError("homotopy endpoints have different sizes")
        self.start = start
        self.end = end
        self._derivative = None
        self._kept = [None, None]   # (t, pencil, norms) at t = 0 and at the last other t
        n = start.n
        mats = (start.stiffness, end.stiffness, start.mass, end.mass)
        keys = np.concatenate(
            [np.repeat(np.arange(n) * n, np.diff(A.indptr)) + A.indices for A in mats]
        )
        # the keys are four sorted runs, which a stable sort merges quickly
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        union = ranked[first]
        slot = np.empty(keys.size, dtype=np.intp)
        slot[order] = np.cumsum(first) - 1
        rows, cols = np.divmod(union, n)
        # a duplicated stored entry adds up, in storage order
        self._k0, self._k1, self._m0, self._m1 = (
            np.bincount(part, weights=A.data, minlength=union.size)
            for part, A in zip(np.split(slot, np.cumsum([A.nnz for A in mats])[:-1]), mats)
        )
        self._indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
        self._indices = cols.astype(np.int32)

        # Bordered CSC layout: column j < n holds the union's column j, rows
        # ascending, then row n (c_j); column n holds rows 0..n-1 (-M e) and
        # no (n, n) entry.  Each union entry moves down by one c slot per
        # column before it.
        by_col = np.argsort(cols, kind="stable")
        col_start = np.searchsorted(cols[by_col], np.arange(n + 1))
        size = union.size + 2 * n
        self._pos = np.empty(union.size, dtype=np.intp)
        self._pos[by_col] = np.arange(union.size) + cols[by_col]
        self._pos_c = col_start[1:] + np.arange(n)
        self._pos_e = union.size + n + np.arange(n)
        b_indptr = np.append(col_start + np.arange(n + 1), size).astype(np.int32)
        b_indices = np.empty(size, dtype=np.int32)
        b_indices[self._pos] = rows
        b_indices[self._pos_c] = n
        b_indices[self._pos_e] = np.arange(n)
        self._bordered = sp.csc_matrix((np.zeros(size), b_indices, b_indptr), shape=(n + 1, n + 1))

    def _csr(self, data):
        return sp.csr_matrix((data, self._indices, self._indptr), shape=self.start.stiffness.shape)

    def at(self, t):
        """The pencil at t, stored on the homotopy's pattern.

        It is kept: the tracker asks for the pencil at one t for every
        bordered solve there, the acceptance and the next derivative, and
        every track of the homotopy starts at t = 0.
        """
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"homotopy parameter {t} outside [0, 1]")
        slot = 0 if t == 0.0 else 1
        kept = self._kept[slot]
        if kept is None or kept[0] != t:
            s = 1.0 - t
            K = self._csr(s * self._k0 + t * self._k1)
            M = self._csr(s * self._m0 + t * self._m1)
            kept = self._kept[slot] = (
                t, MatrixPencil(K, M, validate=False), (_inf_norm(K), _inf_norm(M))
            )
        return kept[1]

    def norms(self, t):
        """(||K||_inf, ||M||_inf) of at(t), computed once per refill."""
        self.at(t)
        return self._kept[0 if t == 0.0 else 1][2]

    def bordered(self, t, lam, Me, c):
        """[[K - lam M, -M e], [c^T, 0]] in CSC at t, with Me = M e.

        Entries that come out exactly zero are dropped, as K - lam M and
        sp.bmat drop them, so splu receives the arrays sp.bmat would give.
        Without such an entry the result is the homotopy's one bordered
        matrix, refilled in place: it is valid until the next call.
        """
        pencil = self.at(t)
        A = self._bordered
        A.data[self._pos] = pencil.stiffness.data - lam * pencil.mass.data
        A.data[self._pos_c] = c
        A.data[self._pos_e] = -Me
        if A.data.all():
            return A
        A = sp.csc_matrix((A.data.copy(), A.indices.copy(), A.indptr.copy()), shape=A.shape)
        A.eliminate_zeros()
        return A

    def derivative(self):
        """Constant t-derivative (K_end - K_start, M_end - M_start)."""
        if self._derivative is None:
            self._derivative = (
                (self.end.stiffness - self.start.stiffness).tocsr(),
                (self.end.mass - self.start.mass).tocsr(),
            )
        return self._derivative


@dataclass(frozen=True)
class PillboxBlock:
    """One axial block of the stacked cylinder pencil.

    spurious is the eigenvalue of the nonphysical constant-mode branch that
    Neumann blocks carry; None for Dirichlet blocks.
    """

    family: str
    axial: int
    offset: int
    size: int
    axial_shift: float
    spurious: float | None


def build_pillbox_pencil(radius, length, p_max, space):
    """Radius-parametrized block pencil for a cylinder of the given length.

    A translation-invariant cavity factors into cross-section modes times
    axial sinusoids: Dirichlet blocks carry axial orders p = 0..p_max and
    Neumann blocks p = 1..p_max, each shifted by (p*pi/length)^2.  One
    cross-section assembly per boundary condition serves every block.
    """
    if radius <= 0 or length <= 0:
        raise DomainError(f"cavity dimensions must be positive, got r={radius}, l={length}")
    if int(p_max) != p_max or p_max < 1:
        raise DomainError(f"axial order cap must be a positive integer, got {p_max}")
    p_max = int(p_max)

    blocks = []
    offset = 0
    n_d = space.n_dofs - boundary_dofs(space).size
    n_n = space.n_dofs
    for p in range(0, p_max + 1):
        shift = (p * math.pi / length) ** 2
        blocks.append(PillboxBlock("TM", p, offset, n_d, shift, None))
        offset += n_d
    for p in range(1, p_max + 1):
        shift = (p * math.pi / length) ** 2
        blocks.append(PillboxBlock("TE", p, offset, n_n, shift, shift))
        offset += n_n

    def evaluate(delta):
        r = float(delta[0])
        geom = build_disk_patch(r)
        dirichlet = assemble(geom, space, bc="dirichlet")
        neumann = assemble(geom, space, bc="neumann")
        ks, ms = [], []
        for b in blocks:
            pen = dirichlet if b.family == "TM" else neumann
            ks.append(pen.stiffness + b.axial_shift * pen.mass)
            ms.append(pen.mass)
        return MatrixPencil(
            sp.block_diag(ks, format="csr"),
            sp.block_diag(ms, format="csr"),
            validate=False,
        )

    return ParametricPencil(evaluate, 1, base_delta=[radius], blocks=tuple(blocks))


def is_spurious(pair, pencil, block):
    """True when a pair of one block's pencil is its constant-mode branch.

    pencil is the block's own pencil (see block_pencil).  Neumann blocks
    carry a nonphysical branch at block.spurious whose eigenvector is the
    constant; Dirichlet blocks have none.
    """
    if block.spurious is None:
        return False
    ones = np.ones(pencil.n)
    m_ones = pencil.mass @ ones
    ov = abs(pair.vector @ m_ones) / math.sqrt(ones @ m_ones)
    near = abs(pair.value - block.spurious) <= SPURIOUS_RTOL * (1.0 + block.spurious)
    return near and ov >= SPURIOUS_OVERLAP


def block_pencil(pencil, block):
    """Slice one axial block out of a stacked pencil."""
    rows = slice(block.offset, block.offset + block.size)
    return MatrixPencil(
        pencil.stiffness[rows, rows].tocsr(),
        pencil.mass[rows, rows].tocsr(),
        validate=False,
    )
