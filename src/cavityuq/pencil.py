"""Parametric pencils, algebraic homotopies, and the pillbox block pencil.

A parametric pencil maps a deformation coordinate vector to assembled
matrices, with caching so repeated evaluation at one point is bit-identical
and free.  Homotopies are convex combinations of two assembled endpoints;
their t-derivative is the constant matrix difference.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import MatrixPencil, assemble, boundary_dofs
from .errors import DomainError, SolverError
from .geometry import build_disk_patch
from .oracle import C0


def eigenvalue_to_frequency(lam):
    """Map a squared wavenumber to a frequency in Hz."""
    if lam < 0:
        raise DomainError(f"negative squared wavenumber {lam}")
    return C0 * math.sqrt(lam) / (2.0 * math.pi)


class ParametricPencil:
    """delta -> MatrixPencil with per-instance caching.

    The cache key is the canonical float64 byte encoding of delta, so two
    calls at the same coordinates return the same matrices, bit for bit.
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
        self._cache = {}
        self._lock = threading.Lock()

    def _canonical(self, delta):
        arr = np.atleast_1d(np.asarray(delta, dtype=float))
        if arr.shape != (self.n_parameters,):
            raise DomainError(
                f"expected {self.n_parameters} coordinates, got shape {arr.shape}"
            )
        return arr, arr.tobytes()

    def at(self, delta):
        arr, key = self._canonical(delta)
        with self._lock:
            hit = self._cache.get(key)
        if hit is not None:
            return hit
        pen = self._evaluator(arr)
        with self._lock:
            return self._cache.setdefault(key, pen)

    @property
    def base(self):
        return self.at(self.base_delta)


class HomotopyPencil:
    """Convex matrix combination between two assembled endpoints."""

    def __init__(self, start, end):
        if start.stiffness.shape != end.stiffness.shape:
            raise DomainError("homotopy endpoints have different sizes")
        self.start = start
        self.end = end
        self._derivative = None

    def at(self, t):
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"homotopy parameter {t} outside [0, 1]")
        if t == 0.0:
            return self.start
        if t == 1.0:
            return self.end
        s = 1.0 - t
        return MatrixPencil(
            s * self.start.stiffness + t * self.end.stiffness,
            s * self.start.mass + t * self.end.mass,
            kept=self.start.kept,
            n_total=self.start.n_total,
            bc=self.start.bc,
            validate=False,
        )

    def derivative(self):
        """Constant t-derivative (K_end - K_start, M_end - M_start)."""
        if self._derivative is None:
            self._derivative = (
                (self.end.stiffness - self.start.stiffness).tocsr(),
                (self.end.mass - self.start.mass).tocsr(),
            )
        return self._derivative


def probe_definiteness(homotopy, ts=(0.0, 0.25, 0.5, 0.75, 1.0), dense_cutoff=600):
    """Factorize M(t) at probe points; raise SolverError if any is not SPD."""
    for t in ts:
        M = homotopy.at(t).mass
        if M.shape[0] <= dense_cutoff:
            try:
                np.linalg.cholesky(M.toarray())
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"mass matrix not positive definite at t={t}") from exc
        else:
            low = spla.eigsh(
                M, k=1, which="SA", v0=np.full(M.shape[0], 1.0), return_eigenvectors=False
            )[0]
            if low <= 0.0:
                raise SolverError(f"mass matrix not positive definite at t={t}")


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


def spurious_overlaps(pair, pencil, blocks):
    """Overlap of an eigenvector with each Neumann block's constant mode."""
    out = []
    M = pencil.mass
    for b in blocks:
        if b.spurious is None:
            continue
        c = np.zeros(pencil.n)
        c[b.offset : b.offset + b.size] = 1.0
        mc = M @ c
        out.append((b, abs(pair.vector @ mc) / math.sqrt(c @ mc)))
    return out


def is_spurious(pair, pencil, blocks, overlap=0.5, rtol=1e-6):
    """True when the pair is a Neumann constant-mode branch, not a cavity mode."""
    for b, ov in spurious_overlaps(pair, pencil, blocks):
        if abs(pair.value - b.spurious) <= rtol * (1.0 + b.spurious) and ov >= overlap:
            return True
    return False


def filter_spurious(pairs, pencil, blocks):
    return [p for p in pairs if not is_spurious(p, pencil, blocks)]


def block_pencil(pencil, block):
    """Slice one axial block out of a stacked pencil."""
    rows = slice(block.offset, block.offset + block.size)
    return MatrixPencil(
        pencil.stiffness[rows, rows].tocsr(),
        pencil.mass[rows, rows].tocsr(),
        validate=False,
    )


def block_of(pair, blocks):
    """The block holding most of the eigenvector's mass (by euclidean norm)."""
    best, best_w = None, -1.0
    for b in blocks:
        w = float(np.linalg.norm(pair.vector[b.offset : b.offset + b.size]))
        if w > best_w:
            best, best_w = b, w
    return best
