"""Eigenvalue tracking along matrix homotopies.

One stepping loop advances any number of modes through t in [0, 1] together
(track_cluster): it takes each member's bordered-system derivative at every
accepted t, and a step-size controller driven by the Newton iteration
count sets one shared step: fast convergence grows it, slow or failed
correction rejects the step for every member and shrinks it.  Only the step
itself depends on the number of members, and one kernel takes it (_step).
Near-degenerate modes whose first-order model mixes within the homotopy
(see mixing) form a cluster: each member is predicted to first order, the
Rayleigh-Ritz pairs of the pencil at the new t on the span of the
predicted vectors are Newton-corrected, and the step is accepted only if
every member converges and their vectors stay M-orthogonal.  A lone mode
is a cluster of one that skips the projection and the check: its
predicted pair is Newton-corrected with its previous normalization vector.
track and Tracks, one start's form of track_cluster, stay only because the
benchmark tracer reads per-track statistics through track; they go once it
reads the states that track_modes returns.  Inside a cluster, identity is
value order: generic one-parameter symmetric pencils have avoided
crossings, not crossings (von Neumann-Wigner), and a step that jumps an
avoided crossing would swap or merge two separately tracked modes.
An endpoint M-Gram check backs every group of modes (track_modes):
colliding tracks are re-tracked as one cluster, and a collision that
remains is a TrackingFailure.

Every homotopy is a batch: one start pencil and a sequence of ends
(pencil.HomotopyPencil), and the study runner tracks a chunk of grid nodes
at once, one end per node.  The loop advances every end's homotopy in
lockstep, with the end as the leading axis of every stacked array: each end
keeps its own t, step and state, and predictors, Ritz projections,
residuals, norms and acceptance are stacked products, each row the same
operations in the same order as the end's homotopy alone.  Every entry
takes or reads its ends and returns one outcome per end: a result, or the
failure that ended that end.  A rejection, a step underflow or a singular
bordered system belongs to its end: only that end retries or fails.  The
ends a batch takes at once follow from one budget on its stacked bordered
matrices (batch_size).

Only the stepping loop evaluates a homotopy (HomotopyPencil.at): once per
group of ends stepping to one t, and once per group taking derivatives at
one t > 0.  Every kernel works on the pencil stack and the LUs it is
handed, and Newton scales its residuals by its stack's infinity norms.

Every derivative and every Newton iteration above the tolerance factorizes
the bordered system [[K - lambda M, -M e], [c^T, 0]] afresh, with two
exceptions.  The t = 0 end of every homotopy from one pencil is that
pencil, so the start pencil keeps one start record per start pair (_Start,
in MatrixPencil.starts): the pair M-normalized and its residual checked,
c = M e, and the LU of its bordered matrix at t = 0 (or the failure that
refused it).  Every homotopy from the pencil takes its start state from
there, and the loop hands the record's outcome to every derivative at
t = 0, where only the back-solve and its residual check run again.  And a
Newton iterate whose residual already meets the tolerance, waiting only
for |dlambda| to confirm, is updated with the last factorization of the
same call (newton_correct).

Every pencil of a study lives on one sparsity pattern, whose one _Bordered
picks the tier once and builds a new bordered matrix for every
factorization, which its LU keeps (_BorderedLU) with the matrix's infinity
norm once a derivative asks for it.  Every factorization is one spla.splu
call of one matrix and every back-solve one .solve of one right-hand side
on its result.  Up to DENSE_CUTOFF unknowns the matrices of a stack are
filled as one (A, n + 1, n + 1) array, and splu is one LAPACK getrf on a
column-major copy of a matrix, kept for one getrs per solve (_DenseLU),
through the OpenBLAS that numpy links; where numpy's build exports no
getrf, each solve is one gesv on the matrix instead, with the same bits.
Above the cutoff, the matrix is CSC and splu is scipy's SuperLU, which
reuses the column ordering of the pattern's first factorization.
"""

import math
import warnings
from dataclasses import astuple, dataclass, field
from functools import cache, cached_property, partial
from types import SimpleNamespace

import numpy as np

from .assembly import MatrixPencil, stacked_products
from .eigen import DENSE_CUTOFF, Eigenpair, _m_orthonormalize, dense_eigh, group_clusters
from .errors import (
    CavityError,
    DegeneracyError,
    DomainError,
    NewtonFailure,
    TrackingFailure,
)
from .pencil import HomotopyPencil

START_GAP_WARN = 1e-6
ORTHO_TOL = 1e-6   # largest |e_i^T M e_j| of two distinct tracks' vectors
STACK_ENTRIES = 2**16   # bordered-matrix entries of the ends a batch takes at once


def batch_size(n):
    """The ends a batch of homotopies on n unknowns takes at once: as many
    as keep their stacked bordered matrices within STACK_ENTRIES entries,
    and at least one."""
    return max(1, STACK_ENTRIES // (n + 1) ** 2)


@dataclass(frozen=True)
class TrackConfig:
    """Step-size and Newton parameters.

    Convergence in at most n1 iterations grows the next step by eta1; more
    than n2 iterations (Newton stops there) or divergence rejects the step
    and retries at eta2 times the size; anything between keeps the step.
    """

    n1: int = 3
    eta1: float = 1.1
    n2: int = 5
    eta2: float = 2.0 / 3.0
    newton_tol: float = 1e-10
    min_step: float = 1e-6
    initial_step: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise DomainError(f"step-control parameters must be finite, got {self}")
        if not (0.0 < self.eta2 < 1.0 < self.eta1):
            raise DomainError(f"need 0 < eta2 < 1 < eta1, got {self.eta2}, {self.eta1}")
        if not 0 < self.n1 < self.n2:
            raise DomainError(f"need 0 < n1 < n2, got {self.n1}, {self.n2}")
        if self.min_step <= 0 or self.initial_step <= 0:
            raise DomainError("steps must be positive")
        if self.newton_tol <= 0:
            raise DomainError(f"newton_tol must be positive, got {self.newton_tol}")


@dataclass
class TrackState:
    """Tracker position with its accepted history."""

    t: float
    eigenpair: Eigenpair
    c: np.ndarray
    trajectory: list = field(default_factory=list)   # (t, lambda) accepted
    newton_log: list = field(default_factory=list)   # iterations per accepted step
    n_solves: int = 0                                # bordered back-solves, total
    n_factorizations: int = 0                        # bordered LU factorizations, total
    n_rejects: int = 0
    min_overlap: float = 1.0
    flagged: bool = False                            # degenerate start
    cluster: tuple = ()                              # starts tracked jointly
    retracked: bool = False                          # after an endpoint collision


class Tracks(list):
    """The TrackStates of one start on a batch's ends, in end order, an end
    whose track failed holding its CavityError, with the statistics of one
    state over the tracked ends: newton_log is their logs one after another,
    n_solves and n_rejects are their sums and min_overlap their minimum."""

    def __init__(self, outcomes):
        super().__init__(outcomes)
        done = [st for st in self if isinstance(st, TrackState)]
        self.newton_log = [it for st in done for it in st.newton_log]
        self.n_solves = sum(st.n_solves for st in done)
        self.n_rejects = sum(st.n_rejects for st in done)
        self.min_overlap = min((st.min_overlap for st in done), default=1.0)


def _dots(X, Y):
    """x @ y for each pair of rows: one BLAS dot each, as for vectors."""
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


def _scaled_residuals(R, lam, E, norm_k, norm_m):
    return np.sqrt(_dots(R, R)) / ((norm_k + np.abs(lam) * norm_m) * np.sqrt(_dots(E, E)))


@cache
def _lapack():
    """(dgetrf, dgetrs) of the 64-bit-integer OpenBLAS that numpy's
    scipy-openblas wheels link, or None where numpy's build does not export
    them.  Looked up at the first dense factorization, never at import."""
    import ctypes   # numpy has loaded it already

    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        getrf, getrs = lib.scipy_dgetrf_64_, lib.scipy_dgetrs_64_
    except (OSError, AttributeError):
        return None
    ptr = ctypes.c_void_p
    getrf.argtypes = [ptr] * 6   # M, N, A, LDA, IPIV, INFO
    # TRANS, N, NRHS, A, LDA, IPIV, B, LDB, INFO and the length of TRANS
    getrs.argtypes = [ctypes.c_char_p] + [ptr] * 8 + [ctypes.c_size_t]
    getrf.restype = getrs.restype = None
    return getrf, getrs


class _DenseLU:
    """LAPACK getrf of a square array, kept for one getrs per solve.  The
    solutions are np.linalg.solve's bit for bit, as its gesv is getrf then
    getrs.  The buffers and their addresses are set once per LU."""

    def __init__(self, routines, A):
        getrf, self._getrs = routines
        self._lu = np.array(A, dtype=float, order="F")   # getrf overwrites it with L and U
        n = len(self._lu)
        if self._lu.shape != (n, n):
            raise ValueError(f"getrf takes a square matrix, not shape {self._lu.shape}")
        self._ints = np.zeros(n + 3, dtype=np.int64)     # N, NRHS, INFO, then the pivots
        self._ints[:2] = n, 1
        at, lu = self._ints.ctypes.data, self._lu.ctypes.data
        p_n, p_nrhs, p_info, p_ipiv = at, at + 8, at + 16, at + 24
        getrf(p_n, p_n, lu, p_n, p_ipiv, p_info)
        if self._ints[2] > 0:
            raise RuntimeError("Factor is exactly singular")
        self._head, self._tail = (p_n, p_nrhs, lu, p_n, p_ipiv), (p_n, p_info, 1)

    def solve(self, rhs):
        x = np.array(rhs, dtype=float)   # getrs overwrites it with the solution
        self._getrs(b"N", *self._head, x.ctypes.data, *self._tail)
        return x


def _splu(A, permc_spec=None):
    """The factorization of a bordered matrix in its tier: SuperLU of a CSC
    matrix, or for a dense array, LAPACK getrf kept for one getrs per solve
    (_DenseLU).  Where numpy's build exports no getrf, each solve of a dense
    array is LAPACK gesv on it (np.linalg.solve), with the same bits."""
    if isinstance(A, np.ndarray):
        routines = _lapack()
        if routines is None:
            return SimpleNamespace(solve=partial(np.linalg.solve, A))
        return _DenseLU(routines, A)
    from scipy.sparse.linalg import splu

    return splu(A, permc_spec=permc_spec)


# The factorization seam: every bordered factorization of either tier is one
# spla.splu call, and every back-solve one .solve on its result.
spla = SimpleNamespace(splu=_splu)


_SINGULAR = (
    "bordered matrix is singular; eigenvalue nearly multiple or "
    "normalization vector orthogonal to the eigenvector"
)


class _Bordered:
    """[[K - lam M, -M e], [c^T, 0]] on one sparsity pattern, in its tier:
    dense up to DENSE_CUTOFF unknowns, else CSC.

    factor builds a new matrix for every row of its arguments.  Dense ones
    are one fresh (rows, n + 1, n + 1) array with the pattern's entries, c
    and -M e written through their flat positions.  A CSC one is fresh data
    on the layout's index arrays: column j < n holds the pattern's column
    j, rows ascending, then row n (c_j); column n holds rows 0..n-1 (-M e),
    and there is no (n, n) entry.  Once the first factorization gives
    SuperLU's column ordering perm_c (order), new index arrays store every
    later matrix with column j at perm_c[j], which splu factors with the
    natural ordering as the default ordering factors the unpermuted matrix;
    x = y[perm_c].
    """

    def __init__(self, pattern):
        n = self.n = pattern.n
        rows, cols = pattern.rows, pattern.indices
        self.dense = n <= DENSE_CUTOFF
        self.perm_c = None                  # column ordering of the CSC tier, once known
        if self.dense:
            self._pos = rows * (n + 1) + cols
            self._pos_c = n * (n + 1) + np.arange(n)
            self._pos_e = np.arange(n) * (n + 1) + n
            return
        # each pattern entry moves down by one c slot per column before it
        by_col = np.argsort(cols, kind="stable")
        col_start = np.searchsorted(cols[by_col], np.arange(n + 1))
        size = cols.size + 2 * n
        self._pos = np.empty(cols.size, dtype=np.intp)
        self._pos[by_col] = np.arange(cols.size) + cols[by_col]
        self._pos_c = col_start[1:] + np.arange(n)
        self._pos_e = cols.size + n + np.arange(n)
        self._indptr = np.append(col_start + np.arange(n + 1), size).astype(np.int32)
        self._indices = np.empty(size, dtype=np.int32)
        self._indices[self._pos] = rows
        self._indices[self._pos_c] = n
        self._indices[self._pos_e] = np.arange(n)

    def factor(self, kml, Me, c):
        """Per row of kml (K - lam M data), Me (M e) and c: the _BorderedLU
        of a new matrix, or the DegeneracyError that refused it."""
        out = []
        for A in self._matrices(kml, Me, c):
            try:
                out.append(_BorderedLU(self, A))
            except DegeneracyError as exc:
                out.append(exc.with_traceback(None))
        return out

    def _matrices(self, kml, Me, c):
        # one at a time: a CSC matrix is built on the index arrays that the
        # factorization before it left
        shape = (self.n + 1, self.n + 1)
        if self.dense:
            data = np.zeros((len(kml), shape[0] * shape[1]))
            data[:, self._pos] = kml
            data[:, self._pos_c] = c
            data[:, self._pos_e] = -Me
            yield from data.reshape(-1, *shape)
            return
        import scipy.sparse as sp

        for row in range(len(kml)):
            data = np.empty(self._indices.size)
            data[self._pos] = kml[row]
            data[self._pos_c] = c[row]
            data[self._pos_e] = -Me[row]
            yield sp.csc_matrix((data, self._indices, self._indptr), shape=shape)

    def order(self, perm_c):
        # column j of the natural layout becomes stored column perm_c[j];
        # new index arrays, so matrices already built keep theirs
        counts = np.diff(self._indptr)
        col = np.repeat(np.arange(counts.size), counts)
        inverse = np.empty_like(perm_c)
        inverse[perm_c] = np.arange(perm_c.size)
        start = np.concatenate(([0], np.cumsum(counts[inverse])))
        stored = start[perm_c[col]] + np.arange(col.size) - self._indptr[col]
        indices = np.empty_like(self._indices)
        indices[stored] = self._indices
        self._indices, self._indptr = indices, start.astype(np.int32)
        self._pos, self._pos_c, self._pos_e = (
            stored[p] for p in (self._pos, self._pos_c, self._pos_e)
        )
        self.perm_c = perm_c


class _BorderedLU:
    """The factorization of one bordered matrix, which it keeps (matrix),
    for any number of right-hand sides (solve).  The first one on a CSC
    layout takes SuperLU's default column ordering and hands it to the
    layout (order)."""

    def __init__(self, layout, A):
        self.matrix, self._layout, self._perm = A, layout, layout.perm_c
        try:
            self._lu = (
                spla.splu(A) if self._perm is None else spla.splu(A, permc_spec="NATURAL")
            )
        except RuntimeError as exc:
            raise DegeneracyError(_SINGULAR) from exc
        if self._perm is None and not layout.dense:
            layout.order(self._lu.perm_c)

    def solve(self, rhs):
        """(x, y): the solution, and y with A y = rhs for the factored
        matrix A in its stored column order."""
        try:
            y = self._lu.solve(rhs)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError(_SINGULAR) from exc
        if not np.isfinite(y).all():
            raise DegeneracyError("bordered solve produced non-finite values")
        return (y if self._perm is None else y[self._perm]), y

    @cached_property
    def norm_inf(self):
        """The largest absolute row sum of the factored matrix."""
        A = self.matrix
        if self._layout.dense:
            return np.abs(A).sum(axis=1).max()
        # straight from the CSC arrays; spla.norm would convert to CSR
        return np.bincount(A.indices, np.abs(A.data), minlength=A.shape[0]).max()


def _factor(pencil, lam, Me, c):
    """[[K - lam M, -M e], [c^T, 0]] of each pencil of a stack, given
    Me = M e, on its pattern's _Bordered, which the first call makes.  lam,
    Me and c hold one row per pencil (a pencil of 1-D data is a stack of
    one); the result holds its _BorderedLU or DegeneracyError per pencil."""
    pattern = pencil.pattern
    if pattern.bordered is None:
        pattern.bordered = _Bordered(pattern)
    kml = pencil.stiffness.data - np.asarray(lam)[:, None] * pencil.mass.data
    return pattern.bordered.factor(kml, np.asarray(Me), np.asarray(c))


def _rows(pencil, rows):
    """The pencils at the ascending positions rows of a stack, as a stack:
    the stack itself where rows are all of them."""
    if len(rows) == len(pencil.stiffness.data):
        return pencil
    K, M = pencil.stiffness.data[rows], pencil.mass.data[rows]
    return MatrixPencil(pencil.pattern, K, M, validate=False)


class _Start:
    """A start pair at t = 0 of every homotopy from one pencil (pencil).

    Holds the pair M-normalized (eigenpair) with its residual checked,
    c = M e, and the outcome of factoring the bordered matrix
    [[K0 - lambda0 M0, -M0 e0], [c0^T, 0]]: its LU, which keeps that matrix,
    or the DegeneracyError that refused it, which every derivative at t = 0
    returns.  None of it depends on where a homotopy ends, so the start
    pencil keeps the record (_start_record).  A pair that is no eigenpair of
    the start pencil is the caller's error, raised as DomainError.
    """

    def __init__(self, pencil, pair):
        K0, M0 = pencil.stiffness, pencil.mass
        e = np.asarray(pair.vector, dtype=float)
        e = e / math.sqrt(e @ (M0 @ e))
        lam = float(pair.value)
        self.c = M0 @ e   # also M e: at t = 0 every end's pencil is the start pencil
        res0 = float(_scaled_residuals(
            (K0 @ e - lam * self.c)[None], lam, e[None], K0.norm_inf(), M0.norm_inf()
        )[0])
        if res0 > 1e-8:
            raise DomainError(f"start pair residual {res0:.3e} violates the invariant at t=0")
        self.eigenpair = Eigenpair(lam, e, res0)
        (self.lu,) = _factor(pencil, [lam], self.c[None], self.c[None])


def eigenpair_derivative(derivative, pair, lus):
    """t-derivatives (e', lambda') of an isolated eigenpair, one per end of
    the factorizations lus.

    Differentiating K e = lambda M e and c^T e = 1 gives the bordered system
    [[K - lambda M, -M e], [c^T, 0]] [e'; lambda'] = [-K' e + lambda M' e; 0].
    lus holds per end the _BorderedLU of that matrix, or the CavityError that
    refused it, which is the end's result; derivative is the stack (K', M')
    of the same ends (HomotopyPencil.derivative).  Each solve's residual is
    checked against its factored matrix.  pair is one pair for every end or
    stacks one per end (an Eigenpair of arrays), and the result holds
    (e', lambda') or the DegeneracyError per end.
    """
    n = derivative[0].pattern.n
    E = np.broadcast_to(pair.vector, (len(lus), n))
    lam = np.broadcast_to(pair.value, (len(lus),))
    k_e, m_e = stacked_products(E, *derivative)
    rhs = np.empty((len(lus), n + 1))
    rhs[:, :-1] = -k_e + lam[:, None] * m_e
    rhs[:, -1] = 0.0
    out = []
    for lu, b in zip(lus, rhs):
        if isinstance(lu, CavityError):
            out.append(lu)
            continue
        try:
            x, y = lu.solve(b)
        except DegeneracyError as exc:
            out.append(exc.with_traceback(None))
            continue
        r = lu.matrix @ y - b
        resid = math.sqrt(r @ r)
        scale = lu.norm_inf * math.sqrt(x @ x) + math.sqrt(b @ b) + 1e-300
        if resid > 1e-10 * scale:
            out.append(DegeneracyError(f"bordered solve residual {resid / scale:.3e} too large"))
            continue
        out.append((x[:-1], float(x[-1])))
    return out


def predict(pair, derivative, dt):
    """First-order Taylor step: (e + dt e', lambda + dt lambda').  For a
    pair whose value and vector stack one per row, dt holds one step per
    row."""
    de, dlam = derivative
    return pair.vector + np.expand_dims(dt, -1) * de, pair.value + dt * dlam


def newton_correct(pencil, e0, lam0, c, tol, max_iter):
    """Newton-Raphson on the eigenproblem of each pencil of a stack plus
    c^T e = 1: e0, lam0 and c hold one row or value per pencil, and the
    stack's infinity norms scale its residuals.

    Converged when the scaled eigenproblem residual drops below tol and the
    last eigenvalue update satisfies |dlam| <= tol (1 + |lambda|).  An
    iterate above tol is updated with a fresh factorization of the bordered
    Jacobian at it.  An iterate whose residual already meets tol waits only
    for |dlam| to confirm, and its update reuses the last factorization of
    this call: a simplified-Newton step with the same fixed point, counted
    as an iteration like any other.  Returns per end (Eigenpair,
    iterations, factorizations), or the NewtonFailure of divergence or the
    cap, which carries .iterations for the step-size controller and
    .factorizations.
    """
    # E and lam are this call's own: iterates are updated in place
    E, lam = np.array(e0, dtype=float), np.array(lam0, dtype=float)
    C, size = np.asarray(c), len(E)
    norm_k, norm_m = pencil.stiffness.norm_inf(), pencil.mass.norm_inf()
    out = [None] * size
    factorizations = np.zeros(size, dtype=int)
    lus = [None] * size
    dlam = np.zeros(size)
    finite = np.isfinite(E).all(axis=1) & np.isfinite(lam)
    for i in np.flatnonzero(~finite):
        out[i] = _newton_failure("non-finite initial guess", 0, 0)
    live = np.flatnonzero(finite)
    for it in range(max_iter + 1):
        if not live.size:
            break
        El, lam_l = E[live], lam[live]
        stack = _rows(pencil, live)
        Ke, Me = stacked_products(El, stack.stiffness, stack.mass)
        R = Ke - lam_l[:, None] * Me
        res = _scaled_residuals(R, lam_l, El, norm_k[live], norm_m[live])
        done = res <= tol
        if it:
            done &= np.abs(dlam[live]) <= tol * (1.0 + np.abs(lam_l))
        for k in np.flatnonzero(done):
            i = live[k]
            pair = Eigenpair(float(lam[i]), E[i].copy(), float(res[k]))
            out[i] = (pair, it, int(factorizations[i]))
        left = np.flatnonzero(~done)
        if it == max_iter:
            for i in live[left]:
                out[i] = _newton_failure(
                    f"no convergence within {max_iter} iterations", max_iter, factorizations[i]
                )
            break
        rhs = np.empty((left.size, El.shape[1] + 1))
        rhs[:, :-1] = -R[left]
        # every row of C as given: the dot of a strided row runs another
        # BLAS kernel than that of a contiguous one
        rhs[:, -1] = -(_dots(C, E)[live[left]] - 1.0)
        # an iterate within tol that is left follows an update, so lus
        # holds this call's last factorization of it
        fresh = left[res[left] > tol]
        rows = live[fresh]
        new = _factor(_rows(pencil, rows), lam[rows], Me[fresh], C[rows]) if rows.size else []
        for i, lu in zip(rows, new):
            lus[i] = lu
            factorizations[i] += not isinstance(lu, CavityError)
        solved, X = [], []
        for i, b in zip(live[left], rhs):
            lu = lus[i]
            try:
                if isinstance(lu, CavityError):
                    raise DegeneracyError(str(lu))
                x, _ = lu.solve(b)
            except DegeneracyError as exc:
                out[i] = _newton_failure(f"bordered Jacobian failed: {exc}", it, factorizations[i])
                continue
            solved.append(i)
            X.append(x)
        live = np.array(solved, dtype=np.intp)
        if not live.size:
            break
        X = np.array(X)
        E[live] += X[:, :-1]
        dlam[live] = X[:, -1]
        lam[live] += dlam[live]
        finite = np.isfinite(E[live]).all(axis=1) & np.isfinite(lam[live])
        for i in live[~finite]:
            out[i] = _newton_failure(
                "iteration diverged to non-finite values", it + 1, factorizations[i]
            )
        live = live[finite]
    return out


def _newton_failure(message, iterations, factorizations):
    # Built here, not raised where it is made: a frame that holds the
    # exception it raises forms a reference cycle with its traceback, which
    # keeps the frame's pencil stack alive until the cyclic garbage
    # collector runs.
    failure = NewtonFailure(message)
    failure.iterations = iterations
    failure.factorizations = int(factorizations)
    return failure


def _start_record(pencil, start):
    """The start pencil's record of start (_Start), and whether this call
    made it: the first homotopy from a pencil that tracks a start pair makes
    its record and keeps it in the pencil's starts, keyed by the pair's
    value and vector bytes; every later one reuses it."""
    kept = pencil.starts
    key = (float(start.value), np.asarray(start.vector, dtype=float).tobytes())
    made = key not in kept
    if made:
        kept[key] = _Start(pencil, start)
    return kept[key], made


def track(homotopy, start, cfg=TrackConfig()):
    """Carry one eigenpair from t = 0 to t = 1 along the homotopy: the Tracks
    of its ends, from track_cluster on a cluster of one.  The benchmark
    tracer reads per-track statistics through it."""
    outcomes = track_cluster(homotopy, [start], cfg)
    return Tracks(o if isinstance(o, CavityError) else o[0] for o in outcomes)


def track_cluster(homotopy, starts, cfg=TrackConfig()):
    """Carry one or more eigenpairs from t = 0 to t = 1 with one shared step.

    starts ascend by value.  At each accepted t the loop takes every
    member's derivative; a step to t + dt is then either accepted for all
    members or rejected for all.  One kernel steps every group (_step): a
    lone start is a cluster of one, which skips the Rayleigh-Ritz
    projection and the M-orthogonality check.  Convergence within n1
    iterations grows the step by eta1, a rejection shrinks it by eta2, and
    a step below min_step is a TrackingFailure carrying the first member's
    state at the last accepted t.  Returns per end one TrackState per start, or the
    CavityError that ended the end's track.

    Each end keeps its own t and step.  The ends at one t take their
    derivatives together, and those stepping to one t step together: each
    group's pencils at its t are evaluated once (HomotopyPencil.at) and
    handed to the kernels.  At t = 0 every end starts from the start
    pencil's records (_start_record), whose LUs, or refusals, its
    derivatives there take; the first end's state counts the factorization
    of a record made here.
    """
    n_ends = len(homotopy.ends)
    records, made = zip(*(_start_record(homotopy.start, s) for s in starts))
    states = [[TrackState(0.0, r.eigenpair, r.c, [(0.0, r.eigenpair.value)],
                          n_factorizations=int(new and not b)) for r, new in zip(records, made)]
              for b in range(n_ends)]
    E = np.array([[r.eigenpair.vector] * n_ends for r in records])    # member, end, dof
    lam = np.array([[r.eigenpair.value] * n_ends for r in records])
    C = np.array([[r.c] * n_ends for r in records])
    dE, dlam = np.empty_like(E), np.empty_like(lam)
    t, step = np.zeros(n_ends), np.full(n_ends, min(cfg.initial_step, 1.0))
    failed = [None] * n_ends
    stale = np.ones(n_ends, dtype=bool)   # needs its derivatives at t
    live = np.arange(n_ends)
    while live.size:
        for t_at in sorted(set(t[live[stale[live]]].tolist())):
            rows = live[stale[live] & (t[live] == t_at)]
            derivative = homotopy.derivative(rows)
            pencil = homotopy.at(t_at, rows) if t_at > 0.0 else None
            for i, record in enumerate(records):
                if pencil is None:
                    pair, lus = record.eigenpair, [record.lu] * rows.size
                else:
                    pair = Eigenpair(lam[i, rows], E[i, rows], None)
                    lus = _factor(pencil, pair.value, pencil.mass @ pair.vector, C[i, rows])
                results = eigenpair_derivative(derivative, pair, lus)
                for b, result in zip(rows, results):
                    states[b][i].n_solves += 1
                    states[b][i].n_factorizations += int(t_at > 0.0)
                    if isinstance(result, CavityError):
                        failed[b] = failed[b] or result
                    else:
                        dE[i, b], dlam[i, b] = result
            stale[rows] = False
        live = np.array([b for b in live if failed[b] is None], dtype=np.intp)
        dt = np.minimum(step[live], 1.0 - t[live])
        t_new = t[live] + dt
        for t_to in sorted(set(t_new.tolist())):
            at = t_new == t_to
            rows = live[at]
            accepted = _step(
                homotopy.at(t_to, rows), [states[b] for b in rows],
                (E[:, rows], lam[:, rows], C[:, rows]), (dE[:, rows], dlam[:, rows]), dt[at], cfg,
            )
            for b, acc in zip(rows, accepted):
                if acc is None:
                    step[b] *= cfg.eta2
                    for st in states[b]:
                        st.n_rejects += 1
                    if step[b] < cfg.min_step:
                        failed[b] = TrackingFailure(
                            f"step underflow at t={t[b]:.6f} (step {step[b]:.3e} "
                            f"< min_step {cfg.min_step:.3e})",
                            state=states[b][0],
                        )
                    continue
                members, overlap = acc
                if max(iters for _, _, iters in members) <= cfg.n1:
                    step[b] *= cfg.eta1
                for i, (st, (pair, c, iters)) in enumerate(zip(states[b], members)):
                    st.t, st.eigenpair, st.c = t_to, pair, c
                    st.min_overlap = min(st.min_overlap, overlap)
                    st.newton_log.append(iters)
                    st.trajectory.append((t_to, pair.value))
                    E[i, b], lam[i, b], C[i, b] = pair.vector, pair.value, c
                t[b], stale[b] = t_to, True
        live = np.array([b for b in live if failed[b] is None and t[b] < 1.0], dtype=np.intp)
    return [failed[b] or states[b] for b in range(n_ends)]


def _step(pencil, states, current, derivatives, dt, cfg):
    """One shared step of a group of m starts to the pencils of a stack,
    one per end.

    current and derivatives stack (E, lam, C) and (E', lam') as member,
    end.  Each member's first-order predictor starts Newton: a lone start
    (m = 1) corrects its predicted pair with its previous c; a cluster
    first takes the Rayleigh-Ritz pairs of the pencil on the span of the
    predicted vectors and corrects each Ritz pair u with c = M u.  Adds each
    correction's bordered solves and factorizations to its member's state.
    Returns per end ([(Eigenpair, c, iterations), ...], overlap): the pairs
    ascending by value, M-normalized with c = M e, and each oriented so that
    its cosine e_old^T M e with the member's last vector is positive.  The
    overlap is that cosine for a lone start, and for a cluster the smallest
    principal cosine between the last and the new cluster subspaces.
    Returns None for an end whose correction fails, and for a cluster end
    whose projected pencil is not definite or whose corrected vectors are
    not M-orthogonal (|e_i^T M e_j| > ORTHO_TOL).
    """
    E, lam, C = current
    m = len(E)
    P, theta = predict(Eigenpair(lam, E, None), derivatives, dt)
    P, theta = P.transpose(1, 2, 0), theta.T   # end, dof, member; end, member
    out = [None] * len(states)
    if m == 1:
        alive, U, CU = range(len(states)), P, C.transpose(1, 2, 0)
    else:
        P = np.ascontiguousarray(P)
        KP, MP = (np.stack(products, axis=2) for products in zip(*(
            stacked_products(P[:, :, i], pencil.stiffness, pencil.mass) for i in range(m)
        )))
        PT = np.swapaxes(P, 1, 2)
        ritz = _ritz(PT @ KP, PT @ MP)
        alive = [k for k in range(len(states)) if ritz[k] is not None]
        if not alive:
            return out
        theta = np.array([ritz[k][0] for k in alive])
        Y = np.array([ritz[k][1] for k in alive])
        U, CU = P[alive] @ Y, MP[alive] @ Y
    corrected = [[] for _ in alive]
    for i in range(m):
        at = [a for a in range(len(alive)) if len(corrected[a]) == i]
        if not at:
            break
        rows = [alive[a] for a in at]
        results = newton_correct(
            _rows(pencil, rows), U[at, :, i], theta[at, i], CU[at][:, :, i], cfg.newton_tol, cfg.n2
        )
        for a, k, result in zip(at, rows, results):
            st = states[k][i]
            if isinstance(result, NewtonFailure):
                st.n_solves += result.iterations
                st.n_factorizations += result.factorizations
                continue
            pair, iters, factorizations = result
            st.n_solves += iters
            st.n_factorizations += int(factorizations)
            corrected[a].append((pair, iters))
    done = [a for a in range(len(alive)) if len(corrected[a]) == m]
    if not done:
        return out
    for a in done:
        corrected[a].sort(key=lambda item: item[0].value)
    keep = [alive[a] for a in done]
    M = _rows(pencil, keep).mass
    accepted = [[] for _ in done]
    E_new, C_new = [], []
    for i in range(m):
        V = np.array([corrected[a][i][0].vector for a in done])
        e_i = V / np.sqrt(_dots(V, M @ V))[:, None]
        c_i = M @ e_i
        cosines = _dots(E[i, keep], c_i)
        flip = cosines < 0.0
        e_i[flip], c_i[flip], cosines[flip] = -e_i[flip], -c_i[flip], -cosines[flip]
        E_new.append(e_i)
        C_new.append(c_i)
        for d, a in enumerate(done):
            pair, iters = corrected[a][i]
            accepted[d].append((Eigenpair(pair.value, e_i[d], pair.residual), c_i[d], iters))
    if m > 1:
        E_new, C_new = np.stack(E_new, axis=2), np.stack(C_new, axis=2)
        E_old = np.ascontiguousarray(np.moveaxis(E[:, keep], 0, 2))
        cosines = np.linalg.svd(np.swapaxes(E_old, 1, 2) @ C_new, compute_uv=False).min(axis=1)
    for d, k in enumerate(keep):
        if m == 1 or not _collisions(E_new[d].T @ C_new[d]):
            out[k] = accepted[d], float(cosines[d])
    return out


def _ritz(K, M):
    """Per projected pencil of the stacks K and M, dense_eigh's (values,
    vectors), or None where M is not positive definite."""
    try:
        return list(zip(*dense_eigh(K, M)))
    except np.linalg.LinAlgError:
        out = []
        for k, m in zip(K, M):
            try:
                out.append(dense_eigh(k, m))
            except np.linalg.LinAlgError:
                out.append(None)
        return out


def mixing(homotopy, pairs):
    """For each neighbour pair of start pairs (ascending by value): does its
    first-order 2 x 2 model mix within t in [0, 1]?  One such list per end.

    On the M-normalized start vectors E, the pencil restricted to span E is
    diag(lambda) + t D to first order, D = E^T (K' - lambda-bar M') E with
    lambda-bar the mean of the two values of each entry.  Neighbours a < b
    mix when max(|D_aa - D_bb|, 2 |D_ab|) >= lambda_b - lambda_a: their
    model eigenvalues can meet, or their eigenvectors turn by a large angle.
    """
    ends = np.arange(len(homotopy.ends))
    k_prime, m_prime = homotopy.derivative(ends)
    M0 = homotopy.start.mass
    E = np.column_stack([p.vector / math.sqrt(p.vector @ (M0 @ p.vector)) for p in pairs])
    lam = np.array([p.value for p in pairs])
    KE, ME = (np.stack(products, axis=2) for products in zip(*(
        stacked_products(np.broadcast_to(col, (ends.size, col.size)), k_prime, m_prime)
        for col in E.T
    )))
    D = E.T @ KE - 0.5 * np.add.outer(lam, lam) * (E.T @ ME)
    return [
        [max(abs(d[i, i] - d[i + 1, i + 1]), 2.0 * abs(d[i, i + 1])) >= lam[i + 1] - lam[i]
         for i in range(len(pairs) - 1)]
        for d in D
    ]


def track_modes(homotopy, starts, cfg=TrackConfig(), partner=None):
    """Track several start pairs; neighbours that mix as one cluster.

    Starts are grouped in value order: neighbours whose first-order model
    mixes within the homotopy (see mixing) share a cluster, which
    track_cluster advances as one block; a start in no cluster is tracked
    alone by track.  Identity inside a cluster is value order.  Returns per
    end its states in the order of starts, or the CavityError that ended
    it; a cluster member's state.cluster holds the indices of its cluster's
    starts.  A partner, the next pair of the start pencil above the starts,
    is tracked where it mixes with a start, so that their cluster is not
    cut, and not returned: its bordered solves and factorizations are
    counted with the last start, and its index in a cluster is len(starts).

    The endpoint vectors must be pairwise M-orthogonal (|e_i^T M e_j| <=
    ORTHO_TOL).  Colliding tracks are re-tracked as one cluster with every
    start between them (state.retracked); the work of the first attempt
    stays counted.  If they still collide, TrackingFailure.

    Near-degenerate start values (relative gap below START_GAP_WARN) are
    warned about and flagged.  Those that do not mix are tracked alone with
    one normalization vector each, and their endpoint vectors are
    M-orthogonalized if they still share an eigenvalue.  Such is an exactly
    degenerate pair under a symmetric deformation, like the pillbox's
    m >= 1 pairs on the symmetric disk patch: its members share one
    eigenvalue, the gap between their start values is rounding in the base
    eigensolver, not a discretization split, and each member follows the
    vector the base eigensolver picked for it.

    mixing is evaluated once per end and the ends are grouped by the
    clusters they track, each group tracked together; every end with
    near-degenerate starts warns once.
    """
    pairs = list(starts) + ([partner] if partner is not None else [])
    values = [p.value for p in pairs]
    order = [int(i) for i in np.argsort(values, kind="stable")]
    flags = mixing(homotopy, [pairs[j] for j in order])
    layouts = {}   # cluster layout -> the ends that track it
    for b, mixed in enumerate(flags):
        clusters = [[0]]   # runs of value ranks
        for rank, joined in enumerate(mixed, start=1):
            if joined:
                clusters[-1].append(rank)
            else:
                clusters.append([rank])
        # the partner is tracked only in a cluster with a start
        clusters = [c for c in clusters if len(c) > 1 or order[c[0]] < len(starts)]
        layouts.setdefault(tuple(map(tuple, clusters)), []).append(b)
    results = [[None] * len(pairs) for _ in homotopy.ends]
    for layout, ends in layouts.items():
        clusters = [list(c) for c in layout]
        tracked = sorted(r for c in clusters for r in c)
        flagged = set()
        for grp in group_clusters([values[order[r]] for r in tracked], rtol=START_GAP_WARN):
            if len(grp) > 1:
                flagged.update(order[tracked[i]] for i in grp)
        for _ in ends:
            if flagged:
                warnings.warn(
                    f"{len(flagged)} start eigenvalues are nearly degenerate "
                    f"(relative gap < {START_GAP_WARN:g}); tracked identities inside "
                    "each cluster follow the start vectors of the base eigensolve",
                    stacklevel=2,
                )
        for ranks in clusters:
            _track_members(homotopy, pairs, [order[r] for r in ranks], cfg, results, ends)
        _check_endpoints(homotopy, ends, pairs, order, tracked, clusters, flagged, cfg, results)
    for res in results:
        if isinstance(res, list) and len(pairs) > len(starts):
            spare = res.pop()
            if spare is not None:
                res[-1].n_solves += spare.n_solves
                res[-1].n_factorizations += spare.n_factorizations
    return results


def _check_endpoints(homotopy, ends, pairs, order, tracked, clusters, flagged, cfg, results):
    """The endpoint check of the listed ends, which track the same clusters:
    M-orthogonalize each end's flagged members' vectors that share a value,
    then re-track an end's colliding tracks as one cluster once; a
    collision after that fails the end."""
    layouts = {b: [list(c) for c in clusters] for b in ends}
    for attempt in range(2):
        ends = [b for b in ends if not isinstance(results[b], CavityError)]
        if not ends:
            return
        states = [[results[b][order[r]] for r in tracked] for b in ends]
        for b in ends:
            for j in flagged:
                results[b][j].flagged = True
        if flagged:
            for b, sts in zip(ends, states):
                _reorthogonalize_clusters(sts, homotopy.ends[b].mass)
        E = np.array([[st.eigenpair.vector for st in sts] for sts in states])   # end, track, dof
        M = homotopy.at(1.0, ends).mass
        ME = np.stack([M @ E[:, k] for k in range(len(tracked))], axis=2)
        colliding = [(b, hits) for b, G in zip(ends, E @ ME) if (hits := _collisions(G))]
        if attempt:
            for b, collisions in colliding:
                a, c = (order[tracked[k]] for k in collisions[0])
                results[b] = TrackingFailure(
                    f"tracks {a} and {c} end on one eigenpair after re-tracking"
                )
            return
        for b, collisions in colliding:
            layout, hit = layouts[b], set()
            for a, c in collisions:
                ra, rc = tracked[a], tracked[c]
                first = next(k for k, ranks in enumerate(layout) if ra in ranks)
                last = next(k for k, ranks in enumerate(layout) if rc in ranks)
                layout[first:last + 1] = [sum(layout[first:last + 1], [])]
                hit.update((ra, rc))
            for ranks in layout:
                if hit.intersection(ranks):
                    _track_members(homotopy, pairs, [order[r] for r in ranks], cfg, results, [b])
        ends = [b for b, _ in colliding]


def _track_members(homotopy, pairs, members, cfg, results, ends):
    """Track pairs[members] (ascending by value) at the listed ends into
    results[end][members]; an end that fails takes its error in results
    and is tracked no further."""
    ends = [b for b in ends if not isinstance(results[b], CavityError)]
    if not ends:
        return
    if len(ends) < len(homotopy.ends):
        homotopy = HomotopyPencil(homotopy.start, [homotopy.ends[b] for b in ends])
    if len(members) == 1:
        outcomes = [o if isinstance(o, CavityError) else [o]
                    for o in track(homotopy, pairs[members[0]], cfg)]
    else:
        outcomes = track_cluster(homotopy, [pairs[j] for j in members], cfg)
        for states in outcomes:
            for st in states if isinstance(states, list) else ():
                st.cluster = tuple(members)
    for b, states in zip(ends, outcomes):
        if isinstance(states, CavityError):
            results[b] = states
            continue
        for j, st in zip(members, states):
            old = results[b][j]
            if old is not None:
                st.retracked = True
                st.newton_log[:0] = old.newton_log
                st.n_solves += old.n_solves
                st.n_factorizations += old.n_factorizations
                st.n_rejects += old.n_rejects
            results[b][j] = st


def _collisions(G):
    """Pairs (a, b), a < b, of vectors that are not M-orthogonal,
    |e_a^T M e_b| > ORTHO_TOL, given their M-Gram matrix G."""
    return [(int(a), int(b)) for a, b in zip(*np.nonzero(np.triu(np.abs(G), 1) > ORTHO_TOL))]


def _reorthogonalize_clusters(states, M):
    """M-orthogonalize final vectors of members that still share an eigenvalue."""
    order = np.argsort([s.eigenpair.value for s in states], kind="stable")
    vals = [states[i].eigenpair.value for i in order]
    for grp in group_clusters(vals):
        members = [states[order[i]] for i in grp]
        if len(members) < 2 or not all(m.flagged for m in members):
            continue
        ortho = _m_orthonormalize([st.eigenpair.vector for st in members], M)
        for st, v in zip(members, ortho):
            st.eigenpair = Eigenpair(st.eigenpair.value, v, st.eigenpair.residual)
            st.c = M @ v
