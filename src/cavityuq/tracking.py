"""Eigenvalue tracking along matrix homotopies.

One stepping loop advances any number of modes through t in [0, 1] together
(track_cluster): it takes each member's bordered-system derivative at every
accepted t, and a step-size controller driven by the Newton iteration
count sets one shared step: fast convergence grows it, slow or failed
correction rejects the step for every member and shrinks it.  Only the step
itself depends on the number of members.  A lone mode (track) is predicted
to first order and Newton-corrected against the pencil at the new t with
its previous normalization vector.  Near-degenerate modes whose first-order
model mixes within the homotopy (see mixing) form a cluster: each member is
predicted, the Rayleigh-Ritz pairs of the pencil at the new t on the span
of the predicted vectors are Newton-corrected, and the step is accepted only
if every member converges and their vectors stay M-orthogonal.  Inside a
cluster, identity is value order: generic one-parameter symmetric pencils
have avoided crossings, not crossings (von Neumann-Wigner), and a step that
jumps an avoided crossing would swap or merge two separately tracked modes.
An endpoint M-Gram check backs every group of modes (track_modes):
colliding tracks are re-tracked as one cluster, and a collision that
remains is a TrackingFailure.

Every derivative and every Newton iteration above the tolerance factorizes
the bordered system [[K - lambda M, -M e], [c^T, 0]] afresh, with two
exceptions.  The t = 0 end of every homotopy from one pencil is that
pencil, so the start pencil keeps one start record per start pair (_Start,
in MatrixPencil.starts): the pair M-normalized and its residual checked,
c = M e, and the LU of its bordered matrix at t = 0; every homotopy from
the pencil takes its start state and its derivative at t = 0 from there,
and only the back-solve and its residual check run again.  And a Newton
iterate whose residual already meets the tolerance, waiting only for
|dlambda| to confirm, is updated with the last factorization of the same
call (newton_correct).  The infinity norms that scale the Newton residual
are computed once per pencil at t (HomotopyPencil.norms).

Every pencil of a study lives on one sparsity pattern, whose one _Bordered
picks the tier once and builds a new bordered matrix for every
factorization, which its LU keeps (_BorderedLU) with the matrix's infinity
norm once a derivative asks for it.  Every factorization is one spla.splu
call and every back-solve one .solve on its result.  Up to DENSE_CUTOFF
unknowns the matrix is a dense array, and splu is one LAPACK getrf on a
column-major copy of it, kept for one getrs per solve (_DenseLU), through
the OpenBLAS that numpy links; where numpy's build exports no getrf, each
solve is one gesv on the matrix instead, with the same bits.  Above the
cutoff, the matrix is CSC and splu is scipy's SuperLU, which reuses the
column ordering of the pattern's first factorization.
"""

import math
import warnings
from dataclasses import astuple, dataclass, field
from functools import cache, cached_property, partial
from types import SimpleNamespace

import numpy as np

from .eigen import DENSE_CUTOFF, Eigenpair, _m_orthonormalize, dense_eigh, group_clusters
from .errors import (
    DegeneracyError,
    DomainError,
    NewtonFailure,
    TrackingFailure,
)

START_GAP_WARN = 1e-6
ORTHO_TOL = 1e-6   # largest |e_i^T M e_j| of two distinct tracks' vectors


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


def _scaled_residual(r, lam, e, norm_k, norm_m):
    return float(math.sqrt(r @ r) / ((norm_k + abs(lam) * norm_m) * math.sqrt(e @ e)))


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

    factor builds a new matrix on every call.  A dense one is a fresh
    (n + 1)^2 array with the pattern's entries, c and -M e written through
    their flat positions.  A CSC one is fresh data on the layout's index
    arrays: column j < n holds the pattern's column j, rows ascending, then
    row n (c_j); column n holds rows 0..n-1 (-M e), and there is no (n, n)
    entry.  Once the first factorization gives SuperLU's column ordering
    perm_c (order), new index arrays store every later matrix with column j
    at perm_c[j], which splu factors with the natural ordering as the
    default ordering factors the unpermuted matrix; x = y[perm_c].
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
        """The _BorderedLU of a new matrix with K - lam M data kml, M e and c."""
        shape = (self.n + 1, self.n + 1)
        data = np.zeros(shape).reshape(-1) if self.dense else np.empty(self._indices.size)
        data[self._pos] = kml
        data[self._pos_c] = c
        data[self._pos_e] = -Me
        if self.dense:
            return _BorderedLU(self, data.reshape(shape))
        import scipy.sparse as sp

        return _BorderedLU(self, sp.csc_matrix((data, self._indices, self._indptr), shape=shape))

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
        if not np.all(np.isfinite(y)):
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


def _factor(homotopy, t, lam, Me, c):
    """The _BorderedLU of [[K - lam M, -M e], [c^T, 0]] at t, given Me = M e,
    on the homotopy pattern's _Bordered, which the first call makes."""
    pattern, pencil = homotopy.pattern, homotopy.at(t)
    if pattern.bordered is None:
        pattern.bordered = _Bordered(pattern)
    return pattern.bordered.factor(pencil.stiffness.data - lam * pencil.mass.data, Me, c)


class _Start:
    """A start pair at t = 0 of every homotopy from one pencil.

    Holds the pair M-normalized (eigenpair) with its residual checked,
    c = M e, and the LU of the bordered matrix [[K0 - lambda0 M0, -M0 e0],
    [c0^T, 0]], which keeps that matrix.  None of it depends on where a
    homotopy ends, so the start pencil keeps the record (_start_state).
    """

    def __init__(self, homotopy, pair):
        K0, M0 = homotopy.start.stiffness, homotopy.start.mass
        e = np.asarray(pair.vector, dtype=float)
        e = e / math.sqrt(e @ (M0 @ e))
        lam = float(pair.value)
        self.c = M0 @ e   # also M e: at(0) is the start pencil
        res0 = _scaled_residual(K0 @ e - lam * self.c, lam, e, *homotopy.norms(0.0))
        if res0 > 1e-8:
            raise DomainError(f"start pair residual {res0:.3e} violates the invariant at t=0")
        self.eigenpair = Eigenpair(lam, e, res0)
        self.lu = _factor(homotopy, 0.0, lam, self.c, self.c)


def eigenpair_derivative(homotopy, t, pair, c):
    """t-derivatives (e', lambda') of an isolated eigenpair of homotopy.at(t).

    Differentiating K e = lambda M e and c^T e = 1 gives the bordered system
    [[K - lambda M, -M e], [c^T, 0]] [e'; lambda'] = [-K' e + lambda M' e; 0].
    At t = 0, for the pair and c of a start state (_start_state), the start
    pencil's record supplies the factorized matrix; otherwise it is
    factorized here.  Either way the solve's residual is checked against it.
    """
    records = homotopy.start.starts.values() if t == 0.0 else ()
    record = next((r for r in records if r.eigenpair is pair and r.c is c), None)
    lu = record.lu if record else _factor(
        homotopy, t, pair.value, homotopy.at(t).mass @ pair.vector, c
    )
    k_prime, m_prime = homotopy.derivative()
    e, lam = pair.vector, pair.value
    rhs = np.empty(e.size + 1)
    rhs[:-1] = -(k_prime @ e) + lam * (m_prime @ e)
    rhs[-1] = 0.0
    x, y = lu.solve(rhs)
    resid = np.linalg.norm(lu.matrix @ y - rhs)
    scale = lu.norm_inf * np.linalg.norm(x) + np.linalg.norm(rhs) + 1e-300
    if resid > 1e-10 * scale:
        raise DegeneracyError(f"bordered solve residual {resid / scale:.3e} too large")
    return x[:-1], float(x[-1])


def predict(pair, derivative, dt):
    """First-order Taylor step: (e + dt e', lambda + dt lambda')."""
    de, dlam = derivative
    return pair.vector + dt * de, pair.value + dt * dlam


def newton_correct(homotopy, t, e0, lam0, c, tol, max_iter):
    """Newton-Raphson on the eigenproblem of homotopy.at(t) plus c^T e = 1.

    Converged when the scaled eigenproblem residual drops below tol and the
    last eigenvalue update satisfies |dlam| <= tol (1 + |lambda|).  An
    iterate above tol is updated with a fresh factorization of the bordered
    Jacobian at it.  An iterate whose residual already meets tol waits only
    for |dlam| to confirm, and its update reuses the last factorization of
    this call: a simplified-Newton step with the same fixed point, counted
    as an iteration like any other.  Returns (Eigenpair, iterations,
    factorizations); raises NewtonFailure on divergence or cap.  The failure
    carries .iterations for the step-size controller and .factorizations.
    """
    pencil = homotopy.at(t)
    K, M = pencil.stiffness, pencil.mass
    norm_k, norm_m = homotopy.norms(t)
    e = np.asarray(e0, dtype=float).copy()
    lam = float(lam0)
    if not (np.all(np.isfinite(e)) and math.isfinite(lam)):
        raise _newton_failure("non-finite initial guess", 0, 0)
    dlam = None
    lu, factorizations = None, 0
    for it in range(max_iter + 1):
        Me = M @ e
        r = K @ e - lam * Me
        res = _scaled_residual(r, lam, e, norm_k, norm_m)
        if res <= tol and (dlam is None or abs(dlam) <= tol * (1.0 + abs(lam))):
            return Eigenpair(lam, e, res), it, factorizations
        if it == max_iter:
            break
        rhs = np.empty(e.size + 1)
        rhs[:-1] = -r
        rhs[-1] = -(c @ e - 1.0)
        try:
            # an iterate within tol that did not return follows an update,
            # so lu holds this call's last factorization
            if res > tol:
                lu = _factor(homotopy, t, lam, Me, c)
                factorizations += 1
            x, _ = lu.solve(rhs)
        except DegeneracyError as exc:
            raise _newton_failure(
                f"bordered Jacobian failed: {exc}", it, factorizations
            ) from exc
        e += x[:-1]
        dlam = x[-1]
        lam += dlam
        if not (np.all(np.isfinite(e)) and math.isfinite(lam)):
            raise _newton_failure(
                "iteration diverged to non-finite values", it + 1, factorizations
            )
    raise _newton_failure(f"no convergence within {max_iter} iterations", max_iter, factorizations)


def _newton_failure(message, iterations, factorizations):
    # Built here, not bound to a name in newton_correct: a frame that holds
    # the exception it raises forms a reference cycle with its traceback,
    # which keeps the frame's pencil and homotopy alive until the cyclic
    # garbage collector runs.
    failure = NewtonFailure(message)
    failure.iterations = iterations
    failure.factorizations = factorizations
    return failure


def _normalized_accept(M, pair, prev_vector):
    """M-normalize, keep orientation continuous, refresh c = M e."""
    e = pair.vector / math.sqrt(pair.vector @ (M @ pair.vector))
    c = M @ e
    overlap = float(prev_vector @ c)
    if overlap < 0.0:
        e, c, overlap = -e, -c, -overlap
    return Eigenpair(pair.value, e, pair.residual), c, overlap


def _start_state(homotopy, start):
    """The state at t = 0 from the start pencil's record of start.

    The first homotopy from a pencil that tracks a start pair makes its
    record (_Start) and keeps it in the pencil's starts, keyed by the pair's
    value and vector bytes; every later one reuses it.  The state counts the
    record's factorization if it was made here.
    """
    kept = homotopy.start.starts
    key = (float(start.value), np.asarray(start.vector, dtype=float).tobytes())
    made = key not in kept
    if made:
        kept[key] = _Start(homotopy, start)
    record = kept[key]
    return TrackState(
        t=0.0, eigenpair=record.eigenpair, c=record.c,
        trajectory=[(0.0, record.eigenpair.value)], n_factorizations=int(made),
    )


def track(homotopy, start, cfg=TrackConfig()):
    """Carry one eigenpair from t = 0 to t = 1 along the homotopy."""
    return track_cluster(homotopy, [start], cfg)[0]


def track_cluster(homotopy, starts, cfg=TrackConfig()):
    """Carry one or more eigenpairs from t = 0 to t = 1 with one shared step.

    starts ascend by value.  At each accepted t the loop takes every
    member's derivative; a step to t + dt is then either accepted for all
    members or rejected for all.  One start steps alone (_lone_step),
    several as one block (_block_step).  Convergence within n1 iterations
    grows the step by eta1, a rejection shrinks it by eta2, and a step below
    min_step is a TrackingFailure carrying the first member's state at the
    last accepted t.  Returns one TrackState per start.
    """
    states = [_start_state(homotopy, start) for start in starts]
    step_to = _lone_step if len(states) == 1 else _block_step
    t, step = 0.0, min(cfg.initial_step, 1.0)
    derivatives = None
    while t < 1.0:
        if derivatives is None:
            derivatives = []
            for st in states:
                derivatives.append(eigenpair_derivative(homotopy, t, st.eigenpair, st.c))
                st.n_solves += 1
                st.n_factorizations += int(t > 0.0)   # at t = 0 the start record's LU serves
        dt = min(step, 1.0 - t)
        t_new = t + dt
        accepted = step_to(homotopy, t_new, states, derivatives, dt, cfg)
        if accepted is None:
            step *= cfg.eta2
            for st in states:
                st.n_rejects += 1
            if step < cfg.min_step:
                raise TrackingFailure(
                    f"step underflow at t={t:.6f} (step {step:.3e} "
                    f"< min_step {cfg.min_step:.3e})",
                    state=states[0],
                )
            continue
        members, overlap = accepted
        if max(iters for _, _, iters in members) <= cfg.n1:
            step *= cfg.eta1
        for st, (pair, c, iters) in zip(states, members):
            st.t, st.eigenpair, st.c = t_new, pair, c
            st.min_overlap = min(st.min_overlap, overlap)
            st.newton_log.append(iters)
            st.trajectory.append((t_new, pair.value))
        t = t_new
        derivatives = None
    return states


def _correct(homotopy, t_new, st, e, lam, c, cfg):
    """Newton from (e, lam) with normalization vector c for member st:
    (Eigenpair, iterations), or None on failure.  Adds the bordered solves
    and factorizations to st."""
    try:
        pair, iters, factorizations = newton_correct(
            homotopy, t_new, e, lam, c, cfg.newton_tol, cfg.n2
        )
    except NewtonFailure as exc:
        st.n_solves += exc.iterations
        st.n_factorizations += exc.factorizations
        return None
    st.n_solves += iters
    st.n_factorizations += factorizations
    return pair, iters


def _lone_step(homotopy, t_new, states, derivatives, dt, cfg):
    """One step of a lone start to t_new: its first-order predictor, then
    Newton with its previous c.

    Returns ([(Eigenpair, c, iterations)], overlap) as _normalized_accept
    gives them, or None when the correction fails.
    """
    (st,), (derivative,) = states, derivatives
    corrected = _correct(homotopy, t_new, st, *predict(st.eigenpair, derivative, dt), st.c, cfg)
    if corrected is None:
        return None
    pair, iters = corrected
    pair, c, overlap = _normalized_accept(homotopy.at(t_new).mass, pair, st.eigenpair.vector)
    return [(pair, c, iters)], overlap


def _block_step(homotopy, t_new, states, derivatives, dt, cfg):
    """One shared step of a cluster to t_new.

    Each member's first-order predictor, Rayleigh-Ritz on the span of the
    predicted vectors, then Newton from each Ritz pair u with c = M u.
    Returns ([(Eigenpair, c, iterations), ...], overlap): the pairs
    ascending by value, M-normalized and oriented as _normalized_accept
    does against the member's last vector, and the smallest principal
    cosine between the last and the new cluster subspaces.  Returns None
    when the projected pencil is not definite, a correction fails, or two
    corrected vectors are not M-orthogonal (|e_i^T M e_j| > ORTHO_TOL).
    """
    P = np.column_stack([
        predict(st.eigenpair, d, dt)[0] for st, d in zip(states, derivatives)
    ])
    pencil = homotopy.at(t_new)
    MP = pencil.mass @ P
    try:
        theta, Y = dense_eigh(P.T @ (pencil.stiffness @ P), P.T @ MP)
    except np.linalg.LinAlgError:
        return None
    corrected = []
    for st, u, Mu, value in zip(states, (P @ Y).T, (MP @ Y).T, theta):
        member = _correct(homotopy, t_new, st, u, value, Mu, cfg)
        if member is None:
            return None
        corrected.append(member)
    corrected.sort(key=lambda item: item[0].value)
    accepted = []
    for st, (pair, iters) in zip(states, corrected):
        pair, c, _ = _normalized_accept(pencil.mass, pair, st.eigenpair.vector)
        accepted.append((pair, c, iters))
    E = np.column_stack([pair.vector for pair, _, _ in accepted])
    ME = np.column_stack([c for _, c, _ in accepted])
    if _collisions(E, ME):
        return None
    E_old = np.column_stack([st.eigenpair.vector for st in states])
    return accepted, float(np.linalg.svd(E_old.T @ ME, compute_uv=False).min())


def mixing(homotopy, pairs):
    """For each neighbour pair of start pairs (ascending by value): does its
    first-order 2 x 2 model mix within t in [0, 1]?

    On the M-normalized start vectors E, the pencil restricted to span E is
    diag(lambda) + t D to first order, D = E^T (K' - lambda-bar M') E with
    lambda-bar the mean of the two values of each entry.  Neighbours a < b
    mix when max(|D_aa - D_bb|, 2 |D_ab|) >= lambda_b - lambda_a: their
    model eigenvalues can meet, or their eigenvectors turn by a large angle.
    """
    k_prime, m_prime = homotopy.derivative()
    M0 = homotopy.start.mass
    E = np.column_stack([p.vector / math.sqrt(p.vector @ (M0 @ p.vector)) for p in pairs])
    lam = np.array([p.value for p in pairs])
    D = E.T @ (k_prime @ E) - 0.5 * np.add.outer(lam, lam) * (E.T @ (m_prime @ E))
    return [
        max(abs(D[i, i] - D[i + 1, i + 1]), 2.0 * abs(D[i, i + 1])) >= lam[i + 1] - lam[i]
        for i in range(len(pairs) - 1)
    ]


def track_modes(homotopy, starts, cfg=TrackConfig()):
    """Track several start pairs; neighbours that mix as one cluster.

    Starts are grouped in value order: neighbours whose first-order model
    mixes within the homotopy (see mixing) share a cluster, which
    track_cluster advances as one block; a start in no cluster is tracked
    alone by track.  Identity inside a cluster is value order.  Returned
    states are in the order of starts; a cluster member's state.cluster
    holds the indices of its cluster's starts.

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
    """
    values = [p.value for p in starts]
    order = [int(i) for i in np.argsort(values, kind="stable")]
    flagged = set()
    for grp in group_clusters([values[i] for i in order], rtol=START_GAP_WARN):
        if len(grp) > 1:
            flagged.update(order[i] for i in grp)
    if flagged:
        warnings.warn(
            f"{len(flagged)} start eigenvalues are nearly degenerate "
            f"(relative gap < {START_GAP_WARN:g}); tracked identities inside "
            "each cluster follow the start vectors of the base eigensolve",
            stacklevel=2,
        )
    clusters = [[0]]   # runs of value ranks
    for rank, mixed in enumerate(mixing(homotopy, [starts[j] for j in order]), start=1):
        if mixed:
            clusters[-1].append(rank)
        else:
            clusters.append([rank])
    results = [None] * len(starts)
    for ranks in clusters:
        _track_members(homotopy, starts, [order[r] for r in ranks], cfg, results)

    M = homotopy.end.mass
    for attempt in range(2):
        for j in flagged:
            results[j].flagged = True
        _reorthogonalize_clusters(results, M)
        E = np.column_stack([results[j].eigenpair.vector for j in order])
        collisions = _collisions(E, M @ E)
        if not collisions:
            return results
        if attempt:
            a, b = collisions[0]
            raise TrackingFailure(
                f"tracks {order[a]} and {order[b]} end on one eigenpair after re-tracking"
            )
        for a, b in collisions:
            first = next(k for k, ranks in enumerate(clusters) if a in ranks)
            last = next(k for k, ranks in enumerate(clusters) if b in ranks)
            clusters[first:last + 1] = [sum(clusters[first:last + 1], [])]
        hit = {rank for pair in collisions for rank in pair}
        for ranks in clusters:
            if hit.intersection(ranks):
                _track_members(homotopy, starts, [order[r] for r in ranks], cfg, results)
    return results


def _track_members(homotopy, starts, members, cfg, results):
    """Track starts[members] (ascending by value) into results[members]."""
    if len(members) == 1:
        states = [track(homotopy, starts[members[0]], cfg)]
    else:
        states = track_cluster(homotopy, [starts[j] for j in members], cfg)
        for st in states:
            st.cluster = tuple(members)
    for j, st in zip(members, states):
        old = results[j]
        if old is not None:
            st.retracked = True
            st.newton_log[:0] = old.newton_log
            st.n_solves += old.n_solves
            st.n_factorizations += old.n_factorizations
            st.n_rejects += old.n_rejects
        results[j] = st


def _collisions(E, ME):
    """Column pairs (a, b), a < b, of E that are not M-orthogonal:
    |e_a^T M e_b| > ORTHO_TOL, given ME = M E."""
    G = np.abs(E.T @ ME)
    return [(int(a), int(b)) for a, b in zip(*np.nonzero(np.triu(G, 1) > ORTHO_TOL))]


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
