"""Eigenvalue tracking along matrix homotopies.

One tracked mode advances through t in [0, 1] by first-order prediction from
bordered-system derivatives, Newton correction against the pencil at the new
t, and a step-size controller driven by the Newton iteration count: fast
convergence grows the step, slow or failed correction rejects it and shrinks.

Every derivative and Newton iteration factorizes the bordered system
[[K - lambda M, -M e], [c^T, 0]] afresh with sparse LU.  Every pencil of a
study lives on one sparsity pattern, so its pencils at t are refilled on
it (HomotopyPencil.at) and the bordered matrix is the pattern's one CSC
matrix, refilled in place unless an entry is exactly zero
(HomotopyPencil.bordered); each kernel factorizes it before asking for the
next.  The column ordering depends only on the pattern: the first
factorization on a pattern computes SuperLU's default one, and every later
one reuses it with the natural ordering on the column-permuted matrix
(_bordered_solve).  The infinity norms that scale the Newton residual are
computed once per pencil at t (HomotopyPencil.norms), so every track of a
homotopy shares those at t = 0.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .eigen import Eigenpair, _m_orthonormalize, group_clusters
from .errors import (
    DegeneracyError,
    DomainError,
    NewtonFailure,
    TrackingFailure,
)

START_GAP_WARN = 1e-6


@dataclass(frozen=True)
class TrackConfig:
    """Step-size and Newton parameters.

    Convergence in at most n1 iterations grows the next step by eta1; more
    than n2 iterations (or divergence) rejects the step and retries at eta2
    times the size; anything between keeps the step.
    """

    n1: int = 3
    eta1: float = 1.1
    n2: int = 5
    eta2: float = 2.0 / 3.0
    newton_tol: float = 1e-10
    newton_max_iter: int = 8
    min_step: float = 1e-6
    initial_step: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eta2 < 1.0 < self.eta1):
            raise DomainError(f"need 0 < eta2 < 1 < eta1, got {self.eta2}, {self.eta1}")
        if not 0 < self.n1 < self.n2:
            raise DomainError(f"need 0 < n1 < n2, got {self.n1}, {self.n2}")
        if self.min_step <= 0 or self.initial_step <= 0:
            raise DomainError("steps must be positive")
        if self.newton_tol <= 0 or self.newton_max_iter < 1:
            raise DomainError("bad Newton parameters")


@dataclass
class TrackState:
    """Tracker position with its accepted history."""

    t: float
    eigenpair: Eigenpair
    c: np.ndarray
    step: float
    trajectory: list = field(default_factory=list)   # (t, lambda) accepted
    newton_log: list = field(default_factory=list)   # iterations per accepted step
    n_solves: int = 0                                # bordered solves, total
    n_rejects: int = 0
    min_overlap: float = 1.0
    flagged: bool = False                            # degenerate start


def _scaled_residual(r, lam, e, norm_k, norm_m):
    return float(math.sqrt(r @ r) / ((norm_k + abs(lam) * norm_m) * math.sqrt(e @ e)))


def _bordered_solve(A, layout, rhs):
    """Solve a bordered system from HomotopyPencil.bordered by sparse LU.

    A is layout's matrix, or a fresh pruned matrix when layout is None.
    Returns (x, y): the solution, and y with A y = rhs in A's column order.
    The first factorization of a layout's matrix takes SuperLU's default
    column ordering and hands it to the layout, which stores its matrix in
    that order from then on; every later one factors with the natural
    ordering, so x = y[perm_c].  A fresh matrix takes the default ordering.
    """
    perm = None if layout is None else layout.perm_c
    try:
        lu = spla.splu(A) if perm is None else spla.splu(A, permc_spec="NATURAL")
    except RuntimeError as exc:
        raise DegeneracyError(
            "bordered matrix is singular; eigenvalue nearly multiple or "
            "normalization vector orthogonal to the eigenvector"
        ) from exc
    y = lu.solve(rhs)
    if not np.all(np.isfinite(y)):
        raise DegeneracyError("bordered solve produced non-finite values")
    if perm is not None:
        return y[perm], y
    if layout is not None:
        layout.order(lu.perm_c)
    return y, y


def eigenpair_derivative(homotopy, t, pair, c):
    """t-derivatives (e', lambda') of an isolated eigenpair of homotopy.at(t).

    Differentiating K e = lambda M e and c^T e = 1 gives the bordered system
    [[K - lambda M, -M e], [c^T, 0]] [e'; lambda'] = [-K' e + lambda M' e; 0].
    """
    pencil = homotopy.at(t)
    k_prime, m_prime = homotopy.derivative()
    e, lam = pair.vector, pair.value
    rhs = np.empty(e.size + 1)
    rhs[:-1] = -(k_prime @ e) + lam * (m_prime @ e)
    rhs[-1] = 0.0
    A, layout = homotopy.bordered(t, lam, pencil.mass @ e, c)
    x, y = _bordered_solve(A, layout, rhs)
    resid = np.linalg.norm(A @ y - rhs)
    # row-sum norm straight from the CSC arrays; spla.norm would convert to CSR
    norm_a = np.bincount(A.indices, np.abs(A.data), minlength=A.shape[0]).max()
    scale = norm_a * np.linalg.norm(x) + np.linalg.norm(rhs) + 1e-300
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
    last eigenvalue update satisfies |dlam| <= tol (1 + |lambda|).  Returns
    (Eigenpair, iterations); raises NewtonFailure on divergence or cap.
    The failure carries .iterations for the step-size controller.
    """
    pencil = homotopy.at(t)
    K, M = pencil.stiffness, pencil.mass
    norm_k, norm_m = homotopy.norms(t)
    e = np.asarray(e0, dtype=float).copy()
    lam = float(lam0)
    if not (np.all(np.isfinite(e)) and math.isfinite(lam)):
        raise NewtonFailure("non-finite initial guess")
    dlam = None
    for it in range(max_iter + 1):
        Me = M @ e
        r = K @ e - lam * Me
        res = _scaled_residual(r, lam, e, norm_k, norm_m)
        if res <= tol and (dlam is None or abs(dlam) <= tol * (1.0 + abs(lam))):
            return Eigenpair(lam, e, res), it
        if it == max_iter:
            break
        rhs = np.empty(e.size + 1)
        rhs[:-1] = -r
        rhs[-1] = -(c @ e - 1.0)
        try:
            x, _ = _bordered_solve(*homotopy.bordered(t, lam, Me, c), rhs)
        except DegeneracyError as exc:
            raise _newton_failure(f"bordered Jacobian failed: {exc}", it) from exc
        e += x[:-1]
        dlam = x[-1]
        lam += dlam
        if not (np.all(np.isfinite(e)) and math.isfinite(lam)):
            raise _newton_failure("iteration diverged to non-finite values", it + 1)
    raise _newton_failure(f"no convergence within {max_iter} iterations", max_iter)


def _newton_failure(message, iterations):
    # Built here, not bound to a name in newton_correct: a frame that holds
    # the exception it raises forms a reference cycle with its traceback,
    # which keeps the frame's pencil and homotopy alive until the cyclic
    # garbage collector runs.
    failure = NewtonFailure(message)
    failure.iterations = iterations
    return failure


def _normalized_accept(M, pair, prev_vector):
    """M-normalize, keep orientation continuous, refresh c = M e."""
    e = pair.vector / math.sqrt(pair.vector @ (M @ pair.vector))
    c = M @ e
    overlap = float(prev_vector @ c)
    if overlap < 0.0:
        e, c, overlap = -e, -c, -overlap
    return Eigenpair(pair.value, e, pair.residual), c, overlap


def track(homotopy, start, cfg=TrackConfig()):
    """Carry one eigenpair from t = 0 to t = 1 along the homotopy."""
    K0, M0 = homotopy.start.stiffness, homotopy.start.mass
    e = np.asarray(start.vector, dtype=float)
    e = e / math.sqrt(e @ (M0 @ e))
    lam = float(start.value)
    res0 = _scaled_residual(K0 @ e - lam * (M0 @ e), lam, e, *homotopy.norms(0.0))
    if res0 > 1e-8:
        raise DomainError(f"start pair residual {res0:.3e} violates the invariant at t=0")

    state = TrackState(
        t=0.0,
        eigenpair=Eigenpair(lam, e, res0),
        c=M0 @ e,
        step=min(cfg.initial_step, 1.0),
    )
    state.trajectory.append((0.0, lam))

    derivative = None
    while state.t < 1.0:
        if derivative is None:
            derivative = eigenpair_derivative(homotopy, state.t, state.eigenpair, state.c)
            state.n_solves += 1
        dt = min(state.step, 1.0 - state.t)
        t_new = state.t + dt
        e_guess, lam_guess = predict(state.eigenpair, derivative, dt)
        try:
            pair_new, iters = newton_correct(
                homotopy, t_new, e_guess, lam_guess, state.c,
                cfg.newton_tol, min(cfg.newton_max_iter, cfg.n2),
            )
            state.n_solves += iters
            accepted = True
        except NewtonFailure as exc:
            state.n_solves += getattr(exc, "iterations", cfg.n2)
            accepted = False
            iters = None
        if accepted:
            pair_acc, c, overlap = _normalized_accept(
                homotopy.at(t_new).mass, pair_new, state.eigenpair.vector
            )
            state.t = t_new
            state.eigenpair = pair_acc
            state.c = c
            state.min_overlap = min(state.min_overlap, overlap)
            state.newton_log.append(iters)
            state.trajectory.append((t_new, pair_acc.value))
            derivative = None
            if iters <= cfg.n1:
                state.step *= cfg.eta1
        else:
            state.n_rejects += 1
            state.step *= cfg.eta2
            if state.step < cfg.min_step:
                raise TrackingFailure(
                    f"step underflow at t={state.t:.6f} (step {state.step:.3e} "
                    f"< min_step {cfg.min_step:.3e})",
                    state=state,
                )
    return state


def track_modes(homotopy, starts, cfg=TrackConfig()):
    """Track several start pairs independently; flag degenerate clusters.

    Near-degenerate start values (relative gap below 1e-6) violate the
    isolated-mode assumption; they are tracked anyway with one normalization
    vector per member, relying on the discretization split, and flagged.
    """
    values = [p.value for p in starts]
    order = np.argsort(values, kind="stable")
    flagged = set()
    for grp in group_clusters([values[i] for i in order], rtol=START_GAP_WARN):
        if len(grp) > 1:
            flagged.update(int(order[i]) for i in grp)
    if flagged:
        warnings.warn(
            f"{len(flagged)} start eigenvalues are nearly degenerate "
            f"(relative gap < {START_GAP_WARN:g}); tracked identities inside "
            "each cluster follow the discretization split",
            stacklevel=2,
        )
    results = []
    for j, start in enumerate(starts):
        st = track(homotopy, start, cfg)
        st.flagged = j in flagged
        results.append(st)
    _reorthogonalize_clusters(results, homotopy.end.mass)
    return results


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

