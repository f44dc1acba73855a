"""Generalized symmetric-definite eigensolvers.

Two interchangeable paths: a dense Cholesky reduction in numpy, used up to
DENSE_CUTOFF unknowns and as the reference, and shift-invert Lanczos on
sparse factorizations above it, which imports scipy.  Both return
M-normalized, sign-fixed eigenpairs in ascending order so downstream
normalization vectors are reproducible.  DENSE_CUTOFF also sets the tier
of the tracker's bordered system (tracking._Bordered); no other module of
the package reads it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IterationLimitError, SolverError

DENSE_CUTOFF = 500
RESIDUAL_TOL = 1e-10   # scaled residual every returned pair must meet
_SEED = 20240817


@dataclass(frozen=True)
class Eigenpair:
    """One generalized eigenpair with its scaled residual.

    residual = ||K e - value M e||_2 / ((||K|| + |value| ||M||) ||e||_2)
    """

    value: float
    vector: np.ndarray
    residual: float


def sign_fix(vector):
    """Flip so the largest-magnitude component is positive (first on ties)."""
    i = int(np.argmax(np.abs(vector)))
    return -vector if vector[i] < 0.0 else vector


def group_clusters(values, rtol=1e-9):
    """Partition ascending values into runs closer than rtol*(1+|v|)."""
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[start] > rtol * (1.0 + abs(values[start])):
            groups.append(range(start, i))
            start = i
    return groups


def _m_orthonormalize(vectors, M):
    # modified Gram-Schmidt in the M inner product
    out = []
    for v in vectors:
        v = v.copy()
        for u in out:
            v -= (u @ (M @ v)) * u
        nrm = float(np.sqrt(v @ (M @ v)))
        if nrm <= 0.0 or not np.isfinite(nrm):
            raise SolverError("degenerate cluster collapsed during re-orthogonalization")
        out.append(v / nrm)
    return out


def _finalize(values, vectors, pencil):
    K, M = pencil.stiffness, pencil.mass
    order = np.argsort(values, kind="stable")
    values = np.asarray(values)[order]
    vectors = [np.asarray(vectors[:, i], dtype=float) for i in order]

    for grp in group_clusters(values):
        if len(grp) > 1:
            ortho = _m_orthonormalize([vectors[i] for i in grp], M)
            ortho = sorted(
                (sign_fix(v) for v in ortho), key=lambda v: tuple(np.round(v, 9))
            )
            for i, v in zip(grp, ortho):
                vectors[i] = v

    norm_k = K.norm_inf()
    norm_m = M.norm_inf()
    pairs = []
    for lam, v in zip(values, vectors):
        v = sign_fix(v / np.sqrt(v @ (M @ v)))
        resid = np.linalg.norm(K @ v - lam * (M @ v))
        resid /= (norm_k + abs(lam) * norm_m) * np.linalg.norm(v)
        if resid > RESIDUAL_TOL:
            raise SolverError(f"eigenpair residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}")
        pairs.append(Eigenpair(float(lam), v, float(resid)))
    return pairs


def dense_eigh(K, M):
    """Eigenvalues, ascending, and M-orthonormal eigenvectors of the dense
    symmetric-definite pencil (K, M): M = L L^T, then numpy's eigh of
    L^-1 K L^-T, symmetrized.  Stacks of pencils give stacks of both, each
    as the pencil alone would.  Raises np.linalg.LinAlgError when an M is
    not positive definite."""
    L_inv = np.linalg.inv(np.linalg.cholesky(M))
    L_inv_t = np.swapaxes(L_inv, -1, -2)
    A = L_inv @ K @ L_inv_t
    w, Y = np.linalg.eigh(0.5 * (A + np.swapaxes(A, -1, -2)))
    return w, L_inv_t @ Y


def _solve_dense(pencil, n_modes):
    # The whole spectrum, not a subset: a subset solve (scipy's
    # la.eigh(K, M, subset_by_index=...)) closed the gap of the criterion-3
    # pillbox's exactly degenerate TE111 pair to 0.0; the pair was then
    # tracked as a cluster, and criterion 4's mean fell to 1.33, below its
    # 1.5 floor.
    try:
        w, E = dense_eigh(pencil.stiffness.toarray(), pencil.mass.toarray())
    except np.linalg.LinAlgError as exc:
        raise SolverError("mass matrix is not positive definite") from exc
    return _finalize(w[:n_modes], E[:, :n_modes], pencil)


def _solve_sparse(pencil, n_modes):
    if n_modes >= pencil.n - 1:
        return _solve_dense(pencil, n_modes)
    import scipy.sparse.linalg as spla

    K, M = pencil.stiffness.tocsr(), pencil.mass.tocsr()
    scale = pencil.stiffness.norm_inf() / pencil.mass.norm_inf()
    delta = 1e-6 * scale + 1e-300
    v0 = np.random.default_rng(_SEED).standard_normal(pencil.n)
    last_exc = None
    for attempt in range(4):
        # a pole just below zero: the pencils are positive semidefinite
        sigma = -delta * (1.0 + 9.0 * attempt)
        try:
            w, E = spla.eigsh(K, k=n_modes, M=M, sigma=sigma, which="LA", v0=v0)
            break
        except spla.ArpackNoConvergence as exc:
            raise IterationLimitError(f"eigensolver did not converge: {exc}") from exc
        except RuntimeError as exc:
            # factorization hit an eigenvalue; perturb the pole and retry
            last_exc = exc
    else:
        raise SolverError("shift-invert factorization failed repeatedly") from last_exc
    return _finalize(w[:n_modes], E[:, :n_modes], pencil)


def solve_smallest(pencil, n_modes, method="auto"):
    """The ``n_modes`` smallest eigenpairs, ascending.

    method: "auto" picks dense below DENSE_CUTOFF unknowns, else sparse;
    "dense" / "sparse" force a path.
    """
    if int(n_modes) != n_modes or n_modes < 1:
        raise DomainError(f"n_modes must be a positive integer, got {n_modes}")
    if n_modes > pencil.n:
        raise DomainError(f"requested {n_modes} modes from a pencil of size {pencil.n}")
    if method == "auto":
        method = "dense" if pencil.n <= DENSE_CUTOFF else "sparse"
    if method == "dense":
        return _solve_dense(pencil, int(n_modes))
    if method == "sparse":
        return _solve_sparse(pencil, int(n_modes))
    raise DomainError(f"unknown method {method!r}")
