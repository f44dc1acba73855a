"""B-spline and NURBS primitives used by the geometry and assembly layers.

Evaluation follows the classical local algorithms: knot-span lookup by
binary search and the triangular table scheme for basis values and their
derivatives, both run over whole arrays of points.  Only clamped (open)
knot vectors are supported; rational weights enter through control nets in
homogeneous form.
"""

import numpy as np

from .errors import DegreeError, DomainError


class KnotVector:
    """A validated clamped knot vector.

    Parameters
    ----------
    knots : array_like
        Nondecreasing knot values; the first and last knot must each repeat
        degree + 1 times and interior multiplicities may not exceed degree.
    degree : int
        Polynomial degree p >= 0.
    """

    def __init__(self, knots, degree):
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
            raise DomainError(f"degree must be a nonnegative integer, got {degree!r}")
        knots = np.asarray(knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2 * (degree + 1):
            raise DomainError(
                f"need at least {2 * (degree + 1)} knots for degree {degree}, "
                f"got {knots.size}"
            )
        if np.any(np.diff(knots) < 0.0):
            raise DomainError("knots must be nondecreasing")
        p = degree
        if knots[0] != knots[p] or knots[-1] != knots[-1 - p]:
            raise DomainError("knot vector must be clamped (end multiplicity p + 1)")
        interior = knots[(knots > knots[0]) & (knots < knots[-1])]
        if interior.size:
            _, counts = np.unique(interior, return_counts=True)
            if counts.max() > p:
                raise DomainError("interior knot multiplicity exceeds the degree")
        self.knots = knots
        self.degree = degree
        self.n_basis = knots.size - degree - 1
        # breakpoints of the nonzero spans
        self.breakpoints = np.unique(knots)
        # span of the right end: the last nonempty one
        n = self.n_basis
        self._last_span = int(np.flatnonzero(knots[:n] < knots[1 : n + 1])[-1])

    @property
    def domain(self):
        return float(self.knots[0]), float(self.knots[-1])

    def find_span(self, u):
        """Indices i with knots[i] <= u < knots[i+1], elementwise over an array
        of parameters (last nonempty span at the right end). Raises
        DomainError if any parameter lies outside the knot domain."""
        u = np.asarray(u, dtype=float)
        lo, hi = self.domain
        outside = ~((lo <= u) & (u <= hi))
        if outside.any():
            raise DomainError(f"parameter {u[outside].flat[0]} outside knot domain [{lo}, {hi}]")
        # below hi, clamping puts the span in [degree, n_basis - 1]
        return np.where(u < hi, np.searchsorted(self.knots, u, side="right") - 1, self._last_span)


class BSplineBasis:
    """B-spline basis over a clamped knot vector.

    Attributes
    ----------
    kv : KnotVector
    degree : int
    n_basis : int
    """

    def __init__(self, knots, degree):
        self.kv = knots if isinstance(knots, KnotVector) else KnotVector(knots, degree)
        if self.kv.degree != degree:
            raise DomainError("degree disagrees with the knot vector")
        self.degree = degree
        self.n_basis = self.kv.n_basis

    @property
    def knots(self):
        return self.kv.knots

    def eval_basis_derivatives(self, points, order):
        """Nonzero basis values and derivatives up to ``order`` at many points.

        Algorithms A2.2/A2.3 of Piegl & Tiller, run over an array of points
        with the arithmetic of the scalar recurrence for each one.

        Returns
        -------
        spans : ndarray of int, shape (npoints,)
            Knot span of each point; functions span-p .. span are active.
        ders : ndarray, shape (order + 1, npoints, p + 1)
            Entry [k, i, r] is the k-th derivative of active function r at
            points[i].
        """
        p = self.degree
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise DegreeError(f"derivative order must be a nonnegative integer, got {order!r}")
        if order > p:
            raise DegreeError(f"derivative order {order} exceeds the degree {p}")
        u = np.atleast_1d(np.asarray(points, dtype=float))
        spans = self.kv.find_span(u)
        U = self.kv.knots
        # triangular table of knot differences and basis values, per point
        ndu = np.empty((p + 1, p + 1, u.size))
        left = np.empty((p + 1, u.size))
        right = np.empty((p + 1, u.size))
        ndu[0, 0] = 1.0
        for j in range(1, p + 1):
            left[j] = u - U[spans + 1 - j]
            right[j] = U[spans + j] - u
            saved = 0.0
            for r in range(j):
                ndu[j, r] = right[r + 1] + left[j - r]
                tmp = ndu[r, j - 1] / ndu[j, r]
                ndu[r, j] = saved + right[r + 1] * tmp
                saved = left[j - r] * tmp
            ndu[j, j] = saved
        ders = np.zeros((order + 1, u.size, p + 1))
        ders[0] = ndu[:, p].T
        a = np.empty((2, p + 1, u.size))
        for r in range(p + 1):
            s1, s2 = 0, 1
            a[0, 0] = 1.0
            for k in range(1, order + 1):
                d = 0.0
                rk, pk = r - k, p - k
                if r >= k:
                    a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                    d = a[s2, 0] * ndu[rk, pk]
                j1 = 1 if rk >= -1 else -rk
                j2 = k - 1 if r - 1 <= pk else p - r
                for j in range(j1, j2 + 1):
                    a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                    d += a[s2, j] * ndu[rk + j, pk]
                if r <= pk:
                    a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                    d += a[s2, k] * ndu[r, pk]
                ders[k, :, r] = d
                s1, s2 = s2, s1
        fac = float(p)
        for k in range(1, order + 1):
            ders[k] *= fac
            fac *= p - k
        return spans, ders

    def collocation(self, points, order):
        """Dense table of every basis function and its derivatives at points.

        Returns
        -------
        ndarray, shape (order + 1, npoints, n_basis)
            Entry [k, i, j] is the k-th derivative of function j at
            points[i]; each row is :meth:`eval_basis_derivatives` scattered
            onto its span.
        """
        spans, ders = self.eval_basis_derivatives(points, order)
        p = self.degree
        table = np.zeros((order + 1, spans.size, self.n_basis))
        cols = spans[:, None] - p + np.arange(p + 1)
        table[:, np.arange(spans.size)[:, None], cols] = ders
        return table


def uniform_open_knots(degree, n_elements, domain=(0.0, 1.0)):
    """Clamped knot vector with ``n_elements`` uniform spans."""
    if n_elements < 1:
        raise DomainError(f"need at least one element, got {n_elements}")
    a, b = domain
    interior = np.linspace(a, b, n_elements + 1)[1:-1]
    return KnotVector(
        np.concatenate([np.full(degree + 1, a), interior, np.full(degree + 1, b)]),
        degree,
    )


class ControlNet:
    """Control points with rational weights, for a curve or tensor surface.

    ``points`` has shape (n1, dim) for a curve or (n1, n2, dim) for a
    surface; ``weights`` matches the leading shape and defaults to 1.
    """

    def __init__(self, points, weights=None):
        points = np.asarray(points, dtype=float)
        if points.ndim not in (2, 3):
            raise DomainError(f"control points must be 2-D or 3-D, got shape {points.shape}")
        if weights is None:
            weights = np.ones(points.shape[:-1])
        weights = np.asarray(weights, dtype=float)
        if weights.shape != points.shape[:-1]:
            raise DomainError(
                f"weight shape {weights.shape} does not match net shape {points.shape[:-1]}"
            )
        if np.any(weights <= 0.0):
            raise DomainError("all weights must be positive")
        self.points = points
        self.weights = weights

    @property
    def shape(self):
        return self.points.shape[:-1]

    @property
    def dim(self):
        return self.points.shape[-1]

    def homogeneous(self):
        """(w*x, w) coordinates, trailing size dim + 1."""
        w = self.weights[..., None]
        return np.concatenate([self.points * w, w], axis=-1)


def insert_knots_homogeneous(kv, coefs, new_knots):
    """Insert knots into a clamped vector, updating homogeneous coefficients.

    Standard single-knot insertion applied repeatedly; the represented curve
    is unchanged.  ``coefs`` has shape (n_basis, k).

    Returns (KnotVector, ndarray) for the refined representation.
    """
    p = kv.degree
    knots = kv.knots.copy()
    coefs = np.asarray(coefs, dtype=float).copy()
    lo, hi = kv.domain
    for u in sorted(float(x) for x in np.atleast_1d(new_knots)):
        if not (lo < u < hi):
            raise DomainError(f"new knot {u} must lie strictly inside ({lo}, {hi})")
        span = int(KnotVector(knots, p).find_span(u))
        new_coefs = np.empty((coefs.shape[0] + 1, coefs.shape[1]))
        new_coefs[: span - p + 1] = coefs[: span - p + 1]
        new_coefs[span + 1 :] = coefs[span:]
        for i in range(span - p + 1, span + 1):
            denom = knots[i + p] - knots[i]
            alpha = (u - knots[i]) / denom if denom > 0.0 else 0.0
            new_coefs[i] = alpha * coefs[i] + (1.0 - alpha) * coefs[i - 1]
        knots = np.insert(knots, span + 1, u)
        coefs = new_coefs
    return KnotVector(knots, p), coefs
