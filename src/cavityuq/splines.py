"""B-spline and NURBS primitives used by the geometry and assembly layers.

Evaluation follows the classical local algorithms: knot-span lookup by
binary search, Cox-de Boor recursion for basis values, and the triangular
table scheme for derivatives.  Only clamped (open) knot vectors are
supported; rational weights enter through control nets in homogeneous form.
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

    @property
    def domain(self):
        return float(self.knots[0]), float(self.knots[-1])

    def find_span(self, u):
        """Index i with knots[i] <= u < knots[i+1] (last nonempty span at the
        right end). Raises DomainError outside the knot domain."""
        lo, hi = self.domain
        if not (lo <= u <= hi):
            raise DomainError(f"parameter {u} outside knot domain [{lo}, {hi}]")
        if u == hi:
            # last nonempty span
            i = self.n_basis - 1
            while self.knots[i] == self.knots[i + 1]:
                i -= 1
            return i
        i = int(np.searchsorted(self.knots, u, side="right")) - 1
        return min(max(i, self.degree), self.n_basis - 1)

    def spans(self):
        """Span indices of the nonzero knot intervals, left to right."""
        out = []
        for a in self.breakpoints[:-1]:
            out.append(self.find_span(float(a)))
        return out


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

    def find_span(self, u):
        return self.kv.find_span(u)

    def eval_basis(self, u):
        """Nonzero basis values at u.

        Returns
        -------
        span : int
            Knot span index; functions span-p .. span are the active ones.
        values : ndarray, shape (p + 1,)
        """
        span = self.kv.find_span(u)
        p = self.degree
        U = self.kv.knots
        values = np.empty(p + 1)
        left = np.empty(p + 1)
        right = np.empty(p + 1)
        values[0] = 1.0
        for j in range(1, p + 1):
            left[j] = u - U[span + 1 - j]
            right[j] = U[span + j] - u
            saved = 0.0
            for r in range(j):
                tmp = values[r] / (right[r + 1] + left[j - r])
                values[r] = saved + right[r + 1] * tmp
                saved = left[j - r] * tmp
            values[j] = saved
        return span, values

    def eval_basis_derivatives(self, u, order):
        """Nonzero basis values and derivatives up to ``order`` at u.

        Returns
        -------
        span : int
        ders : ndarray, shape (order + 1, p + 1)
            Row k holds the k-th derivatives of the active functions.
        """
        p = self.degree
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise DegreeError(f"derivative order must be a nonnegative integer, got {order!r}")
        if order > p:
            raise DegreeError(f"derivative order {order} exceeds the degree {p}")
        span = self.kv.find_span(u)
        U = self.kv.knots
        # triangular table of knot differences and basis values
        ndu = np.empty((p + 1, p + 1))
        left = np.empty(p + 1)
        right = np.empty(p + 1)
        ndu[0, 0] = 1.0
        for j in range(1, p + 1):
            left[j] = u - U[span + 1 - j]
            right[j] = U[span + j] - u
            saved = 0.0
            for r in range(j):
                ndu[j, r] = right[r + 1] + left[j - r]
                tmp = ndu[r, j - 1] / ndu[j, r]
                ndu[r, j] = saved + right[r + 1] * tmp
                saved = left[j - r] * tmp
            ndu[j, j] = saved
        ders = np.zeros((order + 1, p + 1))
        ders[0, :] = ndu[:, p]
        a = np.empty((2, p + 1))
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
                ders[k, r] = d
                s1, s2 = s2, s1
        fac = float(p)
        for k in range(1, order + 1):
            ders[k, :] *= fac
            fac *= p - k
        return span, ders

    def collocation(self, points, order):
        """Dense table of every basis function and its derivatives at points.

        Returns
        -------
        ndarray, shape (order + 1, npoints, n_basis)
            Entry [k, i, j] is the k-th derivative of function j at
            points[i]; each row is :meth:`eval_basis_derivatives` scattered
            onto its span.
        """
        points = np.atleast_1d(np.asarray(points, dtype=float))
        rows = [self.eval_basis_derivatives(float(u), order) for u in points]
        p = self.degree
        table = np.zeros((order + 1, points.size, self.n_basis))
        for i, (span, ders) in enumerate(rows):
            table[:, i, span - p : span + 1] = ders
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


def eval_nurbs(net, bases, u):
    """Evaluate a rational curve or surface point.

    Parameters
    ----------
    net : ControlNet
    bases : BSplineBasis or sequence of BSplineBasis, one per parametric axis
    u : float or sequence of float

    Returns
    -------
    ndarray, shape (dim,)
    """
    if isinstance(bases, BSplineBasis):
        bases = (bases,)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if len(bases) != len(net.shape) or u.size != len(bases):
        raise DomainError("number of bases/parameters does not match the net")
    for b, n in zip(bases, net.shape):
        if b.n_basis != n:
            raise DomainError("basis size does not match the control net")
    hom = net.homogeneous()
    if len(bases) == 1:
        span, vals = bases[0].eval_basis(u[0])
        p = bases[0].degree
        acc = vals @ hom[span - p : span + 1]
    else:
        s1, v1 = bases[0].eval_basis(u[0])
        s2, v2 = bases[1].eval_basis(u[1])
        p1, p2 = bases[0].degree, bases[1].degree
        block = hom[s1 - p1 : s1 + 1, s2 - p2 : s2 + 1]
        acc = np.einsum("i,j,ijk->k", v1, v2, block)
    return acc[:-1] / acc[-1]


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
        span = KnotVector(knots, p).find_span(u)
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
