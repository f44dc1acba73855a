"""Exact NURBS patches and deformation fields on them.

The core object is a tensor-product rational patch mapping the unit square
to a planar domain.  The disk patch is the classical nine-point biquadratic
construction whose boundary reproduces the circle exactly; its four
parametric corners are rank deficient, which is tolerated because assembly
only ever evaluates at interior Gauss points.

Deformations displace control points.  A deformation model carries a mean
displacement field plus one field per retained random variable; the fields
live on the same basis as the geometry map, so deformed geometry stays a
NURBS patch with unchanged weights.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InterpolationError,
    InvalidDeformationError,
    SingularityError,
)
from .splines import BSplineBasis, ControlNet, KnotVector, insert_knots_homogeneous

_CORNERS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


class GeometryMap:
    """Rational tensor-product map from the unit square to the plane.

    Parameters
    ----------
    bases : (BSplineBasis, BSplineBasis)
    net : ControlNet with 2-D points, shape matching the bases
    validate : bool
        Probe the Jacobian determinant at interior points and refuse maps
        that are degenerate or orientation reversing away from the corners.
    """

    def __init__(self, bases, net, validate=True):
        if len(bases) != 2 or len(net.shape) != 2 or net.dim != 2:
            raise DomainError("geometry map needs two bases and a 2-D surface net")
        for b, n in zip(bases, net.shape):
            if b.n_basis != n:
                raise DomainError("basis size does not match the control net")
        self.bases = tuple(bases)
        self.net = net
        scale = float(np.ptp(net.points.reshape(-1, 2), axis=0).max())
        self._det_scale = max(scale * scale, 1e-30)
        self.degenerate_corners = ()   # none marked while probing them
        _, J = self.jacobian_grid((0.0, 1.0), (0.0, 1.0))
        corner_det = _det(J)
        self.degenerate_corners = tuple(
            c for c in _CORNERS
            if abs(corner_det[int(c[0]), int(c[1])]) < 1e-12 * self._det_scale
        )
        if validate:
            bad = self._probe_min_det()
            if bad <= 0.0:
                raise InvalidDeformationError(
                    f"Jacobian determinant {bad:.3e} is not positive at an "
                    "interior probe point"
                )

    # -- evaluation -----------------------------------------------------

    def _homogeneous_ders(self, uv):
        """Value and first parametric derivatives of (sum w P B, sum w B) at
        parameter points uv, shape (n, 2); each has shape (n, 3).

        One kernel call per direction; each point is contracted on its own
        active block of the homogeneous net.
        """
        bu, bv = self.bases
        pu, pv = bu.degree, bv.degree
        su, du = bu.eval_basis_derivatives(uv[:, 0], 1)
        sv, dv = bv.eval_basis_derivatives(uv[:, 1], 1)
        hom = self.net.homogeneous()
        out = np.empty((3, len(uv), hom.shape[-1]))
        for n, (a, b) in enumerate(zip(su, sv)):
            block = hom[a - pu : a + 1, b - pv : b + 1]
            out[0, n] = np.einsum("i,j,ijk->k", du[0, n], dv[0, n], block)
            out[1, n] = np.einsum("i,j,ijk->k", du[1, n], dv[0, n], block)
            out[2, n] = np.einsum("i,j,ijk->k", du[0, n], dv[1, n], block)
        return out

    def map_point(self, uv):
        """Physical point of one parameter point, or of each row of an
        (n, 2) array of them."""
        uv = np.asarray(uv, dtype=float)
        H = self._homogeneous_ders(uv.reshape(-1, 2))[0]
        return (H[:, :2] / H[:, 2:]).reshape(uv.shape)

    def map_and_jacobian(self, uv):
        """Physical point and 2x2 Jacobian dF/d(u, v) at a parameter point.

        Raises SingularityError at a marked degenerate corner.
        """
        for c in self.degenerate_corners:
            if abs(uv[0] - c[0]) < 1e-13 and abs(uv[1] - c[1]) < 1e-13:
                raise SingularityError(f"map is rank deficient at corner {c}")
        H, Hu, Hv = self._homogeneous_ders(np.array([uv], dtype=float))[:, 0]
        w = H[2]
        x = H[:2] / w
        J = np.empty((2, 2))
        J[:, 0] = (Hu[:2] - x * Hu[2]) / w
        J[:, 1] = (Hv[:2] - x * Hv[2]) / w
        return x, J

    def jacobian_grid(self, us, vs):
        """Physical points and Jacobians on the tensor grid us x vs.

        A deformation only moves control points, so every value is one
        contraction of the two per-direction basis tables with the
        homogeneous net.

        Returns
        -------
        x : ndarray, shape (len(us), len(vs), 2)
        J : ndarray, shape (len(us), len(vs), 2, 2)
            J[i, j] is dF/d(u, v) at (us[i], vs[j]).

        Raises SingularityError when the grid holds a marked degenerate corner.
        """
        us = np.atleast_1d(np.asarray(us, dtype=float))
        vs = np.atleast_1d(np.asarray(vs, dtype=float))
        for c in self.degenerate_corners:
            if np.any(np.abs(us - c[0]) < 1e-13) and np.any(np.abs(vs - c[1]) < 1e-13):
                raise SingularityError(f"map is rank deficient at corner {c}")
        tu = self.bases[0].collocation(us, 1)
        tv = self.bases[1].collocation(vs, 1)
        hom = self.net.homogeneous()
        n1, n2, k = hom.shape
        # contract u first, then v: H[i, j] = sum_ab tu[i, a] tv[j, b] hom[a, b]
        h0, h1 = (tu @ hom.reshape(n1, -1)).reshape(2, us.size, n2, k)
        H, Hu, Hv = tv[0] @ h0, tv[0] @ h1, tv[1] @ h0
        w = H[..., 2:]
        x = H[..., :2] / w
        J = np.stack(
            [(Hu[..., :2] - x * Hu[..., 2:]) / w, (Hv[..., :2] - x * Hv[..., 2:]) / w], axis=-1
        )
        return x, J

    def _probe_min_det(self, per_span=6):
        us, _ = _gauss_rule_on(self.bases[0].kv, per_span)
        vs, _ = _gauss_rule_on(self.bases[1].kv, per_span)
        _, J = self.jacobian_grid(us, vs)
        return float(_det(J).min())

    # -- derived quantities ----------------------------------------------

    def area(self, per_span=48):
        """Domain area by Gauss quadrature of |det J| (per_span points per
        knot span per direction; the integrand is smooth, so this converges
        exponentially)."""
        us, wu = _gauss_rule_on(self.bases[0].kv, per_span)
        vs, wv = _gauss_rule_on(self.bases[1].kv, per_span)
        _, J = self.jacobian_grid(us, vs)
        return float(wu @ np.abs(_det(J)) @ wv)

    def boundary_ring(self):
        """Control-point indices on the patch boundary, ordered cyclically."""
        n1, n2 = self.net.shape
        ring = [(i, 0) for i in range(n1)]
        ring += [(n1 - 1, j) for j in range(1, n2)]
        ring += [(i, n2 - 1) for i in range(n1 - 2, -1, -1)]
        ring += [(0, j) for j in range(n2 - 2, 0, -1)]
        return ring


def _det(J):
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


def _gauss_rule_on(kv, per_span):
    """Gauss-Legendre nodes and weights on every knot span, left to right."""
    x, w = np.polynomial.legendre.leggauss(per_span)
    a, b = kv.breakpoints[:-1, None], kv.breakpoints[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), (0.5 * (b - a) * w).ravel()


def build_disk_patch(radius):
    """Exact disk of given radius as a single biquadratic rational patch.

    Nine control points: the four corner points sit on the circle diagonals,
    the four edge midpoints lie outside at distance radius * sqrt(2), and the
    center carries weight 1/2.  Each patch edge is an exact quarter arc; the
    four parametric corners are rank deficient.
    """
    if radius <= 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    a = radius / math.sqrt(2.0)
    b = radius * math.sqrt(2.0)
    s = math.sqrt(0.5)
    pts = np.array(
        [
            [[-a, -a], [-b, 0.0], [-a, a]],
            [[0.0, -b], [0.0, 0.0], [0.0, b]],
            [[a, -a], [b, 0.0], [a, a]],
        ]
    )
    wts = np.array([[1.0, s, 1.0], [s, 0.5, s], [1.0, s, 1.0]])
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    basis = BSplineBasis(kv, 2)
    return GeometryMap((basis, BSplineBasis(kv, 2)), ControlNet(pts, wts))


def build_rectangle_patch(lx, ly, origin=(0.0, 0.0)):
    """Axis-aligned rectangle as a bilinear patch (identity-like map)."""
    if lx <= 0.0 or ly <= 0.0:
        raise DomainError(f"side lengths must be positive, got {lx}, {ly}")
    x0, y0 = origin
    pts = np.array(
        [
            [[x0, y0], [x0, y0 + ly]],
            [[x0 + lx, y0], [x0 + lx, y0 + ly]],
        ]
    )
    kv = KnotVector([0, 0, 1, 1], 1)
    basis = BSplineBasis(kv, 1)
    return GeometryMap((basis, BSplineBasis(kv, 1)), ControlNet(pts))


def unit_square_patch():
    return build_rectangle_patch(1.0, 1.0)


def refine_patch(geom, levels=1):
    """Uniformly h-refine a patch by knot midpoint insertion.

    The represented surface is unchanged (knot insertion is exact), so a
    refined disk is still an exact disk, just with a denser control net.
    """
    if levels < 0:
        raise DomainError(f"levels must be >= 0, got {levels}")
    bases = list(geom.bases)
    hom = geom.net.homogeneous()
    for _ in range(levels):
        for axis in (0, 1):
            kv = bases[axis].kv
            mids = 0.5 * (kv.breakpoints[:-1] + kv.breakpoints[1:])
            moved = np.moveaxis(hom, axis, 0)
            lead = moved.shape[0]
            flat = moved.reshape(lead, -1)
            new_kv, flat2 = insert_knots_homogeneous(kv, flat, mids)
            moved2 = flat2.reshape((flat2.shape[0],) + moved.shape[1:])
            hom = np.moveaxis(moved2, 0, axis)
            bases[axis] = BSplineBasis(new_kv, new_kv.degree)
    w = hom[..., -1]
    net = ControlNet(hom[..., :-1] / w[..., None], w)
    return GeometryMap(tuple(bases), net)


# -- deformation ---------------------------------------------------------


@dataclass
class DeformationModel:
    """Mean plus per-variable control-point displacement fields."""

    base: GeometryMap
    mean_field: np.ndarray          # (n1, n2, 2)
    mode_fields: np.ndarray         # (n_modes, n1, n2, 2)

    def __post_init__(self):
        shape = self.base.net.points.shape
        if self.mean_field.shape != shape:
            raise DomainError("mean field shape does not match the control net")
        if self.mode_fields.ndim != 4 or self.mode_fields.shape[1:] != shape:
            raise DomainError("mode field shape does not match the control net")

    @property
    def n_modes(self):
        return self.mode_fields.shape[0]


def deform(model, delta):
    """Geometry at a parameter point: base + mean + sum_j delta_j * mode_j.

    Raises InvalidDeformationError when the deformed Jacobian determinant is
    not positive at the interior probe points.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (model.n_modes,):
        raise DomainError(
            f"expected {model.n_modes} deformation parameters, got shape {delta.shape}"
        )
    pts = (
        model.base.net.points
        + model.mean_field
        + np.tensordot(delta, model.mode_fields, axes=1)
    )
    net = ControlNet(pts, model.base.net.weights.copy())
    return GeometryMap(model.base.bases, net, validate=True)


class BoundarySampler:
    """Geometric stations on the patch boundary circle.

    ``kind='radial'``: one scalar per station, displacing along the outward
    radial direction.  ``kind='xy'``: an interleaved (x, y) displacement
    pair per station.  ``dimension`` is the length of the physical vector a
    reduced model must supply.
    """

    def __init__(self, angles, kind="xy"):
        self.angles = np.asarray(angles, dtype=float)
        if self.angles.ndim != 1 or self.angles.size == 0:
            raise DomainError("need a 1-D, nonempty array of station angles")
        if kind not in ("radial", "xy"):
            raise DomainError(f"kind must be 'radial' or 'xy', got {kind!r}")
        self.kind = kind

    @property
    def n_stations(self):
        return self.angles.size

    @property
    def dimension(self):
        return self.n_stations * (2 if self.kind == "xy" else 1)

    def station_displacements(self, values):
        """Physical vector -> (n_stations, 2) displacement vectors."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.dimension,):
            raise DomainError(
                f"expected a vector of length {self.dimension}, got {values.shape}"
            )
        if self.kind == "xy":
            return values.reshape(self.n_stations, 2)
        radial = np.column_stack([np.cos(self.angles), np.sin(self.angles)])
        return values[:, None] * radial


def _edge_point(s, edge):
    if edge == "bottom":
        return (s, 0.0)
    if edge == "right":
        return (1.0, s)
    if edge == "top":
        return (1.0 - s, 1.0)
    return (0.0, 1.0 - s)


def locate_boundary_parameters(geom, angles):
    """Parametric boundary points of the disk patch at physical angles.

    The boundary consists of four monotone quarter arcs; each angle is
    bisected on the matching arc, all angles in one batch per step.
    """
    quarter = 0.25 * math.pi
    edges, thetas = [], []
    for angle in angles:
        theta = math.atan2(math.sin(angle), math.cos(angle))  # wrap to (-pi, pi]
        # each edge covers 90 degrees; s grows with the angle on every edge
        # once top/left are traversed in reverse
        if -3 * quarter <= theta <= -quarter:
            edge = "bottom"
        elif -quarter <= theta <= quarter:
            edge = "right"
        elif quarter <= theta <= 3 * quarter:
            edge = "top"
        else:
            edge = "left"
            if theta < 0.0:
                theta += 2.0 * math.pi
        edges.append(edge)
        thetas.append(theta)

    lo, hi = [0.0] * len(edges), [1.0] * len(edges)
    for _ in range(60):
        mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
        x = geom.map_point([_edge_point(s, e) for s, e in zip(mid, edges)])
        for k, edge in enumerate(edges):
            a = math.atan2(x[k, 1], x[k, 0])
            if edge == "left" and a < 0.0:
                a += 2.0 * math.pi
            if a < thetas[k]:
                lo[k] = mid[k]
            else:
                hi[k] = mid[k]
    return [_edge_point(0.5 * (a + b), e) for a, b, e in zip(lo, hi, edges)]


def _ring_interpolation_matrix(geom, params):
    """Rows: rational basis values of the boundary-ring functions at the
    given parametric boundary points."""
    ring = geom.boundary_ring()
    us, vs = np.asarray(params, dtype=float).T
    tu = geom.bases[0].collocation(us, 0)[0]
    tv = geom.bases[1].collocation(vs, 0)[0]
    vals = tu[:, :, None] * tv[:, None, :] * geom.net.weights
    vals /= vals.sum(axis=(1, 2))[:, None, None]
    i, j = np.array(ring).T
    return vals[:, i, j], ring


def _minimal_curvature_solve(A, rhs):
    """Interpolate exactly while minimizing the cyclic second difference of
    the ring values (ties in the underdetermined system are broken by the
    smoothest solution; rigid translations are reproduced exactly)."""
    n_cond, n_ring = A.shape
    if n_cond > n_ring:
        raise InterpolationError(
            f"{n_cond} interpolation conditions exceed the {n_ring} boundary "
            "control points; refine the patch"
        )
    L = -2.0 * np.eye(n_ring)
    idx = np.arange(n_ring)
    L[idx, (idx + 1) % n_ring] = 1.0
    L[idx, (idx - 1) % n_ring] = 1.0
    kkt = np.zeros((n_ring + n_cond, n_ring + n_cond))
    kkt[:n_ring, :n_ring] = 2.0 * L.T @ L
    kkt[:n_ring, n_ring:] = A.T
    kkt[n_ring:, :n_ring] = A
    full_rhs = np.zeros((n_ring + n_cond,) + rhs.shape[1:])
    full_rhs[n_ring:] = rhs
    try:
        sol = np.linalg.solve(kkt, full_rhs)
    except np.linalg.LinAlgError as exc:
        raise InterpolationError(f"singular boundary interpolation system: {exc}") from exc
    d = sol[:n_ring]
    resid = np.abs(A @ d - rhs).max()
    scale = max(1.0, np.abs(rhs).max())
    if resid > 1e-8 * scale:
        raise InterpolationError(f"boundary interpolation residual {resid:.3e}")
    return d


def _field_from_station_values(geom, A, ring, disp):
    """Control-point displacement field whose boundary trace interpolates
    the station displacement vectors; interior points follow the ring mean."""
    d = _minimal_curvature_solve(A, disp)   # (n_ring, 2)
    field = np.zeros(geom.net.points.shape)
    on_ring = np.zeros(geom.net.shape, dtype=bool)
    for (i, j), val in zip(ring, d):
        field[i, j] = val
        on_ring[i, j] = True
    interior_fill = d.mean(axis=0)
    field[~on_ring] = interior_fill
    return field


def deformation_from_kl(kl, base, sampler):
    """Deformation fields interpolating a reduced model's station data.

    ``kl`` needs ``mean`` (physical vector) and ``scaled_modes`` (columns
    are per-variable station patterns).  Every field is expressed on the
    geometry map's own basis: the returned model displaces control points,
    and its boundary trace passes through the station values exactly.
    """
    mean = np.asarray(kl.mean, dtype=float)
    modes = np.asarray(kl.scaled_modes, dtype=float)
    if mean.shape[0] != sampler.dimension or modes.shape[0] != sampler.dimension:
        raise DomainError(
            f"reduced model dimension {mean.shape[0]} does not match the "
            f"sampler dimension {sampler.dimension}"
        )
    params = locate_boundary_parameters(base, sampler.angles)
    A, ring = _ring_interpolation_matrix(base, params)
    mean_field = _field_from_station_values(base, A, ring, sampler.station_displacements(mean))
    mode_fields = np.stack(
        [
            _field_from_station_values(base, A, ring, sampler.station_displacements(modes[:, j]))
            for j in range(modes.shape[1])
        ]
    ) if modes.shape[1] else np.zeros((0,) + base.net.points.shape)
    return DeformationModel(base, mean_field, mode_fields)


# -- serialization --------------------------------------------------------


def save_deformation_spec(path, sampler, mean, modes):
    """Write station coordinates, mean vector, and mode matrix as JSON."""
    modes = np.asarray(modes, dtype=float)
    doc = {
        "station_angles": [float(a) for a in sampler.angles],
        "kind": sampler.kind,
        "mean": [float(x) for x in np.asarray(mean, dtype=float)],
        "modes": [[float(x) for x in row] for row in modes],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_deformation_spec(path):
    """Read back (sampler, mean, modes) written by save_deformation_spec."""
    with open(path) as fh:
        doc = json.load(fh)
    sampler = BoundarySampler(doc["station_angles"], doc["kind"])
    mean = np.asarray(doc["mean"], dtype=float)
    modes = np.asarray(doc["modes"], dtype=float)
    if modes.size and modes.shape[0] != sampler.dimension:
        raise DomainError("mode matrix rows do not match the sampler dimension")
    return sampler, mean, modes
