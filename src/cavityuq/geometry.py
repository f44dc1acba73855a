"""Exact NURBS patches and deformation fields on them.

The core object is a tensor-product rational patch mapping the unit square
to a planar domain.  The disk patch is the classical nine-point biquadratic
construction whose boundary reproduces the circle exactly; its four
parametric corners are rank deficient, which is tolerated because assembly
only ever evaluates at interior Gauss points.  The map has one evaluator:
a point (the boundary search's) or a grid of points and Jacobians (the
fold probe's, an assembly's) is one contraction of per-direction basis
tables with the homogeneous control net.

Deformations displace control points.  A deformation model carries a mean
displacement field plus one field per retained random variable; the fields
live on the same basis as the geometry map, so deformed geometry stays a
NURBS patch with unchanged weights.  A rational map is linear in its control
points at fixed weights, so a deformed map's points and Jacobians on any
grid are affine in the parameters: the model evaluates its fields once per
grid, and deform combines them.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

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
            if not bad > 0.0:   # a NaN determinant fails too
                raise InvalidDeformationError(
                    f"Jacobian determinant {bad:.3e} is not positive at an "
                    "interior probe point"
                )

    # -- evaluation -----------------------------------------------------

    def map_point(self, uv):
        """Physical point of one parameter point, or of each row of an
        (n, 2) array of them: the per-direction basis tables contracted with
        the homogeneous net, as on a grid."""
        uv = np.asarray(uv, dtype=float)
        us, vs = uv.reshape(-1, 2).T
        tu = self.bases[0].collocation(us, 0)[0]
        tv = self.bases[1].collocation(vs, 0)[0]
        H = np.einsum("ia,ib,abk->ik", tu, tv, self.net.homogeneous())
        return (H[:, :2] / H[:, 2:]).reshape(uv.shape)

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
        return self._grid_values(us, vs)

    def _grid_values(self, us, vs):
        return _rational_grid(self.bases, self.net.homogeneous(), us, vs)

    def _probe_min_det(self, per_span=6):
        us, vs = (_gauss_nodes_on(b.kv, per_span) for b in self.bases)
        _, J = self.jacobian_grid(us, vs)
        return float(_det(J).min())

    def boundary_ring(self):
        """Control-point indices on the patch boundary, ordered cyclically."""
        n1, n2 = self.net.shape
        ring = [(i, 0) for i in range(n1)]
        ring += [(n1 - 1, j) for j in range(1, n2)]
        ring += [(i, n2 - 1) for i in range(n1 - 2, -1, -1)]
        ring += [(0, j) for j in range(n2 - 2, 0, -1)]
        return ring


def _rational_grid(bases, hom, us, vs):
    """Points and Jacobians on the grid us x vs of the rational map with
    homogeneous net hom, both linear in the net's points.  hom's last axis
    holds dim weighted coordinates, then the weight, so maps that share the
    weights stack their (x, y) and share one evaluation: x has shape
    (len(us), len(vs), dim) and J (len(us), len(vs), dim, 2)."""
    tu = bases[0].collocation(us, 1)
    tv = bases[1].collocation(vs, 1)
    n1, n2, k = hom.shape
    # contract u first, then v: H[i, j] = sum_ab tu[i, a] tv[j, b] hom[a, b]
    h0, h1 = (tu @ hom.reshape(n1, -1)).reshape(2, us.size, n2, k)
    H, Hu, Hv = tv[0] @ h0, tv[0] @ h1, tv[1] @ h0
    w = H[..., -1:]
    x = H[..., :-1] / w
    J = np.stack(
        [(Hu[..., :-1] - x * Hu[..., -1:]) / w, (Hv[..., :-1] - x * Hv[..., -1:]) / w], axis=-1
    )
    return x, J


def _det(J):
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


@lru_cache(maxsize=None)
def _gauss_legendre_nodes(n):
    """n-point Gauss-Legendre nodes on [-1, 1], read-only: every deformed
    map's probe needs the same ones."""
    x = np.polynomial.legendre.leggauss(n)[0]
    x.flags.writeable = False
    return x


def _gauss_nodes_on(kv, per_span):
    """Gauss-Legendre nodes on every knot span, left to right."""
    x = _gauss_legendre_nodes(per_span)
    a, b = kv.breakpoints[:-1, None], kv.breakpoints[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x).ravel()


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
    """Mean plus per-variable control-point displacement fields.

    The weights stay those of the base net, so a deformed map's points and
    Jacobians are affine in the parameters: on a grid it is asked for, the
    model evaluates them for the mean net (base plus mean field) and every
    mode field at once, as one net of stacked coordinates, and keeps them
    for the last grid of each size (see deform): every node of a study asks
    for the same corner, probe and quadrature grids, and one-off queries
    replace one another.
    """

    base: GeometryMap
    mean_field: np.ndarray          # (n1, n2, 2)
    mode_fields: np.ndarray         # (n_modes, n1, n2, 2)

    def __post_init__(self):
        shape = self.base.net.points.shape
        if self.mean_field.shape != shape:
            raise DomainError("mean field shape does not match the control net")
        if self.mode_fields.ndim != 4 or self.mode_fields.shape[1:] != shape:
            raise DomainError("mode field shape does not match the control net")
        self._grids = {}

    @property
    def n_modes(self):
        return self.mode_fields.shape[0]

    def grid_values(self, us, vs, delta):
        """Points and Jacobians on the grid us x vs of the map at delta: the
        mean net's plus sum_j delta_j times mode j's."""
        size, grid = (us.size, vs.size), (us.tobytes(), vs.tobytes())
        kept = self._grids.get(size)
        if kept is None or kept[0] != grid:
            w = self.base.net.weights[..., None]
            fields = [self.base.net.points + self.mean_field, *self.mode_fields]
            hom = np.concatenate([f * w for f in fields] + [w], axis=-1)
            x, J = _rational_grid(self.base.bases, hom, us, vs)
            # per field, the 2 point and 4 Jacobian entries of each grid point
            n = us.size * vs.size
            # C order, so that the mode fields reshape to a matrix without a copy
            kept = self._grids[size] = grid, np.ascontiguousarray(np.concatenate([
                x.reshape(n, len(fields), 2).transpose(1, 0, 2),
                J.reshape(n, len(fields), 4).transpose(1, 0, 2),
            ], axis=2))
        fields = kept[1]
        values = fields[0] + (delta @ fields[1:].reshape(delta.size, fields[0].size)).reshape(
            fields[0].shape
        )
        return (
            values[:, :2].reshape(us.size, vs.size, 2),
            values[:, 2:].reshape(us.size, vs.size, 2, 2),
        )


class _DeformedMap(GeometryMap):
    """A deformation model's map at one parameter point.

    Its control net is the deformed one, and its values on a grid are the
    model's affine combination there, with no basis evaluation after the
    model's first visit to that grid.
    """

    def __init__(self, model, delta):
        self._model = model
        self._delta = delta
        shape = model.mean_field.shape
        pts = (
            model.base.net.points
            + model.mean_field
            + (delta @ model.mode_fields.reshape(delta.size, model.mean_field.size)).reshape(shape)
        )
        super().__init__(model.base.bases, ControlNet(pts, model.base.net.weights), validate=True)

    def _grid_values(self, us, vs):
        return self._model.grid_values(us, vs, self._delta)


def deform(model, delta):
    """Geometry at a parameter point: base + mean + sum_j delta_j * mode_j.

    A deformation moves control points and keeps the weights, so the map is
    affine in delta: its Jacobians on the 6-per-span probe grid, at the
    corners and at any assembly's quadrature points are one (n_modes + 1)-
    term combination of fields the model evaluated once per grid.  Raises
    InvalidDeformationError when the deformed Jacobian determinant is not
    positive at the interior probe points.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (model.n_modes,):
        raise DomainError(
            f"expected {model.n_modes} deformation parameters, got shape {delta.shape}"
        )
    return _DeformedMap(model, delta)


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


def deformation_from_kl(kl, base, sampler):
    """Deformation fields interpolating a reduced model's station data.

    ``kl`` needs ``mean`` (physical vector) and ``scaled_modes`` (columns
    are per-variable station patterns).  Every field is expressed on the
    geometry map's own basis: the returned model displaces control points,
    and its boundary trace passes through the station values exactly.  The
    mean and every mode are the right-hand sides of one ring interpolation
    solve.  Each field's interior points are the discrete harmonic
    extension of its ring values on the control net's index grid (the
    5-point Laplace equation; Xu, Mourrain, Duvigneau & Galligo, CMAME
    2011), so a smooth ring displacement moves the interior smoothly and
    a rigid translation moves every point alike.
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
    # station displacements, one (x, y) column pair per field
    disp = np.hstack([sampler.station_displacements(v) for v in (mean, *modes.T)])
    d = _minimal_curvature_solve(A, disp).reshape(len(ring), -1, 2)
    fields = np.zeros((d.shape[1],) + base.net.shape + (2,))
    i, j = np.array(ring).T
    fields[:, i, j] = d.transpose(1, 0, 2)
    _harmonic_interior(fields)
    return DeformationModel(base, fields[0], fields[1:])


def _harmonic_interior(fields):
    """Fill the interior of stacked control-point fields (field, n1, n2, 2),
    zero there, with the discrete harmonic extension of their ring values:
    each interior point is the mean of its four neighbours on the net's
    index grid (the 5-point Laplace equation, ring values fixed).  One dense
    solve for every field and coordinate."""
    count, m1, m2 = len(fields), fields.shape[1] - 2, fields.shape[2] - 2
    k = np.arange(m1 * m2).reshape(m1, m2)
    L = 4.0 * np.eye(k.size)
    for a, b in ((k[1:], k[:-1]), (k[:, 1:], k[:, :-1])):
        L[a, b] = L[b, a] = -1.0
    # the ring neighbours of each interior point: the interior is still zero
    rhs = fields[:, :-2, 1:-1] + fields[:, 2:, 1:-1] + fields[:, 1:-1, :-2] + fields[:, 1:-1, 2:]
    x = np.linalg.solve(L, rhs.transpose(1, 2, 0, 3).reshape(k.size, 2 * count))
    fields[:, 1:-1, 1:-1] = x.reshape(m1, m2, count, 2).transpose(2, 0, 1, 3)


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
    if mean.shape != (sampler.dimension,) or modes.ndim != 2 or len(modes) != sampler.dimension:
        raise DomainError("mean and mode matrix rows must match the sampler dimension")
    if not all(np.isfinite(a).all() for a in (sampler.angles, mean, modes)):
        raise DomainError("station angles, mean and modes must be finite")
    return sampler, mean, modes
