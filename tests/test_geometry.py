"""Tests for exact patches and deformation fields."""

import json
import math

import numpy as np
import pytest

from cavityuq import geometry
from cavityuq.assembly import DiscreteSpace, assemble
from cavityuq.errors import DomainError, InterpolationError, InvalidDeformationError
from cavityuq.geometry import (
    BoundarySampler,
    DeformationModel,
    GeometryMap,
    build_disk_patch,
    deform,
    deformation_from_kl,
    load_deformation_spec,
    locate_boundary_parameters,
    refine_patch,
    save_deformation_spec,
)
from cavityuq.splines import ControlNet
from cavityuq.uq import (
    build_smolyak_grid,
    default_correlated_covariance,
    fit_kl,
    generate_synthetic_observations,
)

rng = np.random.default_rng(42)


def point_at(g, uv):
    """The physical point F(u, v) of one parameter point."""
    return g.jacobian_grid([uv[0]], [uv[1]])[0][0, 0]


def jacobian_at(g, uv):
    """The 2x2 Jacobian dF/d(u, v) at one parameter point."""
    return g.jacobian_grid([uv[0]], [uv[1]])[1][0, 0]


def area(g, per_span):
    """Domain area by Gauss quadrature of |det J|, per_span points per knot
    span per direction; the integrand is smooth, so this converges
    exponentially."""
    x, w = np.polynomial.legendre.leggauss(per_span)
    rules = []
    for basis in g.bases:
        a, b = basis.kv.breakpoints[:-1, None], basis.kv.breakpoints[1:, None]
        rules.append(((0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), (0.5 * (b - a) * w).ravel()))
    (us, wu), (vs, wv) = rules
    _, J = g.jacobian_grid(us, vs)
    return float(wu @ np.abs(np.linalg.det(J)) @ wv)


class _Reduced:
    """Duck-typed stand-in for a fitted reduced model."""

    def __init__(self, mean, scaled_modes):
        self.mean = mean
        self.scaled_modes = scaled_modes


class TestDiskPatch:
    def test_boundary_lies_on_circle(self):
        g = build_disk_patch(0.05)
        for t in np.linspace(0.0, 1.0, 101):
            for uv in [(t, 0.0), (t, 1.0), (0.0, t), (1.0, t)]:
                assert abs(np.hypot(*point_at(g, uv)) - 0.05) <= 1e-12

    def test_center_maps_to_origin(self):
        g = build_disk_patch(0.03)
        np.testing.assert_allclose(point_at(g, (0.5, 0.5)), [0.0, 0.0], atol=1e-15)

    def test_area_matches_closed_form(self):
        g = build_disk_patch(0.05)
        exact = math.pi * 0.05**2
        assert abs(area(g, per_span=32) - exact) <= 1e-10 * exact

    def test_interior_jacobian_positive(self):
        g = build_disk_patch(0.05)
        for uv in rng.uniform(0.02, 0.98, size=(100, 2)):
            assert np.linalg.det(jacobian_at(g, uv)) > 0.0

    def test_jacobian_matches_finite_differences(self):
        g = build_disk_patch(0.05)
        h = 1e-7
        for uv in rng.uniform(0.1, 0.9, size=(20, 2)):
            J = jacobian_at(g, uv)
            fd = np.empty((2, 2))
            fd[:, 0] = (point_at(g, (uv[0] + h, uv[1])) - point_at(g, (uv[0] - h, uv[1]))) / (2 * h)
            fd[:, 1] = (point_at(g, (uv[0], uv[1] + h)) - point_at(g, (uv[0], uv[1] - h))) / (2 * h)
            np.testing.assert_allclose(J, fd, atol=1e-6)

    def test_jacobian_grid_matches_pointwise(self):
        local = np.random.default_rng(7)
        g = refine_patch(build_disk_patch(0.05), 2)
        # a perturbed net off the exact disk; validity does not matter here
        noise = local.normal(scale=1e-3, size=g.net.points.shape)
        g = GeometryMap(g.bases, ControlNet(g.net.points + noise, g.net.weights), validate=False)
        us = np.concatenate([local.uniform(0.01, 0.99, 9), [0.25, 0.5]])
        vs = np.concatenate([local.uniform(0.01, 0.99, 7), [0.75]])
        x, J = g.jacobian_grid(us, vs)
        assert x.shape == (us.size, vs.size, 2)
        assert J.shape == (us.size, vs.size, 2, 2)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                np.testing.assert_allclose(x[i, j], point_at(g, (u, v)), rtol=1e-13, atol=1e-16)
                np.testing.assert_allclose(J[i, j], jacobian_at(g, (u, v)), rtol=1e-13, atol=1e-14)

    def test_scaling_moves_control_net_exactly(self):
        g1 = build_disk_patch(1.0)
        g2 = build_disk_patch(2.5)
        np.testing.assert_allclose(g2.net.points, 2.5 * g1.net.points, atol=1e-15)
        np.testing.assert_allclose(g2.net.weights, g1.net.weights, atol=0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            build_disk_patch(0.0)


class TestSquarePatch:
    def test_identity_map(self, unit_square_patch):
        g = unit_square_patch
        for uv in rng.uniform(0, 1, size=(20, 2)):
            np.testing.assert_allclose(point_at(g, uv), uv, atol=1e-15)
            np.testing.assert_allclose(jacobian_at(g, uv), np.eye(2), atol=1e-15)

    def test_area(self, rectangle_patch):
        assert abs(area(rectangle_patch(2.0, 0.5), per_span=4) - 1.0) <= 1e-14


class TestRefinement:
    def test_refined_disk_is_same_surface(self):
        g = build_disk_patch(0.05)
        g2 = refine_patch(g, 2)
        assert g2.net.shape == (6, 6)
        for uv in rng.uniform(0.01, 0.99, size=(60, 2)):
            np.testing.assert_allclose(point_at(g2, uv), point_at(g, uv), atol=1e-15)

    def test_refined_boundary_still_exact(self):
        g2 = refine_patch(build_disk_patch(0.05), 1)
        for t in np.linspace(0, 1, 57):
            assert abs(np.hypot(*point_at(g2, (t, 0.0))) - 0.05) <= 1e-12

    def test_zero_levels_is_identity(self):
        g = build_disk_patch(0.05)
        assert refine_patch(g, 0).net.shape == (3, 3)


# The README's 18 station angles, and the free edge coordinate of each one's
# closed-form boundary parameter, as float.hex: the same bits at every
# refinement, since the closed form does not look at the map.
README_STATIONS = 2 * np.pi * np.arange(18) / 18
STATION_PARAMETERS = [
    "0x1.0000000000000p-1", "0x1.6cfa15a8afe14p-1", "0x1.e0f29b2bc6c96p-1",
    "0x1.a59a5bc93e892p-1", "0x1.361245ca5b03dp-1", "0x1.93db746b49f86p-2",
    "0x1.699690db05dbcp-3", "0x1.e0f29b2bc6c97p-1", "0x1.6cfa15a8afe14p-1",
    "0x1.0000000000000p-1", "0x1.260bd4aea03d8p-2", "0x1.f0d64d43936c0p-5",
    "0x1.699690db05db2p-3", "0x1.93db746b49f88p-2", "0x1.361245ca5b03cp-1",
    "0x1.a59a5bc93e88ep-1", "0x1.f0d64d4393690p-5", "0x1.260bd4aea03dcp-2",
]
# closed form and bisection agree to 4 ulps of 1.0 in each coordinate
FOUR_ULPS = 4 * np.spacing(1.0)

# each edge's parameter point at s, the angle growing with s on every edge
_EDGE_POINT = {
    "bottom": lambda s: np.column_stack([s, np.zeros_like(s)]),
    "right": lambda s: np.column_stack([np.ones_like(s), s]),
    "top": lambda s: np.column_stack([1.0 - s, np.ones_like(s)]),
    "left": lambda s: np.column_stack([np.zeros_like(s), 1.0 - s]),
}


def bisect_boundary_parameters(g, angles):
    """The boundary points of the disk patch g at physical angles by 60
    bisection steps on the matching quarter arc, all of an edge's angles
    at once: the reference for the closed form."""
    quarter = 0.25 * math.pi
    theta = np.arctan2(np.sin(angles), np.cos(angles))   # wrap to (-pi, pi]
    edges = np.select(
        [(-3 * quarter <= theta) & (theta <= -quarter), (-quarter <= theta) & (theta <= quarter),
         (quarter <= theta) & (theta <= 3 * quarter)],
        ["bottom", "right", "top"], "left",
    )
    # on the left edge the angle runs from 3 pi / 4 to 5 pi / 4
    theta[(edges == "left") & (theta < 0.0)] += 2.0 * math.pi
    uv = np.empty((theta.size, 2))
    for edge, point in _EDGE_POINT.items():
        on = edges == edge
        lo, hi = np.zeros(on.sum()), np.ones(on.sum())
        for _ in range(60):
            s = 0.5 * (lo + hi)
            uv_s = point(s)
            # the points share the edge's fixed coordinate: one grid row
            if edge in ("bottom", "top"):
                x = g.jacobian_grid(uv_s[:, 0], uv_s[:1, 1])[0][:, 0]
            else:
                x = g.jacobian_grid(uv_s[:1, 0], uv_s[:, 1])[0][0]
            a = np.arctan2(x[:, 1], x[:, 0])
            if edge == "left":
                a[a < 0.0] += 2.0 * math.pi
            below = a < theta[on]
            lo, hi = np.where(below, s, lo), np.where(below, hi, s)
        uv[on] = point(0.5 * (lo + hi))
    return uv


class TestBoundaryParameter:
    def test_inverts_angles_on_all_edges(self):
        g = build_disk_patch(0.05)
        ths = np.concatenate([rng.uniform(-np.pi, np.pi, 40), [0.0, np.pi / 2, -np.pi / 2]])
        for th, uv in zip(ths, locate_boundary_parameters(ths)):
            x = point_at(g, uv)
            err = abs(math.atan2(x[1], x[0]) - math.atan2(math.sin(th), math.cos(th)))
            assert min(err, 2 * math.pi - err) <= 1e-12

    @pytest.mark.parametrize("refinement", [0, 3, 4, 5])
    def test_station_parameters_are_pinned(self, refinement):
        # the pinned bits hold at every refinement, where the bisection on
        # the refined map finds them to 4 ulps
        params = locate_boundary_parameters(README_STATIONS)
        free = [u if v in (0.0, 1.0) else v for u, v in params]
        assert [x.hex() for x in free] == STATION_PARAMETERS
        g = refine_patch(build_disk_patch(0.05), refinement)
        reference = bisect_boundary_parameters(g, README_STATIONS)
        np.testing.assert_allclose(params, reference, rtol=0, atol=FOUR_ULPS)

    def test_closed_form_matches_bisection(self):
        # 1,000 angles over two turns, with the edge ends and the middle of
        # the left edge, where the angle wraps
        quarter = 0.25 * np.pi
        ends = [quarter, -quarter, 3 * quarter, -3 * quarter, np.pi]
        angles = np.concatenate([np.random.default_rng(11).uniform(-np.pi, 3 * np.pi, 995), ends])
        reference = bisect_boundary_parameters(build_disk_patch(0.05), angles)
        params = locate_boundary_parameters(angles)
        np.testing.assert_allclose(params, reference, rtol=0, atol=FOUR_ULPS)


class TestDeformation:
    def test_zero_model_gives_zero_fields(self):
        g = build_disk_patch(0.05)
        sam = BoundarySampler(np.array([0.3, 1.8, 3.5, 5.1]), kind="xy")
        model = deformation_from_kl(_Reduced(np.zeros(8), np.zeros((8, 2))), g, sam)
        assert np.abs(model.mean_field).max() == 0.0
        assert np.abs(model.mode_fields).max() == 0.0
        gd = deform(model, np.zeros(2))
        np.testing.assert_allclose(gd.net.points, g.net.points, atol=0)

    def test_constant_station_vector_is_rigid_translation(self):
        g = build_disk_patch(0.05)
        sam = BoundarySampler(np.array([0.3, 1.8, 3.5, 5.1]), kind="xy")
        c = np.array([4e-4, -2.5e-4])
        model = deformation_from_kl(_Reduced(np.zeros(8), np.tile(c, 4)[:, None]), g, sam)
        gd = deform(model, [1.0])
        np.testing.assert_allclose(gd.net.points - g.net.points, np.broadcast_to(c, (3, 3, 2)), atol=1e-15)
        # the whole mapped patch shifts rigidly
        for uv in rng.uniform(0.05, 0.95, size=(20, 2)):
            np.testing.assert_allclose(point_at(gd, uv), point_at(g, uv) + c, atol=1e-15)

    def test_two_station_radial_mode_interpolates(self):
        g = build_disk_patch(0.05)
        sam = BoundarySampler(np.array([0.5, 2.4]), kind="radial")
        col = np.array([6e-4, -3e-4])
        model = deformation_from_kl(_Reduced(np.zeros(2), col[:, None]), g, sam)
        for delta in (0.7, -1.3):
            gd = deform(model, [delta])
            for uv, entry in zip(locate_boundary_parameters(sam.angles), col):
                assert abs(np.hypot(*point_at(gd, uv)) - (0.05 + delta * entry)) <= 1e-12

    def test_mean_and_modes_superpose(self):
        g = refine_patch(build_disk_patch(0.05), 1)
        sam = BoundarySampler(2 * np.pi * np.arange(9) / 9, kind="xy")
        mean = rng.normal(scale=2e-4, size=18)
        modes = rng.normal(scale=2e-4, size=(18, 3))
        model = deformation_from_kl(_Reduced(mean, modes), g, sam)
        delta = np.array([0.9, -1.1, 0.4])
        gd = deform(model, delta)
        disp = sam.station_displacements(mean + modes @ delta)
        for uv, d in zip(locate_boundary_parameters(sam.angles), disp):
            np.testing.assert_allclose(point_at(gd, uv), point_at(g, uv) + d, atol=1e-12)

    def test_interior_points_solve_the_discrete_laplace_equation(self):
        # each interior control point is the mean of its four neighbours on
        # the net's index grid, for every field and coordinate
        g = refine_patch(build_disk_patch(0.05), 2)
        sam = BoundarySampler(2 * np.pi * np.arange(9) / 9, kind="xy")
        reduced = _Reduced(rng.normal(scale=2e-4, size=18), rng.normal(scale=2e-4, size=(18, 3)))
        model = deformation_from_kl(reduced, g, sam)
        assert g.net.shape[0] > 3 and g.net.shape[1] > 3
        for field in (model.mean_field, *model.mode_fields):
            neighbours = field[:-2, 1:-1] + field[2:, 1:-1] + field[1:-1, :-2] + field[1:-1, 2:]
            np.testing.assert_allclose(
                4.0 * field[1:-1, 1:-1], neighbours, rtol=0, atol=1e-14 * np.abs(field).max(),
            )

    def test_ring_points_are_the_ring_interpolation_solve(self):
        # the fill moves only interior points: the ring is the interpolation
        # solve's, bit for bit, as it was under the ring-mean fill
        g = refine_patch(build_disk_patch(0.05), 3)
        sam = BoundarySampler(2 * np.pi * np.arange(18) / 18, kind="radial")
        mean, modes = rng.normal(scale=2e-4, size=18), rng.normal(scale=2e-4, size=(18, 4))
        model = deformation_from_kl(_Reduced(mean, modes), g, sam)
        A, ring = geometry._ring_interpolation_matrix(
            g, locate_boundary_parameters(sam.angles)
        )
        disp = np.hstack([sam.station_displacements(v) for v in (mean, *modes.T)])
        d = geometry._minimal_curvature_solve(A, disp).reshape(len(ring), -1, 2)
        i, j = np.array(ring).T
        fields = np.concatenate([model.mean_field[None], model.mode_fields])
        assert fields[:, i, j].tobytes() == np.ascontiguousarray(d.transpose(1, 0, 2)).tobytes()

    @pytest.mark.parametrize("refinement", [4, 5])
    def test_refined_readme_model_deforms_every_level_two_node(self, refinement):
        # under the ring-mean fill, 67 (refinement 4) and 104 (refinement 5)
        # of these 127 nodes folded the patch
        cov = default_correlated_covariance(18)
        kl = fit_kl(generate_synthetic_observations(cov, np.zeros(18), 5000, seed=1234), 0.95)
        g = refine_patch(build_disk_patch(0.05), refinement)
        sam = BoundarySampler(2 * np.pi * np.arange(18) / 18, kind="radial")
        model = deformation_from_kl(kl, g, sam)
        nodes = build_smolyak_grid(kl.n_modes, 2).nodes
        assert len(nodes) == 127
        for node in nodes:
            deform(model, node)   # InvalidDeformationError on a fold

    def test_stacked_fields_match_each_field_alone(self):
        # one interpolation solve takes every field as a right-hand side;
        # BLAS builds may round it differently from one solve per field
        g = refine_patch(build_disk_patch(0.05), 3)
        sam = BoundarySampler(2 * np.pi * np.arange(18) / 18, kind="radial")
        mean = rng.normal(scale=2e-4, size=18)
        modes = rng.normal(scale=2e-4, size=(18, 4))
        model = deformation_from_kl(_Reduced(mean, modes), g, sam)
        alone = [deformation_from_kl(_Reduced(mean, np.zeros((18, 0))), g, sam).mean_field]
        alone += [
            deformation_from_kl(_Reduced(np.zeros(18), modes[:, k:k + 1]), g, sam).mode_fields[0]
            for k in range(modes.shape[1])
        ]
        for field, ref in zip((model.mean_field, *model.mode_fields), alone, strict=True):
            np.testing.assert_allclose(field, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_too_many_stations_for_coarse_patch(self):
        g = build_disk_patch(0.05)
        sam = BoundarySampler(2 * np.pi * np.arange(9) / 9, kind="xy")
        with pytest.raises(InterpolationError):
            deformation_from_kl(_Reduced(np.zeros(18), np.zeros((18, 1))), g, sam)

    def test_dimension_mismatch_rejected(self):
        g = build_disk_patch(0.05)
        sam = BoundarySampler(np.array([0.0, np.pi]), kind="radial")
        with pytest.raises(DomainError):
            deformation_from_kl(_Reduced(np.zeros(3), np.zeros((3, 1))), g, sam)

    def test_jacobian_flip_raises(self):
        g = build_disk_patch(0.05)
        sam = BoundarySampler(np.array([0.0, np.pi]), kind="radial")
        crush = _Reduced(np.zeros(2), np.array([[-0.06], [-0.06]]))
        model = deformation_from_kl(crush, g, sam)
        with pytest.raises(InvalidDeformationError):
            deform(model, [1.0])

    def test_fold_inside_one_interior_cell_raises(self):
        # control point (2, 2) of the 6x6 net pushed across its neighbours
        base = refine_patch(build_disk_patch(0.05), 2)
        field = np.zeros(base.net.points.shape)
        field[2, 2] = [0.03, 0.03]
        model = DeformationModel(base, np.zeros_like(field), field[None])
        with pytest.raises(InvalidDeformationError):
            deform(model, [1.0])
        # the determinant is negative in knot cell (1, 1) and nowhere else
        folded = GeometryMap(base.bases, ControlNet(base.net.points + field, base.net.weights),
                             validate=False)
        gl, _ = np.polynomial.legendre.leggauss(6)
        pts = (0.125 + 0.25 * np.arange(4)[:, None] + 0.125 * gl).ravel()
        _, J = folded.jacobian_grid(pts, pts)
        det = np.linalg.det(J).reshape(4, 6, 4, 6)
        negative = (det <= 0.0).any(axis=(1, 3))
        assert negative[1, 1] and negative.sum() == 1

    def test_nan_determinant_raises(self):
        # a NaN control point makes every interior determinant NaN, which is
        # not positive either
        g = build_disk_patch(0.05)
        sam = BoundarySampler(np.array([0.5, 2.4]), kind="radial")
        model = deformation_from_kl(_Reduced(np.zeros(2), np.array([[6e-4], [-3e-4]])), g, sam)
        with pytest.raises(InvalidDeformationError, match="determinant nan"):
            deform(model, [math.nan])

    def test_wrong_delta_length_rejected(self):
        g = build_disk_patch(0.05)
        sam = BoundarySampler(np.array([0.0, np.pi]), kind="radial")
        model = deformation_from_kl(_Reduced(np.zeros(2), np.zeros((2, 2))), g, sam)
        with pytest.raises(DomainError):
            deform(model, [0.1])

    def test_single_point_queries_keep_one_grid(self):
        """The model keeps the last grid of each size: 200 single-point
        queries on the README disk's deformed map add one kept grid, not
        200, and the assembly kernel's grid keeps its values bit for bit."""
        cov = default_correlated_covariance(18)
        kl = fit_kl(generate_synthetic_observations(cov, np.zeros(18), 5000, 1234), 0.95)
        sampler = BoundarySampler(2 * np.pi * np.arange(18) / 18, kind="radial")
        model = deformation_from_kl(kl, refine_patch(build_disk_patch(0.05), 3), sampler)
        g = deform(model, [-1.73, 0.0, 1.73, 0.0, 0.0, 0.0, 0.0])
        kernel = DiscreteSpace(2, 8).kernel(g.bases, "dirichlet")
        x0, J0 = g.jacobian_grid(kernel.us, kernel.vs)
        kept = len(model._grids)
        for u, v in np.random.default_rng(5).uniform(0.05, 0.95, (200, 2)):
            g.jacobian_grid([u], [v])
        assert len(model._grids) == kept + 1
        x1, J1 = g.jacobian_grid(kernel.us, kernel.vs)
        assert x1.tobytes() == x0.tobytes() and J1.tobytes() == J0.tobytes()

    def test_kept_mode_fields_reshape_without_a_copy(self):
        """A query multiplies delta into the kept mode fields as one matrix;
        each kept grid (probe and quadrature points) stores them in C order,
        so that matrix is a view, not a copy per query."""
        draw = np.random.default_rng(3)
        sam = BoundarySampler(2 * np.pi * np.arange(9) / 9, kind="xy")
        reduced = _Reduced(draw.normal(scale=2e-4, size=18), draw.normal(scale=2e-4, size=(18, 3)))
        model = deformation_from_kl(reduced, refine_patch(build_disk_patch(0.05), 1), sam)
        assemble(deform(model, [0.9, -1.1, 0.4]), DiscreteSpace(2, 2), bc="dirichlet")
        assert len(model._grids) == 2
        for _, fields in model._grids.values():
            assert np.shares_memory(fields[1:].reshape(3, fields[0].size), fields)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        sam = BoundarySampler(2 * np.pi * np.arange(5) / 5, kind="radial")
        mean = rng.normal(scale=1e-4, size=5)
        modes = rng.normal(scale=1e-4, size=(5, 2))
        path = tmp_path / "deformation.json"
        save_deformation_spec(path, sam, mean, modes)
        sam2, mean2, modes2 = load_deformation_spec(path)
        assert sam2.kind == "radial"
        np.testing.assert_allclose(sam2.angles, sam.angles, atol=0)
        np.testing.assert_allclose(mean2, mean, atol=0)
        np.testing.assert_allclose(modes2, modes, atol=0)

    @pytest.mark.parametrize("entry", ["station_angles", "mean", "modes"])
    def test_non_finite_entry_rejected(self, tmp_path, entry):
        doc = {"station_angles": [0.2, 1.7], "kind": "radial",
               "mean": [1e-4, -2e-4], "modes": [[1e-4], [2e-4]]}
        doc[entry][1] = [math.nan] if entry == "modes" else math.nan
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match="finite"):
            load_deformation_spec(path)

    def test_rebuilt_model_matches(self, tmp_path):
        g = build_disk_patch(0.05)
        sam = BoundarySampler(np.array([0.2, 1.7, 3.9]), kind="radial")
        mean = np.array([1e-4, -2e-4, 5e-5])
        modes = rng.normal(scale=1e-4, size=(3, 2))
        path = tmp_path / "d.json"
        save_deformation_spec(path, sam, mean, modes)
        sam2, mean2, modes2 = load_deformation_spec(path)
        m1 = deformation_from_kl(_Reduced(mean, modes), g, sam)
        m2 = deformation_from_kl(_Reduced(mean2, modes2), g, sam2)
        np.testing.assert_allclose(m2.mean_field, m1.mean_field, atol=0)
        np.testing.assert_allclose(m2.mode_fields, m1.mode_fields, atol=0)
