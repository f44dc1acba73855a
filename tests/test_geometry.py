"""Tests for exact patches and deformation fields."""

import json
import math

import numpy as np
import pytest

from cavityuq import geometry
from cavityuq.assembly import DiscreteSpace, assemble
from cavityuq.errors import (
    DomainError,
    InterpolationError,
    InvalidDeformationError,
    SingularityError,
)
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
                assert abs(np.hypot(*g.map_point(uv)) - 0.05) <= 1e-12

    def test_center_maps_to_origin(self):
        g = build_disk_patch(0.03)
        np.testing.assert_allclose(g.map_point((0.5, 0.5)), [0.0, 0.0], atol=1e-15)

    def test_area_matches_closed_form(self):
        g = build_disk_patch(0.05)
        exact = math.pi * 0.05**2
        assert abs(area(g, per_span=32) - exact) <= 1e-10 * exact

    def test_all_four_corners_are_degenerate(self):
        g = build_disk_patch(1.0)
        assert set(g.degenerate_corners) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_corner_evaluation_raises(self):
        g = build_disk_patch(1.0)
        with pytest.raises(SingularityError):
            jacobian_at(g, (0.0, 0.0))

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
            fd[:, 0] = (g.map_point((uv[0] + h, uv[1])) - g.map_point((uv[0] - h, uv[1]))) / (2 * h)
            fd[:, 1] = (g.map_point((uv[0], uv[1] + h)) - g.map_point((uv[0], uv[1] - h))) / (2 * h)
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
                np.testing.assert_allclose(x[i, j], g.map_point((u, v)), rtol=1e-13, atol=1e-16)
                np.testing.assert_allclose(J[i, j], jacobian_at(g, (u, v)), rtol=1e-13, atol=1e-14)

    def test_jacobian_grid_refuses_degenerate_corner(self):
        g = build_disk_patch(1.0)
        g.jacobian_grid([0.0, 0.5], [0.5, 1.0 - 1e-6])
        with pytest.raises(SingularityError):
            g.jacobian_grid([0.3, 1.0], [0.0, 0.5])

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
            np.testing.assert_allclose(g.map_point(uv), uv, atol=1e-15)
            np.testing.assert_allclose(jacobian_at(g, uv), np.eye(2), atol=1e-15)

    def test_no_degenerate_corners(self, rectangle_patch):
        assert rectangle_patch(2.0, 0.5).degenerate_corners == ()

    def test_area(self, rectangle_patch):
        assert abs(area(rectangle_patch(2.0, 0.5), per_span=4) - 1.0) <= 1e-14


class TestRefinement:
    def test_refined_disk_is_same_surface(self):
        g = build_disk_patch(0.05)
        g2 = refine_patch(g, 2)
        assert g2.net.shape == (6, 6)
        for uv in rng.uniform(0.01, 0.99, size=(60, 2)):
            np.testing.assert_allclose(g2.map_point(uv), g.map_point(uv), atol=1e-15)

    def test_refined_boundary_still_exact(self):
        g2 = refine_patch(build_disk_patch(0.05), 1)
        for t in np.linspace(0, 1, 57):
            assert abs(np.hypot(*g2.map_point((t, 0.0))) - 0.05) <= 1e-12

    def test_zero_levels_is_identity(self):
        g = build_disk_patch(0.05)
        assert refine_patch(g, 0).net.shape == (3, 3)


# The free edge coordinate of each of the README's 18 stations, times 2**61,
# at refinements 0, 3, 4 and 5.  Each bisection midpoint is a multiple of
# 2**-61, so these integers are the parameters bit for bit; their last bits
# differ between refinements, so they pin the map evaluation too.
STATION_PARAMETERS = {
    0: [
        1152921504606846976, 1643709799264556032, 2165995793430648320,
        1898730947267302400, 1396437339796946688, 909405669416748032,
        407112061946392576, 2165995793430649344, 1643709799264556800,
        1152921504606847232, 662133209949138432, 139847215783047168,
        407112061946390784, 909405669416747776, 1396437339796945408,
        1898730947267300352, 139847215783044576, 662133209949137920,
    ],
    3: [
        1152921504606846976, 1643709799264556032, 2165995793430648320,
        1898730947267301888, 1396437339796946176, 909405669416748032,
        407112061946392576, 2165995793430649344, 1643709799264556800,
        1152921504606847232, 662133209949138432, 139847215783047168,
        407112061946390784, 909405669416747776, 1396437339796945408,
        1898730947267300352, 139847215783044800, 662133209949137920,
    ],
    4: [
        1152921504606846976, 1643709799264556032, 2165995793430648320,
        1898730947267302400, 1396437339796946688, 909405669416748032,
        407112061946392576, 2165995793430648832, 1643709799264556800,
        1152921504606847232, 662133209949138432, 139847215783047168,
        407112061946390912, 909405669416747776, 1396437339796945408,
        1898730947267300352, 139847215783044896, 662133209949138176,
    ],
    5: [
        1152921504606846976, 1643709799264556032, 2165995793430648320,
        1898730947267302400, 1396437339796946176, 909405669416748032,
        407112061946392576, 2165995793430648832, 1643709799264556800,
        1152921504606847232, 662133209949138432, 139847215783047168,
        407112061946390784, 909405669416747776, 1396437339796945408,
        1898730947267300352, 139847215783044832, 662133209949137920,
    ],
}


class TestBoundaryParameter:
    def test_inverts_angles_on_all_edges(self):
        g = build_disk_patch(0.05)
        ths = np.concatenate([rng.uniform(-np.pi, np.pi, 40), [0.0, np.pi / 2, -np.pi / 2]])
        for th, uv in zip(ths, locate_boundary_parameters(g, ths)):
            x = g.map_point(uv)
            err = abs(math.atan2(x[1], x[0]) - math.atan2(math.sin(th), math.cos(th)))
            assert min(err, 2 * math.pi - err) <= 1e-12

    @pytest.mark.parametrize("refinement", sorted(STATION_PARAMETERS))
    def test_station_parameters_are_pinned(self, refinement):
        g = refine_patch(build_disk_patch(0.05), refinement)
        params = locate_boundary_parameters(g, 2 * np.pi * np.arange(18) / 18)
        free = [u if v in (0.0, 1.0) else v for u, v in params]
        assert [x * 2**61 for x in free] == STATION_PARAMETERS[refinement]


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
            np.testing.assert_allclose(gd.map_point(uv), g.map_point(uv) + c, atol=1e-15)

    def test_two_station_radial_mode_interpolates(self):
        g = build_disk_patch(0.05)
        sam = BoundarySampler(np.array([0.5, 2.4]), kind="radial")
        col = np.array([6e-4, -3e-4])
        model = deformation_from_kl(_Reduced(np.zeros(2), col[:, None]), g, sam)
        for delta in (0.7, -1.3):
            gd = deform(model, [delta])
            for uv, entry in zip(locate_boundary_parameters(g, sam.angles), col):
                assert abs(np.hypot(*gd.map_point(uv)) - (0.05 + delta * entry)) <= 1e-12

    def test_mean_and_modes_superpose(self):
        g = refine_patch(build_disk_patch(0.05), 1)
        sam = BoundarySampler(2 * np.pi * np.arange(9) / 9, kind="xy")
        mean = rng.normal(scale=2e-4, size=18)
        modes = rng.normal(scale=2e-4, size=(18, 3))
        model = deformation_from_kl(_Reduced(mean, modes), g, sam)
        delta = np.array([0.9, -1.1, 0.4])
        gd = deform(model, delta)
        disp = sam.station_displacements(mean + modes @ delta)
        for uv, d in zip(locate_boundary_parameters(g, sam.angles), disp):
            np.testing.assert_allclose(gd.map_point(uv), g.map_point(uv) + d, atol=1e-12)

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
            g, locate_boundary_parameters(g, sam.angles)
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
        each kept grid (corners, probe and quadrature points) stores them in
        C order, so that matrix is a view, not a copy per query."""
        draw = np.random.default_rng(3)
        sam = BoundarySampler(2 * np.pi * np.arange(9) / 9, kind="xy")
        reduced = _Reduced(draw.normal(scale=2e-4, size=18), draw.normal(scale=2e-4, size=(18, 3)))
        model = deformation_from_kl(reduced, refine_patch(build_disk_patch(0.05), 1), sam)
        assemble(deform(model, [0.9, -1.1, 0.4]), DiscreteSpace(2, 2), bc="dirichlet")
        assert len(model._grids) == 3
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
