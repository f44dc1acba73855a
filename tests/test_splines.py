"""Tests for the B-spline / NURBS kernel."""

import numpy as np
import pytest

from cavityuq.errors import DegreeError, DomainError
from cavityuq.splines import (
    BSplineBasis,
    ControlNet,
    KnotVector,
    eval_nurbs,
    insert_knots_homogeneous,
    uniform_open_knots,
)

rng = np.random.default_rng(20240817)


def naive_basis(knots, p, i, u):
    """Textbook Cox-de Boor recursion, used as an independent reference."""
    if p == 0:
        if knots[i] <= u < knots[i + 1]:
            return 1.0
        # closed right end of the overall domain
        if u == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    left = 0.0
    if knots[i + p] > knots[i]:
        left = (u - knots[i]) / (knots[i + p] - knots[i]) * naive_basis(knots, p - 1, i, u)
    right = 0.0
    if knots[i + p + 1] > knots[i + 1]:
        right = (knots[i + p + 1] - u) / (knots[i + p + 1] - knots[i + 1]) * naive_basis(
            knots, p - 1, i + 1, u
        )
    return left + right


def full_basis_vector(basis, u):
    out = np.zeros(basis.n_basis)
    span, vals = basis.eval_basis(u)
    out[span - basis.degree : span + 1] = vals
    return out


class TestKnotVector:
    def test_rejects_decreasing(self):
        with pytest.raises(DomainError):
            KnotVector([0, 0, 1, 0.5, 1], 1)

    def test_rejects_unclamped(self):
        with pytest.raises(DomainError):
            KnotVector([0, 0, 0.2, 0.8, 1, 1], 2)

    def test_rejects_excess_interior_multiplicity(self):
        with pytest.raises(DomainError):
            KnotVector([0, 0, 0.5, 0.5, 1, 1], 1)

    def test_find_span_uniform(self):
        kv = uniform_open_knots(2, 4)
        assert kv.find_span(0.0) == 2
        assert kv.find_span(0.3) == 3
        assert kv.find_span(1.0) == kv.n_basis - 1

    def test_find_span_outside_domain(self):
        kv = uniform_open_knots(2, 4)
        for u in (-0.01, 1.01):
            with pytest.raises(DomainError):
                kv.find_span(u)

    def test_span_list(self):
        kv = uniform_open_knots(3, 5)
        assert kv.spans() == [3, 4, 5, 6, 7]


class TestBasisEvaluation:
    def test_matches_naive_recursion(self):
        for p in (1, 2, 3, 4):
            basis = BSplineBasis(uniform_open_knots(p, 6), p)
            for u in rng.uniform(0.0, 1.0, 60):
                ref = [naive_basis(basis.knots, p, i, u) for i in range(basis.n_basis)]
                np.testing.assert_allclose(full_basis_vector(basis, u), ref, atol=1e-13)

    def test_partition_of_unity_random(self):
        for p in (1, 2, 3, 5):
            basis = BSplineBasis(uniform_open_knots(p, 7), p)
            us = np.concatenate([rng.uniform(0.0, 1.0, 1000), [0.0, 1.0]])
            for u in us:
                _, vals = basis.eval_basis(u)
                assert vals.min() >= -1e-15
                assert abs(vals.sum() - 1.0) <= 1e-12

    def test_local_support_is_exact(self):
        basis = BSplineBasis(uniform_open_knots(3, 8), 3)
        for u in rng.uniform(0.0, 1.0, 200):
            vec = full_basis_vector(basis, u)
            span = basis.find_span(u)
            active = set(range(span - 3, span + 1))
            for i in range(basis.n_basis):
                if i not in active:
                    assert vec[i] == 0.0

    def test_derivatives_match_finite_differences(self):
        basis = BSplineBasis(uniform_open_knots(3, 5), 3)
        h = 1e-6
        for u in rng.uniform(0.05, 0.95, 40):
            u = float(u)
            if any(abs(u - b) < 10 * h for b in basis.kv.breakpoints):
                continue
            span, ders = basis.eval_basis_derivatives(u, 2)
            up = full_basis_vector(basis, u + h)
            um = full_basis_vector(basis, u - h)
            u0 = full_basis_vector(basis, u)
            sl = slice(span - 3, span + 1)
            np.testing.assert_allclose(ders[1], (up - um)[sl] / (2 * h), atol=2e-5)
            np.testing.assert_allclose(ders[2], (up - 2 * u0 + um)[sl] / h**2, atol=2e-3)

    def test_derivative_rows_sum_to_zero(self):
        basis = BSplineBasis(uniform_open_knots(4, 6), 4)
        for u in rng.uniform(0.0, 1.0, 200):
            _, ders = basis.eval_basis_derivatives(float(u), 3)
            assert abs(ders[0].sum() - 1.0) <= 1e-12
            for k in (1, 2, 3):
                scale = max(1.0, np.abs(ders[k]).max())
                assert abs(ders[k].sum()) <= 1e-10 * scale

    def test_order_beyond_degree_rejected(self):
        basis = BSplineBasis(uniform_open_knots(2, 4), 2)
        with pytest.raises(DegreeError):
            basis.eval_basis_derivatives(0.5, 3)

    def test_collocation_scatters_local_derivatives(self):
        basis = BSplineBasis(uniform_open_knots(3, 5), 3)
        pts = np.concatenate([np.random.default_rng(3).uniform(0.0, 1.0, 30), basis.kv.breakpoints])
        table = basis.collocation(pts, 2)
        assert table.shape == (3, pts.size, basis.n_basis)
        for i, u in enumerate(pts):
            span, ders = basis.eval_basis_derivatives(float(u), 2)
            expect = np.zeros((3, basis.n_basis))
            expect[:, span - 3 : span + 1] = ders
            np.testing.assert_array_equal(table[:, i], expect)
        np.testing.assert_allclose(table[0].sum(axis=1), 1.0, atol=1e-14)

    def test_collocation_rejects_order_beyond_degree(self):
        basis = BSplineBasis(uniform_open_knots(2, 4), 2)
        with pytest.raises(DegreeError):
            basis.collocation([0.25, 0.5], 3)


class TestNurbsEvaluation:
    def test_quarter_circle_is_exact(self):
        # rational quadratic arc from (1,0) to (0,1)
        net = ControlNet(
            [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
            weights=[1.0, np.sqrt(0.5), 1.0],
        )
        basis = BSplineBasis(KnotVector([0, 0, 0, 1, 1, 1], 2), 2)
        for t in np.linspace(0.0, 1.0, 201):
            x = eval_nurbs(net, basis, t)
            assert abs(np.hypot(*x) - 1.0) <= 1e-12

    def test_affine_invariance(self):
        net = ControlNet(rng.normal(size=(5, 2)), weights=rng.uniform(0.5, 2.0, 5))
        basis = BSplineBasis(uniform_open_knots(2, 3), 2)
        A = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        mapped = ControlNet(net.points @ A.T + b, weights=net.weights)
        for t in rng.uniform(0.0, 1.0, 50):
            direct = A @ eval_nurbs(net, basis, t) + b
            np.testing.assert_allclose(eval_nurbs(mapped, basis, t), direct, atol=1e-12)

    def test_surface_point_matches_separate_curves(self):
        # separable net: surface eval must factor through the two curve evals
        bu = BSplineBasis(uniform_open_knots(2, 2), 2)
        bv = BSplineBasis(uniform_open_knots(1, 3), 1)
        cx = rng.normal(size=bu.n_basis)
        cy = rng.normal(size=bv.n_basis)
        pts = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1)
        net = ControlNet(pts)
        for u, v in rng.uniform(0, 1, size=(20, 2)):
            got = eval_nurbs(net, (bu, bv), (u, v))
            x = eval_nurbs(ControlNet(cx[:, None]), bu, u)[0]
            y = eval_nurbs(ControlNet(cy[:, None]), bv, v)[0]
            np.testing.assert_allclose(got, [x, y], atol=1e-13)

    def test_shape_mismatch_rejected(self):
        net = ControlNet(np.zeros((4, 2)))
        basis = BSplineBasis(uniform_open_knots(2, 3), 2)  # 5 functions
        with pytest.raises(DomainError):
            eval_nurbs(net, basis, 0.5)


class TestKnotInsertion:
    def test_curve_unchanged(self):
        net = ControlNet(rng.normal(size=(6, 2)), weights=rng.uniform(0.5, 2.0, 6))
        basis = BSplineBasis(uniform_open_knots(3, 3), 3)
        kv2, hom2 = insert_knots_homogeneous(basis.kv, net.homogeneous(), [0.2, 0.5, 0.9])
        basis2 = BSplineBasis(kv2, 3)
        net2 = ControlNet(hom2[:, :-1] / hom2[:, -1:], weights=hom2[:, -1])
        for t in rng.uniform(0.0, 1.0, 100):
            np.testing.assert_allclose(
                eval_nurbs(net2, basis2, t), eval_nurbs(net, basis, t), atol=1e-12
            )

    def test_rejects_knot_outside_interior(self):
        basis = BSplineBasis(uniform_open_knots(2, 2), 2)
        with pytest.raises(DomainError):
            insert_knots_homogeneous(basis.kv, np.zeros((basis.n_basis, 3)), [1.0])
