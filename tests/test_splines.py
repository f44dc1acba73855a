"""Tests for the B-spline / NURBS kernel."""

import numpy as np
import pytest

from cavityuq.errors import DegreeError, DomainError
from cavityuq.splines import (
    BSplineBasis,
    ControlNet,
    KnotVector,
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


def naive_derivative(knots, p, i, u, k):
    """k-th derivative of N_{i,p} by the textbook recursion on the degree,
    N' = p N_{i,p-1} / (t_{i+p} - t_i) - p N_{i+1,p-1} / (t_{i+p+1} - t_{i+1}),
    on top of :func:`naive_basis`."""
    if k == 0:
        return naive_basis(knots, p, i, u)
    out = 0.0
    if knots[i + p] > knots[i]:
        out += p * naive_derivative(knots, p - 1, i, u, k - 1) / (knots[i + p] - knots[i])
    if knots[i + p + 1] > knots[i + 1]:
        out -= p * naive_derivative(knots, p - 1, i + 1, u, k - 1) / (
            knots[i + p + 1] - knots[i + 1]
        )
    return out


def naive_table(basis, points, order):
    """Reference for BSplineBasis.collocation, entry by entry."""
    return np.array([
        [
            [naive_derivative(basis.kv.knots, basis.degree, i, u, k) for i in range(basis.n_basis)]
            for u in points
        ]
        for k in range(order + 1)
    ])


def reference_bases():
    """Degrees 1-5 on uniform knots and on non-uniform knots; from degree 2
    on, the non-uniform vector has an interior double knot."""
    for p in (1, 2, 3, 4, 5):
        yield BSplineBasis(uniform_open_knots(p, 5), p)
        interior = [0.1, 0.35, 0.35, 0.8] if p >= 2 else [0.1, 0.35, 0.8]
        yield BSplineBasis(KnotVector([0.0] * (p + 1) + interior + [1.0] * (p + 1), p), p)


def sample_points(basis, count=40):
    """Random points, every breakpoint and both ends."""
    return np.concatenate([rng.uniform(0.0, 1.0, count), basis.kv.breakpoints, [0.0, 1.0]])


def curve_points(net, basis, ts):
    """Rational curve points through the basis value table."""
    hom = basis.collocation(ts, 0)[0] @ net.homogeneous()
    return hom[:, :-1] / hom[:, -1:]


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
        np.testing.assert_array_equal(
            kv.find_span([0.0, 0.25, 0.3, 0.5, 0.99, 1.0]), [2, 3, 3, 4, 5, 5]
        )

    def test_find_span_brackets_every_point(self):
        for basis in reference_bases():
            kv = basis.kv
            pts = sample_points(basis)[:-1]
            pts = pts[pts < 1.0]
            spans = kv.find_span(pts)
            assert np.all(kv.knots[spans] <= pts)
            assert np.all(pts < kv.knots[spans + 1])

    def test_find_span_outside_domain(self):
        kv = uniform_open_knots(2, 4)
        for u in (-0.01, 1.01, np.nan):
            with pytest.raises(DomainError):
                kv.find_span(u)
            with pytest.raises(DomainError):
                kv.find_span([0.0, 0.5, u, 1.0])

    def test_find_span_right_end_is_last_nonempty_span(self):
        kv = KnotVector([0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0], 2)
        assert kv.find_span(1.0) == kv.n_basis - 1 == 4
        assert kv.find_span(0.5) == 4
        # an end knot repeated p + 2 times leaves the last span empty
        kv = KnotVector([0.0, 0.0, 0.5, 1.0, 1.0, 1.0], 1)
        assert kv.n_basis == 4
        np.testing.assert_array_equal(kv.find_span([0.5, 0.75, 1.0]), [2, 2, 2])


class TestBasisEvaluation:
    def test_matches_naive_recursion(self):
        for basis in reference_bases():
            pts = sample_points(basis)
            np.testing.assert_allclose(
                basis.collocation(pts, 0), naive_table(basis, pts, 0), rtol=0.0, atol=1e-13
            )

    def test_derivatives_match_naive_recursion(self):
        for basis in reference_bases():
            order = min(2, basis.degree)
            pts = sample_points(basis)
            ref = naive_table(basis, pts, order)
            got = basis.collocation(pts, order)
            for k in range(order + 1):
                scale = max(1.0, np.abs(ref[k]).max())
                np.testing.assert_allclose(got[k], ref[k], rtol=0.0, atol=1e-12 * scale)

    def test_kernel_shapes_and_spans(self):
        for basis in reference_bases():
            p = basis.degree
            pts = sample_points(basis)
            spans, ders = basis.eval_basis_derivatives(pts, p)
            assert spans.shape == (pts.size,)
            assert ders.shape == (p + 1, pts.size, p + 1)
            np.testing.assert_array_equal(spans, basis.kv.find_span(pts))

    def test_batch_equals_pointwise_bit_for_bit(self):
        for basis in reference_bases():
            pts = sample_points(basis, count=10)
            spans, ders = basis.eval_basis_derivatives(pts, basis.degree)
            for i, u in enumerate(pts):
                (span,), one = basis.eval_basis_derivatives(float(u), basis.degree)
                assert span == spans[i]
                assert one[:, 0].tobytes() == ders[:, i].tobytes()

    def test_partition_of_unity_random(self):
        for p in (1, 2, 3, 5):
            basis = BSplineBasis(uniform_open_knots(p, 7), p)
            us = np.concatenate([rng.uniform(0.0, 1.0, 1000), [0.0, 1.0]])
            _, ders = basis.eval_basis_derivatives(us, 0)
            assert ders.min() >= -1e-15
            assert np.abs(ders[0].sum(axis=1) - 1.0).max() <= 1e-12

    def test_local_support_is_exact(self):
        basis = BSplineBasis(uniform_open_knots(3, 8), 3)
        us = rng.uniform(0.0, 1.0, 200)
        table = basis.collocation(us, 0)[0]
        spans = basis.kv.find_span(us)
        for vec, span in zip(table, spans):
            inactive = np.ones(basis.n_basis, dtype=bool)
            inactive[span - 3 : span + 1] = False
            assert np.all(vec[inactive] == 0.0)

    def test_derivatives_match_finite_differences(self):
        basis = BSplineBasis(uniform_open_knots(3, 5), 3)
        h = 1e-6
        us = rng.uniform(0.05, 0.95, 40)
        us = us[np.abs(us[:, None] - basis.kv.breakpoints).min(axis=1) >= 10 * h]
        ders = basis.collocation(us, 2)
        up, u0, um = (basis.collocation(us + s, 0)[0] for s in (h, 0.0, -h))
        np.testing.assert_allclose(ders[1], (up - um) / (2 * h), atol=2e-5)
        np.testing.assert_allclose(ders[2], (up - 2 * u0 + um) / h**2, atol=2e-3)

    def test_derivative_rows_sum_to_zero(self):
        basis = BSplineBasis(uniform_open_knots(4, 6), 4)
        _, ders = basis.eval_basis_derivatives(rng.uniform(0.0, 1.0, 200), 3)
        assert np.abs(ders[0].sum(axis=1) - 1.0).max() <= 1e-12
        for k in (1, 2, 3):
            scale = np.maximum(1.0, np.abs(ders[k]).max(axis=1))
            assert np.all(np.abs(ders[k].sum(axis=1)) <= 1e-10 * scale)

    def test_order_beyond_degree_rejected(self):
        for basis in reference_bases():
            with pytest.raises(DegreeError):
                basis.eval_basis_derivatives([0.5], basis.degree + 1)
        basis = BSplineBasis(uniform_open_knots(2, 4), 2)
        for order in (-1, 1.0, True):
            with pytest.raises(DegreeError):
                basis.eval_basis_derivatives(0.5, order)

    def test_kernel_rejects_points_outside_domain(self):
        basis = BSplineBasis(uniform_open_knots(2, 4), 2)
        with pytest.raises(DomainError):
            basis.eval_basis_derivatives([0.2, 1.5, 0.7], 1)
        with pytest.raises(DomainError):
            basis.collocation([-1e-9, 0.5], 0)

    def test_collocation_scatters_local_derivatives(self):
        basis = BSplineBasis(uniform_open_knots(3, 5), 3)
        pts = np.concatenate([np.random.default_rng(3).uniform(0.0, 1.0, 30), basis.kv.breakpoints])
        table = basis.collocation(pts, 2)
        assert table.shape == (3, pts.size, basis.n_basis)
        ref = naive_table(basis, pts, 2)
        for k in range(3):
            scale = max(1.0, np.abs(ref[k]).max())
            np.testing.assert_allclose(table[k], ref[k], rtol=0.0, atol=1e-12 * scale)
        spans = basis.kv.find_span(pts)
        for i, span in enumerate(spans):
            outside = np.ones(basis.n_basis, dtype=bool)
            outside[span - 3 : span + 1] = False
            assert np.all(table[:, i, outside] == 0.0)
        np.testing.assert_allclose(table[0].sum(axis=1), 1.0, atol=1e-14)

    def test_collocation_rejects_order_beyond_degree(self):
        basis = BSplineBasis(uniform_open_knots(2, 4), 2)
        with pytest.raises(DegreeError):
            basis.collocation([0.25, 0.5], 3)


class TestKnotInsertion:
    def test_curve_unchanged(self):
        net = ControlNet(rng.normal(size=(6, 2)), weights=rng.uniform(0.5, 2.0, 6))
        basis = BSplineBasis(uniform_open_knots(3, 3), 3)
        kv2, hom2 = insert_knots_homogeneous(basis.kv, net.homogeneous(), [0.2, 0.5, 0.9])
        basis2 = BSplineBasis(kv2, 3)
        net2 = ControlNet(hom2[:, :-1] / hom2[:, -1:], weights=hom2[:, -1])
        ts = np.concatenate([rng.uniform(0.0, 1.0, 100), [0.0, 0.2, 0.5, 0.9, 1.0]])
        np.testing.assert_allclose(
            curve_points(net2, basis2, ts), curve_points(net, basis, ts), atol=1e-12
        )

    def test_rejects_knot_outside_interior(self):
        basis = BSplineBasis(uniform_open_knots(2, 2), 2)
        with pytest.raises(DomainError):
            insert_knots_homogeneous(basis.kv, np.zeros((basis.n_basis, 3)), [1.0])
