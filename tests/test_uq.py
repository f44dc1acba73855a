"""Covariance reduction and collocation grid tests."""

import itertools
import math

import numpy as np
import pytest

from cavityuq import uq
from cavityuq.errors import DegenerateDataError, DomainError, GridSizeError


class TestObservationMatrix:
    def test_shape_and_names(self):
        obs = uq.ObservationMatrix(np.zeros((4, 3)) + np.arange(3))
        assert obs.n_samples == 4
        assert obs.n_variables == 3
        assert obs.names == ["x0", "x1", "x2"]

    def test_single_sample_rejected(self):
        with pytest.raises(DegenerateDataError):
            uq.ObservationMatrix(np.ones((1, 5)))

    def test_wrong_rank_rejected(self):
        with pytest.raises(DomainError):
            uq.ObservationMatrix(np.ones(5))

    def test_name_count_must_match(self):
        with pytest.raises(DomainError):
            uq.ObservationMatrix(np.ones((3, 2)), names=["only_one"])


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        data = np.ones((3, 2))
        data[1, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            uq.ObservationMatrix(data)


class TestKLFit:
    def test_recovers_dominant_directions(self):
        # independent coordinates with std 2, 1, 0.1: the 0.95 criterion
        # keeps exactly the two large ones
        rng = np.random.default_rng(42)
        X = rng.standard_normal((10000, 3)) * np.array([2.0, 1.0, 0.1])
        kl = uq.fit_kl(uq.ObservationMatrix(X), criterion=0.95)
        assert kl.n_modes == 2
        assert np.all(np.diff(kl.variances) <= 0)
        assert np.abs(kl.variances - np.array([4.0, 1.0])).max() < 0.05 * 4.0
        assert kl.captured_ratio >= 0.95

    def test_modes_orthonormal(self):
        rng = np.random.default_rng(5)
        kl = uq.fit_kl(uq.ObservationMatrix(rng.normal(size=(200, 6))), 0.99)
        gram = kl.modes.T @ kl.modes
        assert np.abs(gram - np.eye(kl.n_modes)).max() < 1e-12

    def test_full_criterion_reconstructs_covariance(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((10000, 3)) * np.array([2.0, 1.0, 0.1])
        kl = uq.fit_kl(uq.ObservationMatrix(X), criterion=1.0)
        assert kl.n_modes == 3
        C = np.cov(X, rowvar=False)
        R = (kl.modes * kl.variances) @ kl.modes.T
        assert np.abs(R - C).max() < 1e-10

    def test_identical_rows_degenerate(self):
        with pytest.raises(DegenerateDataError):
            uq.fit_kl(uq.ObservationMatrix(np.full((8, 4), 1.25)))

    def test_criterion_bounds(self):
        obs = uq.ObservationMatrix(np.random.default_rng(0).normal(size=(10, 2)))
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(DomainError):
                uq.fit_kl(obs, criterion=bad)

    def test_scaled_modes_shape(self):
        rng = np.random.default_rng(11)
        kl = uq.fit_kl(uq.ObservationMatrix(rng.normal(size=(50, 4))), 0.9)
        assert kl.scaled_modes.shape == (4, kl.n_modes)
        assert np.allclose(kl.scaled_modes, kl.modes * np.sqrt(kl.variances))

    def test_standard_normal_coordinates_reproduce_covariance(self, kl):
        rng = np.random.default_rng(99)
        Z = rng.standard_normal((40000, kl.n_modes))
        samples = kl.mean + Z @ kl.scaled_modes.T
        C_model = (kl.modes * kl.variances) @ kl.modes.T
        C_mc = np.cov(samples, rowvar=False)
        rel = np.linalg.norm(C_mc - C_model) / np.linalg.norm(C_model)
        assert rel < 0.03


@pytest.fixture(scope="module")
def kl():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(5000, 4)) * np.array([3.0, 1.0, 0.5, 0.2])
    return uq.fit_kl(uq.ObservationMatrix(X), criterion=1.0)


@pytest.fixture(scope="module")
def gh_grid():
    r = uq.rule_1d("gauss-hermite", 3)
    return uq.build_tensor_grid([r, r])


class TestRule1D:
    def test_gauss_hermite_three_point(self):
        r = uq.rule_1d("gauss-hermite", 3)
        assert np.allclose(r.nodes, [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-15)
        assert np.allclose(r.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-15)
        assert r.nodes[1] == 0.0

    def test_gauss_hermite_one_point(self):
        r = uq.rule_1d("gauss-hermite", 1)
        assert r.nodes[0] == 0.0 and r.weights[0] == 1.0

    def test_gauss_hermite_fourth_moment(self):
        r = uq.rule_1d("gauss-hermite", 3)
        assert abs((r.nodes**4) @ r.weights - 3.0) < 1e-12

    def test_clenshaw_curtis_five_point_weights(self):
        r = uq.rule_1d("clenshaw-curtis", 5)
        assert np.allclose(r.nodes, [-1, -math.sqrt(2) / 2, 0, math.sqrt(2) / 2, 1], atol=1e-15)
        assert np.allclose(r.weights, [1 / 30, 4 / 15, 2 / 5, 4 / 15, 1 / 30], atol=1e-14)

    def test_uniform_family_moments_on_support(self):
        a, b = 0.045, 0.055
        for family in ("clenshaw-curtis", "gauss-legendre"):
            r = uq.rule_1d(family, 5, support=(a, b))
            assert abs(r.weights.sum() - 1.0) < 1e-13
            assert abs(r.nodes @ r.weights - 0.5 * (a + b)) < 1e-15
            var = ((r.nodes - 0.5 * (a + b)) ** 2) @ r.weights
            assert abs(var - (b - a) ** 2 / 12.0) < 1e-16

    def test_endpoints_hit_support(self):
        r = uq.rule_1d("clenshaw-curtis", 9, support=(2.0, 3.0))
        assert r.nodes[0] == 2.0 and r.nodes[-1] == 3.0

    def test_validation(self):
        with pytest.raises(DomainError):
            uq.rule_1d("gauss-laguerre", 3)
        with pytest.raises(DomainError):
            uq.rule_1d("gauss-hermite", 0)
        with pytest.raises(DomainError):
            uq.rule_1d("gauss-hermite", 3, support=(0.0, 1.0))
        with pytest.raises(DomainError):
            uq.rule_1d("gauss-legendre", 3, support=(1.0, 1.0))

    def test_gauss_hermite_rules_up_to_order_200_are_finite(self):
        for n in range(1, 201):
            r = uq.rule_1d("gauss-hermite", n)
            assert np.isfinite(r.nodes).all() and np.isfinite(r.weights).all(), n
            assert abs(r.weights.sum() - 1.0) < 1e-12, n

    def test_rule_numpy_cannot_compute_is_refused(self):
        # numpy's hermegauss overflows at a few hundred nodes; the rule it
        # returns there has NaN weights
        with pytest.raises(DomainError, match="no finite gauss-hermite rule of order 400"):
            uq.rule_1d("gauss-hermite", 400)

    @pytest.mark.parametrize("family", uq.RULE_FAMILIES)
    def test_order_above_the_cap_is_refused_before_numpy(self, monkeypatch, family):
        # numpy's Gauss rules solve an n x n eigenproblem: at 2,050 nodes
        # about 0.75 s and 70 MB, and the cost grows as n^3
        def refuse(n):
            raise AssertionError(f"numpy was asked for a rule of order {n}")

        for module, name in ((np.polynomial.hermite_e, "hermegauss"),
                             (np.polynomial.legendre, "leggauss"),
                             (uq, "_clenshaw_curtis_reference")):
            monkeypatch.setattr(module, name, refuse)
        with pytest.raises(GridSizeError, match=f"{family} rule of order 2050 exceeds the cap"):
            uq.rule_1d(family, uq.RULE_ORDER_CAP + 1)
        assert uq.RULE_ORDER_CAP == 2049

    def test_order_at_the_cap_is_built(self):
        assert uq.rule_1d("clenshaw-curtis", 2049).n == 2049


def _enumerated_tensor_grid(rules):
    """The tensor grid point by point, the last dimension fastest: the
    reference the array-wise build_tensor_grid must match bit for bit."""
    nodes, weights = [], []
    for combo in itertools.product(*(range(r.n) for r in rules)):
        nodes.append([r.nodes[j] for r, j in zip(rules, combo)])
        weights.append(math.prod(r.weights[j] for r, j in zip(rules, combo)))
    return np.array(nodes), np.array(weights)


def _enumerated_smolyak_grid(dim, level, family, support):
    """The Smolyak combination point by point: every point of every index
    block keyed by its coordinates rounded to 12 decimals, the first visit
    kept, weights summed in visiting order, nodes sorted as tuples."""
    q = dim + level
    merged = {}
    for total in range(max(dim, q - dim + 1), q + 1):
        coeff = (-1.0) ** (q - total) * math.comb(dim - 1, q - total)
        for idx in uq._compositions(total, dim):
            rules = [uq.rule_1d(family, 2 * i - 1, support) for i in idx]
            for combo in itertools.product(*(range(r.n) for r in rules)):
                node = np.array([r.nodes[j] for r, j in zip(rules, combo)])
                w = coeff * math.prod(r.weights[j] for r, j in zip(rules, combo))
                key = (np.round(node, 12) + 0.0).tobytes()
                if key in merged:
                    merged[key][1] += w
                else:
                    merged[key] = [node, w]
    items = sorted(merged.values(), key=lambda it: tuple(it[0]))
    return np.array([it[0] for it in items]), np.array([it[1] for it in items])


def _same_bits(grid, reference):
    nodes, weights = reference
    return (grid.nodes.shape == nodes.shape and grid.nodes.tobytes() == nodes.tobytes()
            and grid.weights.tobytes() == weights.tobytes())


_SUPPORTS = {"gauss-hermite": None, "gauss-legendre": (0.04, 0.06), "clenshaw-curtis": (-0.5, 1.5)}


class TestTensorGrid:
    def test_product_structure(self):
        r = uq.rule_1d("gauss-hermite", 3)
        g = uq.build_tensor_grid([r, r])
        assert g.n_nodes == 9 and g.dim == 2
        assert abs(g.weights.sum() - 1.0) < 1e-14
        assert abs((g.nodes[:, 0] ** 2 * g.nodes[:, 1] ** 2) @ g.weights - 1.0) < 1e-12

    def test_single_dimension_matches_rule(self):
        r = uq.rule_1d("gauss-legendre", 4, support=(-0.5, 0.5))
        g = uq.build_tensor_grid([r])
        assert np.array_equal(g.nodes[:, 0], r.nodes)
        assert np.array_equal(g.weights, r.weights)

    @pytest.mark.parametrize("family", uq.RULE_FAMILIES)
    @pytest.mark.parametrize("orders", [
        [1], [4], [3, 2], [2, 1, 5, 1, 1, 4], [1] * 5, [5] * 6, [1] * 80 + [3, 2],
        [1] * 40 + [2] + [1] * 40, [9, 1, 7],
    ])
    def test_matches_point_by_point_enumeration(self, family, orders):
        rules = [uq.rule_1d(family, n, _SUPPORTS[family]) for n in orders]
        assert _same_bits(uq.build_tensor_grid(rules), _enumerated_tensor_grid(rules))

    def test_order_one_rules_on_zero_width_supports(self):
        # a support [a, a] holds one node, which is a constant column
        rules = [uq.rule_1d(f, 1, (a, a)) for f, a in
                 (("gauss-legendre", 0.05), ("clenshaw-curtis", -2.0), ("clenshaw-curtis", 0.0))]
        rules.insert(1, uq.rule_1d("clenshaw-curtis", 3, (0.04, 0.06)))
        g = uq.build_tensor_grid(rules)
        assert _same_bits(g, _enumerated_tensor_grid(rules))
        assert g.nodes[:, [0, 2, 3]].tolist() == [[0.05, -2.0, 0.0]] * 3

    def test_one_node_in_dimension_999999(self):
        # orders of one up to the coordinate cap: no per-dimension array work
        g = uq.build_tensor_grid([uq.rule_1d("clenshaw-curtis", 1, (0.25, 0.25))] * 999_999)
        assert g.nodes.shape == (1, 999_999) and g.weights.tolist() == [1.0]
        assert (g.nodes == 0.25).all()

    def test_node_cap(self):
        r = uq.rule_1d("gauss-hermite", 25)
        with pytest.raises(GridSizeError):
            uq.build_tensor_grid([r] * 6)
        # nodes times dimension, at the cap and one order above it
        uq.check_tensor_orders([1000, 500])
        with pytest.raises(GridSizeError, match="cap of 1000000 coordinates"):
            uq.check_tensor_orders([1000, 501])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            uq.build_tensor_grid([])


class TestSmolyakGrid:
    def test_one_dimension_collapses_to_single_rule(self):
        g = uq.build_smolyak_grid(1, 2)
        r = uq.rule_1d("gauss-hermite", 5)
        order = np.argsort(r.nodes)
        assert np.allclose(g.nodes.ravel(), r.nodes[order], atol=1e-15)
        assert np.allclose(g.weights, r.weights[order], atol=1e-14)

    def test_dim7_level2_node_count(self):
        g = uq.build_smolyak_grid(7, 2)
        assert g.n_nodes == 127
        assert abs(g.weights.sum() - 1.0) < 1e-12

    def test_dim7_level2_degree_three_exact(self):
        g = uq.build_smolyak_grid(7, 2)
        moments = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0}
        worst = 0.0
        for deg in range(4):
            for combo in itertools.combinations_with_replacement(range(7), deg):
                a = np.zeros(7, dtype=int)
                for c in combo:
                    a[c] += 1
                est = np.prod(g.nodes**a, axis=1) @ g.weights
                exact = math.prod(moments[int(ai)] for ai in a)
                worst = max(worst, abs(est - exact))
        assert worst < 1e-12

    def test_duplicate_nodes_merged(self):
        g = uq.build_smolyak_grid(3, 1)
        keys = {tuple(np.round(x, 12)) for x in g.nodes}
        assert len(keys) == g.n_nodes

    def test_mixed_sign_weights(self):
        # combination coefficients make some merged weights negative
        g = uq.build_smolyak_grid(7, 2)
        assert g.weights.min() < 0.0 < g.weights.max()

    @pytest.mark.parametrize("family", uq.RULE_FAMILIES)
    @pytest.mark.parametrize("dim, level", [
        (1, 0), (1, 4), (2, 3), (3, 1), (3, 3), (4, 2), (5, 5), (7, 2), (7, 4), (10, 2), (70, 1),
    ])
    def test_matches_point_by_point_enumeration(self, family, dim, level):
        support = _SUPPORTS[family]
        assert _same_bits(uq.build_smolyak_grid(dim, level, family, support),
                          _enumerated_smolyak_grid(dim, level, family, support))

    @pytest.mark.parametrize("family", ["gauss-legendre", "clenshaw-curtis"])
    def test_level_zero_on_a_zero_width_support(self, family):
        g = uq.build_smolyak_grid(4, 0, family, (0.05, 0.05))
        assert _same_bits(g, _enumerated_smolyak_grid(4, 0, family, (0.05, 0.05)))
        assert g.nodes.tolist() == [[0.05] * 4] and g.weights.tolist() == [1.0]

    def test_compositions_in_lexicographic_order(self):
        for parts in range(1, 6):
            for total in range(parts, parts + 6):
                want = sorted(
                    c for c in itertools.product(range(1, total + 1), repeat=parts)
                    if sum(c) == total
                )
                assert list(uq._compositions(total, parts)) == want, (total, parts)
        assert list(uq._compositions(3000, 3000)) == [(1,) * 3000]

    def test_visits_are_counted_without_enumeration(self):
        # the points of every index block build_smolyak_grid enumerates
        for dim in range(1, 7):
            for level in range(6):
                visited = sum(
                    math.prod(2 * i - 1 for i in idx)
                    for total in range(max(dim, level + 1), dim + level + 1)
                    for idx in uq._compositions(total, dim)
                )
                assert uq._smolyak_visits(dim, level, 10**9) == visited, (dim, level)
                assert uq._smolyak_visits(dim, level, visited - 1) == visited, (dim, level)

    @pytest.mark.parametrize(
        "dim, level",
        [(7, 185), (7, 10**9), (1, 10**9), (2, 10**6), (10**9, 1), (3 * 10**5, 1)],
    )
    def test_count_of_an_unbounded_grid_stops_at_the_cap(self, dim, level):
        # level 185 at dimension 7 would visit about 4.5e22 points
        limit = uq.SMOLYAK_COORDINATE_CAP // dim
        assert uq._smolyak_visits(dim, level, limit) == limit + 1

    def test_coordinate_cap(self):
        # dimension 7: level 5 visits 52,074 points (364,518 coordinates),
        # level 6 212,738 (1,489,166), which took 1.8 s and 76 MB to build
        limit = uq.SMOLYAK_COORDINATE_CAP // 7
        assert uq._smolyak_visits(7, 5, limit) == 52_074
        with pytest.raises(GridSizeError, match="cap of 1000000 coordinates"):
            uq.build_smolyak_grid(7, 6)

    def test_validation(self):
        with pytest.raises(DomainError):
            uq.build_smolyak_grid(0, 2)
        with pytest.raises(DomainError):
            uq.build_smolyak_grid(3, -1)


class TestMoments:
    def test_constant_and_coordinates(self, gh_grid):
        vals = np.vstack(
            [np.full(9, 7.25), gh_grid.nodes[:, 0], gh_grid.nodes[:, 0] ** 2]
        )
        mean, var = uq.estimate_moments(vals, gh_grid)
        assert np.allclose(mean, [7.25, 0.0, 1.0], atol=1e-12)
        assert np.allclose(var, [0.0, 1.0, 2.0], atol=1e-12)

    def test_single_row_input(self, gh_grid):
        mean, var = uq.estimate_moments(gh_grid.nodes[:, 1], gh_grid)
        assert abs(mean[0]) < 1e-14 and abs(var[0] - 1.0) < 1e-12

    def test_shape_and_nan_guards(self, gh_grid):
        with pytest.raises(DomainError):
            uq.estimate_moments(np.zeros((2, 5)), gh_grid)
        bad = np.zeros((1, 9))
        bad[0, 2] = np.nan
        with pytest.raises(DomainError):
            uq.estimate_moments(bad, gh_grid)


class TestSyntheticObservations:
    def test_seed_determinism(self):
        C = uq.default_correlated_covariance()
        a = uq.generate_synthetic_observations(C, np.zeros(18), 100, seed=7)
        b = uq.generate_synthetic_observations(C, np.zeros(18), 100, seed=7)
        assert np.array_equal(a.data, b.data)

    def test_sample_moments_approach_targets(self):
        C = uq.default_correlated_covariance()
        mean = np.full(18, 0.05)
        obs = uq.generate_synthetic_observations(C, mean, 5000, seed=1234)
        assert np.abs(obs.data.mean(axis=0) - mean).max() < 5e-5
        C_hat = np.cov(obs.data, rowvar=False)
        assert np.linalg.norm(C_hat - C) / np.linalg.norm(C) < 0.10

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(DomainError):
            uq.generate_synthetic_observations(-np.eye(3), np.zeros(3), 10, seed=1)

    def test_default_covariance_retains_seven_modes(self):
        C = uq.default_correlated_covariance()
        assert np.abs(C - C.T).max() == 0.0
        w = np.sort(np.linalg.eigvalsh(C))[::-1]
        assert w[:6].sum() / w.sum() < 0.95 <= w[:7].sum() / w.sum()
        obs = uq.generate_synthetic_observations(C, np.zeros(18), 5000, seed=1234)
        kl = uq.fit_kl(obs, criterion=0.95)
        assert kl.n_modes == 7


class TestCsvIO:
    def test_grid_roundtrip(self, tmp_path):
        r = uq.rule_1d("clenshaw-curtis", 5, support=(0.045, 0.055))
        g = uq.build_tensor_grid([r, r])
        path = tmp_path / "grid.csv"
        uq.save_grid_csv(path, g)
        header = path.read_text().splitlines()[0]
        assert header == "delta_0,delta_1,weight"
        back = uq.load_grid_csv(path)
        assert np.array_equal(back.nodes, g.nodes)
        assert np.array_equal(back.weights, g.weights)

    def test_observation_roundtrip(self, tmp_path, save_observations):
        rng = np.random.default_rng(3)
        obs = uq.ObservationMatrix(rng.normal(size=(6, 4)), ["a", "b", "c", "d"])
        path = tmp_path / "obs.csv"
        save_observations(path, obs)
        back = uq.load_observations(path)
        assert np.array_equal(back.data, obs.data)
        assert back.names == obs.names

    def test_truncated_observation_file(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(DomainError):
            uq.load_observations(path)
