"""Tests for the generalized eigensolvers."""

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import csr_pencil

from cavityuq.assembly import DiscreteSpace, assemble
from cavityuq.eigen import group_clusters, sign_fix, solve_smallest
from cavityuq.errors import DomainError, SolverError
from cavityuq.geometry import build_disk_patch
from cavityuq.oracle import bessel_derivative_zero, bessel_zero

rng = np.random.default_rng(7)


def random_spd_pencil(n, seed):
    r = np.random.default_rng(seed)
    A = r.standard_normal((n, n))
    K = A @ A.T + n * np.eye(n)
    B = r.standard_normal((n, n))
    M = B @ B.T + n * np.eye(n)
    return csr_pencil(sp.csr_matrix(K), sp.csr_matrix(M))


@pytest.fixture(scope="module")
def disk_neumann():
    return assemble(build_disk_patch(0.05), DiscreteSpace(2, 16), bc="neumann")


@pytest.fixture(scope="module")
def disk_dirichlet():
    return assemble(build_disk_patch(0.05), DiscreteSpace(2, 16), bc="dirichlet")


class TestSmallClosedForms:
    def test_diagonal_pencil(self):
        pen = csr_pencil(sp.diags([1.0, 2.0, 3.0]).tocsr(), sp.identity(3, format="csr"))
        pairs = solve_smallest(pen, 2)
        assert [p.value for p in pairs] == [1.0, 2.0]
        np.testing.assert_allclose(pairs[0].vector, [1, 0, 0], atol=1e-14)
        np.testing.assert_allclose(pairs[1].vector, [0, 1, 0], atol=1e-14)

    def test_two_by_two(self):
        pen = csr_pencil(
            sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]])),
            sp.identity(2, format="csr"),
        )
        pairs = solve_smallest(pen, 2)
        np.testing.assert_allclose([p.value for p in pairs], [1.0, 3.0], atol=1e-14)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(pairs[0].vector, [s, s], atol=1e-14)
        np.testing.assert_allclose(pairs[1].vector, [s, -s], atol=1e-14)


class TestDiskPencil:
    def test_first_dirichlet_eigenvalue(self, disk_dirichlet):
        lam = solve_smallest(disk_dirichlet, 1)[0].value
        exact = (bessel_zero(0, 1) / 0.05) ** 2
        assert abs(lam / exact - 1.0) <= 5e-4

    def test_residuals_and_order(self, disk_dirichlet):
        pairs = solve_smallest(disk_dirichlet, 6)
        vals = [p.value for p in pairs]
        assert vals == sorted(vals)
        assert all(p.residual <= 1e-10 for p in pairs)

    def test_m_orthogonality(self, disk_neumann):
        pairs = solve_smallest(disk_neumann, 6)
        M = disk_neumann.mass
        for i, a in enumerate(pairs):
            for j, b in enumerate(pairs):
                g = a.vector @ (M @ b.vector)
                assert abs(g - (i == j)) < 1e-8

    def test_degenerate_pair_handled(self, disk_neumann):
        # the dipole Neumann pair is exactly degenerate by patch symmetry
        pairs = solve_smallest(disk_neumann, 3)
        exact = (bessel_derivative_zero(1, 1) / 0.05) ** 2
        assert abs(pairs[1].value - pairs[2].value) <= 1e-9 * exact
        np.testing.assert_allclose([pairs[1].value, pairs[2].value], exact, rtol=1e-4)
        g = pairs[1].vector @ (disk_neumann.mass @ pairs[2].vector)
        assert abs(g) < 1e-10

    def test_dense_and_sparse_paths_agree(self, disk_dirichlet, disk_neumann):
        d = solve_smallest(disk_dirichlet, 8, method="dense")
        s = solve_smallest(disk_dirichlet, 8, method="sparse")
        for a, b in zip(d, s):
            assert abs(a.value - b.value) <= 1e-10 * abs(a.value)
        # the Neumann constant mode is a numerical zero: compare on the
        # scale of the largest value
        d = solve_smallest(disk_neumann, 5, method="dense")
        s = solve_smallest(disk_neumann, 5, method="sparse")
        assert abs(d[0].value) <= 1e-10 * d[-1].value
        for a, b in zip(d, s):
            assert abs(a.value - b.value) <= 1e-10 * d[-1].value

    def test_bitwise_reproducible(self, disk_neumann):
        a = solve_smallest(disk_neumann, 5, method="sparse")
        b = solve_smallest(disk_neumann, 5, method="sparse")
        for x, y in zip(a, b):
            assert x.value == y.value
            assert np.array_equal(x.vector, y.vector)

    def test_sign_convention(self, disk_dirichlet):
        for p in solve_smallest(disk_dirichlet, 6):
            assert p.vector[np.argmax(np.abs(p.vector))] > 0


class TestRandomPencils:
    def test_paths_agree_on_random_spd(self):
        for seed in range(3):
            pen = random_spd_pencil(40, seed)
            d = solve_smallest(pen, 6, method="dense")
            s = solve_smallest(pen, 6, method="sparse")
            for a, b in zip(d, s):
                assert abs(a.value - b.value) <= 1e-10 * abs(a.value)
                np.testing.assert_allclose(a.vector, b.vector, atol=1e-7)


class TestValidationAndErrors:
    def test_bad_mode_count(self):
        pen = csr_pencil(sp.identity(3, format="csr"), sp.identity(3, format="csr"))
        with pytest.raises(DomainError):
            solve_smallest(pen, 0)
        with pytest.raises(DomainError):
            solve_smallest(pen, 4)
        with pytest.raises(DomainError):
            solve_smallest(pen, 2, method="magic")

    def test_indefinite_mass_rejected(self):
        K = sp.identity(3, format="csr")
        M = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(SolverError):
            solve_smallest(csr_pencil(K, M), 1)


class TestHelpers:
    def test_sign_fix(self):
        np.testing.assert_array_equal(sign_fix(np.array([1.0, -2.0])), [-1.0, 2.0])
        np.testing.assert_array_equal(sign_fix(np.array([-1.0, 2.0])), [-1.0, 2.0])

    def test_group_clusters(self):
        vals = np.array([1.0, 1.0 + 1e-12, 2.0, 3.0, 3.0 + 1e-12, 3.0 + 2e-12])
        groups = group_clusters(vals)
        assert [list(g) for g in groups] == [[0, 1], [2], [3, 4, 5]]
