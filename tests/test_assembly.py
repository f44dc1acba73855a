"""Tests for Galerkin assembly on mapped patches."""

import math
import re

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from conftest import csr_pencil

from cavityuq.assembly import (
    DiscreteSpace,
    MatrixPencil,
    assemble,
    boundary_dofs,
)
from cavityuq.errors import AssemblyError, DomainError
from cavityuq.geometry import (
    BoundarySampler,
    GeometryMap,
    build_disk_patch,
    deform,
    deformation_from_kl,
    refine_patch,
)
from cavityuq.oracle import bessel_derivative_zero, bessel_zero
from cavityuq.splines import BSplineBasis, ControlNet, uniform_open_knots
from cavityuq.uq import (
    build_smolyak_grid,
    default_correlated_covariance,
    fit_kl,
    generate_synthetic_observations,
)


def dirichlet_eigs(geom, degree, n_elements, count):
    pen = assemble(geom, DiscreteSpace(degree, n_elements), bc="dirichlet")
    w = la.eigh(pen.stiffness.toarray(), pen.mass.toarray(), eigvals_only=True)
    return w[:count]


def assemble_full(geom, space):
    """(K, M) on the whole tensor space, no boundary conditions, as scipy
    CSR matrices."""
    pen = assemble(geom, space, bc="neumann")
    return pen.stiffness.tocsr(), pen.mass.tocsr()


def reference_assemble_full(geom, space):
    """Cell-by-point assembly, one single-point Jacobian per quadrature
    point, evaluated from the map's own control net."""
    geom = GeometryMap(geom.bases, geom.net, validate=False)
    p = space.degree
    xg, wg = np.polynomial.legendre.leggauss(p + 1)
    cells = []
    for basis, gbasis in zip(space.bases, geom.bases):
        merged = np.unique(np.concatenate([basis.kv.breakpoints, gbasis.kv.breakpoints]))
        keep = [merged[0]]
        for x in merged[1:]:
            if x - keep[-1] > 1e-12:
                keep.append(x)
        axis = []
        for a, b in zip(keep[:-1], keep[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            nodes = mid + half * xg
            spans, ders = basis.eval_basis_derivatives(nodes, 1)
            assert np.all(spans == basis.kv.find_span(mid))
            axis.append((int(spans[0]) - p, nodes, half * wg, ders.transpose(1, 0, 2)))
        cells.append(axis)
    nloc1 = p + 1
    n = space.n_dofs
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for first_u, nodes_u, w_u, tab_u in cells[0]:
        for first_v, nodes_v, w_v, tab_v in cells[1]:
            idx = (
                np.arange(first_u, first_u + nloc1)[:, None] * space.shape[1]
                + np.arange(first_v, first_v + nloc1)
            ).ravel()
            for iu in range(nodes_u.size):
                for iv in range(nodes_v.size):
                    J = geom.jacobian_grid([nodes_u[iu]], [nodes_v[iv]])[1][0, 0]
                    det = np.linalg.det(J)
                    shape = np.outer(tab_u[iu][0], tab_v[iv][0]).ravel()
                    grad = np.array([
                        np.outer(tab_u[iu][1], tab_v[iv][0]).ravel(),
                        np.outer(tab_u[iu][0], tab_v[iv][1]).ravel(),
                    ])
                    phys = np.linalg.solve(J.T, grad)
                    w = w_u[iu] * w_v[iv] * det
                    K[np.ix_(idx, idx)] += w * (phys.T @ phys)
                    M[np.ix_(idx, idx)] += w * np.outer(shape, shape)
    return K, M


def readme_disk_model():
    """The README deformed disk: KL draw of seed 1234, refinement 3."""
    cov = default_correlated_covariance(18)
    kl = fit_kl(generate_synthetic_observations(cov, np.zeros(18), 5000, 1234), 0.95)
    base = refine_patch(build_disk_patch(0.05), 3)
    sampler = BoundarySampler(2 * np.pi * np.arange(18) / 18, kind="radial")
    return deformation_from_kl(kl, base, sampler)


def readme_disk_at(delta):
    return deform(readme_disk_model(), delta)


class TestDiscreteSpace:
    def test_shapes_and_counts(self):
        s = DiscreteSpace(2, (4, 6))
        assert s.shape == (6, 8)
        assert s.n_dofs == 48

    def test_validation(self):
        with pytest.raises(DomainError):
            DiscreteSpace(0, 4)
        with pytest.raises(DomainError):
            DiscreteSpace(2, 0)


class TestBoundaryDofs:
    def test_full_ring_of_4x4(self):
        s = DiscreteSpace(2, 2)
        assert s.shape == (4, 4)
        ring = boundary_dofs(s)
        assert ring.size == 12
        inner = np.setdiff1d(np.arange(16), ring)
        np.testing.assert_array_equal(inner, [5, 6, 9, 10])

    def test_eliminated_dimension_matches_assembly(self, unit_square_patch):
        s = DiscreteSpace(2, 5)
        pen = assemble(unit_square_patch, s, bc="dirichlet")
        assert pen.n == s.n_dofs - boundary_dofs(s).size
        assert assemble(unit_square_patch, s, bc="neumann").n == s.n_dofs


class TestSquareAssembly:
    def test_laplace_eigenvalues(self, unit_square_patch):
        w = dirichlet_eigs(unit_square_patch, 2, 16, 4)
        exact = math.pi**2 * np.array([2.0, 5.0, 5.0, 8.0])
        np.testing.assert_allclose(w, exact, rtol=1e-4)

    def test_mass_sums_to_area_exactly(self, unit_square_patch):
        pen = assemble(unit_square_patch, DiscreteSpace(3, 7), bc="neumann")
        assert abs(pen.mass.data.sum() - 1.0) <= 1e-14

    def test_neumann_kernel_contains_constants(self, unit_square_patch):
        pen = assemble(unit_square_patch, DiscreteSpace(2, 8), bc="neumann")
        resid = np.abs(pen.stiffness @ np.ones(pen.n)).max()
        assert resid <= 1e-12 * np.abs(pen.stiffness.data).max()

    def test_symmetry(self, unit_square_patch):
        K, M = assemble_full(unit_square_patch, DiscreteSpace(3, 6))
        for A in (K, M):
            skew = abs(A - A.T)
            assert skew.nnz == 0 or skew.max() <= 1e-12 * abs(A).max()


class TestDiskAssembly:
    def test_mass_sums_to_disk_area(self):
        g = build_disk_patch(0.05)
        area = math.pi * 0.05**2
        for degree, nel in [(2, 16), (3, 16)]:
            pen = assemble(g, DiscreteSpace(degree, nel), bc="neumann")
            assert abs(pen.mass.data.sum() / area - 1.0) <= 1e-10

    def test_first_eigenvalue_converges_monotonically(self):
        g = build_disk_patch(0.05)
        exact = (bessel_zero(0, 1) / 0.05) ** 2
        errs = [abs(dirichlet_eigs(g, 2, nel, 1)[0] / exact - 1.0) for nel in (4, 8, 16)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-5

    def test_radius_scaling_divides_eigenvalues(self):
        w1 = dirichlet_eigs(build_disk_patch(0.05), 2, 8, 5)
        w2 = dirichlet_eigs(build_disk_patch(0.15), 2, 8, 5)
        np.testing.assert_allclose(w2, w1 / 9.0, rtol=1e-10)

    def test_neumann_spectrum_hits_derivative_zero(self):
        # smallest nonzero Neumann eigenvalue is (x'_11 / r)^2
        g = build_disk_patch(0.05)
        pen = assemble(g, DiscreteSpace(2, 16), bc="neumann")
        w = la.eigh(pen.stiffness.toarray(), pen.mass.toarray(), eigvals_only=True)
        assert abs(w[0]) <= 1e-7 * w[3]
        exact = (bessel_derivative_zero(1, 1) / 0.05) ** 2
        np.testing.assert_allclose(w[1], exact, rtol=1e-4)
        np.testing.assert_allclose(w[2], exact, rtol=1e-4)


class TestBatchedAssembly:
    @staticmethod
    def check_against_reference(geom, space):
        ref = reference_assemble_full(geom, space)
        for A, R in zip(assemble_full(geom, space), ref):
            A = A.tocsr()
            A.sort_indices()
            pattern = sp.csr_matrix(R != 0.0)
            np.testing.assert_array_equal(A.indptr, pattern.indptr)
            np.testing.assert_array_equal(A.indices, pattern.indices)
            assert np.abs(A.toarray() - R).max() <= 1e-12 * np.abs(R).max()

    def test_disk_matches_cell_by_point_reference(self):
        self.check_against_reference(build_disk_patch(0.05), DiscreteSpace(2, 16))

    def test_readme_kl_disk_matches_cell_by_point_reference(self):
        geom = readme_disk_at([-1.73, 0.0, 1.73, 0.0, 0.0, 0.0, 0.0])
        self.check_against_reference(geom, DiscreteSpace(2, 8))


class TestAffineNodes:
    def test_node_pencils_match_direct_assembly(self):
        """At every node of the README disk study the pencil of the deformed
        map, whose Jacobians are an axpy of the model's fields, equals the
        pencil assembled from the deformed control net, on one pattern."""
        model = readme_disk_model()
        space = DiscreteSpace(2, 8)
        grid = build_smolyak_grid(7, 2, "gauss-hermite", None)
        base = assemble(deform(model, np.zeros(7)), space)
        worst = 0.0
        for delta in grid.nodes:
            pen = assemble(deform(model, delta), space)
            pts = model.base.net.points + model.mean_field + np.tensordot(
                delta, model.mode_fields, axes=1
            )
            direct = GeometryMap(model.base.bases, ControlNet(pts, model.base.net.weights),
                                 validate=False)
            ref = assemble(direct, space)
            assert pen.pattern is base.pattern is ref.pattern
            for A, R in ((pen.stiffness, ref.stiffness), (pen.mass, ref.mass)):
                worst = max(worst, np.abs(A.data - R.data).max() / np.abs(R.data).max())
        assert grid.n_nodes == 127 and worst <= 1e-13


class TestErrors:
    def test_folded_geometry_raises(self):
        # twisted bilinear net flips the Jacobian sign inside the cell
        kv = uniform_open_knots(1, 1)
        basis = BSplineBasis(kv, 1)
        pts = np.array([[[0.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 0.0]]])
        g = GeometryMap((basis, basis), ControlNet(pts), validate=False)
        with pytest.raises(AssemblyError):
            assemble_full(g, DiscreteSpace(2, 4))

    def test_fold_inside_one_interior_cell_raises(self):
        # control point (2, 2) of the 6x6 net pushed across its neighbours:
        # the Jacobian turns negative inside knot cell (1, 1) only
        base = refine_patch(build_disk_patch(0.05), 2)
        pts = base.net.points.copy()
        pts[2, 2] += 0.03
        g = GeometryMap(base.bases, ControlNet(pts, base.net.weights), validate=False)
        with pytest.raises(AssemblyError, match="quadrature point") as info:
            assemble_full(g, DiscreteSpace(2, 8))
        u, v = map(float, re.search(r"\(([-\d.]+), ([-\d.]+)\)", str(info.value)).groups())
        assert 0.25 < u < 0.5 and 0.25 < v < 0.5

    def test_unknown_bc_rejected(self, unit_square_patch):
        with pytest.raises(DomainError):
            assemble(unit_square_patch, DiscreteSpace(2, 4), bc="robin")


class TestMatrixPencil:
    def test_validation_rejects_asymmetry(self):
        K = sp.csr_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
        M = sp.identity(2, format="csr")
        with pytest.raises(DomainError):
            csr_pencil(K, M)

    def test_validation_on_the_assembly_pattern(self, unit_square_patch):
        # an assembled pencil is checked through its pattern's transpose map
        pen = assemble(unit_square_patch, DiscreteSpace(2, 4))
        k, m = pen.stiffness.data.copy(), pen.mass.data.copy()
        MatrixPencil(pen.pattern, k, m, validate=True)
        assert pen.pattern.indices[1] == 1         # entry 1 is (0, 1)
        k[1] *= 1.0 + 1e-9
        with pytest.raises(DomainError, match="K is not symmetric"):
            MatrixPencil(pen.pattern, k, m, validate=True)
        m[0] = -m[0]                               # entry 0 is (0, 0)
        with pytest.raises(DomainError, match="nonpositive diagonal"):
            MatrixPencil(pen.pattern, pen.stiffness.data, m, validate=True)

    def test_validation_rejects_bad_mass_diagonal(self):
        K = sp.identity(2, format="csr")
        M = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(DomainError):
            csr_pencil(K, M)
