"""Tests for parametric pencils, homotopies, and the pillbox cross-sections."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import csr_pencil, pencil_at

from cavityuq.assembly import DiscreteSpace, PatternMatrix, SparsityPattern, assemble
from cavityuq.eigen import solve_smallest
from cavityuq.errors import DomainError
from cavityuq.geometry import build_disk_patch
from cavityuq.oracle import bessel_zero
from cavityuq.pencil import (
    HomotopyPencil,
    ParametricPencil,
    block_pencil,
    build_pillbox_pencil,
    eigenvalue_to_frequency,
    is_spurious,
)

SPACE = DiscreteSpace(2, 12)


def disk_pencil(r, bc="dirichlet"):
    return assemble(build_disk_patch(r), SPACE, bc=bc)


@pytest.fixture(scope="module")
def homotopy():
    return HomotopyPencil(disk_pencil(0.05), [disk_pencil(0.06)])


class TestHomotopy:
    def test_endpoints_exact(self, homotopy):
        assert np.array_equal(
            pencil_at(homotopy, 0.0).stiffness.data, homotopy.start.stiffness.data
        )
        assert np.array_equal(pencil_at(homotopy, 1.0).mass.data, homotopy.ends[0].mass.data)

    def test_midpoint_is_entrywise_average(self, homotopy):
        mid = pencil_at(homotopy, 0.5).stiffness.data
        avg = 0.5 * homotopy.start.stiffness.data + 0.5 * homotopy.ends[0].stiffness.data
        assert np.array_equal(mid, avg)

    def test_affine_in_t(self, homotopy):
        h = 0.125
        for t in (0.25, 0.5, 0.625):
            second = (
                pencil_at(homotopy, t + h).stiffness.data
                - 2 * pencil_at(homotopy, t).stiffness.data
                + pencil_at(homotopy, t - h).stiffness.data
            )
            top = np.abs(pencil_at(homotopy, t).stiffness.data).max()
            assert np.abs(second).max() <= 1e-12 * top

    def test_each_end_at_its_own_t(self):
        # one stack of ends at different t is, row for row and bit for bit,
        # each end's own pencil at its t
        ends = [disk_pencil(r) for r in (0.055, 0.06, 0.045)]
        hom = HomotopyPencil(disk_pencil(0.05), ends)
        ts, rows = [0.0, 0.37, 1.0, 0.37, 0.8125], [2, 0, 1, 1, 0]
        stack = hom.at(ts, rows)
        for k, (t, b) in enumerate(zip(ts, rows)):
            own = hom.at(t, [b])
            for name in ("stiffness", "mass"):
                row = getattr(stack, name).data[k]
                assert row.tobytes() == getattr(own, name).data[0].tobytes(), (t, b, name)
        assert np.array_equal(stack.stiffness.data[0], hom.start.stiffness.data)
        assert np.array_equal(stack.mass.data[2], ends[1].mass.data)
        with pytest.raises(DomainError):
            hom.at([0.5, 1.5], [0, 1])

    def test_derivative_is_difference(self, homotopy):
        Kp, Mp = homotopy.derivative([0])
        assert Kp.pattern is Mp.pattern is homotopy.pattern
        end = homotopy.ends[0]
        assert np.array_equal(Kp.data[0], end.stiffness.data - homotopy.start.stiffness.data)
        assert np.array_equal(Mp.data[0], end.mass.data - homotopy.start.mass.data)

    def test_derivative_matches_finite_differences(self, homotopy):
        # 2-D stiffness is invariant under pure rescaling, so K' here is
        # rounding-level; compare against the matrix scale, not the slope.
        Kp, Mp = homotopy.derivative([0])
        h = 1e-3
        for A, Ap in (
            (lambda t: pencil_at(homotopy, t).stiffness.data, Kp),
            (lambda t: pencil_at(homotopy, t).mass.data, Mp),
        ):
            fd = (A(0.5 + h) - A(0.5 - h)) / (2 * h)
            assert np.abs(fd - Ap.data[0]).max() <= 1e-12 * np.abs(A(0.5)).max()

    def test_identity_homotopy_has_zero_derivative(self):
        pen = disk_pencil(0.05)
        Kp, Mp = HomotopyPencil(pen, [pen]).derivative([0])
        assert not Kp.data.any() and not Mp.data.any()

    def test_parameter_domain(self, homotopy):
        for t in (-0.01, 1.01):
            with pytest.raises(DomainError):
                homotopy.at(t, [0])

    def test_size_mismatch_rejected(self):
        a = disk_pencil(0.05)
        b = assemble(build_disk_patch(0.05), DiscreteSpace(2, 8), bc="dirichlet")
        with pytest.raises(DomainError):
            HomotopyPencil(a, [b])

    def test_endpoints_share_the_assembly_pattern(self, homotopy):
        assert homotopy.start.pattern is homotopy.ends[0].pattern is homotopy.pattern
        assert homotopy.at(0.37, [0]).pattern is homotopy.pattern

    def test_pattern_mismatch_rejected(self):
        a = disk_pencil(0.05)
        K = a.stiffness.tocsr().tocoo()
        drop = (K.row != K.col) & ((K.row + K.col) % 3 == 1)
        thinned = sp.csr_matrix((K.data[~drop], (K.row[~drop], K.col[~drop])), shape=K.shape)
        for end in (
            csr_pencil(thinned, thinned, validate=False),     # fewer entries
            # the same entries on another pattern object
            csr_pencil(a.stiffness.tocsr(), sp.identity(a.n, format="csr"), validate=False),
        ):
            for start, other in ((a, end), (end, a)):
                with pytest.raises(DomainError, match="different sparsity patterns"):
                    HomotopyPencil(start, [other])


def random_csr(rng):
    """A canonical square CSR matrix with random size, density and
    magnitudes that stores its diagonal, as every pattern does, and zeros
    of both signs in some cases."""
    n = m = rng.integers(1, 40)
    mask = (rng.random((n, m)) < rng.choice([0.0, 0.05, 0.3, 0.9, 1.0])) | np.eye(n, dtype=bool)
    rows, cols = np.nonzero(mask)
    data = rng.standard_normal(rows.size) * 10.0 ** rng.uniform(-3, 3, rows.size)
    if rng.random() < 0.5:
        data[rng.random(rows.size) < 0.2] = 0.0
        data[rng.random(rows.size) < 0.1] = -0.0
    if rng.random() < 0.05:
        data[:] = 0.0
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return sp.csr_matrix((data, cols, indptr), shape=(n, m))


class TestInfNorm:
    def test_matches_spla_norm_bit_for_bit(self):
        rng = np.random.default_rng(7)
        long_rows = all_zero = 0
        for _ in range(3000):
            A = random_csr(rng)
            pruned = A.copy()
            pruned.eliminate_zeros()
            long_rows += int(np.diff(pruned.indptr).max() >= 8)
            all_zero += int(pruned.nnz == 0)
            got = np.float64(PatternMatrix(SparsityPattern(A.indptr, A.indices), A.data).norm_inf())
            assert got.tobytes() == np.float64(spla.norm(pruned, np.inf)).tobytes()
        # rows that numpy sums pairwise, and matrices without a nonzero
        assert long_rows >= 500 and all_zero >= 100


class TestParametricPencil:
    def test_repeated_evaluation_is_bit_identical(self):
        par = ParametricPencil(lambda d: disk_pencil(d[0]), [0.05])
        a = par.at([0.055])
        b = par.at([0.055])
        assert np.array_equal(a.stiffness.data, b.stiffness.data)
        assert a.pattern is b.pattern
        assert np.array_equal(a.mass.data, b.mass.data)

    def test_shape_validation(self):
        par = ParametricPencil(lambda d: disk_pencil(d[0]), [0.05])
        with pytest.raises(DomainError):
            par.at([0.05, 0.06])


@pytest.fixture(scope="module")
def stack():
    return build_pillbox_pencil(0.06, 0.1, 2, SPACE)


def split_block_spectra(stack, k):
    """(physical, spurious): physical lists (block, shifted value) from each
    family's k lowest cross-section pairs, spurious the constant-mode pairs."""
    phys, bad = [], []
    for family, pen in stack.base.items():
        for pair in solve_smallest(pen, k):
            if is_spurious(pair, pen):
                bad.append((family, pair))
                continue
            phys += [(b, pair.value + b.axial_shift) for b in stack.blocks if b.family == family]
    return phys, bad


class TestPillboxPencil:
    def test_block_layout(self, stack):
        fams = [(b.family, b.axial) for b in stack.blocks]
        assert fams == [("TM", 0), ("TM", 1), ("TM", 2), ("TE", 1), ("TE", 2)]
        for b in stack.blocks:
            assert b.axial_shift == pytest.approx((b.axial * math.pi / 0.1) ** 2, rel=1e-15)
        sections = stack.base
        assert sorted(sections) == ["TE", "TM"]
        assert sections["TE"].n == SPACE.n_dofs
        assert sections["TM"].n == disk_pencil(0.06).n < SPACE.n_dofs
        # every block of a family is its cross-section, shifted, on its pattern
        for b in stack.blocks:
            pen, section = block_pencil(sections, b), sections[b.family]
            assert pen.pattern is section.pattern
            assert np.array_equal(pen.mass.data, section.mass.data)
            want = section.stiffness.data + b.axial_shift * section.mass.data
            assert np.array_equal(pen.stiffness.data, want)

    def test_dirichlet_block_matches_direct_assembly(self, stack):
        pen = stack.at([0.06])
        tm0 = block_pencil(pen, stack.blocks[0])
        direct = disk_pencil(0.06)
        assert tm0.pattern is direct.pattern
        assert np.array_equal(tm0.stiffness.data, direct.stiffness.data)
        assert np.array_equal(tm0.mass.data, direct.mass.data)

    def test_p0_block_lowest_eigenvalue(self, stack):
        tm0 = block_pencil(stack.at([0.05]), stack.blocks[0])
        lam = solve_smallest(tm0, 1)[0].value
        exact = (bessel_zero(0, 1) / 0.05) ** 2
        assert abs(lam / exact - 1.0) <= 1e-4
        assert abs(eigenvalue_to_frequency(lam) / 2.2949e9 - 1.0) <= 1e-4

    def test_doubling_radius_quarters_p0_eigenvalues(self, stack):
        a = block_pencil(stack.at([0.05]), stack.blocks[0])
        b = block_pencil(stack.at([0.10]), stack.blocks[0])
        wa = [p.value for p in solve_smallest(a, 4)]
        wb = [p.value for p in solve_smallest(b, 4)]
        np.testing.assert_allclose(np.array(wa) / np.array(wb), 4.0, rtol=1e-10)

    @pytest.mark.parametrize("r", [0.04, 0.10])
    def test_node_pencils_match_direct_assembly(self, stack, r):
        # a radius dilates the disk: K keeps its data and M scales by
        # (r / r0)^2, on the kernel's pattern, with no assembly
        sections = stack.at([r])
        for family, bc in (("TM", "dirichlet"), ("TE", "neumann")):
            direct = disk_pencil(r, bc)
            got = sections[family]
            assert got.pattern is direct.pattern
            for a, b in ((got.stiffness, direct.stiffness), (got.mass, direct.mass)):
                assert np.abs(a.data - b.data).max() <= 1e-13 * np.abs(b.data).max()

    def test_ten_lowest_frequencies_match_analytic_table(self, stack, pillbox_spectrum):
        pairs, bad = split_block_spectra(stack, 12)
        assert len(bad) == 1
        phys = sorted(value for _, value in pairs)
        ref = pillbox_spectrum(0.06, 0.1, 10)
        for (label, f_ref), value in zip(ref, phys[:10]):
            f = eigenvalue_to_frequency(value)
            assert abs(f / f_ref - 1.0) <= 5e-4, str(label)

    def test_spurious_modes_sit_at_axial_shift(self, stack):
        # the TE cross-section carries exactly one constant-mode pair, at 0;
        # in a TE block it sits at the block's axial shift
        _, bad = split_block_spectra(stack, 12)
        assert [family for family, _ in bad] == ["TE"]
        (_, pair), = bad
        assert abs(pair.value) <= 1e-9
        for b in stack.blocks:
            if b.family == "TE":
                lowest = solve_smallest(block_pencil(stack.base, b), 1)[0]
                assert lowest.value == pytest.approx(b.axial_shift, rel=1e-8)
                np.testing.assert_allclose(lowest.vector, lowest.vector.mean(), rtol=1e-8)

    def test_validation(self):
        with pytest.raises(DomainError):
            build_pillbox_pencil(-0.05, 0.1, 2, SPACE)
        with pytest.raises(DomainError):
            build_pillbox_pencil(0.05, 0.1, 0, SPACE)


class TestFrequencyConversion:
    def test_round_trip(self):
        lam = 2313.0
        f = eigenvalue_to_frequency(lam)
        assert f == pytest.approx(299792458.0 * math.sqrt(lam) / (2 * math.pi), rel=1e-15)
        with pytest.raises(DomainError):
            eigenvalue_to_frequency(-1.0)
