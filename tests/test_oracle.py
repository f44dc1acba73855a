"""Tests for the closed-form cavity reference module."""

import mpmath as mp
import numpy as np
import pytest

from cavityuq import oracle
from cavityuq.errors import DomainError

mp.mp.dps = 30


class TestBesselZeros:
    def test_first_zero_values(self):
        # frozen from 30-digit computation
        assert abs(oracle.bessel_zero(0, 1) - 2.404825557695773) <= 1e-12
        assert abs(oracle.bessel_derivative_zero(1, 1) - 1.8411837813406593) <= 1e-12

    def test_all_supported_zeros_against_scipy(self):
        # the oracle takes its zeros from scipy; mpmath is the reference
        for m in range(0, 11):
            # mpmath counts the trivial zero x = 0 of J_0' as the first one
            shift = 1 if m == 0 else 0
            for n in range(1, 11):
                ref = float(mp.besseljzero(m, n))
                ref_d = float(mp.besseljzero(m, n + shift, derivative=1))
                assert abs(oracle.bessel_zero(m, n) - ref) <= 1e-13
                assert abs(oracle.bessel_derivative_zero(m, n) - ref_d) <= 1e-13

    def test_zeros_are_roots_and_increasing(self):
        for m in range(0, 11):
            prev = 0.0
            for n in range(1, 11):
                z = oracle.bessel_zero(m, n)
                assert abs(float(mp.besselj(m, z))) <= 1e-12
                assert z > prev
                prev = z

    def test_interlacing(self):
        # x'_{m,n} < x_{m,n} for m >= 1, and x_{m,n} < x_{m+1,n}
        for m in range(1, 10):
            for n in range(1, 10):
                assert oracle.bessel_derivative_zero(m, n) < oracle.bessel_zero(m, n)
                assert oracle.bessel_zero(m, n) < oracle.bessel_zero(m + 1, n)

    def test_index_validation(self):
        for bad in [(-1, 1), (11, 1), (0, 0), (0, 11), (2.0, 1), (2, 1.0)]:
            with pytest.raises(DomainError):
                oracle.bessel_zero(*bad)
            with pytest.raises(DomainError):
                oracle.bessel_derivative_zero(*bad)


class TestPillboxModes:
    def test_lowest_tm_frequency(self):
        # f = c * x_01 / (2 pi r); frozen from 30-digit computation
        label, f = oracle.pillbox_frequencies(0.05, 0.1, 1)[0]
        assert str(label) == "TM010"
        assert label.degeneracy == 1
        assert abs(f - 2294850556.704201) <= 1.0e-3

    def test_fundamental_family_switches_at_crossing(self):
        lo_label, _ = oracle.pillbox_frequencies(0.04, 0.1, 1)[0]
        hi_label, _ = oracle.pillbox_frequencies(0.06, 0.1, 1)[0]
        assert (lo_label.family, lo_label.m, lo_label.n, lo_label.p) == ("TE", 1, 1, 1)
        assert (hi_label.family, hi_label.m, hi_label.n, hi_label.p) == ("TM", 0, 1, 0)

    def test_returns_count_labels(self):
        # a doubly degenerate label counts once toward count
        for count in (10, 30, 50):
            assert len(oracle.pillbox_frequencies(0.05, 0.1, count)) == count

    def test_degeneracy_rule(self):
        for label, _ in oracle.pillbox_frequencies(0.05, 0.1, 15):
            assert label.degeneracy == (2 if label.m >= 1 else 1)

    def test_spectrum_expands_multiplicity_and_is_sorted(self, pillbox_spectrum):
        flat = pillbox_spectrum(0.05, 0.1, 10)
        freqs = [f for _, f in flat]
        assert len(freqs) == 10
        assert freqs == sorted(freqs)
        # frozen 30-digit values, GHz, with multiplicity
        ref = [2.29485, 2.30952, 2.30952, 2.74103, 3.27743,
               3.27743, 3.47484, 3.47484, 3.65648, 3.65648]
        np.testing.assert_allclose([f / 1e9 for f in freqs], ref, rtol=0, atol=5e-6)

    def test_tm11p_te01p_exact_tie(self):
        # x'_{0,n} equals x_{1,n}, so TM_11p and TE_01p coincide exactly
        f_tm = oracle.mode_frequency(oracle.ModeLabel("TM", 1, 1, 1, 2), 0.05, 0.1)
        f_te = oracle.mode_frequency(oracle.ModeLabel("TE", 0, 1, 1, 1), 0.05, 0.1)
        assert abs(f_tm - f_te) <= 1e-6 * f_tm

    def test_scaling_with_radius(self):
        # p = 0 TM frequencies scale exactly like 1/r
        _, f1 = oracle.pillbox_frequencies(0.05, 0.1, 1)[0]
        _, f2 = oracle.pillbox_frequencies(0.10, 0.1, 1)[0]
        assert abs(f1 - 2.0 * f2) <= 1e-6

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            oracle.pillbox_frequencies(-0.05, 0.1, 3)
        with pytest.raises(DomainError):
            oracle.pillbox_frequencies(0.05, 0.0, 3)
        with pytest.raises(DomainError):
            oracle.pillbox_frequencies(0.05, 0.1, 0)


class TestCrossingRadius:
    def test_value(self):
        # frozen from 30-digit computation of l*sqrt(x01^2 - x'11^2)/pi
        assert abs(oracle.crossing_radius(0.1) - 0.04924273739739178) <= 1e-12

    def test_order_flips_across_crossing(self):
        l = 0.1
        rs = oracle.crossing_radius(l)
        for r, fam in [(rs - 0.003, "TE"), (rs + 0.003, "TM")]:
            label, _ = oracle.pillbox_frequencies(r, l, 1)[0]
            assert label.family == fam

    def test_frequencies_agree_at_crossing(self):
        l = 0.07
        rs = oracle.crossing_radius(l)
        f_tm = oracle.mode_frequency(oracle.ModeLabel("TM", 0, 1, 0), rs, l)
        f_te = oracle.mode_frequency(oracle.ModeLabel("TE", 1, 1, 1, 2), rs, l)
        assert abs(f_tm - f_te) <= 1e-9 * f_tm

    def test_scales_linearly_with_length(self):
        assert abs(oracle.crossing_radius(0.2) - 2.0 * oracle.crossing_radius(0.1)) <= 1e-15

    def test_rejects_nonpositive_length(self):
        with pytest.raises(DomainError):
            oracle.crossing_radius(0.0)
