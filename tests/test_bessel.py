import math

import numpy as np
import pytest

from sdheat import bessel

# e^-1 I_0(1), summed from the power series in extended precision
IV_0_1 = 0.46575960759364043


class TestIvScaled:
    def test_at_zero(self):
        assert bessel.iv_scaled(0, 0.0) == 1.0
        assert bessel.iv_scaled(3, 0.0) == 0.0

    def test_series_value(self):
        assert abs(bessel.iv_scaled(0, 1.0) - IV_0_1) < 1e-14

    def test_negative_order_folds(self):
        assert bessel.iv_scaled(-5, 2.0) == bessel.iv_scaled(5, 2.0)

    def test_bounds(self):
        for n in (0, 1, 7, 100):
            for r in (1e-3, 1.0, 50.0, 1e4):
                v = bessel.iv_scaled(n, r)
                assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_argument_errors(self, bad):
        with pytest.raises(ValueError):
            bessel.iv_scaled(0, bad)

    def test_monotone_in_order(self):
        for r in (0.1, 2.0, 35.0, 500.0):
            arr = bessel.iv_scaled_array(40, r)
            assert np.all(np.diff(arr) <= 1e-18)

    def test_three_term_recurrence(self):
        for r in (1e-3, 0.5, 20.0, 300.0):
            arr = bessel.iv_scaled_array(32, r)
            for n in range(1, 30):
                lhs = arr[n - 1] - arr[n + 1]
                rhs = (2.0 * n / r) * arr[n]
                scale = abs(arr[n - 1]) + abs(arr[n + 1]) + abs(rhs)
                if scale > 1e-280:
                    assert abs(lhs - rhs) <= 1e-9 * scale

    def test_normalization(self):
        for r in (0.5, 5.0, 50.0):
            m = bessel.normalization_order(r)
            arr = bessel.iv_scaled_array(m, r)
            total = arr[0] + 2.0 * arr[1:].sum()
            assert abs(total - 1.0) <= 1e-12

    def test_array_matches_scalar(self):
        for r in (0.0, 0.7, 29.9, 30.1, 412.0):
            arr = bessel.iv_scaled_array(25, r)
            for n in (0, 1, 13, 25):
                assert arr[n] == pytest.approx(bessel.iv_scaled(n, r), rel=1e-13, abs=1e-300)

    def test_matrix_matches_scalar(self):
        rs = np.array([0.0, 1e-2, 3.0, 29.0, 31.0, 222.2])
        mat = bessel.iv_scaled_matrix(20, rs)
        for j, r in enumerate(rs):
            for n in (0, 2, 20):
                assert mat[n, j] == pytest.approx(bessel.iv_scaled(n, float(r)),
                                                  rel=1e-12, abs=1e-300)

    def test_matrix_edge_batches(self):
        assert bessel.iv_scaled_matrix(7, np.array([])).shape == (8, 0)
        for rs in (np.zeros(3), np.array([0.0, 2.5, 0.0, 400.0])):
            mat = bessel.iv_scaled_matrix(7, rs)
            assert mat.shape == (8, rs.size)
            zero_cols = mat[:, rs == 0.0]
            assert np.all(zero_cols[0] == 1.0) and not np.any(zero_cols[1:])

    def test_tiny_argument(self):
        # e^{-r} I_n(r) = (r/2)^n / n! to double precision once r^2 << 1
        for r in (1e-120, 1e-300):
            want = [(r / 2.0) ** n / math.factorial(n) for n in range(3)]
            mat = bessel.iv_scaled_matrix(2, np.array([r, 50.0]))
            for n in range(3):
                assert bessel.iv_scaled(n, r) == pytest.approx(want[n], rel=1e-13, abs=0.0)
                assert mat[n, 0] == pytest.approx(want[n], rel=1e-13, abs=0.0)


class TestQuadratureOracle:
    def test_at_zero(self):
        assert bessel.iv_scaled_quadrature(0, 0.0) == 1.0
        assert bessel.iv_scaled_quadrature(1, 0.0) == 0.0

    def test_matches_series_point(self):
        q = bessel.iv_scaled_quadrature(0, 1.0)
        assert abs(q - bessel.iv_scaled(0, 1.0)) <= 1e-10 * IV_0_1

    def test_agreement_sweep(self):
        # light version of the acceptance sweep, including the deep
        # cancellation corner (small argument, larger order)
        for n in (0, 3, 17, 45):
            for r in (1e-3, 0.1, 10.0, 1e3):
                iv = bessel.iv_scaled(n, r)
                q = bessel.iv_scaled_quadrature(n, r)
                assert abs(iv - q) <= 1e-10 * max(iv, 1e-300)

    def test_matrix_against_oracle(self):
        # the batch route the parametrix uses, as one mixed batch so the
        # small arguments share the sweep length set by the largest;
        # 29.9/30/30.1 straddle the former series/recurrence cutoff
        rs = np.concatenate([np.logspace(-3, 3, 13), [29.9, 30.0, 30.1]])
        orders = (0, 1, 6, 17, 33, 60)
        mat = bessel.iv_scaled_matrix(60, rs)
        for j, r in enumerate(rs):
            for n in orders:
                q = bessel.iv_scaled_quadrature(n, float(r))
                assert abs(mat[n, j] - q) <= 1e-10 * max(q, 1e-300), (n, r)

    def test_mpmath_independent_check(self):
        # third route: arbitrary-precision library evaluation
        import mpmath
        with mpmath.workdps(40):
            want = float(mpmath.exp(-37.5) * mpmath.besseli(6, 37.5))
        assert bessel.iv_scaled(6, 37.5) == pytest.approx(want, rel=1e-12)
