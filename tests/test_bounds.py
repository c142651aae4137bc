import math

import numpy as np
import pytest

from sdheat import bounds

# -log(1 + sqrt(2)) + (sqrt(2) - 1), evaluated in extended precision
PANG_F_1 = -0.4671600246464479


class TestLorentzRhs:
    cbar, dx = 1.0, 0.5

    def rhs(self, offsets, t, m=0, cubic_tail=True):
        return bounds.lorentz_rhs(np.array(offsets), t, self.cbar, self.dx, m, cubic_tail)

    def test_origin_large_time(self):
        # t past the regime switch: the min picks 1/sqrt(2 cbar)
        t = 1.0
        assert self.rhs([0], t)[0] == pytest.approx(t**-0.5 / math.sqrt(2.0))

    def test_origin_small_time(self):
        # below the switch the sqrt(t)/dx factor cancels t^{-1/2}
        t = 0.01 * self.dx**2 / (2.0 * self.cbar)
        assert self.rhs([0], t)[0] == pytest.approx(1.0 / self.dx)

    def test_order_scaling(self):
        t = 0.37
        offsets = [0, 3, -7]
        assert self.rhs(offsets, t, m=2) == pytest.approx(self.rhs(offsets, t, m=0) / t)

    def test_positive_and_errors(self):
        assert self.rhs([5], 2.0)[0] > 0.0
        with pytest.raises(ValueError):
            self.rhs([0], 0.0)


class TestGaussian:
    def test_origin_region_and_value(self):
        c = (1.0, 2.0)
        for t in (1e-3, 1.0):
            log_rhs = sum(bounds.gaussian_log_rhs(np.array([0]), t, cj, 1.0, min(c))[0]
                          for cj in c)
            assert math.isfinite(log_rhs)
            assert math.exp(log_rhs) == pytest.approx(math.pi / math.sqrt(4.0 * t * 4.0 * 2.0 * t))

    def test_region_boundary(self):
        t = 10.0 / (2.0 * bounds.C0_GAUSSIAN)
        assert math.isfinite(bounds.gaussian_log_rhs(np.array([10]), t, 1.0, 1.0, 1.0)[0])
        assert bounds.gaussian_log_rhs(np.array([10]), t * 0.999, 1.0, 1.0, 1.0)[0] == math.inf

    def test_even(self):
        a, b = bounds.gaussian_log_rhs(np.array([7, -7]), 1.0, 1.0, 0.5, 1.0)
        assert a == b


class TestPang:
    def test_small_gamma(self):
        assert abs(bounds.pang_F(1e-4)) <= 1e-4

    def test_reference_value(self):
        assert bounds.pang_F(1.0) == pytest.approx(PANG_F_1, rel=1e-13)

    def test_series_majorant(self):
        for g in np.logspace(-3, 0.5, 25):
            assert bounds.pang_F(g) <= -g / 2.0 + g**3 / 20.0 + 1e-15

    def test_log_majorant_at_5(self):
        assert bounds.pang_F(5.0) <= -math.log(2.0 * 5.0 / math.e)

    def test_negative_and_limit(self):
        for g in (1e-6, 0.1, 3.0, 100.0):
            assert bounds.pang_F(g) < 0.0
        with pytest.raises(ValueError):
            bounds.pang_F(0.0)

    def test_rhs_branch_agreement(self):
        for n in (2, 9):
            t = float(n)
            lo = bounds.pang_rhs(n, t * (1.0 - 1e-12))
            hi = bounds.pang_rhs(n, t * (1.0 + 1e-12))
            assert lo == pytest.approx(hi, rel=1e-9)

    def test_prefactor(self):
        v = bounds.pang_rhs(4, 1.0)
        assert v == pytest.approx(0.5 * math.exp(4.0 * bounds.pang_F(2.0)))

    def test_origin_excluded(self):
        with pytest.raises(ValueError):
            bounds.pang_rhs(0, 1.0)


class TestLorentzConvolution:
    def test_symmetric_point(self):
        assert bounds.lorentz_closed_form(0.7, 0.7, 1.0, 2.0) == pytest.approx(math.pi / 2.0)

    def test_quadrature_agreement(self):
        closed = bounds.lorentz_closed_form(1.5, 0.0, 0.3, 1.0)
        quad = bounds.lorentz_conv_quadrature(1.5, 0.0, 0.3, 1.0)
        assert abs(closed - quad) <= 1e-8 * abs(closed)

    def test_sqrt2_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            t = float(rng.uniform(0.2, 4.0))
            s = float(rng.uniform(0.05, 0.95)) * t
            z = float(rng.uniform(-5.0, 5.0))
            val = bounds.lorentz_closed_form(z, 0.0, s, t)
            assert val <= math.sqrt(2.0) * math.pi * bounds.lorentz_tilde(t, z) * (1 + 1e-12)

    def test_time_window_errors(self):
        with pytest.raises(ValueError):
            bounds.lorentz_closed_form(0.0, 0.0, 1.0, 0.5)


class TestKRhs:
    """The correction-kernel variant of the Lorentzian: one more half
    power of t (m = 1) and no cubic tail."""

    def test_diagonal_large_time(self):
        cbar, dx = 1.0, 0.5
        t = 2.0
        v = bounds.lorentz_rhs(np.array([0]), t, cbar, dx, 1, cubic_tail=False)
        assert v[0] == pytest.approx(t**-1.0 / math.sqrt(2.0 * cbar))

    def test_offset_symmetry(self):
        offsets = np.arange(-6, 7)
        v = bounds.lorentz_rhs(offsets, 0.3, 1.0, 0.25, 1, cubic_tail=False)
        assert np.array_equal(v, v[::-1])

    def test_matches_lorentz_variant(self):
        # the bound of K(alpha, beta) is the one-direction Lorentzian at
        # alpha - beta; a matrix of pair offsets gives the Toeplitz matrix
        # of the vector over offsets, entry for entry
        alpha = np.arange(-4, 5)
        v = bounds.lorentz_rhs(alpha[:, None] - alpha[None, :], 0.7, 2.0, 0.5, 1,
                               cubic_tail=False)
        row = bounds.lorentz_rhs(np.arange(-8, 9), 0.7, 2.0, 0.5, 1, cubic_tail=False)
        for i in range(alpha.size):
            assert np.array_equal(v[i], row[i:i + alpha.size][::-1])
        assert v[5, 2] == bounds.lorentz_rhs(np.array([3]), 0.7, 2.0, 0.5, 1, cubic_tail=False)[0]
