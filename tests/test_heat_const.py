import math

import numpy as np
import pytest

from sdheat.heat_const import (
    ConstCoeffs,
    kernel_1d,
    kernel_axis_values,
    kernel_nd,
    kernel_series_smalltime,
    kernel_slice,
    kernel_spectral,
    recommended_radius,
    spectral_axis_values,
)
from sdheat.lattice import Field, GridSpec, lp_norm
from sdheat.oracle import residual
from sdheat.parametrix import Coefficients
from sdheat.solver import CauchyProblem, _solve, solve_inhomogeneous

IV_0_1 = 0.46575960759364043


def semigroup(values, t, dx, c=1.0):
    """e^{t c Delta} on a periodic 1-d box: circular convolution with the
    kernel slice.  The box radius must keep the slice's tails negligible."""
    n = values.size
    grid = GridSpec(dx=dx, dim=1, radius=(n - 1) // 2)
    a = kernel_slice(grid, ConstCoeffs.of(c), t).values
    return np.convolve(np.tile(values, 3), a, mode="same")[n:2 * n] * dx


class TestKernel1d:
    def test_initial_dirac(self):
        assert kernel_1d(0, 0.0, 1.0, 0.5) == 2.0
        assert kernel_1d(3, 0.0, 1.0, 0.5) == 0.0

    def test_reference_value(self):
        assert kernel_1d(0, 0.5, 1.0, 1.0) == pytest.approx(IV_0_1, rel=1e-13)

    def test_even_in_order(self):
        assert kernel_1d(-4, 0.3, 2.0, 0.5) == kernel_1d(4, 0.3, 2.0, 0.5)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            kernel_1d(0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kernel_1d(0, 1.0, 0.0, 1.0)


def test_recommended_radius_floor_at_zero_time():
    # the kernel at t = 0 is the Dirac, with no tail to truncate; the rule
    # for t > 0 is unchanged
    assert recommended_radius(0.0, 1.0, 0.5) == 1
    assert recommended_radius(0.5, 1.0, 0.5) == math.ceil(4.0 + 40.0 * math.sqrt(5.0))


class TestKernelNd:
    def test_initial_dirac(self):
        assert kernel_nd((0, 0), 0.0, ConstCoeffs.of(1.0, 2.0), 0.5) == 4.0

    def test_product_structure(self):
        c = ConstCoeffs.of(1.0, 1.0)
        v = kernel_nd((2, 3), 0.7, c, 0.5)
        assert v == pytest.approx(kernel_1d(2, 0.7, 1.0, 0.5) * kernel_1d(3, 0.7, 1.0, 0.5))

    def test_reduces_to_1d(self):
        assert kernel_nd((5,), 0.2, ConstCoeffs.of(1.5), 0.25) == kernel_1d(5, 0.2, 1.5, 0.25)

    def test_positive(self):
        for n in (0, 1, 30):
            assert kernel_nd((n,), 0.4, ConstCoeffs.of(1.0), 1.0) > 0.0


class TestSpectral:
    def test_dirac_at_zero_time(self):
        assert kernel_spectral((0,), 0.0, ConstCoeffs.of(1.0), 0.5) == pytest.approx(2.0)
        assert kernel_spectral((3,), 0.0, ConstCoeffs.of(1.0), 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        v = kernel_spectral((0,), 0.5, ConstCoeffs.of(1.0), 1.0, nodes=512)
        assert v == pytest.approx(IV_0_1, abs=1e-10)

    def test_even_in_offset(self):
        # the trapezoid sum has no odd (imaginary) part: factors are even in n
        vals = spectral_axis_values(7, 0.5, 1.0, 1.0, nodes=64)
        assert np.abs(vals - vals[::-1]).max() <= 1e-13

    def test_node_floor(self):
        with pytest.raises(ValueError):
            kernel_spectral((0,), 1.0, ConstCoeffs.of(1.0), 1.0, nodes=8)

    def test_agreement_with_bessel(self):
        for dx in (1.0, 0.25):
            for t in (1e-3, 0.1, 2.0):
                for n in (0, 1, 9):
                    a = kernel_nd((n,), t, ConstCoeffs.of(1.0), dx)
                    s = kernel_spectral((n,), t, ConstCoeffs.of(1.0), dx, nodes=64)
                    assert abs(a - s) <= 1e-9 / dx


class TestSeries:
    def test_zero_terms_is_dirac(self):
        g = GridSpec(dx=1.0, dim=1, radius=4)
        f = kernel_series_smalltime(0.0, ConstCoeffs.of(1.0), g, 0)
        assert np.array_equal(f.values, Field.dirac(g).values)

    def test_matches_bessel_small_time(self):
        g = GridSpec(dx=1.0, dim=1, radius=12)
        f = kernel_series_smalltime(0.01, ConstCoeffs.of(1.0), g, 20)
        for n in range(-3, 4):
            assert abs(f.value((n,)) - kernel_1d(n, 0.01, 1.0, 1.0)) <= 1e-12

    def test_even_symmetry(self):
        g = GridSpec(dx=0.5, dim=1, radius=8)
        f = kernel_series_smalltime(0.02, ConstCoeffs.of(1.0), g, 16)
        assert np.allclose(f.values, f.values[::-1])

    def test_refuses_when_tail_too_big(self):
        g = GridSpec(dx=1.0 / 16.0, dim=1, radius=8)
        with pytest.raises(ValueError, match="not convergent"):
            kernel_series_smalltime(1.0, ConstCoeffs.of(1.0), g, 5)


class TestSliceAndSemigroup:
    def test_mass_and_positivity(self):
        for t in (0.1, 1.0):
            g = GridSpec(dx=0.25, dim=1, radius=recommended_radius(t, 1.0, 0.25))
            slc = kernel_slice(g, ConstCoeffs.of(1.0), t)
            assert np.all(slc.values > 0.0)
            assert abs(slc.flat().sum() * g.dx - 1.0) <= 1e-12

    def test_semigroup_property(self):
        t, s = 0.4, 0.3
        g = GridSpec(dx=0.5, dim=1, radius=recommended_radius(t + s, 1.0, 0.5))
        c = ConstCoeffs.of(1.0)
        a_t = kernel_slice(g, c, t).values
        a_s = kernel_slice(g, c, s).values
        a_ts = kernel_slice(g, c, t + s).values
        # the box radius keeps both tails negligible, so the truncated
        # linear convolution over offsets -N..N is the lattice one
        conv = np.convolve(a_t, a_s, mode="same") * g.dx
        assert np.abs(conv - a_ts).max() <= 1e-11

    def test_dirac_recovers_slice(self):
        g = GridSpec(dx=0.5, dim=1, radius=recommended_radius(0.5, 1.0, 0.5))
        out = semigroup(Field.dirac(g).values, 0.5, g.dx)
        assert np.abs(out - kernel_slice(g, ConstCoeffs.of(1.0), 0.5).values).max() <= 1e-12

    def test_constants_preserved(self):
        g = GridSpec(dx=0.5, dim=1, radius=recommended_radius(1.0, 1.0, 0.5))
        out = semigroup(np.ones(g.shape), 1.0, g.dx)
        assert np.abs(out - 1.0).max() <= 1e-12

    def test_contraction(self):
        g = GridSpec(dx=0.5, dim=1, radius=recommended_radius(0.5, 1.0, 0.5))
        rng = np.random.default_rng(4)
        psi = Field(g, rng.standard_normal(g.shape))
        out = Field(g, semigroup(psi.values, 0.5, g.dx))
        for p in (1.0, 2.0, math.inf):
            assert lp_norm(out, p) <= lp_norm(psi, p) * (1.0 + 1e-13)

    def test_lp_decay_scaling_stable(self):
        # ||D+^m a(t)||_p t^{(1+m)/2 - 1/(2p)} stays bounded, and its sup
        # over t moves by < 10% between spacings
        for m in (0, 1, 2):
            for p in (1.0, 2.0, math.inf):
                sups = []
                for dx in (0.25, 1.0 / 16.0):
                    vals = []
                    for t in np.logspace(-3, 1, 17):
                        n = recommended_radius(t, 1.0, dx) + m
                        arr = kernel_axis_values(n, t, 1.0, dx)
                        for _ in range(m):
                            arr = (arr[1:] - arr[:-1]) / dx
                        if p == math.inf:
                            norm = np.abs(arr).max()
                        else:
                            norm = (np.sum(np.abs(arr) ** p) * dx) ** (1.0 / p)
                        vals.append(norm * t ** ((1.0 + m) / 2.0 - 1.0 / (2.0 * p)))
                    sups.append(max(vals))
                spread = (max(sups) - min(sups)) / max(sups)
                assert np.isfinite(sups).all() and spread < 0.10, (m, p, sups)


class TestDuhamelConst:
    """The production Duhamel solver at constant coefficients, where the
    answer is known through the Bessel kernel."""

    def test_no_source_is_semigroup(self):
        g = GridSpec(dx=0.5, dim=1, radius=recommended_radius(0.5, 1.0, 0.5))
        rng = np.random.default_rng(8)
        psi = Field(g, rng.standard_normal(g.shape))
        prob = CauchyProblem(Coefficients.constant(g, 1.0), psi, horizon=0.5)
        u = solve_inhomogeneous(prob, 0.5)
        assert np.abs(u.values - semigroup(psi.values, 0.5, g.dx)).max() <= 1e-13

    def test_constant_source_grows_linearly(self):
        # constant data on a periodic box: the answer does not depend on the radius
        g = GridSpec(dx=0.5, dim=1, radius=8)
        ones = Field.constant(g, 1.0)
        prob = CauchyProblem(Coefficients.constant(g, 1.0), Field.constant(g, 0.0),
                             source=lambda s: ones, horizon=0.8)
        u = solve_inhomogeneous(prob, 0.8)
        assert np.abs(u.values - 0.8).max() <= 1e-10

    def test_ode_residual(self):
        dx = 0.5
        g = GridSpec(dx=dx, dim=1, radius=recommended_radius(0.5, 1.0, dx))
        coeffs = Coefficients.constant(g, 1.0)
        rng = np.random.default_rng(7)
        length = g.npts * dx
        x = g.axis_coordinates()
        psi = Field(g, sum(rng.normal() * np.cos(2 * np.pi * k * x / length)
                           + rng.normal() * np.sin(2 * np.pi * k * x / length) for k in range(3)))
        fv = Field(g, sum(rng.normal() * np.cos(2 * np.pi * k * x / length) for k in range(3)))
        h = 1e-3
        prob = CauchyProblem(coeffs, psi, source=lambda s: fv, horizon=0.5 + h)
        times = [0.5 - h, 0.5, 0.5 + h]
        res = residual(_solve(prob, times, None, None), times, coeffs, f=lambda s: fv)
        assert res <= 1e-6

    def test_rejects_nonfinite_source(self):
        g = GridSpec(dx=1.0, dim=1, radius=4)
        bad_fn = lambda s: Field(g, np.full(g.shape, np.inf))  # noqa: E731
        prob = CauchyProblem(Coefficients.constant(g, 1.0), Field(g, np.full(g.shape, 1.0)),
                             source=bad_fn, horizon=0.1)
        with pytest.raises(ValueError):
            solve_inhomogeneous(prob, 0.1)
