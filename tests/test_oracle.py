import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdheat.heat_const import ConstCoeffs, kernel_nd, recommended_radius
from sdheat.lattice import Field, GridSpec
from sdheat.oracle import Generator, evolve_with_potential, expm_apply, gamma_oracle, residual
from sdheat.parametrix import Coefficients

# fundamental-solution column of the reference variable-coefficient
# configuration (dx=1/16, radius 64, c = 1 + 0.5 sin(2 pi x), T = 0.25,
# base point 0), integrated at tolerance 1e-10
REFERENCE_COLUMN = {
    0: 5.142980407950175e-01,
    1: 5.048925750433217e-01,
    -1: 5.198620242514639e-01,
    8: 3.714163525551418e-01,
    -8: 4.084292344465389e-01,
    32: 6.144012637955312e-03,
    -32: 6.144012637955316e-03,
    64: 2.286383139297333e-08,
}


def small_setup():
    g = GridSpec(dx=0.25, dim=1, radius=20)
    c = Coefficients.from_function(g, lambda x: 1.0 + 0.4 * np.sin(2 * np.pi * x / (g.npts * g.dx)))
    return g, c


class TestGenerator:
    def test_constants_in_kernel(self):
        g, c = small_setup()
        gen = Generator(c)
        out = gen.apply(np.ones(g.shape))
        assert np.abs(out).max() <= 1e-13

    def test_stencil_row_sums_vanish(self):
        # conservation in the sense L(const) = 0; with variable
        # coefficients the adjoint sums need not vanish
        g, c = small_setup()
        gen = Generator(c)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(g.shape)
        lv = gen.apply(v)
        assert np.isfinite(lv).all()
        assert np.abs(gen.apply(np.full(g.shape, 3.7))).max() <= 1e-12

    def test_norm_bound(self):
        g, c = small_setup()
        gen = Generator(c)
        # row-sum bound dominates the actual operator norm
        rng = np.random.default_rng(1)
        v = rng.standard_normal(g.shape)
        assert np.abs(gen.apply(v)).max() <= gen.norm_bound() * np.abs(v).max()


class TestExpmApply:
    def test_zero_time(self):
        g, c = small_setup()
        v = Field(g, np.arange(g.site_count, dtype=float).reshape(g.shape))
        out = expm_apply(Generator(c), 0.0, v)
        assert np.array_equal(out.values, v.values)

    def test_constant_coefficients_match_kernel(self):
        dx, t = 0.5, 0.4
        g = GridSpec(dx=dx, dim=1, radius=recommended_radius(t, 1.0, dx))
        c = Coefficients.constant(g, 1.0)
        out = expm_apply(Generator(c), t, Field.dirac(g), tol=1e-11)
        direct = np.array([kernel_nd((a,), t, ConstCoeffs.of(1.0), dx)
                           for a in range(-g.radius, g.radius + 1)])
        assert np.abs(out.values - direct).max() <= 1e-11 * direct.max()

    def test_constants_preserved(self):
        g, c = small_setup()
        out = expm_apply(Generator(c), 0.7, Field.constant(g, 1.0), tol=1e-12)
        assert np.abs(out.values - 1.0).max() <= 1e-12

    def test_positivity_preserved(self):
        g, c = small_setup()
        rng = np.random.default_rng(2)
        v = Field(g, np.abs(rng.standard_normal(g.shape)))
        out = expm_apply(Generator(c), 0.3, v, tol=1e-11)
        assert out.values.min() >= -1e-11

    def test_semigroup(self):
        g, c = small_setup()
        gen = Generator(c)
        rng = np.random.default_rng(3)
        v = Field(g, rng.standard_normal(g.shape))
        one_shot = expm_apply(gen, 0.5, v, tol=1e-12)
        two_step = expm_apply(gen, 0.2, expm_apply(gen, 0.3, v, tol=1e-12), tol=1e-12)
        assert np.abs(one_shot.values - two_step.values).max() <= 2e-12 * np.abs(v.values).max()

    def test_tolerance_self_consistency(self):
        g, c = small_setup()
        coarse = gamma_oracle(c, (0,), 0.3, tol=1e-6)
        fine = gamma_oracle(c, (0,), 0.3, tol=5e-7)
        assert np.abs(coarse.values - fine.values).max() <= 1e-6 * coarse.values.max()

    def test_time_validation(self):
        g, c = small_setup()
        for t in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                expm_apply(Generator(c), t, Field.dirac(g))

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_tol_must_be_positive(self, tol):
        g, c = small_setup()
        with pytest.raises(ValueError, match="tol"):
            expm_apply(Generator(c), 0.1, Field.dirac(g), tol=tol)


class TestGammaOracle:
    def test_constant_coefficients(self):
        dx, t = 0.5, 0.3
        g = GridSpec(dx=dx, dim=1, radius=recommended_radius(t, 1.0, dx))
        c = Coefficients.constant(g, 1.0)
        col = gamma_oracle(c, (2,), t, tol=1e-11)
        for a in (-3, 0, 2, 5):
            want = kernel_nd((a - 2,), t, ConstCoeffs.of(1.0), dx)
            assert col.value((a,)) == pytest.approx(want, rel=1e-9, abs=1e-13)

    def test_propagation(self):
        g, c = small_setup()
        whole = gamma_oracle(c, (0,), 0.4, tol=1e-11)
        part = gamma_oracle(c, (0,), 0.15, tol=1e-11)
        rest = expm_apply(Generator(c), 0.25, part, tol=1e-11)
        assert np.abs(whole.values - rest.values).max() <= 2e-11 * whole.values.max()

    def test_reference_column_regression(self, ac6_coeffs):
        col = gamma_oracle(ac6_coeffs, (0,), 0.25, tol=1e-10)
        for a, want in REFERENCE_COLUMN.items():
            assert col.value((a,)) == pytest.approx(want, rel=5e-10, abs=1e-16)

    def test_nonnegative(self, ac6_coeffs):
        col = gamma_oracle(ac6_coeffs, (0,), 0.25, tol=1e-10)
        assert col.values.min() >= -1e-10


class TestResidual:
    def test_linear_in_time_exact(self):
        g, c = small_setup()
        ones = Field.constant(g, 1.0)
        slices = [Field.constant(g, t) for t in (0.1, 0.2, 0.3)]
        res = residual(slices, [0.1, 0.2, 0.3], c, f=lambda s: ones)
        assert res <= 1e-12

    def test_oracle_slices_second_order(self):
        g, c = small_setup()
        gen = Generator(c)
        rng = np.random.default_rng(5)
        x = g.axis_coordinates()
        length = g.npts * g.dx
        psi = Field(g, 1.0 + 0.5 * np.cos(2 * np.pi * x / length))
        results = []
        for h in (2e-2, 1e-2):
            us = [expm_apply(gen, t, psi, tol=1e-12) for t in (0.3 - h, 0.3, 0.3 + h)]
            results.append(residual(us, [0.3 - h, 0.3, 0.3 + h], c))
        assert results[1] <= results[0] / 3.0  # ~ h^2

    def test_requires_uniform_times(self):
        g, c = small_setup()
        slices = [Field.dirac(g)] * 3
        with pytest.raises(ValueError):
            residual(slices, [0.0, 0.1, 0.3], c)
        with pytest.raises(ValueError):
            residual(slices[:2], [0.0, 0.1], c)


class TestPotentialOracle:
    def test_scalar_decay(self):
        g = GridSpec(dx=0.5, dim=1, radius=8)
        c = Coefficients.constant(g, 1.0)
        lam = 0.8
        pot = np.full(g.shape, lam)
        out = evolve_with_potential(c, pot, None, 0.5, Field.constant(g, 1.0), tol=1e-12)
        assert np.abs(out.values - np.exp(-lam * 0.5)).max() <= 1e-12

    def test_constant_source_equilibrium(self):
        # u' = L u - Y u + f with u = f / Y constant: stationary
        g = GridSpec(dx=0.5, dim=1, radius=8)
        c = Coefficients.constant(g, 1.0)
        pot = np.full(g.shape, 2.0)
        src = np.full(g.shape, 3.0)
        u0 = Field.constant(g, 1.5)
        out = evolve_with_potential(c, pot, src, 0.7, u0, tol=1e-12)
        assert np.abs(out.values - 1.5).max() <= 1e-12

    def test_negative_potential_rejected(self):
        # a negative Y breaks the l-infinity contraction the error certificate rests on
        g = GridSpec(dx=0.5, dim=1, radius=8)
        c = Coefficients.constant(g, 1.0)
        pot = np.full(g.shape, 0.5)
        pot[3] = -1e-3
        with pytest.raises(ValueError):
            evolve_with_potential(c, pot, None, 0.5, Field.constant(g, 1.0), tol=1e-12)

    def test_negative_time_rejected(self):
        g = GridSpec(dx=0.5, dim=1, radius=8)
        c = Coefficients.constant(g, 1.0)
        pot = np.full(g.shape, 0.5)
        with pytest.raises(ValueError):
            evolve_with_potential(c, pot, None, -0.3, Field.constant(g, 1.0))

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_tol_must_be_positive(self, tol):
        g = GridSpec(dx=0.5, dim=1, radius=8)
        c = Coefficients.constant(g, 1.0)
        with pytest.raises(ValueError, match="tol"):
            evolve_with_potential(c, np.full(g.shape, 0.5), None, 0.5, Field.constant(g, 1.0),
                                  tol=tol)

    def test_initial_data_on_another_grid_rejected(self):
        g = GridSpec(dx=0.5, dim=1, radius=8)
        other = GridSpec(dx=0.25, dim=1, radius=8)
        c = Coefficients.constant(g, 1.0)
        with pytest.raises(ValueError):
            evolve_with_potential(c, None, None, 0.5, Field.constant(other, 1.0))

    def test_source_shape_checked(self):
        # a source that numpy would broadcast over the grid is still rejected
        g = GridSpec(dx=0.5, dim=1, radius=8)
        c = Coefficients.constant(g, 1.0)
        with pytest.raises(ValueError, match="source"):
            evolve_with_potential(c, None, np.ones(1), 0.5, Field.constant(g, 0.0))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), radius=st.integers(1, 4),
           dx=st.sampled_from([0.25, 0.5, 1.0]), periodic=st.booleans(),
           with_potential=st.booleans(), with_source=st.booleans(),
           t=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_expm(self, dim, radius, dx, periodic, with_potential, with_source,
                                t, seed):
        # independent route: scipy's scaling-and-squaring expm of the dense
        # augmented generator [[L - diag Y, f], [0, 0]] acting on (psi, 1)
        from scipy.linalg import expm

        grid = GridSpec(dx=dx, dim=dim, radius=radius,
                        boundary="periodic-wrap" if periodic else "zero-extension")
        rng = np.random.default_rng(seed)
        coeffs = Coefficients(grid, rng.uniform(0.5, 2.0, (dim,) + grid.shape))
        y = rng.uniform(0.0, 3.0, grid.shape) if with_potential else None
        f = rng.standard_normal(grid.shape) if with_source else None
        psi = Field(grid, rng.standard_normal(grid.shape))
        s = grid.site_count
        gen = Generator(coeffs)
        aug = np.zeros((s + 1, s + 1))
        aug[:s, :s] = np.stack([gen.apply(e.reshape(grid.shape)).reshape(-1)
                                for e in np.eye(s)], axis=1)
        if y is not None:
            aug[:s, :s] -= np.diag(y.reshape(-1))
        if f is not None:
            aug[:s, s] = f.reshape(-1)
        want = (expm(t * aug) @ np.append(psi.values.reshape(-1), 1.0))[:s]
        got = evolve_with_potential(coeffs, y, f, t, psi, tol=1e-12)
        scale = np.abs(psi.values).max() + (t * np.abs(f).max() if f is not None else 0.0)
        assert np.abs(got.values.reshape(-1) - want).max() <= 1e-12 * scale
