import math
from pathlib import Path

import numpy as np
import pytest

from sdheat.lattice import (
    Field,
    GridSpec,
    backward_diff,
    field_from_csv,
    field_to_csv,
    forward_diff,
    laplacian_dir,
    lp_norm,
)


def grid1(dx=1.0, radius=4, boundary="periodic-wrap"):
    return GridSpec(dx=dx, dim=1, radius=radius, boundary=boundary)


class TestGridSpec:
    def test_site_count(self):
        assert GridSpec(dx=0.5, dim=2, radius=3).site_count == 49

    @pytest.mark.parametrize("kw", [dict(dx=0.0), dict(dim=0), dict(radius=0),
                                    dict(boundary="mirror")])
    def test_validation(self, kw):
        base = dict(dx=1.0, dim=1, radius=2, boundary="periodic-wrap")
        base.update(kw)
        with pytest.raises(ValueError):
            GridSpec(**base)

    def test_wrap_lookup(self):
        g = grid1(radius=2)
        f = Field(g, np.arange(5.0))
        assert f.value((3,)) == f.value((-2,))
        gz = grid1(radius=2, boundary="zero-extension")
        fz = Field(gz, np.arange(5.0))
        assert fz.value((3,)) == 0.0


class TestDifferences:
    def test_constant_fields(self):
        g = grid1(dx=0.3)
        c = Field.constant(g, 3.0)
        for op in (forward_diff, backward_diff, laplacian_dir):
            assert np.abs(op(c, 1).values).max() == 0.0

    def test_linear_interior(self):
        g = grid1(dx=0.5, radius=6, boundary="zero-extension")
        f = Field(g, g.axis_coordinates())
        d = forward_diff(f, 1).values
        assert np.allclose(d[:-1], 1.0)

    def test_forward_spike(self):
        g = GridSpec(dx=0.5, dim=1, radius=1)
        f = Field(g, np.array([0.0, 1.0, 0.0]))
        d = forward_diff(f, 1)
        assert d.value((0,)) == -2.0
        assert d.value((-1,)) == 2.0

    def test_backward_dirac(self):
        g = grid1(dx=1.0, radius=3)
        f = Field.dirac(g)
        d = backward_diff(f, 1)
        assert d.value((0,)) == 1.0
        assert d.value((1,)) == -1.0

    def test_backward_of_shift_is_shift_of_forward(self):
        g = grid1(radius=5)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(g.shape)
        shifted = Field(g, np.roll(vals, -1))
        lhs = backward_diff(shifted, 1).values
        rhs = np.roll(forward_diff(Field(g, vals), 1).values, -1)
        # backward difference of the forward-shifted field is the shifted
        # forward difference by index algebra
        assert np.allclose(lhs, np.roll(backward_diff(Field(g, vals), 1).values, -1))
        assert np.allclose(forward_diff(Field(g, vals), 1).values,
                           backward_diff(shifted, 1).values)
        del lhs, rhs

    def test_laplacian_quadratic(self):
        g = grid1(dx=0.25, radius=8, boundary="zero-extension")
        x = g.axis_coordinates()
        f = Field(g, x**2)
        lap = laplacian_dir(f, 1).values
        assert np.allclose(lap[1:-1], 2.0)

    def test_laplacian_dirac(self):
        g = grid1(dx=1.0, radius=2)
        lap = laplacian_dir(Field.dirac(g), 1)
        assert [lap.value((k,)) for k in (-1, 0, 1)] == [1.0, -2.0, 1.0]

    def test_direction_out_of_range(self):
        g = grid1()
        with pytest.raises(ValueError):
            forward_diff(Field.dirac(g), 2)

    def test_commutation(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = GridSpec(dx=float(rng.uniform(0.1, 2.0)), dim=1,
                         radius=int(rng.integers(2, 8)))
            f = Field(g, rng.standard_normal(g.shape))
            a = laplacian_dir(f, 1).values
            b = forward_diff(backward_diff(f, 1), 1).values
            c = backward_diff(forward_diff(f, 1), 1).values
            scale = np.abs(a).max() + 1e-30
            assert np.abs(a - b).max() <= 1e-14 * scale
            assert np.abs(a - c).max() <= 1e-14 * scale

    def test_summation_by_parts_periodic(self):
        rng = np.random.default_rng(5)
        g = grid1(dx=0.5, radius=9)
        for _ in range(20):
            f = Field(g, rng.standard_normal(g.shape))
            h = Field(g, rng.standard_normal(g.shape))
            lhs = float((forward_diff(f, 1).values * h.values).sum() * g.dx)
            rhs = -float((f.values * backward_diff(h, 1).values).sum() * g.dx)
            assert abs(lhs - rhs) <= 1e-12


class TestNorms:
    def test_dirac_l1(self):
        for d in (1, 2):
            g = GridSpec(dx=0.5, dim=d, radius=3)
            assert abs(lp_norm(Field.dirac(g), 1.0) - 1.0) < 1e-14

    def test_dirac_sup(self):
        g = GridSpec(dx=0.5, dim=2, radius=3)
        assert lp_norm(Field.dirac(g), math.inf) == 4.0

    def test_constant_l2(self):
        g = grid1(dx=0.5, radius=2)
        assert abs(lp_norm(Field.constant(g, 1.0), 2.0) - math.sqrt(2.5)) < 1e-14

    def test_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(Field.dirac(grid1()), 0.5)

    def test_zero_iff_zero(self):
        g = grid1()
        assert lp_norm(Field.constant(g, 0.0), 2.0) == 0.0
        assert lp_norm(Field.dirac(g), 2.0) > 0.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = GridSpec(dx=0.25, dim=2, radius=2)
        rng = np.random.default_rng(9)
        f = Field(g, rng.standard_normal(g.shape))
        path = str(tmp_path / "f.csv")
        field_to_csv(f, path)
        back = field_from_csv(path, dx=0.25)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)  # 17 digits round-trip exactly

    def test_header(self, tmp_path):
        g = GridSpec(dx=1.0, dim=2, radius=1)
        path = str(tmp_path / "f.csv")
        field_to_csv(Field.dirac(g), path)
        header = Path(path).read_text().splitlines()[0].strip()
        assert header == "alpha_1,alpha_2,value"
