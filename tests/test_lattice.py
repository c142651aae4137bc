import math
from pathlib import Path

import numpy as np
import pytest

from sdheat.lattice import (
    Field,
    GridSpec,
    TwoPointField,
    backward_diff,
    convolve_2p,
    convolve_translation,
    field_from_csv,
    field_to_csv,
    forward_diff,
    laplacian_dir,
    lp_norm,
    mixed_norm,
    zeros_count,
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


def test_zeros_count():
    assert zeros_count((0, 3, 0)) == 2
    assert zeros_count((1,)) == 0


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


class TestConvolutions:
    def test_two_point_dirac_identity(self):
        g = grid1(dx=0.5, radius=3)
        rng = np.random.default_rng(0)
        F = TwoPointField.from_matrix(g, rng.standard_normal((g.site_count,) * 2))
        G = TwoPointField.dirac(g)
        assert np.allclose(convolve_2p(F, G).dense(), F.dense())

    def test_two_point_indicator(self):
        g = grid1(dx=1.0, radius=2)
        eye = TwoPointField.from_matrix(g, np.eye(g.site_count))
        out = convolve_2p(eye, eye).dense()
        assert np.allclose(out, np.eye(g.site_count))

    def test_grid_mismatch(self):
        a = TwoPointField.dirac(grid1(radius=2))
        b = TwoPointField.dirac(grid1(radius=3))
        with pytest.raises(ValueError):
            convolve_2p(a, b)

    @pytest.mark.parametrize("exps", [(1, 1, math.inf, 1), (2, 2, 2, 2),
                                      (math.inf, 1, math.inf, math.inf)])
    def test_young_inequality(self, exps):
        p1, p2, q1, q2 = exps
        g = grid1(dx=0.5, radius=4)
        rng = np.random.default_rng(42)
        for _ in range(10):
            F = TwoPointField.from_matrix(g, rng.standard_normal((g.site_count,) * 2))
            G = TwoPointField.from_matrix(g, rng.standard_normal((g.site_count,) * 2))
            lhs = mixed_norm(convolve_2p(F, G), p1, q2)
            rhs = mixed_norm(F, p1, p2) * mixed_norm(G, q1, q2)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_translation_dirac(self):
        g = grid1(dx=0.5, radius=4)
        rng = np.random.default_rng(1)
        f = Field(g, rng.standard_normal(g.shape))
        out = convolve_translation(f, Field.dirac(g))
        assert np.abs(out.values - f.values).max() < 1e-12

    def test_translation_commutes_periodic(self):
        g = grid1(radius=5)
        rng = np.random.default_rng(2)
        f = Field(g, rng.standard_normal(g.shape))
        h = Field(g, rng.standard_normal(g.shape))
        assert np.allclose(convolve_translation(f, h).values,
                           convolve_translation(h, f).values)

    def test_dirac_squared(self):
        g = grid1(dx=0.5, radius=3)
        d = Field.dirac(g)
        out = convolve_translation(d, d)
        assert abs(out.value((0,)) - 2.0) < 1e-12  # = 1/dx

    def test_zero_extension_convolution(self):
        g = grid1(dx=1.0, radius=2, boundary="zero-extension")
        d = Field.dirac(g)
        f = Field(g, np.arange(5.0))
        out = convolve_translation(f, d)
        assert np.allclose(out.values, f.values)


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

    def test_mixed_norm_order(self):
        # beta-norm first: rows of distinct scales distinguish the order
        g = GridSpec(dx=1.0, dim=1, radius=1)
        mat = np.array([[3.0, 0, 0], [0, 4.0, 0], [0, 0, 0]])
        F = TwoPointField.from_matrix(g, mat)
        # beta inf-norm per row -> (3, 4, 0); then alpha l1 -> 7
        assert abs(mixed_norm(F, 1.0, math.inf) - 7.0) < 1e-14
        # alpha-first would give a different number; check the exact value
        assert abs(mixed_norm(F, math.inf, 1.0) - 4.0) < 1e-14


class TestTwoPointStorage:
    def test_lazy_dense_agree(self):
        g = grid1(dx=0.5, radius=2)

        def ev(a, b):
            return float(a[0] * 2 + b[0])

        lazy = TwoPointField(g, evaluate=ev)
        dense = lazy.dense()
        for a in g.index_iter():
            for b in g.index_iter():
                assert dense[g.flat_index(a), g.flat_index(b)] == ev(a, b)
        assert lazy.value((1,), (-2,)) == ev((1,), (-2,))

    def test_budget(self):
        g = grid1(radius=2)
        lazy = TwoPointField(g, evaluate=lambda a, b: 0.0, budget=4)
        with pytest.raises(ValueError):
            lazy.dense()


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

    def test_two_point_schema(self, tmp_path):
        from sdheat.lattice import two_point_to_csv
        g = GridSpec(dx=1.0, dim=1, radius=1)
        path = str(tmp_path / "g.csv")
        two_point_to_csv(TwoPointField.dirac(g), path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "alpha_1,beta_1,value"
        assert len(lines) == 1 + g.site_count**2
        assert lines[1].split(",") == ["-1", "-1", "1"]
