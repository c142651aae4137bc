import math

import numpy as np
import pytest

from sdheat.quadrature import (PANEL_POINTS, TimeQuadrature, _barycentric, _panel_points,
                               gauss_legendre)


class TestTimeQuadrature:
    def test_nodes_interior_weights_positive(self):
        quad = TimeQuadrature(nodes=32)
        for t in (0.1, 1.0, 7.3):
            s, w, _ = quad.points_with_panels(t)
            assert s[0] > 0.0 and s[-1] < t
            assert np.all(np.diff(s) > 0)
            assert np.all(w > 0)
            # the rule integrates constants exactly
            assert w.sum() == pytest.approx(t, rel=1e-13)

    def test_layer_panels_resolve_endpoints(self):
        quad = TimeQuadrature(nodes=96)
        s, w, _ = quad.points_with_panels(1.0, layer=1e-3)
        assert s[0] < 1e-3
        assert 1.0 - s[-1] < 1e-3

    def test_polynomial_exactness(self):
        quad = TimeQuadrature(nodes=32)
        s, w, _ = quad.points_with_panels(2.0)
        for k in (1, 3, 6):
            assert np.sum(w * s**k) == pytest.approx(2.0 ** (k + 1) / (k + 1), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeQuadrature(nodes=2)
        with pytest.raises(ValueError):
            TimeQuadrature(nodes=15)
        # a budget that is not a whole number fails at construction, not
        # later inside the rule (nan, inf) or silently (48.5)
        for nodes in (math.nan, math.inf, 48.5):
            with pytest.raises(ValueError, match="integer node budget"):
                TimeQuadrature(nodes=nodes)
        assert TimeQuadrature(nodes=np.int64(48)).points_with_panels(1.0)[0].size == 48
        with pytest.raises(ValueError):
            TimeQuadrature().points_with_panels(0.0)

    @pytest.mark.parametrize("budget, used", [(16, 16), (24, 16), (40, 32), (48, 48), (96, 96)])
    def test_node_budget_rounds_down_to_whole_panel_pairs(self, budget, used):
        s, w, bp = TimeQuadrature(nodes=budget).points_with_panels(1.0, layer=1e-3)
        assert s.size == w.size == used
        assert bp.size == used // PANEL_POINTS + 1


def test_gauss_legendre_cached():
    x1, w1 = gauss_legendre(8)
    x2, w2 = gauss_legendre(8)
    assert x1 is x2 and w1 is w2
    assert np.sum(w1) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [PANEL_POINTS, 20])
def test_barycentric_interpolates_below_degree_n(n):
    # the Lagrange weights of the n Gauss points reproduce every
    # polynomial of degree < n at random points, sum to 1, and at a
    # Gauss point are that point's unit vector
    x, _ = gauss_legendre(n)
    xi = np.random.default_rng(n).uniform(-1.0, 1.0, (3, 40))
    lagrange = _barycentric(xi, n)
    assert lagrange.shape == (3, 40, n)
    assert np.abs(lagrange.sum(axis=-1) - 1.0).max() <= 1e-14
    for k in range(n):
        legendre = np.polynomial.Legendre.basis(k)
        assert np.abs(lagrange @ legendre(x) - legendre(xi)).max() <= 1e-13
    assert np.array_equal(_barycentric(x, n), np.eye(n))


@pytest.mark.parametrize("n", [PANEL_POINTS, 20])
def test_panel_points_exact_to_degree_2n_minus_1(n):
    # n Gauss points on each of random panels (lo, hi) integrate every
    # monomial up to degree 2n - 1 exactly, panel by panel
    rng = np.random.default_rng(n)
    lo = rng.uniform(0.0, 2.0, 6)
    hi = lo + rng.uniform(1e-3, 3.0, 6)
    s, w = _panel_points(lo, hi, n)
    assert s.shape == w.shape == (6, n)
    assert np.all(np.diff(s, axis=1) > 0) and np.all(s > lo[:, None]) and np.all(s < hi[:, None])
    for k in range(2 * n):
        exact = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
        assert np.abs((w * s**k).sum(axis=1) / exact - 1.0).max() <= 1e-12
