import numpy as np
import pytest

from sdheat.quadrature import PANEL_POINTS, TimeQuadrature, gauss_legendre


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
