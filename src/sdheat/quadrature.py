"""Time quadrature on (0, t): graded composite Gauss rules and Lagrange weights.

The integrands met here (kernel convolutions in time) are smooth inside
(0, t) but lose derivatives at both endpoints on the dx^2 time scale, so
the composite rule grades its panels toward 0 and t, geometrically from
the layer width when one is given and otherwise with the power-law map
s = (t/2) * u^2 applied from each end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Gauss points per panel of the composite rule.
PANEL_POINTS = 8


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on (-1, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _graded_breakpoints(t: float, panels_per_half: int, layer: float | None = None) -> np.ndarray:
    """Panel boundaries on (0, t), graded toward both endpoints, split at t/2.

    With a ``layer`` scale (the width of the integrand's endpoint
    boundary layers, dx^2/(2 cbar) for lattice kernels) the panels grow
    geometrically from a first panel of that width, which resolves the
    layer without starving the interior; otherwise the power map
    s = (t/2) u^2 applies.
    """
    if layer is not None and panels_per_half >= 2 and layer < t / 4.0:
        rho = (0.5 * t / layer) ** (1.0 / (panels_per_half - 1))
        left = np.concatenate([[0.0], layer * rho ** np.arange(panels_per_half)])
        left[-1] = 0.5 * t
    else:
        u = (np.arange(panels_per_half + 1) / panels_per_half) ** 2.0
        left = 0.5 * t * u
    right = t - left[::-1]
    return np.concatenate([left, right[1:]])


@dataclass(frozen=True)
class TimeQuadrature:
    """Composite Gauss-Legendre recipe for integrals over (0, t).

    ``nodes`` is the node budget, at least 16: the rule places
    ``PANEL_POINTS`` = 8 points on each of an equal number of graded
    panels per half of (0, t), so it uses 16 floor(nodes / 16) nodes
    (a budget of 24 runs 16).  All nodes are strictly interior and all
    weights positive.
    """

    nodes: int = 96

    def __post_init__(self):
        if self.nodes < 2 * PANEL_POINTS:
            raise ValueError(f"need at least {2 * PANEL_POINTS} nodes, got {self.nodes}")

    def points_with_panels(self, t: float, layer: float | None = None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ascending nodes, positive weights, and panel breakpoints."""
        if not (t > 0 and math.isfinite(t)):
            raise ValueError(f"horizon must be positive and finite, got {t}")
        bp = _graded_breakpoints(t, self.nodes // (2 * PANEL_POINTS), layer)
        x, wx = gauss_legendre(PANEL_POINTS)
        s_list, w_list = [], []
        for a, b in zip(bp[:-1], bp[1:]):
            half = 0.5 * (b - a)
            s_list.append(a + half * (x + 1.0))
            w_list.append(half * wx)
        return np.concatenate(s_list), np.concatenate(w_list), bp


def _lagrange_weights(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Lagrange weights of ``nodes`` (..., m) at ``points`` (..., p), one
    row per point, shape (..., p, m), the leading axes broadcast: weight m
    is the product over k of the factors (x - x_k) / (x_m - x_k), the one
    at k = m set to 1, taken in the order k = 0, 1, ..."""
    x = np.asarray(points, dtype=float)
    spans = nodes[..., :, None] - nodes[..., None, :]
    np.einsum("...mm->...m", spans)[...] = 1.0
    factors = (x[..., :, None, None] - nodes[..., None, None, :]) / spans[..., None, :, :]
    np.einsum("...mm->...m", factors)[...] = 1.0  # (..., p, m, k)
    w = factors[..., 0].copy()
    for k in range(1, nodes.shape[-1]):
        w *= factors[..., k]
    return w
