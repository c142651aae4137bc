"""Time quadrature on (0, t): the graded composite Gauss rule, a build's
tau table, and the integration plans folded onto it.

The integrands met here (kernel convolutions in time) are smooth inside
(0, t) but lose derivatives at both endpoints on the dx^2 time scale lam,
so one composite rule, graded toward 0 and t (``_graded_breakpoints``),
serves every time integral.  The plan of a target t, F(t) G_0 + int_0^t
F(t-s) G(s) ds with the initial value as node 0, is a weight matrix C (a
row per kernel time, a column per node), which one vectorised pass over a
list of targets (``_plans``) writes as flat (target, tau, node, weight)
entries.  A build (a ladder or a march) tabulates its kernel once, at
``TABLE_POINTS`` Gauss points on each panel of the tau edges 0, lam/4,
lam/2, lam, 2 lam, ..., horizon (``_tau_points``), and folds the entries
onto them by barycentric interpolation in tau, one Lagrange evaluation
and one scatter (``_fold``), into fold weights F = C^T L, within about
1e-15 of sup |F|.  One routine places the Gauss points of every panel
(``_panel_points``) and one gives every Lagrange weight
(``_barycentric``).  No Gauss rule is evaluated at import.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Gauss points per panel of the composite rule.
PANEL_POINTS = 8

#: Gauss points on each panel of a build's tau table (``_tau_points``).
TABLE_POINTS = 20


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on (-1, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_points(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and weights of ``n`` points on each panel (lo, hi),
    shape (panels, n) each, ascending in every panel."""
    x, w = gauss_legendre(n)
    half = 0.5 * (hi - lo)
    return (lo + half)[:, None] + half[:, None] * x, half[:, None] * w


def _barycentric(xi: np.ndarray, n: int) -> np.ndarray:
    """Lagrange weights of the ``n`` Gauss points of (-1, 1) at reference
    points ``xi``, shape (*xi.shape, n), in the barycentric form with the
    Gauss-Legendre weights (-1)^k sqrt((1 - x_k^2) w_k) (J.-P. Berrut and
    L. N. Trefethen, *SIAM Rev.* 46, 2004); a point on a Gauss point gets
    that point's unit vector."""
    x, w = gauss_legendre(n)
    diff = xi[..., None] - x
    hit = diff == 0.0
    lagrange = np.sqrt((1.0 - x**2) * w) * (-1.0) ** np.arange(n) / np.where(hit, 1.0, diff)
    lagrange /= lagrange.sum(axis=-1, keepdims=True)
    return np.where(hit.any(axis=-1, keepdims=True), hit, lagrange)


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

    ``nodes`` is the node budget, an integer of at least 16: the rule
    places ``PANEL_POINTS`` = 8 points on each of an equal number of
    graded panels per half of (0, t), so it uses 16 floor(nodes / 16)
    nodes (a budget of 24 runs 16).  All nodes are strictly interior and
    all weights positive.
    """

    nodes: int = 96

    def __post_init__(self):
        if not (isinstance(self.nodes, numbers.Integral) and self.nodes >= 2 * PANEL_POINTS):
            raise ValueError(f"need an integer node budget of at least {2 * PANEL_POINTS}, "
                             f"got {self.nodes!r}")

    def points_with_panels(self, t: float, layer: float | None = None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ascending nodes, positive weights, and panel breakpoints."""
        if not (t > 0 and math.isfinite(t)):
            raise ValueError(f"horizon must be positive and finite, got {t}")
        bp = _graded_breakpoints(t, self.nodes // (2 * PANEL_POINTS), layer)
        s, w = _panel_points(bp[:-1], bp[1:], PANEL_POINTS)
        return s.reshape(-1), w.reshape(-1), bp


def _tau_points(horizon: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The tau table of a build on (0, horizon] for the layer scale lam:
    its panel edges 0, lam/4, lam/2, lam, 2 lam, 4 lam, ..., the last one
    clipped at the horizon, and its ``TABLE_POINTS`` Gauss points on each
    panel, shape (panels, points)."""
    edges = lam * 2.0 ** np.arange(-2, math.ceil(math.log2(horizon / lam)) + 1)
    edges = np.concatenate([[0.0], edges[edges < horizon], [horizon]])
    return edges, _panel_points(edges[:-1], edges[1:], TABLE_POINTS)[0]


def _fold(edges: np.ndarray, tau: np.ndarray,
          entries: tuple[np.ndarray, np.ndarray, np.ndarray], slots: int) -> np.ndarray:
    """Fold weights F = C^T L of plan entries onto a tau table with panel
    ``edges``, shape (slots, P): for ``rows``, the kernel at the table's
    points, F @ rows[:P] are the plans' rows.  An entry (which, slot,
    weight) adds weight times the kernel interpolated at tau[which]
    (``_barycentric`` on its table panel) to row ``slot``, in one scatter.
    F reaches the last table panel any tau reads, P points."""
    panel = np.clip(np.searchsorted(edges, tau, side="right") - 1, 0, edges.size - 2)
    lagrange = _barycentric((tau - edges[panel]) / (0.5 * np.diff(edges)[panel]) - 1.0,
                            TABLE_POINTS)
    which, slot, weight = entries
    size = TABLE_POINTS * (int(panel.max()) + 1)
    index = (slot * size + panel[which] * TABLE_POINTS)[:, None] + np.arange(TABLE_POINTS)
    values = lagrange[which]
    values *= weight[:, None]
    return np.bincount(index.reshape(-1), values.reshape(-1),
                       minlength=slots * size).reshape(slots, size)


def _plans(targets: np.ndarray, nodes: np.ndarray, weights: np.ndarray, bp: np.ndarray,
           lam: float) -> tuple[np.ndarray, tuple[np.ndarray, ...], int]:
    """Integration plans of F(t) G_0 + int_0^t F(t-s) G(s) ds for every
    target t in (0, horizon] at once, on the rule ``nodes``, ``weights``,
    breakpoints ``bp``, for kernels F with a layer of width ``lam`` at tau
    = 0, as flat entries for ``_fold``: kernel times tau, and entries
    (which, slot, weight), slot i for target i of T at node 0 (unit weight
    at tau = t) and slot (c + 1) T + i at node c, each adding weight
    F(tau[which]) G at the slot's node to its target's plan; and n, the
    nodes up to the last one a plan reads.

    Panels at least 3 lam below t keep their Gauss nodes and weights.  The
    rest is integrated in tau = t - s: F at fresh Gauss points on
    geometric tau pieces split at panel edges, G interpolated inside the
    panel each piece lands in (``_barycentric``).
    """
    t = np.asarray(targets, dtype=float).reshape(-1)
    last = bp.size - 2
    k = np.clip(np.searchsorted(bp, t, side="left") - 1, 0, last)
    # the split point: the highest edge up to k at least 3 lam below t,
    # else 0, so the tau treatment covers the whole layer neighbourhood
    sp = np.maximum(np.minimum(k, (t[:, None] - bp >= 3.0 * lam).sum(axis=1) - 1), 0)
    depth = t - bp[sp]
    full = sp * PANEL_POINTS

    # tau edges 0, lam, 4 lam, ... below depth, and the panel crossings;
    # the rest are depth, whose repeats leave empty pieces out
    geometric = lam * 4.0 ** np.arange(max(1, math.ceil(math.log(depth.max() / lam, 4)) + 1))
    inner = np.arange(1, last + 1)
    crossing = (inner > sp[:, None]) & (inner <= k[:, None])
    edges = np.sort(np.concatenate([
        np.zeros((t.size, 1)), np.minimum(geometric, depth[:, None]),
        np.where(crossing, t[:, None] - bp[inner], depth[:, None]), depth[:, None]], axis=1))
    target, piece = np.nonzero(np.diff(edges, axis=1) > 0.0)
    lo, hi = edges[target, piece], edges[target, piece + 1]
    panel = np.clip(np.searchsorted(bp, t[target] - 0.5 * (lo + hi), side="left") - 1, 0, last)
    tau_pts, tau_w = _panel_points(lo, hi, PANEL_POINTS)
    piece_nodes = panel[:, None] * PANEL_POINTS + np.arange(PANEL_POINTS)
    span = 0.5 * np.diff(bp)[panel, None]
    lagrange = _barycentric((t[target, None] - tau_pts - bp[panel, None]) / span - 1.0,
                            PANEL_POINTS)
    lagrange *= tau_w[..., None]  # (pieces, tau points, nodes)

    # full panels lie below every piece's panel
    q = np.arange(full.max())
    target_q, q = np.nonzero(q < full[:, None])
    n = PANEL_POINTS * (int(panel.max()) + 1)
    tau = np.concatenate([t, t[target_q] - nodes[q], tau_pts.reshape(-1)])
    first = t.size + q.size  # the unit entries, then the full-panel ones
    which = np.concatenate([np.arange(first),
                            first + np.repeat(np.arange(tau_pts.size), PANEL_POINTS)])
    piece_slots = ((piece_nodes + 1) * t.size + target[:, None])[:, None, :]
    slot = np.concatenate([np.arange(t.size), (q + 1) * t.size + target_q,
                           np.broadcast_to(piece_slots, lagrange.shape).reshape(-1)])
    weight = np.concatenate([np.ones(t.size), weights[q], lagrange.reshape(-1)])
    return tau, (which, slot, weight), n


def _fold_plans(targets: np.ndarray, nodes: np.ndarray, weights: np.ndarray, bp: np.ndarray,
                lam: float, edges: np.ndarray) -> np.ndarray:
    """The plans of ``targets`` (``_plans``) folded onto a tau table with
    panel ``edges`` (``_fold``): F, shape (n + 1, targets, P), so that
    F[:, i] @ rows[:P] are the contracted rows of target i at node 0 (the
    kernel at the target itself) and its n nodes."""
    tau, entries, n = _plans(targets, nodes, weights, bp, lam)
    size = np.size(targets)
    return _fold(edges, tau, entries, (n + 1) * size).reshape(n + 1, size, -1)
