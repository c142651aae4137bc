"""Duhamel solvers on top of the variable-coefficient fundamental solution.

The inhomogeneous problem  u' = L u + f,  u(0) = psi  is solved by

    u(t) = Gamma(t) psi + int_0^t Gamma(t-s) f(s) ds,

with the time integral on scaled Gauss nodes s = t xi_q so that the rule
varies smoothly with the evaluation time.  With a potential term
(u' = L u - Y u + f) the solution is the fixed point of

    u = Gamma psi + int Gamma(t-s) (f(s) - Y u(s)) ds,

computed by Picard iteration with spectral collocation in time on panels
[t0, t0 + h]; a panel that fails to contract is halved and retried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import Field, forward_diff
from .parametrix import Coefficients, ParametrixSolver
from .quadrature import TimeQuadrature, collocation_inner_weights, collocation_rule, gauss_legendre


@dataclass(frozen=True)
class CauchyProblem:
    """Initial data, source, optional potential, and horizon."""

    coeffs: Coefficients
    psi: Field
    source: Callable[[float], Field] | None = None
    potential: Field | None = None
    horizon: float = 1.0

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.psi.grid != self.coeffs.grid:
            raise ValueError("initial data grid does not match coefficients")
        if not np.all(np.isfinite(self.psi.values)):
            raise ValueError("initial data must be finite")
        if self.potential is not None and self.potential.grid != self.coeffs.grid:
            raise ValueError("potential grid does not match coefficients")


@dataclass
class SolveReport:
    panels: int = 0
    picard_iters: int = 0
    #: largest final Picard sweep change over the panels (potential
    #: solver), or the centered ODE residual when the caller can measure
    #: one; neither is a bound on the error of the solution
    residual: float = math.nan


def solve_inhomogeneous(prob: CauchyProblem, t: float,
                        quad: TimeQuadrature | None = None, tol: float = 1e-8,
                        solver: ParametrixSolver | None = None,
                        source_nodes: int = 32) -> Field:
    """Duhamel solution of u' = L u + f at time t (no potential)."""
    if prob.potential is not None:
        raise ValueError("problem has a potential; use solve_with_potential")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    solver = solver or ParametrixSolver(prob.coeffs, quad, tol)
    grid = prob.coeffs.grid
    horizon = max(t, prob.horizon)
    u = solver.gamma_apply(t, prob.psi.flat(), horizon=horizon)
    if prob.source is not None and t > 0:
        xi, w = gauss_legendre(source_nodes)
        xi = 0.5 * (xi + 1.0)
        for q in range(source_nodes):
            s = t * float(xi[q])
            f_s = prob.source(s)
            if not np.all(np.isfinite(f_s.values)):
                raise ValueError(f"source is not finite at s={s}")
            u = u + 0.5 * t * w[q] * solver.gamma_apply(t - s, f_s.flat(), horizon=horizon)
    return Field(grid, u.reshape(grid.shape))


def solve_with_potential(prob: CauchyProblem, t: float,
                         quad: TimeQuadrature | None = None, tol: float = 1e-10,
                         max_picard: int = 24, solver: ParametrixSolver | None = None,
                         colloc_points: int = 8,
                         report: SolveReport | None = None) -> Field:
    """Fixed-point solution of u' = L u - Y u + f up to time t.

    Picard iteration on the Duhamel form, collocated at Gauss points of
    each panel; the panel length is halved (up to six times) whenever
    the iteration fails to reach ``tol`` within ``max_picard`` sweeps.

    ``tol`` stops the sweeps: a panel is done once one sweep changes the
    collocation values by at most tol * max(sup |u(t0)|, 1).  It is not a
    bound on the error of the returned solution, which also carries the
    quadrature and collocation error of the Gamma operators; nothing on
    this path estimates that.  On the AC-11 problem at dx = 1/8 and
    T = 0.25 with 48 quadrature nodes, tol = 1e-10 returns a solution
    2.79e-7 from the certified oracle.

    Each Gamma(tau) the panels need is assembled once per call and kept
    until it returns, so panels of equal length (after a halving) share
    their operators.
    """
    if max_picard < 8:
        raise ValueError("max_picard must be at least 8")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    solver = solver or ParametrixSolver(prob.coeffs, quad, tol=min(1e-8, tol * 10))
    grid = prob.coeffs.grid
    y = prob.potential.flat() if prob.potential is not None else np.zeros(grid.site_count)
    report = report if report is not None else SolveReport()
    ops: dict[float, np.ndarray] = {}

    u0 = prob.psi.flat().copy()
    t0 = 0.0
    h = t - t0
    halvings = 0
    while t0 < t - 1e-14 * max(t, 1.0):
        h = min(h, t - t0)
        step = _picard_panel(solver, prob, y, u0, t0, h, tol, max_picard,
                             colloc_points, max(t, prob.horizon), ops)
        if step is None:
            halvings += 1
            if halvings > 6:
                raise RuntimeError(
                    f"Picard iteration failed to contract after 6 panel halvings (panel {h:g})")
            h = 0.5 * h
            continue
        u0, iters, delta = step
        report.panels += 1
        report.picard_iters += iters
        report.residual = delta if math.isnan(report.residual) else max(report.residual, delta)
        t0 += h
    return Field(grid, u0.reshape(grid.shape))


def _picard_panel(solver: ParametrixSolver, prob: CauchyProblem, y: np.ndarray,
                  u0: np.ndarray, t0: float, h: float, tol: float, max_picard: int,
                  p: int, horizon: float, ops: dict[float, np.ndarray]):
    """One panel of the collocated Picard iteration.

    Returns (end value, iterations, last sweep change) or None when the
    sweep limit is hit.  The integral int_0^{x_r} Gamma(x_r - s) g(s) ds
    is evaluated at inner Gauss nodes with g interpolated from the
    collocation values, so the rule needs Gamma only at nonnegative time
    offsets.  Every Gamma(tau) matrix is taken from ``ops`` (keyed by
    tau, all under ``horizon``) or assembled once and added to it; the
    sweeps are then pure matrix-vector work.
    """
    x, inner, interp = collocation_rule(p)
    iw = collocation_inner_weights(p)
    vol = prob.coeffs.grid.cell_volume
    sigma = h * x
    glw = gauss_legendre(p)[1]

    def gamma_of(tau: float, v: np.ndarray) -> np.ndarray:
        tau = float(tau)
        if tau == 0.0:
            return v.copy()
        got = ops.get(tau)
        if got is None:
            got = solver.gamma_operator(tau, horizon=horizon)
            ops[tau] = got
        return got @ v * vol

    base = [gamma_of(float(s), u0) for s in sigma]

    def g_of(u_val: np.ndarray, s_abs: float) -> np.ndarray:
        out = -y * u_val
        if prob.source is not None:
            out = out + prob.source(s_abs).flat()
        return out

    u = [b.copy() for b in base]
    iters = 0
    for _sweep in range(max_picard):
        iters += 1
        g_nodes = [g_of(u[mth], t0 + h * float(x[mth])) for mth in range(p)]
        new = []
        delta = 0.0
        for r in range(p):
            acc = base[r].copy()
            for q in range(p):
                s_in = h * float(inner[r, q])
                g_in = np.zeros_like(u0)
                for mth in range(p):
                    g_in += interp[r, q, mth] * g_nodes[mth]
                acc += h * iw[r, q] * gamma_of(float(sigma[r] - s_in), g_in)
            new.append(acc)
            delta = max(delta, float(np.abs(acc - u[r]).max()))
        u = new
        scale = max(float(np.abs(u0).max()), 1.0)
        if delta <= tol * scale:
            end = gamma_of(h, u0)
            for q in range(p):
                g_in = g_of(u[q], t0 + h * float(x[q]))
                end += h * 0.5 * glw[q] * gamma_of(h - h * float(x[q]), g_in)
            return end, iters, delta
    return None


def gradient_sup(u: Field) -> float:
    """Sup over directions and sites of the forward difference."""
    worst = 0.0
    for j in range(u.grid.dim):
        worst = max(worst, float(np.abs(forward_diff(u, j + 1).values).max()))
    return worst
