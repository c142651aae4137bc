"""Duhamel solvers on top of the variable-coefficient fundamental solution.

The inhomogeneous problem  u' = L u + f,  u(0) = psi  is solved by

    u(t) = Gamma(t) psi + int_0^t Gamma(t-s) f(s) ds,

with the time integral on scaled Gauss nodes s = t xi_q so that the rule
varies smoothly with the evaluation time.  With a potential term
(u' = L u - Y u + f) the solution satisfies the linear Volterra equation

    u = Gamma psi + int Gamma(t-s) (f(s) - Y u(s)) ds,

which is collocated at Gauss points of equal panels [t0, t0 + h], one
linear solve per panel (panelwise Volterra collocation: H. Brunner,
*Collocation Methods for Volterra Integral and Related Functional
Equations*, 2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import Field, forward_diff
from .parametrix import Coefficients, ParametrixSolver
from .quadrature import TimeQuadrature, collocation_inner_weights, collocation_rule, gauss_legendre

#: collocation points per panel of the potential solver
_COLLOC_POINTS = 8


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
        if self.potential is not None:
            if self.potential.grid != self.coeffs.grid:
                raise ValueError("potential grid does not match coefficients")
            if not np.all(np.isfinite(self.potential.values)):
                raise ValueError("potential must be finite")


@dataclass
class SolveReport:
    panels: int = 0
    #: always 0: the potential solver does not iterate; kept for code
    #: that still reads the field
    picard_iters: int = 0
    #: largest relative residual of the panel linear solves (potential
    #: solver), or the centered ODE residual when the caller can measure
    #: one; neither is a bound on the error of the solution
    residual: float = math.nan


def _source_at(prob: CauchyProblem, s: float) -> np.ndarray:
    """The flat source values at time s, checked finite."""
    f_s = prob.source(s).flat()
    if not np.all(np.isfinite(f_s)):
        raise ValueError(f"source is not finite at s={s}")
    return f_s


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
            u = u + 0.5 * t * w[q] * solver.gamma_apply(t - s, _source_at(prob, s), horizon=horizon)
    return Field(grid, u.reshape(grid.shape))


def solve_with_potential(prob: CauchyProblem, t: float,
                         quad: TimeQuadrature | None = None, tol: float = 1e-10,
                         solver: ParametrixSolver | None = None,
                         report: SolveReport | None = None) -> Field:
    """Collocated solution of u' = L u - Y u + f up to time t.

    [0, t] is cut into n = max(1, ceil(t max|Y|)) panels of equal
    length h.  On the panel from t0, the values u_r at the collocation
    points t0 + sigma_r (Gauss points of (0, h)) solve

        u_r + sum_m M[r, m] Y u_m = Gamma(sigma_r) u(t0) dx^d + sum_m M[r, m] f_m,

    where M[r, m] integrates Gamma(sigma_r - s) dx^d against the Lagrange
    basis function of node m over s in (0, sigma_r) by inner Gauss
    nodes, so the rule needs Gamma only at positive time offsets.  M
    depends on h alone, so each Gamma(tau) is assembled, and I + M Y
    inverted, once per call; every panel is then one matrix-vector
    product.  The panel end value is the Gauss rule for
    Gamma(h) u(t0) dx^d + int_0^h Gamma(h - s) (f - Y u)(s) ds dx^d
    on the collocation values.  Panels no longer than 1 / max Y keep the
    collocation polynomial accurate where Y makes the solution decay
    fast; the panel length does not follow the lattice time scale
    dx^2 / (4 c), and rough data on panels many of those long lose
    digits (2.8e-8 on a panel 16 of them long).

    ``tol`` only sets the series tolerance of the default ``solver``
    (10 tol, at most 1e-8).  It is not a bound on the error of the
    returned solution, which carries the quadrature and collocation
    error of the Gamma operators; nothing on this path estimates that.
    On the AC-11 problem at dx = 1/8 and T = 0.25 with 48 quadrature
    nodes, tol = 1e-10 returns a solution 2.79e-7 from the certified
    oracle.  ``report`` gets the panel count and the largest relative
    residual of the panel solves.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    solver = solver or ParametrixSolver(prob.coeffs, quad, tol=min(1e-8, tol * 10))
    grid = prob.coeffs.grid
    report = report if report is not None else SolveReport()
    u0 = prob.psi.flat().copy()
    if t == 0:
        return Field(grid, u0.reshape(grid.shape))
    y = prob.potential.flat() if prob.potential is not None else np.zeros(grid.site_count)
    p, s = _COLLOC_POINTS, grid.site_count
    n = max(1, math.ceil(t * float(np.abs(y).max())))
    h = t / n
    horizon = max(t, prob.horizon)
    ops: dict[float, np.ndarray] = {}

    def gamma(tau: float) -> np.ndarray:
        tau = float(tau)
        got = ops.get(tau)
        if got is None:
            got = solver.gamma_operator(tau, horizon=horizon) * grid.cell_volume
            ops[tau] = got
        return got

    x, inner, interp = collocation_rule(p)
    sigma = h * x
    start = np.stack([gamma(tau) for tau in sigma])
    weights = h * collocation_inner_weights(p)[:, :, None] * interp
    m = np.einsum("rqk,rqab->rakb", weights,
                  np.stack([[gamma(tau) for tau in row] for row in sigma[:, None] - h * inner]))
    m = m.reshape(p * s, p * s)
    y_nodes = np.tile(y, p)
    # numpy's LAPACK, not scipy's lu_factor: scipy's separate OpenBLAS
    # thread pool contends with numpy's right after the Gamma assembly
    # (measured 60-120 ms a call on potential-1d, 2 cores)
    a_inv = np.linalg.inv(np.eye(p * s) + m * y_nodes)
    step = gamma(h)
    end_ops = np.stack([gamma(tau) for tau in h - h * x])
    end_w = 0.5 * h * gauss_legendre(p)[1]

    f = np.zeros((p, s))
    for i in range(n):
        if prob.source is not None:
            f = np.stack([_source_at(prob, float(i * h + sg)) for sg in sigma])
        rhs = (start @ u0).ravel() + m @ f.ravel()
        u = a_inv @ rhs
        defect = u + m @ (y_nodes * u) - rhs
        res = float(np.abs(defect).max()) / max(float(np.abs(rhs).max()), np.finfo(float).tiny)
        report.residual = res if math.isnan(report.residual) else max(report.residual, res)
        g = f - y * u.reshape(p, s)
        u0 = step @ u0 + np.einsum("qab,qb->a", end_ops, end_w[:, None] * g)
    report.panels += n
    return Field(grid, u0.reshape(grid.shape))


def gradient_sup(u: Field) -> float:
    """Sup over directions and sites of the forward difference."""
    worst = 0.0
    for j in range(u.grid.dim):
        worst = max(worst, float(np.abs(forward_diff(u, j + 1).values).max()))
    return worst
