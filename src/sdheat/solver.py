"""Duhamel solvers on top of the variable-coefficient fundamental solution.

The inhomogeneous problem  u' = L u + f,  u(0) = psi  is solved by

    u(t) = Gamma(t) psi + int_0^t Gamma(t-s) f(s) ds,

with the time integral on scaled Gauss nodes s = t xi_q so that the rule
varies smoothly with the evaluation time.  With a potential term
(u' = L u - Y u + f) the potential goes into the correction kernel,
K_Y = K - diag(Y) A, and each of n equal time pieces is one march of the
parametrix Volterra equation (``ParametrixSolver.potential_march``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import Field, forward_diff
from .parametrix import Coefficients, ParametrixSolver
from .quadrature import gauss_legendre


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
    #: equal time pieces the potential solver marched, summed over calls
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


def solve_inhomogeneous(prob: CauchyProblem, t: float, tol: float = 1e-8,
                        solver: ParametrixSolver | None = None,
                        source_nodes: int = 32) -> Field:
    """Duhamel solution of u' = L u + f at time t (no potential)."""
    if prob.potential is not None:
        raise ValueError("problem has a potential; use solve_with_potential")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    solver = solver or ParametrixSolver(prob.coeffs, tol=tol)
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


def solve_with_potential(prob: CauchyProblem, t: float, tol: float = 1e-10,
                         solver: ParametrixSolver | None = None,
                         report: SolveReport | None = None) -> Field:
    """Parametrix solution of u' = L u - Y u + f up to time t.

    [0, t] is cut into n = max(1, ceil(t max|Y|)) pieces of equal length
    h, short enough to keep the solution smooth where Y makes it decay
    fast.  Each is one ``ParametrixSolver.potential_march`` on its own
    horizon h with the time rule of ``solver``; the pieces are identical
    and share one build.  ``tol`` and ``prob.horizon`` do not affect this
    path (``tol`` is kept for callers).  The error is the time rule's: on
    the AC-11 problem at dx = 1/8, T = 0.25 and 48 quadrature nodes the
    solution is 3.9e-9 from the certified oracle, and nothing here
    estimates it.  ``report`` gets the pieces in ``panels`` and the
    largest relative residual of the panel solves in ``residual``.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    solver = solver or ParametrixSolver(prob.coeffs)
    grid = prob.coeffs.grid
    report = report if report is not None else SolveReport()
    u0 = prob.psi.flat().copy()
    if t == 0:
        return Field(grid, u0.reshape(grid.shape))
    y = prob.potential.flat() if prob.potential is not None else np.zeros(grid.site_count)
    n = max(1, math.ceil(t * float(np.abs(y).max())))
    source = None
    if prob.source is not None:
        def source(times: np.ndarray) -> np.ndarray:
            return np.stack([_source_at(prob, float(s)) for s in times])
    u, res = solver.potential_march(t / n, y, u0, n, source)
    report.residual = res if math.isnan(report.residual) else max(report.residual, res)
    report.panels += n
    return Field(grid, u.reshape(grid.shape))


def gradient_sup(u: Field) -> float:
    """Sup over directions and sites of the forward difference."""
    worst = 0.0
    for j in range(u.grid.dim):
        worst = max(worst, float(np.abs(forward_diff(u, j + 1).values).max()))
    return worst
