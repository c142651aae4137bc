"""Cauchy solvers on top of the parametrix march.

u' = L u - Y u + f,  u(0) = psi  (Y = 0 without a potential) is solved by
putting the potential into the correction kernel, K_Y = K - diag(Y) A,
and marching the parametrix Volterra equation over equal time pieces
(``ParametrixSolver.march``): from each requested time to the next, so a
run of output times is one march.  A march of one piece solves for its
initial data alone; a march of more pieces builds the one-piece
propagator, and the map from a piece's source to its end, once and
applies them piece by piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import Field, forward_diff
from .parametrix import Coefficients, ParametrixSolver


@dataclass(frozen=True)
class CauchyProblem:
    """Initial data, source and optional potential.  No solver reads
    ``horizon``; it is checked positive and kept for callers."""

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
    #: equal time pieces the solver marched, summed over calls
    panels: int = 0
    #: always 0: the solver does not iterate; kept for code that still
    #: reads the field
    picard_iters: int = 0
    #: largest relative residual of the panel solves (the sweeps' stopping
    #: residual or LU's); not a bound on the error of the solution
    residual: float = math.nan


#: Intervals between output times that differ by at most this times the
#: later time are equal up to rounding, and share one march.
_ROUNDING = 8.0 * np.finfo(float).eps


def _source_at(prob: CauchyProblem, s: float) -> np.ndarray:
    """The flat source values at time s, checked finite."""
    f_s = prob.source(s).flat()
    if not np.all(np.isfinite(f_s)):
        raise ValueError(f"source is not finite at s={s}")
    return f_s


def _solve(prob: CauchyProblem, times: Sequence[float], solver: ParametrixSolver | None,
           report: SolveReport | None) -> list[Field]:
    """u at each of the ascending ``times``, marched from each to the next.

    The interval d up to a time is cut into n = max(1, ceil(d max|Y|))
    pieces of equal length, short enough to keep the solution smooth
    where Y makes it decay fast.  A run of equal intervals (equal up to
    rounding of the times) is one ``ParametrixSolver.march``: a single
    piece is solved for its own initial data, and more pieces build the
    propagator of a piece once, so each piece is then one s x s product
    (and one product with the source map).  The error is the time rule's: on the AC-11 problem at
    dx = 1/8, T = 0.25 and 48 quadrature nodes the solution is 3.9e-9 from
    the certified oracle, and nothing here estimates it.  ``report`` gets
    the pieces in ``panels`` and the largest relative residual of the
    panel solves in ``residual``.
    """
    times = [float(t) for t in times]
    if not all(math.isfinite(b) and b >= a for a, b in zip([0.0] + times, times)):
        raise ValueError(f"times must be finite, nonnegative and ascending, got {times}")
    solver = solver or ParametrixSolver(prob.coeffs)
    report = report if report is not None else SolveReport()
    grid = prob.coeffs.grid
    y = None if prob.potential is None else prob.potential.flat()
    y_max = 0.0 if y is None else float(np.abs(y).max())
    source = None
    if prob.source is not None:
        def source(ts: np.ndarray) -> np.ndarray:
            return np.stack([_source_at(prob, float(s)) for s in ts])
    u = prob.psi.flat()
    out, start, i = [], 0.0, 0
    while i < len(times):
        d, j = times[i] - start, i + 1
        while j < len(times) and abs(times[j] - times[j - 1] - d) <= _ROUNDING * times[j]:
            j += 1
        k = j - i
        if d > 0:
            n = max(1, math.ceil(d * y_max))
            ends, res = solver.march((times[j - 1] - start) / (k * n), u, k * n, y, source, start,
                                     every=n)
            report.residual = res if math.isnan(report.residual) else max(report.residual, res)
            report.panels += k * n
            u = ends[-1]
        else:
            ends = [u] * k
        out += [Field(grid, e.reshape(grid.shape)) for e in ends]
        start, i = times[j - 1], j
    return out


def solve_inhomogeneous(prob: CauchyProblem, t: float,
                        solver: ParametrixSolver | None = None) -> Field:
    """Solution of u' = L u + f at time t (no potential, ``_solve``)."""
    if prob.potential is not None:
        raise ValueError("problem has a potential; use solve_with_potential")
    return _solve(prob, [t], solver, None)[0]


def solve_with_potential(prob: CauchyProblem, t: float, tol: float = 1e-10,
                         solver: ParametrixSolver | None = None,
                         report: SolveReport | None = None) -> Field:
    """Solution of u' = L u - Y u + f at time t (``_solve``).  ``tol`` does
    not affect the solve; it is kept for callers."""
    return _solve(prob, [t], solver, report)[0]


def gradient_sup(u: Field) -> float:
    """Sup over directions and sites of the forward difference."""
    worst = 0.0
    for j in range(u.grid.dim):
        worst = max(worst, float(np.abs(forward_diff(u, j + 1).values).max()))
    return worst
