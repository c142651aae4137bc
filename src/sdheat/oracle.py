"""Brute-force ground truth: direct integration of the lattice ODE system.

The generator L v = sum_j c^j D2_j v is applied matrix-free (stencil
form).  Its exponential action is computed by substepping with truncated
Taylor series: each substep h satisfies h * |L|_inf <= theta, the series
is summed until a rigorous geometric remainder bound falls below the
per-step budget, and since L generates an l-infinity contraction (zero
row sums, nonnegative off-diagonal couplings) the step errors add up
without amplification.  That makes the returned tolerance a certificate
rather than a heuristic.

A constant source g and a nonnegative potential Y (M = L - Y, still a
contraction) go through the same loop: the substep e^{hM} u + h phi1(hM) g
has Taylor terms (h^k / k!) M^{k-1} (M u + g), so g enters the first
term only and the remainder bound is the one of e^{hM} u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import Field, GridSpec, laplacian_array
from .parametrix import Coefficients

_THETA = 2.0  # substep size target h * |operator| <= theta


@dataclass(frozen=True)
class Generator:
    """The lattice diffusion operator v -> sum_j c^j D2_j v."""

    coeffs: Coefficients

    @property
    def grid(self) -> GridSpec:
        return self.coeffs.grid

    def apply(self, values: np.ndarray) -> np.ndarray:
        grid = self.grid
        out = np.zeros_like(values)
        for j in range(grid.dim):
            out += self.coeffs.values[j] * laplacian_array(values, j, grid.dx, grid.periodic)
        return out

    def norm_bound(self) -> float:
        """Row-sum bound on |L|_inf: 4 sum_j max_a c_a^j / dx^2."""
        per_dir = self.coeffs.values.reshape(self.grid.dim, -1).max(axis=1)
        return float(4.0 * per_dir.sum() / self.grid.dx**2)


def _taylor_step(apply_op: Callable[[np.ndarray], np.ndarray], h: float, v: np.ndarray,
                 op_bound: float, tol_step: float, g: np.ndarray | None = None) -> np.ndarray:
    """One substep e^{hM} v + h phi1(hM) g with a rigorous remainder bound.

    Term k >= 1 of the series is (h^k / k!) M^{k-1} (M v + g), so the
    source enters the first term only.  After the k-th term the
    remainder is bounded by |term_k| * q/(1-q) with q = h*|M|/(k+1) once
    q < 1; terms are added until that bound meets the step budget
    tol_step * (|v|_inf + h |g|_inf).
    """
    acc = v.copy()
    term = (apply_op(v) if g is None else apply_op(v) + g) * h
    scale = float(np.abs(v).max()) + (0.0 if g is None else h * float(np.abs(g).max()))
    scale = max(scale, 1e-300)
    k = 1
    while True:
        acc += term
        q = h * op_bound / (k + 1)
        if q < 1.0:
            remainder = float(np.abs(term).max()) * q / (1.0 - q)
            if remainder <= tol_step * scale:
                return acc
        if k > 500:
            raise RuntimeError("Taylor step failed to converge within the term budget")
        k += 1
        term = apply_op(term) * (h / k)


def _evolve(apply_op: Callable[[np.ndarray], np.ndarray], op_bound: float, t: float,
            v: Field, tol: float, g: np.ndarray | None = None) -> Field:
    """u(t) for u' = M u + g, u(0) = v, in substeps h with h |M| <= theta."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if t == 0.0:
        return v
    steps = max(1, math.ceil(t * op_bound / _THETA))
    if steps > 10_000_000:
        raise RuntimeError(f"tolerance unachievable within step budget: {steps} substeps required")
    h, tol_step = t / steps, tol / steps
    out = v.values
    for _ in range(steps):
        out = _taylor_step(apply_op, h, out, op_bound, tol_step, g)
    return Field(v.grid, out)


def expm_apply(gen: Generator, t: float, v: Field, tol: float = 1e-10) -> Field:
    """w = e^{tL} v with sup-norm error below tol * |v|_inf."""
    if v.grid != gen.grid:
        raise ValueError("grid mismatch between generator and field")
    return _evolve(gen.apply, gen.norm_bound(), t, v, tol)


def gamma_oracle(coeffs: Coefficients, beta: Sequence[int], t: float,
                 tol: float = 1e-10) -> Field:
    """Fundamental-solution column by direct integration from Dirac data."""
    grid = coeffs.grid
    vals = np.zeros(grid.shape)
    vals[grid.position(beta)] = grid.dx ** (-grid.dim)
    return expm_apply(Generator(coeffs), t, Field(grid, vals), tol)


def evolve_with_potential(coeffs: Coefficients, potential: np.ndarray | None,
                          source: np.ndarray | None, t: float, psi: Field,
                          tol: float = 1e-10) -> Field:
    """Direct integration of u' = L u - Y u + f for constant-in-time f.

    The sup-norm error is at most tol * (|psi|_inf + t |f|_inf): each
    substep h meets its budget (tol/steps) (|u_k|_inf + h |f|_inf), and
    since Y >= 0 makes L - Y an l-infinity contraction the step errors
    add up without amplification, while |u_k|_inf <= |psi|_inf + k h |f|_inf
    (to first order in tol; rounding is not counted).
    """
    if psi.grid != coeffs.grid:
        raise ValueError("grid mismatch between coefficients and initial data")
    gen = Generator(coeffs)
    y = None if potential is None else np.asarray(potential, dtype=float)
    g = None if source is None else np.asarray(source, dtype=float)
    if y is not None and y.shape != coeffs.grid.shape:
        raise ValueError("potential shape mismatch")
    if g is not None and g.shape != coeffs.grid.shape:
        raise ValueError("source shape mismatch")
    if y is not None and not np.all(y >= 0.0):
        raise ValueError(f"potential must be nonnegative, min is {float(y.min())}")

    def apply_op(values: np.ndarray) -> np.ndarray:
        out = gen.apply(values)
        if y is not None:
            out = out - y * values
        return out

    bound = gen.norm_bound() + (float(np.abs(y).max()) if y is not None else 0.0)
    return _evolve(apply_op, bound, t, psi, tol, g)


def residual(u_slices: Sequence[Field], times: Sequence[float], coeffs: Coefficients,
             f: Callable[[float], Field] | None = None) -> float:
    """Sup-norm ODE residual of a time-sampled solution.

    Centered time differences on a uniform grid against L u + f; second
    order in the time spacing for smooth solutions.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 3:
        raise ValueError("need at least 3 time slices")
    h = float(times[1] - times[0])
    if not np.allclose(np.diff(times), h, rtol=1e-10, atol=0.0):
        raise ValueError("time slices must be uniformly spaced")
    gen = Generator(coeffs)
    worst = 0.0
    for i in range(1, times.size - 1):
        dudt = (u_slices[i + 1].values - u_slices[i - 1].values) / (2.0 * h)
        rhs = gen.apply(u_slices[i].values)
        if f is not None:
            rhs = rhs + f(float(times[i])).values
        worst = max(worst, float(np.abs(dudt - rhs).max()))
    return worst
