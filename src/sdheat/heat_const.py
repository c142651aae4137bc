"""Constant-coefficient semi-discrete heat kernels.

The fundamental solution of

    du_a/dt = sum_j c^j (u_{a-e_j} - 2 u_a + u_{a+e_j}) / dx^2,
    u_a(0) = dx^-d 1{a = 0},

factorises over directions into scaled Bessel functions:

    a_alpha(t) = dx^-d  prod_j  e^{-r_j} I_{alpha_j}(r_j),
    r_j = 2 c^j t / dx^2.

Three independent representations are implemented: the Bessel product
(`kernel_nd`), a spectral trapezoid quadrature of the inverse Fourier
integral (`kernel_spectral`), and the truncated operator-exponential
series applied to the Dirac (`kernel_series_smalltime`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bessel
from .lattice import Field, GridSpec, laplacian_dir


@dataclass(frozen=True)
class ConstCoeffs:
    """Positive per-direction diffusion constants c^1..c^d."""

    c: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in self.c)
        if not c or any(not (v > 0 and math.isfinite(v)) for v in c):
            raise ValueError(f"coefficients must be positive finite, got {self.c}")
        object.__setattr__(self, "c", c)

    @classmethod
    def of(cls, *c: float) -> "ConstCoeffs":
        return cls(tuple(c))

    @property
    def dim(self) -> int:
        return len(self.c)

    @property
    def cbar(self) -> float:
        return max(self.c)


def recommended_radius(t: float, cbar: float, dx: float) -> int:
    """Truncation radius keeping the neglected kernel tail below ~1e-15.

    With r = 2 cbar t / dx^2 the scaled Bessel orders beyond
    r + 40 sqrt(r+1) carry less than 1e-15 of the total mass, which makes
    a periodic box of this radius indistinguishable from the infinite
    lattice at test tolerances.  At t = 0 the kernel is the Dirac, with no
    tail, so t <= 0 gives the floor of 1.
    """
    if t <= 0.0:
        return 1
    return max(1, bessel.normalization_order(2.0 * cbar * t / dx**2))


def kernel_1d(n: int, t: float, c: float, dx: float) -> float:
    """One-dimensional kernel dx^-1 e^{-r} I_n(r), r = 2 c t / dx^2."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if not (c > 0 and dx > 0):
        raise ValueError("c and dx must be positive")
    return bessel.iv_scaled(n, 2.0 * c * t / dx**2) / dx


def kernel_nd(alpha: Sequence[int], t: float, coeffs: ConstCoeffs, dx: float) -> float:
    """Multi-dimensional kernel: product of one-dimensional factors."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != coeffs.dim:
        raise ValueError(f"index has {len(alpha)} components, coefficients are {coeffs.dim}-d")
    out = 1.0
    for a, c in zip(alpha, coeffs.c):
        out *= kernel_1d(a, t, c, dx)
    return out


def kernel_axis_values(radius: int, t: float, c: float, dx: float) -> np.ndarray:
    """1-d kernel values at offsets -radius..radius (even in the offset)."""
    if t == 0.0:
        vals = np.zeros(2 * radius + 1)
        vals[radius] = 1.0 / dx
        return vals
    scaled = bessel.iv_scaled_array(radius, 2.0 * c * t / dx**2) / dx
    return np.concatenate([scaled[::-1], scaled[1:]])


def kernel_slice(grid: GridSpec, coeffs: ConstCoeffs, t: float) -> Field:
    """Kernel restricted to the grid box, built from per-axis factors."""
    if coeffs.dim != grid.dim:
        raise ValueError("coefficient dimension does not match grid")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return Field.dirac(grid)
    axes = [kernel_axis_values(grid.radius, t, c, grid.dx) for c in coeffs.c]
    vals = axes[0]
    for arr in axes[1:]:
        vals = np.multiply.outer(vals, arr)
    return Field(grid, vals)


def _spectral_nodes(n: int, r: float, floor: int) -> int:
    # trapezoid aliasing error ~ scaled order M - |n|; push it past the
    # mass tail of the kernel
    if floor < 16:
        raise ValueError(f"need at least 16 nodes, got {floor}")
    need = abs(n) + bessel.normalization_order(r) + 16
    m = int(floor)
    while m < need:
        m *= 2
    return m


def spectral_axis_values(radius: int, t: float, c: float, dx: float, nodes: int = 256) -> np.ndarray:
    """1-d spectral factors for offsets -radius..radius via one FFT.

    The periodic trapezoid rule for dx^-1 times the integral over theta
    in [-1/2, 1/2) of exp(-(4 c t / dx^2) sin^2(pi theta)) e^{2 pi i n
    theta}; it is exact to spectral accuracy, and ``nodes`` (at least 16)
    is a floor on the node count, doubled while the kernel demands more.
    """
    r = 2.0 * c * t / dx**2
    m = _spectral_nodes(radius, r, nodes)
    theta = -0.5 + np.arange(m) / m
    weights = np.exp(-2.0 * r * np.sin(np.pi * theta) ** 2)
    # DFT bin n of weights * e^{2 pi i n theta}: since theta starts at
    # -1/2, fold the phase shift e^{-i pi n} = (-1)^n into the result.
    bins = np.fft.ifft(weights)  # ifft includes the 1/m factor
    n = np.arange(-radius, radius + 1)
    vals = np.real(bins[np.mod(n, m)] * (-1.0) ** np.abs(n))
    return vals / dx


def kernel_spectral(alpha: Sequence[int], t: float, coeffs: ConstCoeffs, dx: float,
                    nodes: int = 256) -> float:
    """Kernel via the inverse-Fourier trapezoid rule (independent route):
    the product of the last entries of ``spectral_axis_values(|alpha_j|, ...)``."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return math.prod(float(spectral_axis_values(abs(int(a)), t, c, dx, nodes)[-1])
                     for a, c in zip(alpha, coeffs.c))


def series_tail_ok(t: float, coeffs: ConstCoeffs, grid: GridSpec, terms: int,
                   tol: float = 1e-12) -> bool:
    """Truncation-tail bound for the operator-exponential series.

    Uses the row-sum operator bound |L| <= 4 d cbar / dx^2: the neglected
    tail is below (t|L|)^terms / terms! times the Dirac magnitude.
    """
    op = 4.0 * grid.dim * coeffs.cbar / grid.dx**2
    if t * op == 0.0:
        return True
    log_tail = terms * math.log(t * op) - math.lgamma(terms + 1) - grid.dim * math.log(grid.dx)
    return log_tail <= math.log(tol)


def kernel_series_smalltime(t: float, coeffs: ConstCoeffs, grid: GridSpec, terms: int) -> Field:
    """Truncated series sum_i (t^i / i!) L^i applied to the Dirac.

    Only valid while the factorial tail is negligible; refuses otherwise.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    if not series_tail_ok(t, coeffs, grid, max(terms, 1)):
        raise ValueError("series not convergent at requested tolerance for this t, dx, terms")
    term = Field.dirac(grid)
    acc = term.values.copy()
    for i in range(1, terms + 1):
        applied = np.zeros(grid.shape)
        for j in range(grid.dim):
            applied += coeffs.c[j] * laplacian_dir(term, j + 1).values
        term = Field(grid, applied * (t / i))
        acc = acc + term.values
    return Field(grid, acc)
