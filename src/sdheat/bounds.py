"""Right-hand sides of the kernel estimates.

The semi-discrete kernels admit no Gaussian bound near t = 0; the
central estimates here are Lorentzian.  Along one direction, for the
m-th difference at integer offset n,

    rhs = (1/sqrt(2 cbar)  ^  sqrt(t)/dx)^{[n = 0]}
          * t^{-(1+m)/2}
          * (1 + u^2 [+ u^3])^{-1},        u = |n dx| / sqrt(2 cbar t),

with the min-factor active only at the zero offset and the cubic tail
present for the kernel bound but not for the fundamental-solution
variants; in d dimensions the bound is the product of such factors with
t^{-(d+m)/2}.  A genuine Gaussian bound with fully explicit constants
(prefactor pi^{d/2} prod (4 c_j t)^{-1/2}, rate constant C0 = 252) holds
on the region t >= max_j |a_j| dx^2 / (2 C0 min_j c_j); and a classical
two-regime bound driven by the function
F(g) = -log(g + sqrt(g^2+1)) + (sqrt(g^2+1) - 1)/g covers the unit-grid
kernel away from the origin.
"""

from __future__ import annotations

import math

import numpy as np

#: Rate constant of the explicit Gaussian bound.
C0_GAUSSIAN = 252.0


def lorentz_rhs(offsets: np.ndarray, t: float, cbar: float, dx: float, m: int,
                cubic_tail: bool = True) -> np.ndarray:
    """Lorentzian bound of the m-th difference along one direction, at
    each integer offset of ``offsets``.  Strictly positive."""
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    n = np.asarray(offsets, dtype=float)
    u2 = (n * dx) ** 2 / (2.0 * cbar * t)
    tail = 1.0 + u2
    if cubic_tail:
        tail = tail + u2**1.5
    small_time = min(1.0 / math.sqrt(2.0 * cbar), math.sqrt(t) / dx)
    st = np.where(n == 0, small_time, 1.0)
    return st * t ** (-(1.0 + m) / 2.0) * (1.0 / tail)


def gaussian_log_rhs(offsets: np.ndarray, t: float, c: float, dx: float,
                     c_min: float) -> np.ndarray:
    """Log of one direction's factor of the explicit Gaussian bound, at
    each integer offset of ``offsets``; the d-dimensional log bound is
    the sum of these factors over the directions.

    ``c`` is the coefficient of this direction and ``c_min`` the least
    coefficient over all directions, which sets the validity region
    |a_j| <= 2 C0 c_min t / dx^2.  Outside it the bound makes no claim
    and the factor is +inf.
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    n = np.asarray(offsets, dtype=float)
    log_rhs = -0.5 * math.log(4.0 * c * t) - (n * dx) ** 2 / (2.0 * C0_GAUSSIAN * c * t) \
        + 0.5 * math.log(math.pi)
    inside = np.abs(n) <= 2.0 * C0_GAUSSIAN * c_min * t / dx**2
    return np.where(inside, log_rhs, math.inf)


def pang_F(gamma: float) -> float:
    """The exponent profile F(g) = -log(g + sqrt(g^2+1)) + (sqrt(g^2+1)-1)/g.

    Written via asinh and a rationalised second term so that the
    cancellation near g = 0 (both terms vanish linearly) costs no digits.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return -math.asinh(gamma) + gamma / (1.0 + math.sqrt(1.0 + gamma * gamma))


def pang_rhs(n: int, t: float) -> float:
    """Two-regime bound profile for the unit-grid kernel, n != 0.

    The estimate deliberately has no n = 0 member; the kernel is instead
    bounded at the origin by the Lorentzian small-time factor.
    """
    n = int(n)
    if n == 0:
        raise ValueError("the two-regime bound does not address n = 0")
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    an = abs(n)
    log_pref = -0.5 * math.log(an) if t <= an else -0.5 * math.log(t)
    return math.exp(log_pref + an * pang_F(an / (2.0 * t)))


def lorentz_tilde(tau: float, z: float | np.ndarray) -> float | np.ndarray:
    """The normalised Lorentz profile tau^{-1/2} (1 + z^2/tau)^{-1}, at one
    z or elementwise over an array of them."""
    return 1.0 / (math.sqrt(tau) * (1.0 + z * z / tau))


def lorentz_closed_form(x: float, y: float, s: float, t: float) -> float:
    """Closed form of int_R Ltilde(t-s, x-z) Ltilde(s, z-y) dz.

    Equals pi * Ltilde((sqrt(t-s) + sqrt(s))^2, x-y); bounded above by
    sqrt(2) pi Ltilde(t, x-y).
    """
    if not (0 < s < t):
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    tau = (math.sqrt(t - s) + math.sqrt(s)) ** 2
    return math.pi * lorentz_tilde(tau, x - y)


def lorentz_conv_quadrature(x: float, y: float, s: float, t: float) -> float:
    """Adaptive quadrature of the defining Lorentz-convolution integral."""
    from scipy import integrate  # the only scipy use; loaded on first call

    if not (0 < s < t):
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")

    def integrand(z: float) -> float:
        return lorentz_tilde(t - s, x - z) * lorentz_tilde(s, z - y)

    lo, hi = sorted((x, y))
    total = 0.0
    for a, b in ((-np.inf, lo), (lo, hi), (hi, np.inf)):
        if a == b:
            continue
        val, _ = integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
        total += val
    return total


def prop53_f(t: float, offsets: np.ndarray, dx: float, c1: float = 1.0) -> np.ndarray:
    """The self-reproducing Lorentz-product profile of the convolution
    estimate, (1 ^ c1 t/dx^2)^{Z(a)/2} t^{-1/2} prod_j Ltilde(c1 t, a_j dx),
    at each multi-index a of ``offsets`` (shape (..., d); the result has
    shape (...)).  Z(a) counts the zero components of a."""
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    a = np.asarray(offsets)
    small = min(1.0, c1 * t / dx**2)
    factors = np.array([small ** (z / 2.0) for z in range(a.shape[-1] + 1)])
    out = factors[np.count_nonzero(a == 0, axis=-1)] / math.sqrt(t)
    for j in range(a.shape[-1]):
        out *= lorentz_tilde(c1 * t, a[..., j] * dx)
    return out
