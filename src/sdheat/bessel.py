r"""Exponentially scaled modified Bessel functions of the first kind.

Everything here works with the scaled values e^{-r} I_n(r), which stay
in [0, 1] for all orders and arguments (their sum over n in Z is exactly
one).  Unscaled I_n overflows double precision near r ~ 700 while the
lattice heat kernels need r = 2ct/dx^2 up to 1e6, so scaling is not
optional.

One production algorithm serves every argument: Miller's backward
recurrence for the minimal solution, which is stable for all r
(Gautschi, SIAM Rev. 9, 1967).  It runs on the order ratios
rho_k = I_k / I_{k-1} = r / (2k + r rho_{k+1}), which lie in [0, 1), so
nothing overflows and no rescaling is needed; the normalisation
sum_n e^{-r} I_n(r) = 1 is accumulated in the same backward sweep, and
the values are products of the ratios.  The sweep is written once in
Python floats for a single value (``iv_scaled``) and once vectorised over
a batch of arguments (``iv_scaled_matrix``, ``iv_scaled_array``).

``iv_scaled_quadrature`` is an independent cross-check built on the
integral representation

    I_n(r) = (1/2pi) \int_0^{2pi} e^{r cos(t)} cos(n t) dt,

evaluated as a periodic trapezoid sum of e^{r(cos t - 1)} cos(n t) with
node doubling until convergence.  Where the target value is so small
that the cosine sum cancels below double precision, the sum is carried
out with mpmath at a working precision chosen from a Debye-type
magnitude estimate (which is independent of the routines under test).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def _validate_r(r: float) -> float:
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"argument must be finite, got {r}")
    if r < 0:
        raise ValueError(f"argument must be nonnegative, got {r}")
    return r


def _miller_start(n: int, r: float) -> int:
    # The 70 r margin keeps both the normalisation tail (rate m^2/2r)
    # and the contamination of the dominant solution (rate m^2/r) below
    # ~1e-15: scaled orders decay like a Gaussian of width sqrt(r) until
    # m ~ r and factorially beyond, so sqrt(n^2 + 70 r) covers both
    # regimes.  Validated against the quadrature oracle over the full
    # order/argument sweep.
    return math.ceil(math.sqrt(n * n + 70.0 * r)) + 15


def _miller_scalar(n: int, r: float) -> float:
    """The sweep of ``iv_scaled_matrix`` for one order and one argument, in
    Python floats: tens of times faster than a one-column batch."""
    ratio = 0.0  # rho_{k+1} = I_{k+1} / I_k, zero above the start order
    tail = 1.0   # sum_{j >= k} I_j / I_k
    value = 1.0  # I_n / I_0 = rho_1 ... rho_n
    for k in range(_miller_start(n, r), 0, -1):
        tail = 1.0 + ratio * tail
        ratio = r / (2.0 * k + r * ratio)
        if k <= n:
            value *= ratio
    # 1 / (e^{-r} I_0) = 1 + 2 sum_{j >= 1} I_j / I_0 = 1 + 2 rho_1 tail_1
    return value / (1.0 + 2.0 * ratio * tail)


def iv_scaled(n: int, r: float) -> float:
    """Scaled modified Bessel function e^{-r} I_|n|(r).

    Exact at r = 0 (one for n = 0, zero otherwise); relative accuracy
    around 1e-13 over |n| <= 1e6, r <= 1e6.
    """
    r = _validate_r(r)
    n = abs(int(n))
    if n > 10**6:
        raise ValueError(f"order {n} out of the supported range |n| <= 1e6")
    return _miller_scalar(n, r)


def iv_scaled_array(nmax: int, r: float) -> np.ndarray:
    """All scaled orders [e^{-r} I_0(r), ..., e^{-r} I_nmax(r)] at once."""
    return iv_scaled_matrix(int(nmax), np.array([_validate_r(r)]))[:, 0]


def iv_scaled_matrix(nmax: int, r_values: np.ndarray) -> np.ndarray:
    """Scaled orders 0..nmax for a batch of arguments; shape (nmax+1, len(r)).

    One backward sweep over the whole batch: row k first holds rho_k and
    row 0 e^{-r} I_0, and a cumulative product down the orders then
    gives every value.  The ratios lie in [0, 1), so a product underflows
    only where the true value is below the double range, and a zero
    argument gives exactly the unit vector e_0.
    """
    r = np.asarray(r_values, dtype=float)
    if r.ndim != 1:
        raise ValueError("r_values must be one-dimensional")
    if not np.all(np.isfinite(r)) or np.any(r < 0):
        raise ValueError("arguments must be finite and nonnegative")
    out = np.empty((nmax + 1, r.size))
    ratio = np.zeros(r.size)  # rho_{k+1}
    tail = np.ones(r.size)    # sum_{j >= k} I_j / I_k
    for k in range(_miller_start(nmax, float(r.max(initial=0.0))), 0, -1):
        tail *= ratio
        tail += 1.0
        ratio *= r
        ratio += 2.0 * k
        np.divide(r, ratio, out=ratio)
        if k <= nmax:
            out[k] = ratio
    tail *= 2.0 * ratio
    tail += 1.0
    np.divide(1.0, tail, out=out[0])
    return np.cumprod(out, axis=0, out=out)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

def _debye_log_magnitude(n: int, r: float) -> float:
    """Leading-order log of e^{-r} I_n(r); used only to size the working
    precision of the oracle, never to produce values."""
    if n == 0:
        return min(0.0, -0.5 * math.log(2.0 * math.pi * max(r, 1e-300)))
    s = math.hypot(n, r)
    eta = s - r - n * math.asinh(n / max(r, 1e-300))
    return min(0.0, eta - 0.5 * math.log(2.0 * math.pi * s))


def _trapezoid_numpy(n: int, r: float, nodes: int) -> float:
    j = np.arange(nodes)
    theta = 2.0 * math.pi * j / nodes
    vals = np.exp(r * (np.cos(theta) - 1.0)) * np.cos(n * theta)
    return math.fsum(vals.tolist()) / nodes


_EXP_NODE_CACHE: dict[tuple[float, int, int], list] = {}


def _mp_exp_nodes(r: float, nodes: int, dps: int) -> list:
    key = (r, nodes, dps)
    cached = _EXP_NODE_CACHE.get(key)
    if cached is not None:
        return cached
    with mpmath.workdps(dps):
        rr = mpmath.mpf(r)
        step = 2 * mpmath.pi / nodes
        vals = [mpmath.exp(rr * (mpmath.cos(step * j) - 1)) for j in range(nodes)]
    if len(_EXP_NODE_CACHE) > 64:
        _EXP_NODE_CACHE.clear()
    _EXP_NODE_CACHE[key] = vals
    return vals


def _trapezoid_mp(n: int, r: float, nodes: int, dps: int) -> float:
    expvals = _mp_exp_nodes(r, nodes, dps)
    with mpmath.workdps(dps):
        step = 2 * mpmath.pi / nodes
        acc = mpmath.mpf(0)
        for j in range(nodes):
            acc += expvals[j] * mpmath.cos(n * step * j)
        return float(acc / nodes)


def iv_scaled_quadrature(n: int, r: float, rel_tol: float = 1e-11) -> float:
    """Independent evaluation of e^{-r} I_n(r) from the cosine integral.

    Periodic trapezoid sums converge geometrically here; nodes are
    doubled until two successive levels agree to rel_tol.  The heavy
    cancellation corner (large order, small argument) runs in mpmath at
    a precision budgeted from a Debye magnitude estimate.
    """
    r = _validate_r(r)
    n = abs(int(n))
    if r == 0.0:
        return 1.0 if n == 0 else 0.0

    log_mag = _debye_log_magnitude(n, r)
    cancel_digits = max(0.0, -log_mag / math.log(10.0))

    nodes = 64
    while nodes < 2 * n + 16:
        nodes *= 2

    if cancel_digits <= 3.0:
        prev = _trapezoid_numpy(n, r, nodes)
        for _ in range(20):
            nodes *= 2
            cur = _trapezoid_numpy(n, r, nodes)
            if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300) or abs(cur - prev) < 1e-16:
                return cur
            prev = cur
        raise RuntimeError(f"quadrature failed to converge for n={n}, r={r}")

    dps = int(30 + cancel_digits)
    if dps > 2000:
        raise RuntimeError(f"requested precision {dps} digits is out of range for n={n}, r={r}")
    prev = _trapezoid_mp(n, r, nodes, dps)
    for _ in range(12):
        nodes *= 2
        cur = _trapezoid_mp(n, r, nodes, dps)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise RuntimeError(f"quadrature failed to converge for n={n}, r={r}")


def normalization_order(r: float) -> int:
    """Order M making sum_{|n| <= M} e^{-r} I_n(r) equal 1 to ~1e-15."""
    return int(math.ceil(r + 40.0 * math.sqrt(r + 1.0)))
