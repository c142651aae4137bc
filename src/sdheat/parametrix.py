"""Variable-coefficient fundamental solutions by the parametrix method.

Freezing the diagonal coefficients c_a^j at a base point b turns the
lattice heat operator into a constant-coefficient one whose kernel
A_{a,b}(t) = a_{a-b}(t; c_b) is known in closed form.  The error of that
approximation is driven by the correction kernel

    K_{a,b}(t) = sum_j (c_a^j - c_b^j) D2_j A_{a,b}(t),

(differences acting on the a slot), its time-convolution iterates

    K^(m)(t) = int_0^t  K(t-s) * K^(m-1)(s) ds,

and their sum Phi = sum_m K^(m).  The fundamental solution is then

    Gamma(t) = A(t) + int_0^t A(t-s) * Phi(s) ds.

Numerically, one fixed set of graded Gauss panels on (0, horizon) serves
every time integral.  Panels well below the target time keep their
Gauss weights; the last few boundary-layer widths below it are
integrated in tau = t - s at fresh Gauss points, where the kernel is
evaluated exactly and the smooth recursive factor is interpolated inside
its panel.  That plan is linear in the recursive factor, so it is one
weight matrix C (one row per kernel time, one column per node), and one
contraction (``_contract``) turns C and the kernel matrices of the
target into W = sum_r C[r, c] F(tau_r), stacked over the nodes c.  The
ladder contracts each target once, with its correction kernels, and then
runs every order as one product per target, K^(m)(x_i) = dx^d W_i @
K^(m-1); Gamma contracts its own target with the frozen kernels A and
applies W to Phi (or to Phi times a vector).  Kernel matrices live only
while their target is contracted.  The per-order sup norms decay like
C C3^m t^{(m-1)/2} / Gamma(m/2); the truncation order is chosen by
fitting C and C3 to the measured norms and summing the analytic tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import bessel
from .heat_const import kernel_1d
from .lattice import Field, GridSpec, laplacian_array, shift_array
from .quadrature import TimeQuadrature, _lagrange_weights, gauss_legendre

_M_CAP = 20

#: Largest dense two-point matrix (sites x sites entries) a solver accepts.
_DENSE_ENTRIES = 2**26


@dataclass(frozen=True)
class Coefficients:
    """Diagonal diffusion field c_a^j > 0 with Lipschitz metadata.

    ``values`` has shape (d, *grid.shape).  The constructor validates
    positivity and records the largest nearest-neighbour slope as the
    Lipschitz constant (on periodic grids the seam pair is included).
    """

    grid: GridSpec
    values: np.ndarray
    c_min: float = 0.0
    c_max: float = 0.0
    lip: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        want = (self.grid.dim,) + self.grid.shape
        if vals.shape != want:
            raise ValueError(f"coefficient array shape {vals.shape}, expected {want}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")
        cmin = float(vals.min())
        if cmin <= 0:
            raise ValueError(f"coefficients must be strictly positive, min is {cmin}")
        lip = 0.0
        for j in range(self.grid.dim):
            for axis in range(self.grid.dim):
                if self.grid.periodic:
                    shifted = shift_array(vals[j], axis, 1, periodic=True)
                    lip = max(lip, float(np.abs(shifted - vals[j]).max()) / self.grid.dx)
                else:
                    lip = max(lip, float(np.abs(np.diff(vals[j], axis=axis)).max()) / self.grid.dx)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "c_min", cmin)
        object.__setattr__(self, "c_max", float(vals.max()))
        object.__setattr__(self, "lip", lip)

    @classmethod
    def constant(cls, grid: GridSpec, c: float | Sequence[float]) -> "Coefficients":
        if np.isscalar(c):
            c = (float(c),) * grid.dim
        vals = np.stack([np.full(grid.shape, float(cj)) for cj in c])
        return cls(grid, vals)

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable[..., float]) -> "Coefficients":
        """Isotropic field: the same c(x) in every direction."""
        f = Field.from_function(grid, fn)
        return cls(grid, np.stack([f.values] * grid.dim))

    @classmethod
    def from_field(cls, grid: GridSpec, field_values: np.ndarray) -> "Coefficients":
        vals = np.asarray(field_values, dtype=float)
        return cls(grid, np.stack([vals] * grid.dim))

    @property
    def cbar(self) -> float:
        return self.c_max

    def flat(self, j: int) -> np.ndarray:
        return self.values[j].reshape(-1)

    def at(self, alpha: Sequence[int]) -> tuple[float, ...]:
        pos = self.grid.position(alpha)
        return tuple(float(self.values[j][pos]) for j in range(self.grid.dim))


@dataclass(frozen=True)
class PhiSeries:
    """The summed correction series on the quadrature nodes.

    Carries the truncation order, the per-order sup norms measured at
    the horizon, the fitted growth constants, and the analytic tail
    estimate that justified stopping.  The summed matrices live in
    ``values``, shape (nodes, sites, sites): one flat two-point matrix
    per node.
    """

    grid: GridSpec
    horizon: float
    times: np.ndarray
    values: np.ndarray
    m_max: int
    tol: float
    order_sup_norms: tuple[float, ...]
    fitted_c: float
    fitted_c3: float
    tail_estimate: float


def _wrap_offset(grid: GridSpec, alpha: Sequence[int], beta: Sequence[int]) -> tuple[int, ...]:
    out = []
    for a, b in zip(alpha, beta):
        d = int(a) - int(b)
        if grid.periodic:
            d = (d + grid.radius) % grid.npts - grid.radius
        out.append(d)
    return tuple(out)


def _wrap_component(grid: GridSpec, d: int) -> int:
    if grid.periodic:
        return (d + grid.radius) % grid.npts - grid.radius
    return d


def k1(alpha: Sequence[int], beta: Sequence[int], t: float, coeffs: Coefficients) -> float:
    """Correction kernel K_{alpha,beta}(t): coefficient increments times
    the directional second differences of the frozen kernel.

    Zero on the diagonal and identically zero for constant coefficients.
    Singular scalings appear only as t -> 0, so t must be positive;
    quadrature callers keep their nodes strictly inside (0, t).
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    grid = coeffs.grid
    offset = _wrap_offset(grid, alpha, beta)
    ca = coeffs.at(alpha)
    cb = coeffs.at(beta)
    factors = [kernel_1d(offset[j], t, cb[j], grid.dx) for j in range(grid.dim)]
    out = 0.0
    for j in range(grid.dim):
        if ca[j] == cb[j]:
            continue
        up = _wrap_component(grid, offset[j] + 1)
        dn = _wrap_component(grid, offset[j] - 1)
        d2 = (kernel_1d(up, t, cb[j], grid.dx)
              - 2.0 * factors[j]
              + kernel_1d(dn, t, cb[j], grid.dx)) / grid.dx**2
        rest = 1.0
        for i in range(grid.dim):
            if i != j:
                rest *= factors[i]
        out += (ca[j] - cb[j]) * d2 * rest
    return out


@dataclass
class _ConvSegment:
    """One tau piece of a convolution plan: Gauss points in tau = t - s,
    with the recursive factor interpolated from one panel's nodes."""

    tau_pts: np.ndarray
    tau_w: np.ndarray
    interp: np.ndarray
    panel_idx: np.ndarray


@dataclass
class _ConvPlan:
    """Integration plan for int_0^t F(t-s) G(s) ds on the ladder nodes.

    Panels far enough below the target t contribute through their Gauss
    nodes ``full_idx``, at kernel times ``full_tau`` = t - s_q with the
    weights ``full_w``.  The remainder (within a few layer widths of
    t, which may span panel edges) is handled in the variable
    tau = t - s: F, which carries the dx^2-scale layer at tau = 0, is
    evaluated exactly at fresh Gauss points on geometrically growing tau
    pieces (split at panel edges), while the smooth recursive factor G
    is interpolated inside whichever panel each piece lands in.
    """

    full_idx: np.ndarray
    full_tau: np.ndarray
    full_w: np.ndarray
    segments: list[_ConvSegment]

    def matrix(self) -> tuple[list[float], np.ndarray]:
        """The plan as one linear map of the node values G_c.

        Returns the distinct kernel times tau_r and the weights C, one row
        per time and one column per node up to the last one the plan
        reads, with int_0^t F(t-s) G(s) ds = sum_{r,c} C[r, c] F(tau_r) G_c.
        """
        # full panels lie below every segment's panel
        n = 1 + max(int(seg.panel_idx[-1]) for seg in self.segments)
        rows: dict[float, int] = {}
        c = np.zeros((self.full_tau.size + sum(seg.tau_pts.size for seg in self.segments), n))
        for q, tau, w in zip(self.full_idx, self.full_tau, self.full_w):
            c[rows.setdefault(float(tau), len(rows)), q] += w
        for seg in self.segments:
            for p, tp in enumerate(seg.tau_pts):
                row = rows.setdefault(float(tp), len(rows))
                c[row, seg.panel_idx] += seg.tau_w[p] * seg.interp[p]
        return list(rows), c[:len(rows)]


def _contract(weights: np.ndarray, kernels: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Contract a plan's weights C (``_ConvPlan.matrix``) with its kernel
    matrices F(tau_r), stacked as (times, s, s), into W of shape (s, n*s):
    the block of node c is sum_r C[r, c] F(tau_r).  W @ G, with the node
    values G_0..G_{n-1} stacked as rows, is then the plan's integral.
    ``out``, when given, is a contiguous buffer of s*n*s entries that
    receives W."""
    n = weights.shape[1]
    s = kernels.shape[1]
    if out is None:
        out = np.empty(s * n * s)
    # one (n x times) @ (times x s) product per kernel row, written in W's layout
    np.matmul(weights.T, kernels.transpose(1, 0, 2), out=out.reshape(s, n, s))
    return out.reshape(s, n * s)


@dataclass
class _Ladder:
    horizon: float
    nodes: np.ndarray
    weights: np.ndarray
    breakpoints: np.ndarray
    ppp: int
    phi_nodes: np.ndarray  # Phi at every node, shape (nodes, sites, sites)
    m_max: int
    order_norms: list[float]
    fitted_c: float
    fitted_c3: float
    tail: float


class ParametrixSolver:
    """Builds frozen kernels, the correction ladder, and Gamma.

    Kernel matrices are produced by vectorised scaled-Bessel batches, one
    per ladder target or Gamma assembly, contracted with the target's
    plan weights into one matrix W and dropped.  A ladder build keeps the
    W of every target while it runs its orders (about N^2 s^2 / 2
    entries for N nodes and s sites); a built ladder keeps only Phi, per
    horizon.  Gamma is not cached: each call assembles it afresh, and
    callers that apply one operator many times keep it themselves.

    On ``zero-extension`` grids the frozen kernels are the infinite-lattice
    kernels restricted to the box, so Gamma is the infinite-lattice
    fundamental solution restricted to the box.  The oracle's generator
    there is absorbing (zero outside the box), so the two agree in the
    interior and part near the edge: with c = 1 + 0.3 sin(2 pi x / L) at
    dx = 1/8, radius 24 and T = 0.2, the column at beta = (20,) is 0.19
    from the oracle in l1.
    """

    def __init__(self, coeffs: Coefficients, quad: TimeQuadrature | None = None,
                 tol: float = 1e-8):
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.coeffs = coeffs
        self.grid = coeffs.grid
        self.quad = quad or TimeQuadrature()
        self.tol = float(tol)
        n = self.grid.site_count
        if n * n > _DENSE_ENTRIES:
            raise ValueError(f"two-point storage {n}x{n} exceeds the dense budget "
                             f"of {_DENSE_ENTRIES} entries")
        self._cflat = [coeffs.flat(j) for j in range(self.grid.dim)]
        self._offabs = self._offset_tables()
        self._ladders: dict[float, _Ladder] = {}

    # -- kernel matrices -----------------------------------------------------

    def _offset_tables(self) -> list[np.ndarray]:
        grid = self.grid
        comps = np.array(list(grid.index_iter()), dtype=np.int64).reshape(-1, grid.dim)
        tables = []
        for j in range(grid.dim):
            diff = comps[:, j][:, None] - comps[:, j][None, :]
            if grid.periodic:
                diff = (diff + grid.radius) % grid.npts - grid.radius
            tables.append(np.abs(diff).astype(np.int32))
        return tables

    def _max_order(self) -> int:
        return self.grid.radius if self.grid.periodic else 2 * self.grid.radius

    def _image_count(self, r_max: float) -> int:
        """Wrap images needed so the neglected torus tail is below ~1e-18."""
        if not self.grid.periodic:
            return 0
        npts = self.grid.npts
        k = 0
        while k < 8 and bessel._debye_log_magnitude(
                (k + 1) * npts - self.grid.radius, r_max) > -42.0:
            k += 1
        return k

    def _axis_values(self, j: int, ts: np.ndarray) -> np.ndarray:
        """Scaled per-direction kernel orders 0..nmax for a time batch,
        wrap-summed on periodic grids; shape (nmax+1, len(ts), sites)."""
        grid = self.grid
        s = grid.site_count
        nmax = self._max_order()
        r = (2.0 * ts[:, None] * self._cflat[j][None, :] / grid.dx**2).reshape(-1)
        images = self._image_count(float(r.max()))
        top = images * grid.npts + nmax
        b = bessel.iv_scaled_matrix(top, r)
        folded = b[:nmax + 1].copy()
        for k in range(1, images + 1):
            shift = k * grid.npts
            # torus image at offset n - k*npts (order |shift - n|) and n + k*npts
            n = np.arange(nmax + 1)
            folded += b[shift - n] + b[shift + n]
        return folded.reshape(nmax + 1, ts.size, s)

    def _batch_kernels(self, times: Sequence[float]) -> dict[float, np.ndarray]:
        """Kernel matrices for many times at once (pure, not cached).

        On periodic grids these are genuine torus kernels (wrapped image
        sums), which keeps the matrix calculus exactly consistent with
        the lattice generator on the box.
        """
        grid = self.grid
        out: dict[float, np.ndarray] = {}
        todo = sorted({float(t) for t in times})
        for t in todo:
            if t < 0:
                raise ValueError(f"time must be nonnegative, got {t}")
            if t == 0.0:
                out[0.0] = np.eye(grid.site_count) / grid.cell_volume
        todo = [t for t in todo if t > 0.0]
        if not todo:
            return out
        nmax = self._max_order()
        s = grid.site_count
        chunk = max(1, 8192 // s)
        cols = np.arange(s)[None, :]
        for lo in range(0, len(todo), chunk):
            ts = np.array(todo[lo:lo + chunk])
            per_dir = [self._axis_values(j, ts) for j in range(grid.dim)]
            for k, t in enumerate(ts):
                mat = per_dir[0][:, k, :][self._offabs[0], cols]
                for j in range(1, grid.dim):
                    mat = mat * per_dir[j][:, k, :][self._offabs[j], cols]
                out[float(t)] = mat / grid.cell_volume
        return out

    def _correction_from(self, a_matrix: np.ndarray) -> np.ndarray:
        """Correction kernel K = sum_j (c_a - c_b) D2_j A from a kernel matrix."""
        grid = self.grid
        s = grid.site_count
        out = np.zeros((s, s))
        shaped = a_matrix.reshape(*grid.shape, s)
        for j in range(grid.dim):
            d2 = laplacian_array(shaped, j, grid.dx, grid.periodic).reshape(s, s)
            out += (self._cflat[j][:, None] - self._cflat[j][None, :]) * d2
        return out

    def kernel_matrix(self, t: float) -> np.ndarray:
        """Frozen-kernel matrix A_{a,b}(t) (dense, flat layout)."""
        return self._batch_kernels([t])[float(t)]

    def correction_matrix(self, t: float) -> np.ndarray:
        """Correction kernel matrix K(t); requires t > 0."""
        if not t > 0:
            raise ValueError(f"time must be positive, got {t}")
        return self._correction_from(self.kernel_matrix(t))

    # -- the K^(m) ladder ------------------------------------------------------

    def ladder(self, horizon: float) -> _Ladder:
        horizon = float(horizon)
        got = self._ladders.get(horizon)
        if got is None:
            got = self._build_ladder(horizon)
            self._ladders[horizon] = got
        return got

    def _layer_scale(self) -> float:
        # endpoint boundary-layer width of the kernel integrands
        return self.grid.dx**2 / (2.0 * self.coeffs.cbar)

    def _conv_plan(self, t: float, nodes: np.ndarray, weights: np.ndarray,
                   bp: np.ndarray, ppp: int) -> _ConvPlan:
        """Integration plan for a target t in (0, horizon]."""
        k = int(np.searchsorted(bp, t, side="left")) - 1
        k = min(max(k, 0), bp.size - 2)
        lam = self._layer_scale()
        # lower the split point so the tau treatment covers the whole
        # layer neighbourhood of t, even past panel edges
        sp = k
        while sp > 0 and t - bp[sp] < 3.0 * lam:
            sp -= 1
        full_idx = np.arange(sp * ppp)
        depth = t - float(bp[sp])

        # geometric tau edges out of the layer, split at panel crossings
        edges = {0.0, min(lam, depth), depth}
        g = lam
        while g < depth:
            edges.add(min(4.0 * g, depth))
            g *= 4.0
        for kk in range(sp + 1, k + 1):
            edges.add(t - float(bp[kk]))
        edges = sorted(edges)

        xg, wg = gauss_legendre(min(8, max(ppp, 4)))
        segments = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo <= 0.0:
                continue
            half = 0.5 * (hi - lo)
            tau_pts = lo + half * (xg + 1.0)
            tau_w = half * wg
            u_mid = t - 0.5 * (lo + hi)
            pk = int(np.searchsorted(bp, u_mid, side="left")) - 1
            pk = min(max(pk, 0), bp.size - 2)
            panel_idx = np.arange(pk * ppp, (pk + 1) * ppp)
            abscissae = nodes[panel_idx]
            interp = np.array([_lagrange_weights(abscissae, t - tp) for tp in tau_pts])
            segments.append(_ConvSegment(tau_pts, tau_w, interp, panel_idx))
        return _ConvPlan(full_idx, t - nodes[full_idx], weights[full_idx], segments)

    def _build_ladder(self, horizon: float) -> _Ladder:
        if not horizon > 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        nodes, weights, bp, ppp = self.quad.points_with_panels(horizon, layer=self._layer_scale())
        xs = np.append(nodes, horizon)
        vol = self.grid.cell_volume
        s = self.grid.site_count

        amap = self._batch_kernels(xs)
        prev = np.stack([self._correction_from(amap[float(x)]) for x in xs])
        del amap

        if float(np.abs(prev[-1]).max()) == 0.0:
            return _Ladder(horizon, nodes, weights, bp, ppp, np.zeros_like(prev[:-1]),
                           1, [0.0], 0.0, 0.0, 0.0)

        # one contracted plan per target, its kernels built and dropped with it,
        # K^(m)(x_i) = dx^d W_i @ K^(m-1) at the first n_i nodes; every W lies
        # in one buffer, which goes back to the system in one piece
        plans = [self._conv_plan(float(x), nodes, weights, bp, ppp).matrix() for x in xs]
        sizes = [c.shape[1] * s * s for _, c in plans]
        pieces = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        contracted = []
        for (times, c), piece in zip(plans, pieces):
            kmap = self._batch_kernels(times)
            kernels = np.stack([self._correction_from(kmap.pop(tau)) for tau in times])
            contracted.append(_contract(c, kernels, piece))
            del kernels  # before the next target's batch

        phi = prev[:-1].copy()
        m_done = 1
        norms = [float(np.abs(prev[-1]).max())]
        while True:
            if m_done == 1:
                target = min(3, _M_CAP)
            else:
                c_fit, c3_fit = _fit_growth(norms, horizon)
                target = m_done
                while target < _M_CAP and _series_tail(c_fit, c3_fit, horizon, target) > self.tol:
                    target += 1
                if _series_tail(c_fit, c3_fit, horizon, target) > self.tol:
                    raise RuntimeError(
                        f"correction series not convergent at tol={self.tol}: fitted "
                        f"C={c_fit:.3g}, C3={c3_fit:.3g}, horizon={horizon}, tail at "
                        f"order {target} is {_series_tail(c_fit, c3_fit, horizon, target):.3g}")
                if target <= m_done:
                    break
            for _ in range(m_done + 1, target + 1):
                cur = np.empty_like(prev)
                for i, w in enumerate(contracted):
                    np.matmul(w, prev[:w.shape[1] // s].reshape(-1, s), out=cur[i])
                cur *= vol
                phi += cur[:-1]
                norms.append(float(np.abs(cur[-1]).max()))
                prev = cur
            m_done = target

        c_fit, c3_fit = _fit_growth(norms, horizon)
        tail = _series_tail(c_fit, c3_fit, horizon, m_done)
        return _Ladder(horizon, nodes, weights, bp, ppp, phi,
                       m_done, norms, c_fit, c3_fit, tail)

    def phi_series(self, horizon: float) -> PhiSeries:
        lad = self.ladder(horizon)
        return PhiSeries(
            grid=self.grid,
            horizon=lad.horizon,
            times=lad.nodes,
            values=lad.phi_nodes,
            m_max=lad.m_max,
            tol=self.tol,
            order_sup_norms=tuple(lad.order_norms),
            fitted_c=lad.fitted_c,
            fitted_c3=lad.fitted_c3,
            tail_estimate=lad.tail,
        )

    # -- Gamma -----------------------------------------------------------------

    def _gamma(self, t: float, horizon: float | None, rhs: np.ndarray | None) -> np.ndarray:
        """Gamma(t) from the ladder on (0, horizon], horizon defaulting to t:
        the matrix when ``rhs`` is None, else the vector Gamma(t) @ rhs.

        The plan of t is contracted with the frozen kernels A into W, so
        Gamma(t) = A(t) + dx^d W @ Phi or Gamma(t) rhs = A(t) rhs + dx^d W @ (Phi rhs),
        with Phi at the nodes the plan reads.
        """
        t = float(t)
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        vol = self.grid.cell_volume
        if t == 0.0:
            dirac = np.eye(self.grid.site_count) / vol
            return dirac if rhs is None else dirac @ rhs
        lad = self.ladder(t if horizon is None else float(horizon))
        if t > lad.horizon * (1.0 + 1e-12):
            raise ValueError(f"time {t} beyond ladder horizon {lad.horizon}")
        times, c = self._conv_plan(t, lad.nodes, lad.weights, lad.breakpoints, lad.ppp).matrix()
        amap = self._batch_kernels(times + [t])
        w = _contract(c, np.stack([amap[tau] for tau in times]))
        phi = lad.phi_nodes[:c.shape[1]]
        if rhs is None:
            out = w @ phi.reshape(w.shape[1], -1)
            a_t = amap[t]
        else:
            out = w @ (phi @ rhs).reshape(-1)
            a_t = amap[t] @ rhs
        out *= vol
        out += a_t
        return out

    def gamma_matrix(self, t: float) -> np.ndarray:
        """Full fundamental-solution matrix at time t (own horizon)."""
        return self._gamma(t, None, None)

    def gamma_column(self, beta: Sequence[int], t: float) -> Field:
        """One column a -> Gamma_{a, beta}(t) as a Field (own horizon)."""
        unit = np.zeros(self.grid.site_count)
        unit[self.grid.flat_index(beta)] = 1.0
        return Field(self.grid, self._gamma(t, None, unit).reshape(self.grid.shape))

    def gamma_apply(self, t: float, v: np.ndarray, horizon: float | None = None) -> np.ndarray:
        """Convolution application sum_b Gamma_{a,b}(t) v_b dx^d.

        Times below the ladder horizon reuse the shared nodes: panels
        fully below t keep their Gauss weights and the partial panel is
        handled by the layer-resolving tau rule of the plan.
        """
        v = np.asarray(v, dtype=float).reshape(-1)
        return self._gamma(t, horizon, v) * self.grid.cell_volume

    def gamma_operator(self, t: float, horizon: float | None = None) -> np.ndarray:
        """The Gamma(t) matrix under a given ladder horizon (default t).

        ``mat @ v * dx^d`` applies it.  It is assembled afresh on every
        call; a caller that applies the same operator many times keeps
        it, as ``solve_with_potential`` does for the panels of one call.
        """
        return self._gamma(t, horizon, None)

    def propagation_defect(self, s: float, t: float) -> float:
        """sup |Gamma(t) - Gamma(s) * Gamma(t-s)| dx^d over index pairs."""
        if not (0 < s < t):
            raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
        vol = self.grid.cell_volume
        g_t = self.gamma_matrix(t)
        g_s = self.gamma_matrix(s)
        g_ts = self.gamma_matrix(t - s)
        return float(np.abs(g_t - g_s @ g_ts * vol).max()) * vol


def _fit_growth(norms: Sequence[float], horizon: float) -> tuple[float, float]:
    """Fit C, C3 in |K^(m)| <= C C3^m t^{(m-1)/2} / Gamma(m/2) from
    measured sup norms.

    The per-order ratios oscillate (the sup location alternates between
    near- and off-diagonal entries), so C3 comes from a least-squares
    slope across all measured orders; C is then chosen to majorise every
    measured norm, which keeps the pair conservative.
    """
    ms = np.array([m for m, n in enumerate(norms, start=1) if n > 0], dtype=float)
    if ms.size == 0:
        return 0.0, 1.0
    logs = np.array([math.log(n) + math.lgamma(m / 2.0) - 0.5 * (m - 1) * math.log(horizon)
                     for m, n in enumerate(norms, start=1) if n > 0])
    if ms.size == 1:
        c3 = 1.0
    else:
        slope = np.polyfit(ms, logs, 1)[0]
        c3 = max(math.exp(slope), 1e-6)
    log_c = float(np.max(logs - ms * math.log(c3)))
    return math.exp(log_c), c3


def _series_tail(c: float, c3: float, horizon: float, m_max: int) -> float:
    """Tail sum_{m > m_max} C C3^m T^{(m-1)/2} / Gamma(m/2)."""
    if c == 0.0 or c3 == 0.0:
        return 0.0
    tail = 0.0
    for m in range(m_max + 1, m_max + 400):
        log_term = math.log(c) + m * math.log(c3) + 0.5 * (m - 1) * math.log(horizon) \
            - math.lgamma(m / 2.0)
        if log_term < -700:
            break
        tail += math.exp(log_term)
    return tail
