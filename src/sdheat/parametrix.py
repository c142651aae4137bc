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

The frozen kernel factorises: A_{a,b}(t) = prod_j G_j[a_j, b] / dx^d with
G_j[a_j, b] = h(a_j - b_j) for h(n) = e^{-r} I_n(r) folded on a torus, r =
2 t c_b^j / dx^2, and D2_j acts on G_j alone.  On zero-extension grids the
mirror image is subtracted (``_folded_offsets``).  Kernel and correction
matrices are therefore gathers of one joint table per time: the
direction tables of a Bessel batch multiplied out over the folded offsets,
D2_j G_j taken from the batch's second difference in the offset.  A site b
enters G_j only through c_b^j, so the batch of direction j runs over the
distinct values of c^j, not over the sites.

Numerically, one graded Gauss rule on (0, horizon) serves every time
integral.  Panels well below the target time keep their Gauss weights;
the last few boundary-layer widths below it are integrated in tau = t - s
at fresh Gauss points, where the kernel is exact and the smooth recursive
factor is interpolated inside its panel.  So the plan of a target is one
weight matrix C (a row per kernel time, a column per node), and
``_contract_plan`` turns C into W = sum_r C[r, c] F(tau_r), stacked over
the nodes c.  A kernel is a gather of one time's joint table (the
direction tables at every folded offset and distinct coefficient tuple,
multiplied out) and the gather is linear, so C is contracted with the
joint tables first, a few hundred entries per node, and each node block of
W is gathered once: no kernel matrix is built for a plan.  One generator,
``_panels``, contracts the targets of each panel of the rule with the
correction kernel K_Y = K - diag(Y) A of a potential Y (K without one)
into one W per panel.  The ladder keeps every panel's W and runs each
order transposed, one product per panel, K^(m)(x_i)^T = dx^d K^(m-1)^T
W_i^T, the nodes side by side in one of two order buffers that swap roles;
a Cauchy solve takes the panels one at a time in one reused buffer and
solves the Volterra equation panel by panel (``march``).  The end of a
ladder build contracts the horizon's plan with A and applies W to Phi,
Gamma(horizon) = A + dx^d W @ Phi, A(horizon) being the block of one more
node of unit weight.  A kernel matrix is the plan of unit weight at its
time, so ``_contract_plan`` is the only gather of kernels:
``_kernel_stack`` lays out such plans for K^(1) at the nodes and the
horizon, for the march's right-hand sides, and for ``kernel_matrix`` and
``correction_matrix``; unit weights are read as joint-table rows, with no
weight matrix.  The per-order sup norms decay like C C3^m t^{(m-1)/2} / Gamma(m/2); the
truncation order is chosen by fitting C and C3 to the measured norms and
summing the analytic tail.  A built ladder is one ``PhiSeries``:
Gamma(horizon), the rule behind it, and the truncation record, cached per
horizon; Phi itself is dropped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import bessel
from .heat_const import kernel_1d
from .lattice import Field, GridSpec
from .quadrature import PANEL_POINTS, TimeQuadrature, _lagrange_weights, gauss_legendre

_M_CAP = 20

#: Largest dense two-point matrix (sites x sites entries) a solver accepts.
_DENSE_ENTRIES = 2**26


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Diagonal diffusion field c_a^j > 0.

    ``values`` has shape (d, *grid.shape).  The constructor validates
    positivity and finiteness and records the extreme values.  Equality
    and hashing are by identity, as for the arrays it holds.
    """

    grid: GridSpec
    values: np.ndarray
    c_min: float = field(init=False)
    c_max: float = field(init=False)

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
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "c_min", cmin)
        object.__setattr__(self, "c_max", float(vals.max()))

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
    """The correction ladder of one horizon, and Gamma at the horizon.

    ``times``, ``weights`` and ``breakpoints`` are the graded Gauss rule on
    (0, horizon) that every time integral of the ladder and of Gamma uses:
    ascending nodes, their weights, and the panel edges.  ``gamma`` is
    Gamma(horizon), a read-only flat two-point matrix (sites, sites); Phi
    on the nodes is summed to form it and then dropped.  The rest is the
    truncation record: the order, the per-order sup norms measured at the
    horizon, the fitted growth constants, and the analytic tail estimate
    that justified stopping.
    """

    grid: GridSpec
    horizon: float
    times: np.ndarray
    weights: np.ndarray
    breakpoints: np.ndarray
    gamma: np.ndarray
    m_max: int
    tol: float
    order_sup_norms: tuple[float, ...]
    fitted_c: float
    fitted_c3: float
    tail_estimate: float


def _period(grid: GridSpec) -> int:
    """Period of the kernel fold: the box, or the box and its two absorbing sites twice."""
    return grid.npts if grid.periodic else 2 * grid.npts + 2


def _folded_offsets(grid: GridSpec, a, b) -> list:
    """Offsets a - b and, on zero-extension grids, a + b + 2R + 2 (box
    coordinates, integers or arrays), folded to |n| <= period // 2.  The
    kernel absorbed outside {-R..R} is h(a - b) - h(a + b + 2R + 2), h the
    torus kernel of period 2 npts + 2 (the reflection principle: W. Feller,
    *An Introduction to Probability Theory and Its Applications*, vol. 1,
    ch. III)."""
    period = _period(grid)
    images = [a - b] if grid.periodic else [a - b, a + b + 2 * grid.radius + 2]
    return [abs((n + period // 2) % period - period // 2) for n in images]


def _gather(values: np.ndarray, index: tuple[list[np.ndarray], list[np.ndarray]],
            out: np.ndarray | None = None) -> np.ndarray:
    """Folded tables, flat along their last axis, at the indices of each
    image in ``index``: the images of its first list added, those of its
    second (an odd number of mirrors) subtracted.  ``out``, when given, is
    a contiguous buffer that receives the result."""
    plus, minus = index
    out = np.take(values, plus[0], axis=-1, mode="clip", out=out)
    for image in plus[1:]:
        out += np.take(values, image, axis=-1, mode="clip")
    for image in minus:
        out -= np.take(values, image, axis=-1, mode="clip")
    return out


def k1(alpha: Sequence[int], beta: Sequence[int], t: float, coeffs: Coefficients) -> float:
    """Correction kernel K_{alpha,beta}(t): coefficient increments times
    the directional second differences of the frozen kernel.

    A factor is the infinite-lattice kernel at ``_folded_offsets``, the
    mirror subtracted; further torus images are left out.  Zero on the
    diagonal and for constant coefficients.  t must be positive.
    """
    if not t > 0:
        raise ValueError(f"time must be positive, got {t}")
    grid = coeffs.grid
    ca = coeffs.at(alpha)
    cb = coeffs.at(beta)

    def factor(j: int, a: int) -> float:
        vals = [kernel_1d(n, t, cb[j], grid.dx) for n in _folded_offsets(grid, a, int(beta[j]))]
        return vals[0] - sum(vals[1:])

    factors = [factor(j, int(alpha[j])) for j in range(grid.dim)]
    out = 0.0
    for j in range(grid.dim):
        if ca[j] == cb[j]:
            continue
        d2 = (factor(j, int(alpha[j]) + 1) - 2.0 * factors[j]
              + factor(j, int(alpha[j]) - 1)) / grid.dx**2
        out += (ca[j] - cb[j]) * d2 * math.prod(factors[:j] + factors[j + 1:])
    return out


class ParametrixSolver:
    """Builds frozen kernels, the correction ladder and Gamma, and marches
    Cauchy problems.  ``tol`` is the ladder's series tolerance; the march
    does not read it.

    Each target of the time rule or Gamma assembly has its plan weights
    contracted in Bessel-table space and gathered into its W
    (``_contract_plan``); ``_panels`` gathers the contracted targets of
    one panel into one matrix W, and a kernel matrix is the plan of unit
    weight at its time (``_kernel_stack``).  Construction keeps, per
    direction, the distinct coefficient values and each site's index
    among them, and each site's index among the distinct tuples of those
    indices: O(s) entries, no index table and no s x s array.  Index
    tables are built per block of rows and dropped with it.
    A ladder build keeps the W of every panel while it runs its orders
    (about N^2 s^2 / 2 entries for N nodes and s sites), and besides them
    two order buffers and Phi, (N + 1) s^2 entries each; the panels and the
    order buffers are dropped before the end step.  A built ladder keeps
    only Gamma(horizon), s^2 entries per horizon, and every Gamma entry
    point reads it.  A march keeps the W of one panel at a time, in
    one buffer sized for the last panel: 8 N s^2 entries, 13 MB at 65
    sites and 48 nodes.

    Kernels are folded on a torus, the mirror image subtracted on
    zero-extension grids (``_folded_offsets``), so Gamma is the fundamental
    solution of the generator on the box, periodic or absorbing (zero
    outside the box) as in the oracle.
    """

    def __init__(self, coeffs: Coefficients, quad: TimeQuadrature | None = None,
                 tol: float = 1e-8):
        if not tol > 0:
            raise ValueError(f"tol must be positive, got {tol}")
        self.coeffs = coeffs
        self.grid = coeffs.grid
        self.quad = quad or TimeQuadrature()
        self.tol = float(tol)
        n = self.grid.site_count
        if n * n > _DENSE_ENTRIES:
            raise ValueError(f"two-point storage {n}x{n} exceeds the dense budget "
                             f"of {_DENSE_ENTRIES} entries")
        self._cflat = [coeffs.flat(j) for j in range(self.grid.dim)]
        # per direction: the distinct values (exact equality) and each site's index among them
        self._distinct = [np.unique(c, return_inverse=True) for c in self._cflat]
        # the distinct tuples of those indices, (d, U), and each site's tuple
        tuples, site_tuple = np.unique(np.stack([k for _, k in self._distinct]), axis=1,
                                       return_inverse=True)
        self._tuples = (tuples, site_tuple.reshape(-1))
        self._period = _period(self.grid)
        self._ladders: dict[float, PhiSeries] = {}

    # -- kernel matrices -----------------------------------------------------

    def _joint_index(self, slabs: slice) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Flat indices into one time's joint table, laid out (offset along
        axis 0, ..., offset along axis d-1, coefficient tuple), for
        ``_gather``: one (rows, s) table per choice of image in each
        direction, for the rows a in the ``slabs`` (box positions along axis
        0), entry [a, b] the folded offsets of that choice and the index of
        b's tuple.  A choice with an odd number of mirrors is subtracted, so
        on zero-extension grids the product of d absorbing factors is 2^d
        signed gathers."""
        grid = self.grid
        d = grid.dim
        s = grid.site_count
        tuples, site_tuple = self._tuples
        offsets = self._period // 2 + 1
        axis = grid.axis_indices()
        pos = np.unravel_index(np.arange(s), grid.shape)
        scaled = []
        for j in range(d):
            rows = axis[slabs] if j == 0 else axis
            shape = [rows.size if i == j else 1 for i in range(d)] + [s]
            scaled.append([(n * offsets ** (d - 1 - j) * tuples.shape[1]).reshape(shape)
                           for n in _folded_offsets(grid, rows[:, None], axis[pos[j]])])
        plus, minus = [], []
        for choice in itertools.product(*(enumerate(images) for images in scaled)):
            index = sum((n for _, n in choice), site_tuple).reshape(-1, s)
            (minus if sum(m for m, _ in choice) % 2 else plus).append(index)
        return plus, minus

    def _top_order(self, r_max: float) -> int:
        """Highest Bessel order ``_axis_values`` needs at arguments up to
        r_max: the offsets up to half the fold's period, plus the torus
        images it takes until the neglected tail is below ~1e-18."""
        period, nmax = self._period, self._period // 2
        images = 0
        while bessel._debye_log_magnitude((images + 1) * period - nmax, r_max) > -42.0:
            images += 1
        return images * period + nmax

    def _axis_values(self, j: int, ts: np.ndarray) -> np.ndarray:
        """Scaled per-direction torus kernels at offsets 0..nmax = period // 2
        for a time batch, shape (len(ts), nmax+1, u_j): the Bessel orders
        at r = 2 t c / dx^2 for the u_j distinct values c of c^j,
        wrap-summed over the images of the fold's period."""
        values = self._distinct[j][0]
        period, nmax = self._period, self._period // 2
        r = (2.0 * ts[:, None] * values[None, :] / self.grid.dx**2).reshape(-1)
        top = self._top_order(float(r.max()))
        b = bessel.iv_scaled_matrix(top, r).reshape(top + 1, ts.size, values.size)
        folded = b[:nmax + 1].transpose(1, 0, 2).copy()
        for shift in range(period, top - nmax + 1, period):
            # torus images at offset n - shift (order shift - n) and n + shift
            folded += (b[shift - nmax:shift + 1][::-1]
                       + b[shift:shift + nmax + 1]).transpose(1, 0, 2)
        return folded

    def _bessel_batches(self, ts: np.ndarray) -> Iterator[list[np.ndarray]]:
        """The ``_axis_values`` tables of every direction for ascending
        nonnegative times ts, one batch after another: 8192 // s times a
        batch, fewer when the top order exceeds 255, so a batch of
        direction j holds (top + 1) batch u_j values for its u_j distinct
        coefficients, at most 2^21 when every value is distinct."""
        grid = self.grid
        s = grid.site_count
        lo = 0
        while lo < ts.size:
            hi = min(ts.size, lo + max(1, 8192 // s))
            rows = self._top_order(2.0 * float(ts[hi - 1]) * self.coeffs.c_max / grid.dx**2) + 1
            hi = lo + max(1, min(hi - lo, 2**21 // (rows * s)))
            yield [self._axis_values(j, ts[lo:hi]) for j in range(grid.dim)]
            lo = hi

    def _offset_second_difference(self, g: np.ndarray) -> np.ndarray:
        """D2 of folded ``_axis_values`` tables g, taken in offset space:
        (g[n+1] + g[n-1] - 2 g[n]) / dx^2 with g[-1] = g[1] (g is even) and
        g[nmax+1] = g[period - nmax - 1] (the torus wrap, either parity).
        Gathered less its mirror, it is D2 of the absorbing kernel."""
        d2 = np.empty_like(g)
        np.add(g[:, 2:], g[:, :-2], out=d2[:, 1:-1])
        np.add(g[:, 1], g[:, 1], out=d2[:, 0])
        np.add(g[:, self._period - self._period // 2 - 1], g[:, -2], out=d2[:, -1])
        d2 -= 2.0 * g
        d2 /= self.grid.dx**2
        return d2

    def _kernel_stack(self, times: Sequence[float], correction: bool = False,
                      potential: np.ndarray | None = None) -> np.ndarray:
        """Frozen kernels A(t), or with ``correction`` the correction kernels
        K(t) (K_Y with a flat ``potential``), stacked as (len(times), s, s)
        in the given order (not cached): the plan of unit weight at each
        time, contracted by ``_contract_plan`` without weights and laid out
        node by node."""
        s = self.grid.site_count
        w = self._contract_plan(times, None, correction, potential)
        return np.ascontiguousarray(w.reshape(s, -1, s).transpose(1, 0, 2))

    def _contract_plan(self, times: Sequence[float], weights: np.ndarray | None,
                       correction: bool = True, potential: np.ndarray | None = None,
                       out: np.ndarray | None = None) -> np.ndarray:
        """W = sum_r C[r, c] F(tau_r) for a plan's weights C (``_conv_plan``)
        and kernel times tau_r, positive for K and nonnegative for A, shape
        (s, n s) over the n columns of C, so that W @ G, the node values
        stacked as rows, is the plan's integral.  ``weights`` None stands for
        the unit weights C = I, one column per time: the kernel matrices
        F(tau_r) side by side, each taken from its row of the joint tables
        with no product.  F is K, K_Y = K - diag(Y) A with a flat
        ``potential``, or A without ``correction``; ``out`` is an optional
        contiguous buffer of s n s entries that receives W.

        A kernel is a gather of one time's joint table (the ``_axis_values``
        tables of every direction multiplied out over their folded offsets
        and the distinct coefficient tuples, D2 in slot j for term j of K),
        and the gather is linear: C is contracted with the joint tables one
        term at a time, in the Bessel batches of ``_bessel_batches``, and
        each node block is gathered from the result (``_joint_index``), term
        j times c_a^j - c_b^j, less y_a times the A term for K_Y.  Rows go
        in blocks of whole slabs along axis 0, about 2^18 index entries a
        block (one block up to 512 sites), each with its own index tables
        and increments, so no s x s array is held besides W.
        """
        grid = self.grid
        d = grid.dim
        s = grid.site_count
        times = np.asarray(times, dtype=float).reshape(-1)
        order = np.argsort(times, kind="stable")
        ts = times[order]
        if ts.size and (ts[0] < 0 or (correction and ts[0] == 0)):
            raise ValueError(f"time must be {'positive' if correction else 'nonnegative'}, "
                             f"got {ts[0]}")
        tuples, _ = self._tuples
        n = ts.size if weights is None else weights.shape[1]

        def joint(tables: list[np.ndarray]) -> np.ndarray:
            # (batch, nmax+1, U) per direction -> (batch, (nmax+1)^d U)
            return math.prod(np.expand_dims(t, tuple(1 + i for i in range(d) if i != j))
                             for j, t in enumerate(tables)).reshape(len(tables[0]), -1)

        parts, lo = [], 0
        for per_dir in self._bessel_batches(ts):
            g = [v[..., k] for v, k in zip(per_dir, tuples)]
            terms = []
            if correction:
                diffs = [self._offset_second_difference(v)[..., k]
                         for v, k in zip(per_dir, tuples)]
                terms += [g[:j] + [diffs[j]] + g[j + 1:] for j in range(d)]
            if not correction or potential is not None:
                terms.append(g)
            hi = lo + g[0].shape[0]
            parts.append([joint(tables) if weights is None
                          else weights[order[lo:hi]].T @ joint(tables) for tables in terms])
            lo = hi
        if weights is None:  # unit weights: the joint rows, back in the given time order
            contracted = [np.concatenate(p)[np.argsort(order)] for p in zip(*parts)]
        else:
            contracted = [sum(p[1:], start=p[0]) for p in zip(*parts)]
        for acc in contracted:
            acc /= grid.cell_volume

        if out is None:
            out = np.empty(s * n * s)
        by_row = out.reshape(s, n, s)
        slab = s // grid.npts
        slabs = min(grid.npts, max(1, 2**18 // (s * slab)))  # per row block
        step = max(1, 2**18 // (slabs * slab * s))  # nodes gathered at once, 2 MB a term
        scratch = np.empty(min(step, n) * slabs * slab * s)
        if potential is not None:
            y = np.asarray(potential, dtype=float).reshape(s, 1)
        for first in range(0, grid.npts, slabs):
            index = self._joint_index(slice(first, first + slabs))
            rows = slice(first * slab, min(first + slabs, grid.npts) * slab)
            increments = [c[rows, None] - c for c in self._cflat] if correction else []
            for lo in range(0, n, step):
                part = by_row[rows, lo:lo + step].transpose(1, 0, 2)
                tables = [acc[lo:lo + step] for acc in contracted]
                term = scratch[:part.size].reshape(part.shape)
                if not correction:
                    part[...] = _gather(tables[0], index, term)
                    continue
                for j, inc in enumerate(increments):
                    _gather(tables[j], index, term)
                    if j == 0:
                        np.multiply(term, inc, out=part)
                    else:
                        term *= inc
                        part += term
                if potential is not None:
                    _gather(tables[d], index, term)
                    term *= y[rows]
                    part -= term
        return out.reshape(s, n * s)

    def kernel_matrix(self, t: float) -> np.ndarray:
        """Frozen-kernel matrix A_{a,b}(t) (dense, flat layout)."""
        return self._kernel_stack([t])[0]

    def correction_matrix(self, t: float) -> np.ndarray:
        """Correction kernel matrix K(t); requires t > 0."""
        return self._kernel_stack([t], correction=True)[0]

    # -- the K^(m) ladder ------------------------------------------------------

    def ladder(self, horizon: float) -> PhiSeries:
        """The correction ladder on (0, horizon], built once per horizon."""
        horizon = float(horizon)
        got = self._ladders.get(horizon)
        if got is None:
            got = self._build_ladder(horizon)[0]
            self._ladders[horizon] = got
        return got

    def _layer_scale(self) -> float:
        # endpoint boundary-layer width of the kernel integrands
        return self.grid.dx**2 / (2.0 * self.coeffs.cbar)

    def _conv_plan(self, t: float, nodes: np.ndarray, weights: np.ndarray,
                   bp: np.ndarray) -> tuple[list[float], np.ndarray]:
        """Integration plan of int_0^t F(t-s) G(s) ds for a target t in
        (0, horizon], on the rule ``nodes``, ``weights``, breakpoints ``bp``.

        Returns the distinct kernel times tau_r and the weights C, one row
        per time and one column per node up to the last one the plan reads,
        with int_0^t F(t-s) G(s) ds = sum_{r,c} C[r, c] F(tau_r) G_c.

        Panels far enough below t contribute through their Gauss nodes, at
        kernel times t - s_q with the Gauss weights; their rows come first.
        The remainder (within a few layer widths of t, which may span panel
        edges) is handled in the variable tau = t - s: F, which carries the
        dx^2-scale layer at tau = 0, is evaluated exactly at fresh Gauss
        points on geometrically growing tau pieces (split at panel edges),
        while the smooth recursive factor G is interpolated inside whichever
        panel each piece lands in.
        """
        k = int(np.searchsorted(bp, t, side="left")) - 1
        k = min(max(k, 0), bp.size - 2)
        lam = self._layer_scale()
        # lower the split point so the tau treatment covers the whole
        # layer neighbourhood of t, even past panel edges
        sp = k
        while sp > 0 and t - bp[sp] < 3.0 * lam:
            sp -= 1
        full = sp * PANEL_POINTS
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

        xg, wg = gauss_legendre(PANEL_POINTS)
        pieces = []  # (tau points, tau weights, first node of the panel)
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo <= 0.0:
                continue
            half = 0.5 * (hi - lo)
            pk = int(np.searchsorted(bp, t - 0.5 * (lo + hi), side="left")) - 1
            pk = min(max(pk, 0), bp.size - 2)
            pieces.append((lo + half * (xg + 1.0), half * wg, pk * PANEL_POINTS))

        # full panels lie below every piece's panel
        n = PANEL_POINTS + max(first for _, _, first in pieces)
        rows: dict[float, int] = {}
        c = np.zeros((full + len(pieces) * PANEL_POINTS, n))
        for q in range(full):
            c[rows.setdefault(float(t - nodes[q]), len(rows)), q] += weights[q]
        for tau_pts, tau_w, first in pieces:
            panel = slice(first, first + PANEL_POINTS)
            lagrange = _lagrange_weights(nodes[panel], t - tau_pts)
            for tp, w, lw in zip(tau_pts, tau_w, lagrange):
                row = rows.setdefault(float(tp), len(rows))
                c[row, panel] += w * lw
        return list(rows), c[:len(rows)]

    def _end_step(self, t: float, nodes: np.ndarray, weights: np.ndarray,
                  bp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A(t) and the plan of t contracted with the frozen kernels, W of
        shape (s, n s) over the n nodes the plan reads: the last step of a
        Gamma assembly and of a march piece, dx^d (A(t) u + W @ rho)."""
        times, c = self._conv_plan(t, nodes, weights, bp)
        n = c.shape[1]
        # A(t) is the block of one more node, of unit weight at t alone
        plan = np.zeros((len(times) + 1, n + 1))
        plan[:-1, :n] = c
        plan[-1, n] = 1.0
        w = self._contract_plan(times + [t], plan, correction=False)
        s = self.grid.site_count
        return w[:, n * s:], w[:, :n * s]

    def _panels(self, nodes: np.ndarray, weights: np.ndarray, bp: np.ndarray,
                y: np.ndarray | None, buffer: np.ndarray | None = None,
                extra: Sequence[float] = (), reverse: bool = False
                ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield (lo, hi, W) for each panel of the rule, the last panel first
        with ``reverse``.  The targets lo..hi-1 are the panel's nodes, joined
        on the last panel by the ``extra`` times; all of them read the n = lo
        + 8 nodes up to the panel's end.  W, shape ((hi - lo) s, n s), is
        their plans contracted with K_Y (K when ``y`` is None) by
        ``_contract_plan``, one target at a time.  With a ``buffer`` every W is a
        view of its start, overwritten by the next panel.  Without one, the
        W follow each other in one array sized for every panel, so keeping
        them all costs one allocation."""
        s = self.grid.site_count
        kept = buffer is None
        if kept:  # the 8 targets of panel p read 8 (p + 1) nodes; extra ones all N
            buffer = np.empty((nodes.size * (nodes.size + PANEL_POINTS) // 2
                               + len(extra) * nodes.size) * s * s)
        start = 0
        firsts = range(0, nodes.size, PANEL_POINTS)
        for lo in reversed(firsts) if reverse else firsts:
            n = lo + PANEL_POINTS
            targets = np.append(nodes[lo:n], extra if n == nodes.size else [])
            block = n * s * s
            size = targets.size * block
            w = buffer[start:start + size]
            if kept:
                start += size
            for j, x in enumerate(targets):
                times, c = self._conv_plan(float(x), nodes, weights, bp)
                self._contract_plan(times, c, potential=y, out=w[j * block:(j + 1) * block])
            yield lo, lo + targets.size, w.reshape(-1, n * s)

    def _build_ladder(self, horizon: float) -> tuple[PhiSeries, np.ndarray]:
        """The record ``ladder`` caches, and Phi on the nodes of its rule,
        shape (nodes, s, s), which the record does not keep; Phi may be a
        view of the transposed orders, [c, a, b] = Phi(x_c)[a, b]."""
        if not horizon > 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        nodes, weights, bp = self.quad.points_with_panels(horizon, layer=self._layer_scale())
        vol = self.grid.cell_volume
        s = self.grid.site_count

        k1 = self._kernel_stack(np.append(nodes, horizon), correction=True)

        if float(np.abs(k1[-1]).max()) == 0.0:
            gamma = self.kernel_matrix(horizon)
            gamma.setflags(write=False)
            return PhiSeries(self.grid, horizon, nodes, weights, bp, gamma, 1, self.tol,
                             (0.0,), 0.0, 0.0, 0.0), np.zeros_like(k1[:-1])

        # the orders are kept transposed, [b, c s + a] = K^(m)(x_c)[a, b], in
        # two buffers that swap roles: K^(m) at the first n_i nodes is then
        # dx^d K^(m-1)^T W_i^T, whose wide shape multiplies faster than W_i
        # K^(m-1); the horizon joins the targets of the last panel
        prev = np.ascontiguousarray(k1.transpose(2, 0, 1)).reshape(s, -1)
        del k1
        panels = list(self._panels(nodes, weights, bp, None, extra=[horizon]))

        cur = np.empty_like(prev)
        phi = prev[:, :-s].copy()
        m_done = 1
        norms = [float(np.abs(prev[:, -s:]).max())]
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
                for lo, hi, w in panels:
                    np.matmul(prev[:, :w.shape[1]], w.T, out=cur[:, lo * s:hi * s])
                cur *= vol
                phi += cur[:, :-s]
                norms.append(float(np.abs(cur[:, -s:]).max()))
                prev, cur = cur, prev
            m_done = target

        # Gamma(horizon) = A + dx^d W @ Phi, its plan reading every node; the
        # panels (w is a view of their buffer) and the order buffers go first,
        # so the end step's kernels do not add to the peak
        del panels, w, prev, cur
        a_t, w = self._end_step(horizon, nodes, weights, bp)
        gamma = w @ phi.T
        gamma *= vol
        gamma += a_t
        gamma.setflags(write=False)
        c_fit, c3_fit = _fit_growth(norms, horizon)
        tail = _series_tail(c_fit, c3_fit, horizon, m_done)
        phi = phi.reshape(s, -1, s).transpose(1, 2, 0)  # [c, a, b] = Phi(x_c)[a, b]
        return PhiSeries(self.grid, horizon, nodes, weights, bp, gamma,
                         m_done, self.tol, tuple(norms), c_fit, c3_fit, tail), phi

    def phi_series(self, horizon: float) -> PhiSeries:
        """The correction ladder on (0, horizon]; the same record as ``ladder``."""
        return self.ladder(horizon)

    # -- Cauchy problems ---------------------------------------------------------

    def _march_panels(self, nodes: np.ndarray, weights: np.ndarray, bp: np.ndarray,
                      y: np.ndarray | None, rho: np.ndarray, adjoint: bool = False) -> float:
        """Solve (I - V) rho = b for k right-hand sides at once, in place:
        ``rho``, shape (nodes s, k), holds the k columns of b on entry and
        of rho on exit.  V rho = dx^d int_0^x K_Y(x - s) rho(s) ds at the
        nodes of the rule, K_Y as in ``_panels``; with ``adjoint`` the
        system is (I - V)^T rho = b instead.

        The targets of panel p read the nodes up to its own end, so V is
        block lower triangular in the panels of the rule.  ``_panels``
        contracts each panel into one W in a buffer sized for the last
        panel, so only one panel's W is alive at a time; I - dx^d W_pp is
        formed in the buffer in place.  Forward, panel p is one dense solve
        of all k columns, (I - dx^d W_pp) rho_p = b_p + dx^d W_p< rho_<.
        The adjoint takes the panels last to first, solves
        (I - dx^d W_pp)^T rho_p = b_p and adds dx^d W_p<^T rho_p to the
        right-hand sides of the panels below, one panel's rows at a time.
        Returns the largest relative residual of the panel solves, column
        by column.
        """
        vol = self.grid.cell_volume
        s = self.grid.site_count
        buffer = np.empty(PANEL_POINTS * s * nodes.size * s)
        residual = 0.0
        for lo, hi, w in self._panels(nodes, weights, bp, y, buffer, reverse=adjoint):
            own = w[:, lo * s:]
            own *= -vol
            np.einsum("ii->i", own)[:] += 1.0
            b = rho[lo * s:hi * s]
            if adjoint:
                own = own.T
            else:
                b += vol * (w[:, :lo * s] @ rho[:lo * s])
            x = np.linalg.solve(own, b)
            scale = np.maximum(np.abs(b).max(axis=0), np.finfo(float).tiny)
            residual = max(residual, float((np.abs(own @ x - b).max(axis=0) / scale).max()))
            b[...] = x
            if adjoint:
                x *= vol
                for q in range(0, lo * s, PANEL_POINTS * s):
                    rows = slice(q, q + PANEL_POINTS * s)
                    rho[rows] += w[:, rows].T @ x
        return residual

    def march(self, h: float, u0: np.ndarray, pieces: int, potential: np.ndarray | None = None,
              source: Callable[[np.ndarray], np.ndarray] | None = None, start: float = 0.0,
              every: int = 1) -> tuple[np.ndarray, float]:
        """March u' = L u - Y u + f from u0 at time ``start`` over ``pieces``
        pieces of length h.

        With the potential in the correction kernel, K_Y = K - diag(Y) A
        (Levi's parametrix: A. Friedman, *Partial Differential Equations of
        Parabolic Type*, 1964, ch. 1), the piece from t0 is

            u(t0 + x) = dx^d A(x) u(t0) + dx^d int_0^x A(x - s) rho(s) ds,
            rho = f + dx^d K_Y u(t0) + dx^d K_Y * rho,

        rho taken at the nodes of the rule on (0, h) and the piece's end
        contracted into dx^d (A(h) u(t0) + W_h rho) (``_end_step``).  rho
        solves (I - V) rho = f + dx^d K_Y u(t0) panel by panel
        (``_march_panels``; H. Brunner, *Collocation Methods for Volterra
        Integral and Related Functional Equations*, 2004, ch. 2).  One
        piece marches that single column.  The march is linear in u and f,
        so more pieces are u <- P u + G f_i, f_i the source at the node
        times of piece i: G = dx^d W_h (I - V)^-1 comes from one adjoint
        march of the s columns of W_h^T, and the one-piece propagator
        P = dx^d (A(h) + G K_Y) = Gamma_Y(h) dx^d from G.  Each piece is
        then one product with P and one with G, and no panel is built or
        solved twice.  ``potential`` None means Y = 0, so K_Y = K.
        ``source(times)`` gives f at a piece's node times (offset by
        ``start``) as a (nodes, s) array, None meaning f = 0.  Returns u at
        every ``every``-th piece end, shape (pieces // every, s), and the
        largest relative residual of the panel solves.
        """
        if not (pieces >= 1 and every >= 1 and pieces % every == 0):
            raise ValueError(f"need pieces >= 1 and every dividing it, got pieces={pieces}, "
                             f"every={every}")
        vol = self.grid.cell_volume
        s = self.grid.site_count
        y = None if potential is None else np.asarray(potential, dtype=float).reshape(-1)
        nodes, weights, bp = self.quad.points_with_panels(h, layer=self._layer_scale())
        u = np.asarray(u0, dtype=float).reshape(-1)
        if pieces == 1:
            rho = vol * (self._kernel_stack(nodes, correction=True, potential=y) @ u)
            if source is not None:
                rho += source(start + nodes)
            rho = rho.reshape(-1, 1)
            residual = self._march_panels(nodes, weights, bp, y, rho)
            a_end, w_end = self._end_step(h, nodes, weights, bp)
            return (vol * (a_end @ u + w_end @ rho.reshape(-1)))[None], residual

        a_end, g = self._end_step(h, nodes, weights, bp)
        residual = self._march_panels(nodes, weights, bp, y, g.T, adjoint=True)
        g *= vol
        prop = g @ self._kernel_stack(nodes, correction=True, potential=y).reshape(-1, s)
        prop += a_end
        prop *= vol
        out = np.empty((pieces // every, s))
        for i in range(pieces):
            u = prop @ u
            if source is not None:
                u += g @ source(start + i * h + nodes).reshape(-1)
            if (i + 1) % every == 0:
                out[i // every] = u
        return out, residual

    # -- Gamma -----------------------------------------------------------------

    def _gamma(self, t: float) -> np.ndarray:
        """Gamma(t), read-only: the Dirac matrix at t = 0, else the one the
        ladder on (0, t] keeps."""
        t = float(t)
        if t <= 0.0:  # negative times raise
            return self.kernel_matrix(t)
        return self.ladder(t).gamma

    def gamma_matrix(self, t: float) -> np.ndarray:
        """Full fundamental-solution matrix at time t: ``mat @ v * dx^d``
        applies it.  Each call returns a fresh writable copy of the matrix
        the ladder on (0, t] keeps."""
        return self._gamma(t).copy()

    gamma_operator = gamma_matrix

    def gamma_column(self, beta: Sequence[int], t: float) -> Field:
        """One column a -> Gamma_{a, beta}(t) as a Field."""
        col = self._gamma(t)[:, self.grid.flat_index(beta)]
        return Field(self.grid, col.reshape(self.grid.shape))

    def gamma_apply(self, t: float, v: np.ndarray) -> np.ndarray:
        """Convolution application sum_b Gamma_{a,b}(t) v_b dx^d."""
        v = np.asarray(v, dtype=float).reshape(-1)
        return self._gamma(t) @ v * self.grid.cell_volume

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
    log_c, log_c3, log_t = math.log(c), math.log(c3), math.log(horizon)
    tail = 0.0
    for m in range(m_max + 1, m_max + 400):
        log_term = log_c + m * log_c3 + 0.5 * (m - 1) * log_t - math.lgamma(m / 2.0)
        if log_term < -700:
            break
        tail += math.exp(log_term)
    return tail
