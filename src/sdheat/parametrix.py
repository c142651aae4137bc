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
D2_j G_j the second difference along its offset axis j.  A site b enters
G_j only through c_b^j, so the batch of direction j runs over the
distinct values of c^j, not over the sites.

A build (a ladder or a march) tabulates A's joint tables once, on the
tau table of ``sdheat.quadrature`` (``_tau_table``), and reads each plan
off it as fold weights F (``_fold_plans``).  D2_j, the contraction and
the gather are linear, so ``_contract_plan`` gathers each node block of
W = sum_r C[r, c] F(tau_r) from the contracted rows F @ rows, and no
kernel matrix is built for a plan.  It is the module's one gather; the
forward march's history hands it rows laid out by site instead of by
tuple (``_history``).  ``_panels`` contracts the targets of each panel of
the rule with K_Y = K - diag(Y) A of a potential Y (K without one) into
one W, block 0 K_Y at the targets.

The ladder seeds K^(1) from the panels' block 0 and runs each order
transposed, one product per panel over the nodes, K^(m)(x_i)^T = dx^d
K^(m-1)^T W_i^T.  ``march`` solves the Volterra equation for rho_ext =
[u(t0); rho] panel by panel, forward (node 0 and the nodes below a panel
act through the table) or adjoint (each panel's whole W in one reused
buffer).  Either ends with the horizon's plan contracted with A, dx^d
[A(h) | W_h] applied to [I / dx^d; Phi] or to rho_ext.  The per-order sup
norms decay like C C3^m t^{(m-1)/2} / Gamma(m/2); the truncation order
is chosen by fitting C and C3 to the measured norms and summing the
analytic tail.  A built ladder is one ``PhiSeries``: Gamma(horizon), its
rule and the truncation record, cached per horizon; Phi itself is
dropped.  Exact joint tables (``_joint_rows``) serve only the table,
``kernel_matrix`` and ``correction_matrix``.
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
from .quadrature import PANEL_POINTS, TimeQuadrature, _fold_plans, _tau_points

_M_CAP = 20

#: Largest dense two-point matrix (sites x sites entries) a solver accepts.
_DENSE_ENTRIES = 2**26

#: Stop, cap and stall ratio of the forward panel sweeps (``_march_panels``).
_FLOOR, _SWEEPS, _STALL = 1e-15, 60, 0.9


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
            out: np.ndarray) -> np.ndarray:
    """Folded tables, flat along their last axis, at the indices of each
    image in ``index``, into the contiguous buffer ``out``: the images of
    its first list added, those of its second (an odd number of mirrors)
    subtracted."""
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

    The targets of the time rule or Gamma assembly have their plans, the
    initial value as node 0, folded onto the build's tau table by the plan
    pass of ``sdheat.quadrature`` over a list of targets (``_fold_plans``,
    from ``_plans``: a panel's 8 in the forward march, one at a time in
    ``_panels``) and gathered into their W (``_contract_plan``); ``_panels``
    gathers the contracted targets of one panel into one matrix W.
    Construction keeps, per direction, the distinct coefficient values and
    each site's index among them, and each site's index among the distinct
    tuples of those indices: O(s) entries, no index table and no s x s
    array.  Index tables, 2^d s^2 entries at most, are built once a panel
    sweep (twice in a forward march: by tuple and by site).  A build's tau
    table, 20 rows a tau panel of (period // 2 + 1)^d U entries for U
    distinct tuples (0.9 MB at 65 sites, 19 tuples and nine panels), is a
    local of the build.  A ladder build drops it once its panels are
    contracted and keeps their W, node 0's block among them, while it runs
    its orders (about N^2 s^2 / 2 entries for N nodes and s sites), and
    besides them one order buffer and Phi, (N + 1) s^2 entries each, and a
    one-panel scratch of 9 s^2, all dropped before the end step.  A built
    ladder keeps only Gamma(horizon), s^2 entries per horizon, and every
    Gamma entry point reads it.  A forward march holds its table and a
    tuple-major copy of it (0.9 MB each there), one panel's fold weights (8
    n P entries for the n nodes and P table points it reads, 0.55 MB at 48
    nodes), its own block, 64 s^2 entries (2.2 MB), and the W of its
    history for k columns, 8 k s^2 entries (0.27 MB at k = 1), in one
    buffer for every panel, but no folded rows.  The adjoint march holds
    the whole W of one panel at a time, in one buffer sized for the last
    panel: 8 (N + 1) s^2 entries, 13 MB there.

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
        # one time's joint table: the folded offset along each axis, then the tuple
        self._joint_shape = (self._period // 2 + 1,) * self.grid.dim + (tuples.shape[1],)
        self._ladders: dict[float, PhiSeries] = {}

    # -- kernel matrices -----------------------------------------------------

    def _joint_index(self, slabs: slice, sites: np.ndarray | None = None
                     ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Flat indices into one time's joint table, laid out (offset along
        axis 0, ..., offset along axis d-1, coefficient tuple), for
        ``_gather``: one (rows, s) table per choice of image in each
        direction, for the rows a in the ``slabs`` (box positions along axis
        0), entry [a, b] the folded offsets of that choice and the index of
        b's tuple.  With ``sites`` the last axis runs over the s sites
        instead, b at position sites[b].  A choice with an odd number of
        mirrors is subtracted, so on zero-extension grids the product of d
        absorbing factors is 2^d signed gathers."""
        grid = self.grid
        d = grid.dim
        s = grid.site_count
        tuples, site_tuple = self._tuples
        width, last = (tuples.shape[1], site_tuple) if sites is None else (s, sites)
        offsets = self._period // 2 + 1
        axis = grid.axis_indices()
        pos = np.unravel_index(np.arange(s), grid.shape)
        scaled = []
        for j in range(d):
            rows = axis[slabs] if j == 0 else axis
            shape = [rows.size if i == j else 1 for i in range(d)] + [s]
            scaled.append([(n * offsets ** (d - 1 - j) * width).reshape(shape)
                           for n in _folded_offsets(grid, rows[:, None], axis[pos[j]])])
        plus, minus = [], []
        for choice in itertools.product(*(enumerate(images) for images in scaled)):
            index = sum((n for _, n in choice), last).reshape(-1, s)
            (minus if sum(m for m, _ in choice) % 2 else plus).append(index)
        return plus, minus

    def _row_blocks(self) -> list[tuple[slice, slice]]:
        """Rows a of a gather in blocks of whole slabs along axis 0, about
        2^18 index entries a block (one block up to 512 sites), the largest
        first: the rows and the slabs ``_joint_index`` takes, per block."""
        grid = self.grid
        slab = grid.site_count // grid.npts
        slabs = min(grid.npts, max(1, 2**18 // (grid.site_count * slab)))
        return [(slice(i * slab, min(i + slabs, grid.npts) * slab), slice(i, i + slabs))
                for i in range(0, grid.npts, slabs)]

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

    def _offset_second_difference(self, g: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        """D2 of folded tables g along their offset ``axis``, written into
        ``out`` with no copy of g: (g[n+1] + g[n-1] - 2 g[n]) / dx^2 with
        g[-1] = g[1] (g is even) and g[nmax+1] = g[period - nmax - 1] (the
        torus wrap, either parity).  Gathered less its mirror, it is D2 of
        the absorbing kernel."""
        g, d2 = np.moveaxis(g, axis, 0), np.moveaxis(out, axis, 0)
        np.add(g[2:], g[:-2], out=d2[1:-1])
        np.add(g[1], g[1], out=d2[0])
        np.add(g[self._period - self._period // 2 - 1], g[-2], out=d2[-1])
        d2 -= g
        d2 -= g
        out /= self.grid.dx**2
        return out

    def _joint_rows(self, times: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A's joint tables at nonnegative ``times`` over dx^d, one row per
        time in the given order, laid out (time, ``_joint_shape``) and flat:
        the ``_axis_values`` tables of every direction, in the Bessel batches
        of ``_bessel_batches``, multiplied out over their folded offsets and
        the distinct coefficient tuples.  ``out`` optionally receives them."""
        times = np.asarray(times, dtype=float).reshape(-1)
        if times.size and times.min() < 0:
            raise ValueError(f"time must be nonnegative, got {times.min()}")
        order = np.argsort(times, kind="stable")
        if out is None:
            out = np.empty((times.size, math.prod(self._joint_shape)))
        d = self.grid.dim
        tuples, _ = self._tuples
        lo = 0
        for per_dir in self._bessel_batches(times[order]):
            g = [v[..., k] for v, k in zip(per_dir, tuples)]
            hi = lo + g[0].shape[0]
            out[order[lo:hi]] = math.prod(
                np.expand_dims(t, tuple(1 + i for i in range(d) if i != j))
                for j, t in enumerate(g)).reshape(hi - lo, -1)
            lo = hi
        out /= self.grid.cell_volume
        return out

    def _tau_table(self, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        """The tau table of one build on (0, horizon]: the panel edges of
        ``_tau_points`` for the layer scale, and A's joint tables
        (``_joint_rows``) at its points, a row each, one Bessel batch a panel."""
        edges, points = _tau_points(horizon, self._layer_scale())
        rows = np.empty(points.shape + (math.prod(self._joint_shape),))
        for panel, out in zip(points, rows):
            self._joint_rows(panel, out)
        return edges, rows.reshape(points.size, -1)

    def _contract_plan(self, contracted: np.ndarray, correction: bool = True,
                       potential: np.ndarray | None = None, out: np.ndarray | None = None,
                       tables: list | None = None) -> np.ndarray:
        """W = sum_r C[r, c] F(tau_r) of a plan from its contracted rows
        sum_r C[r, c] A(tau_r), one per column c of C in A's joint-table
        layout (``_fold_plans`` on the build's tau table, or
        ``_joint_rows`` for a kernel matrix), shape (s, n s) over the n rows,
        so that W @ G, the node values stacked as rows, is the plan's
        integral.  F is K, K_Y = K - diag(Y) A with a flat ``potential``, or
        A without ``correction``; ``out`` is an optional contiguous buffer
        of s n s entries that receives W, and ``tables`` the
        ``_joint_index`` tables of every row block, when a caller that
        contracts many plans builds them once.  A row laid out by site,
        (offsets^d, s), with the sites' tables, is gathered alike.

        The contraction in tau, D2 and the gather are linear, so each node
        block is gathered from the contracted rows (``_joint_index``): term
        j from D2_j of the rows along offset axis j, in a scratch buffer,
        times c_a^j - c_b^j, less y_a times the A term for K_Y.  Rows go in
        the blocks of ``_row_blocks``, each with its own index tables and
        increments, so no s x s array is held besides W.
        """
        s = self.grid.site_count
        n = contracted.shape[0]
        if out is None:
            out = np.empty(s * n * s)
        by_row = out.reshape(s, n, s)
        blocks = self._row_blocks()
        size = (blocks[0][0].stop - blocks[0][0].start) * s  # index entries of a block
        step = max(1, 2**18 // size)  # nodes gathered at once, 2 MB a term
        scratch = np.empty(min(step, n) * size)
        if correction:  # a row's last axis: U tuples, or s sites for a history
            d2 = np.empty(min(step, n) * contracted.shape[1])
        if potential is not None:
            y = np.asarray(potential, dtype=float).reshape(s, 1)
        for b, (rows, slabs) in enumerate(blocks):
            index = self._joint_index(slabs) if tables is None else tables[b]
            increments = [c[rows, None] - c for c in self._cflat] if correction else []
            for lo in range(0, n, step):
                part = by_row[rows, lo:lo + step].transpose(1, 0, 2)
                a = contracted[lo:lo + step]
                term = scratch[:part.size].reshape(part.shape)
                if not correction:
                    part[...] = _gather(a, index, term)
                    continue
                diff = d2[:a.size].reshape((len(a),) + self._joint_shape[:-1] + (-1,))
                for j, inc in enumerate(increments):
                    self._offset_second_difference(a.reshape(diff.shape), 1 + j, diff)
                    _gather(diff.reshape(len(a), -1), index, term)
                    if j == 0:
                        np.multiply(term, inc, out=part)
                    else:
                        term *= inc
                        part += term
                if potential is not None:
                    _gather(a, index, term)
                    term *= y[rows]
                    part -= term
        return out.reshape(s, n * s)

    def kernel_matrix(self, t: float) -> np.ndarray:
        """Frozen-kernel matrix A_{a,b}(t) (dense, flat layout)."""
        return self._contract_plan(self._joint_rows([t]), correction=False)

    def correction_matrix(self, t: float) -> np.ndarray:
        """Correction kernel matrix K(t); requires t > 0."""
        if not t > 0:
            raise ValueError(f"time must be positive, got {t}")
        return self._contract_plan(self._joint_rows([t]))

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

    def _panels(self, nodes: np.ndarray, weights: np.ndarray, bp: np.ndarray,
                y: np.ndarray | None, table: tuple[np.ndarray, np.ndarray],
                buffer: np.ndarray | None = None, extra: Sequence[float] = (),
                reverse: bool = False) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield (lo, hi, W) for each panel of the rule, the last panel first
        with ``reverse``.  The targets lo..hi-1 are the panel's nodes, joined
        on the last panel by the ``extra`` times; all of them read node 0 and
        the n = lo + 8 nodes up to the panel's end.  W, shape ((hi - lo) s,
        (n + 1) s), is their plans folded onto the build's tau ``table``
        (``_fold_plans``) and contracted with K_Y (K when ``y`` is None) by
        ``_contract_plan``, one target at a time, so one target's fold
        weights are held at a time; its block 0 is K_Y at the targets.  The
        index tables are built once a call.  With a ``buffer``
        (the adjoint march's) every W is a view of its start, overwritten by
        the next panel.  Without one (the ladder's), the W follow each other
        in one array sized for every panel: one allocation keeps them all."""
        s = self.grid.site_count
        kept = buffer is None
        if kept:  # the 8 targets of panel p read 8 (p + 1) + 1 nodes; extra ones all N + 1
            buffer = np.empty((nodes.size * (nodes.size + PANEL_POINTS + 2) // 2
                               + len(extra) * (nodes.size + 1)) * s * s)
        edges, rows = table
        lam = self._layer_scale()
        tables = [self._joint_index(slabs) for _, slabs in self._row_blocks()]
        start = 0
        firsts = range(0, nodes.size, PANEL_POINTS)
        for lo in reversed(firsts) if reverse else firsts:
            n = lo + PANEL_POINTS
            targets = np.append(nodes[lo:n], extra if n == nodes.size else [])
            block = (n + 1) * s * s
            size = targets.size * block
            w = buffer[start:start + size]
            if kept:
                start += size
            for j in range(targets.size):
                f = _fold_plans(targets[j:j + 1], nodes, weights, bp, lam, edges)[:, 0]
                f = f @ rows[:f.shape[1]]
                self._contract_plan(f, potential=y, out=w[j * block:(j + 1) * block],
                                    tables=tables)
            yield lo, lo + targets.size, w.reshape(-1, (n + 1) * s)

    def _build_ladder(self, horizon: float) -> tuple[PhiSeries, np.ndarray]:
        """The record ``ladder`` caches, and Phi on the nodes of its rule,
        shape (nodes, s, s), which the record does not keep; Phi may be a
        view of the transposed orders, [c, a, b] = Phi(x_c)[a, b]."""
        nodes, weights, bp = self.quad.points_with_panels(horizon, layer=self._layer_scale())
        vol = self.grid.cell_volume
        s = self.grid.site_count

        if self._tuples[0].shape[1] == 1:  # every c^j constant, so K = 0
            gamma = self.kernel_matrix(horizon)
            gamma.setflags(write=False)
            return PhiSeries(self.grid, horizon, nodes, weights, bp, gamma, 1, self.tol,
                             (0.0,), 0.0, 0.0, 0.0), np.zeros((nodes.size, s, s))

        # the build's tau table serves the panels and the end step's plan;
        # it is dropped before the orders
        table = self._tau_table(horizon)
        panels = list(self._panels(nodes, weights, bp, None, table, extra=[horizon]))
        end = _fold_plans(np.array([horizon]), nodes, weights, bp, self._layer_scale(),
                          table[0])[:, 0]
        end = end @ table[1][:end.shape[1]]
        del table

        # the orders are kept transposed in one buffer, [b, c s + a] =
        # K^(m)(x_c)[a, b], K^(1) from each panel's block 0; K^(m) at the
        # first n_i nodes is dx^d K^(m-1)^T W_i^T over the nodes, the wide
        # shape; the panels go last to first, each product through a one-panel
        # scratch into its own nodes, which earlier panels do not read
        orders = np.empty((s, (nodes.size + 1) * s))
        for lo, hi, w in panels:
            orders[:, lo * s:hi * s] = w[:, :s].T

        scratch = np.empty((PANEL_POINTS + 1) * s * s)
        phi = orders[:, :-s].copy()
        m_done = 1
        norms = [float(np.abs(orders[:, -s:]).max())]
        while True:
            if m_done == 1:
                target = min(3, _M_CAP)
            else:
                c_fit, c3_fit = _fit_growth(norms, horizon)
                tail = _series_tails(c_fit, c3_fit, horizon, m_done)
                target = m_done
                while target < _M_CAP and tail(target) > self.tol:
                    target += 1
                if tail(target) > self.tol:
                    raise RuntimeError(
                        f"correction series not convergent at tol={self.tol}: fitted "
                        f"C={c_fit:.3g}, C3={c3_fit:.3g}, horizon={horizon}, tail at "
                        f"order {target} is {tail(target):.3g}")
                if target <= m_done:
                    break
            for _ in range(m_done + 1, target + 1):
                for lo, hi, w in reversed(panels):
                    part = scratch[:s * w.shape[0]].reshape(s, -1)
                    np.matmul(orders[:, :w.shape[1] - s], w[:, s:].T, out=part)
                    np.multiply(part, vol, out=orders[:, lo * s:hi * s])
                phi += orders[:, :-s]
                norms.append(float(np.abs(orders[:, -s:]).max()))
            m_done = target

        # Gamma(horizon) = dx^d W [I / dx^d; Phi] for the horizon's plan with
        # A, W = [A(horizon) | W_horizon]; the panels (w is a view of their
        # buffer) and the orders go first, so the end step's kernels do not
        # add to the peak
        del panels, w, orders, scratch
        w = self._contract_plan(end, correction=False)
        gamma = w[:, s:] @ phi.T
        gamma *= vol
        gamma += w[:, :s]
        gamma.setflags(write=False)
        c_fit, c3_fit = _fit_growth(norms, horizon)
        tail = _series_tails(c_fit, c3_fit, horizon, m_done)(m_done)
        phi = phi.reshape(s, -1, s).transpose(1, 2, 0)  # [c, a, b] = Phi(x_c)[a, b]
        return PhiSeries(self.grid, horizon, nodes, weights, bp, gamma,
                         m_done, self.tol, tuple(norms), c_fit, c3_fit, tail), phi

    def phi_series(self, horizon: float) -> PhiSeries:
        """The correction ladder on (0, horizon]; the same record as ``ladder``."""
        return self.ladder(horizon)

    # -- Cauchy problems ---------------------------------------------------------

    def _own_panels(self, nodes: np.ndarray, weights: np.ndarray, bp: np.ndarray,
                    y: np.ndarray | None, table: tuple[np.ndarray, np.ndarray]
                    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield (lo, hi, W_pp, F) for each panel of the rule, first to
        last: F, (lo + 9, 8, P), the fold weights of its 8 targets' plans on
        the build's tau ``table`` (``_fold_plans``), and W_pp, (8 s, 8 s),
        their rows at the panel's own nodes contracted with K_Y as in
        ``_panels``, in one buffer for every panel."""
        s = self.grid.site_count
        edges, rows = table
        lam = self._layer_scale()
        own = np.empty((PANEL_POINTS * s, PANEL_POINTS * s))
        tables = [self._joint_index(slabs) for _, slabs in self._row_blocks()]
        for lo in range(0, nodes.size, PANEL_POINTS):
            f = _fold_plans(nodes[lo:lo + PANEL_POINTS], nodes, weights, bp, lam, edges)
            own_f = np.ascontiguousarray(f[lo + 1:].transpose(1, 0, 2))  # (targets, nodes, P)
            own_rows = own_f.reshape(-1, f.shape[2]) @ rows[:f.shape[2]]
            for j in range(PANEL_POINTS):
                self._contract_plan(own_rows[j * PANEL_POINTS:(j + 1) * PANEL_POINTS],
                                    potential=y, out=own[j * s:(j + 1) * s], tables=tables)
            yield lo, lo + PANEL_POINTS, own, f

    def _history(self, f: np.ndarray, rho: np.ndarray, y: np.ndarray | None,
                 order: np.ndarray, tables: list, by_tuple: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
        """W_p< rho_<, (targets s, k), from the fold weights f, (lo + 1,
        targets, P), of the targets' plans at node 0 and the lo nodes below
        their panel, with neither W_p< nor their folded rows formed.  z = f^T
        rho_< is one product, the sites sorted by tuple (``order``); one
        product per tuple u of z at its sites with ``by_tuple[u]``, the
        table's rows of u (tau, offsets^d), gives H = sum_c rows_c rho_c, a
        row H_i (offsets^d, sites) per column and target.  ``_contract_plan``
        gathers W[a, i, b] = F_{a,b} H_i(b), F = K_Y (K when ``y`` is None),
        into ``out`` with the sites' ``tables``; its sum over b is returned."""
        s = self.grid.site_count
        below, targets, size = f.shape
        k = rho.shape[1]
        rho = rho.reshape(below, s, k)[:, order].reshape(below, -1)
        z = (rho.T @ f.reshape(below, -1)).reshape(-1, size)  # rows (b, column, target)
        width = k * targets
        h = np.empty((s, width, by_tuple.shape[-1]))
        first = 0
        for u, last in enumerate(np.cumsum(np.bincount(self._tuples[1]))):
            np.matmul(z[first * width:last * width], by_tuple[u, :size],
                      out=h[first:last].reshape(-1, h.shape[-1]))
            first = last
        h = np.ascontiguousarray(h.transpose(1, 2, 0)).reshape(width, -1)
        w = self._contract_plan(h, potential=y, out=out, tables=tables)
        return w.reshape(s, k, targets, s).sum(axis=-1).transpose(2, 0, 1).reshape(-1, k)

    def _march_panels(self, nodes: np.ndarray, weights: np.ndarray, bp: np.ndarray,
                      y: np.ndarray | None, table: tuple[np.ndarray, np.ndarray],
                      rho: np.ndarray, adjoint: bool = False) -> float:
        """Solve M rho = b for k right-hand sides at once, in place:
        ``rho``, shape ((nodes + 1) s, k), holds b on entry and rho on exit,
        block 0 the initial value, which is read and never solved for.  M
        rho keeps block 0 and is (I - V) rho - dx^d K_Y rho_0 at the nodes,
        V rho = dx^d int_0^x K_Y(x - s) rho(s) ds, K_Y as in ``_panels``,
        ``table`` the build's tau table; with ``adjoint`` the system is M^T
        rho = b instead.

        M is block lower triangular in the panels of the rule.  Forward,
        panel p solves (I - dx^d W_pp) rho_p = b_p + dx^d W_p< rho_< for
        all k columns, W_pp alone contracted (``_own_panels``) and W_p<
        rho_<, node 0 among rho_<, applied from the panel's fold weights
        through the table, laid out tuple-major once a call (``_history``),
        by Richardson sweeps x <- x + (b - (I - dx^d W_pp) x) from x = b
        until the residual is at most _FLOOR, with LU after _SWEEPS sweeps or
        one that shrinks it by less than _STALL.  The adjoint takes each
        panel's whole W from ``_panels``, last to first, in one buffer sized
        for the last (8 (N + 1) s^2 entries), solves (I - dx^d W_pp)^T rho_p
        = b_p by LU and adds dx^d rho_p^T W_p< to the (lo + 1) s columns of
        rho^T below the panel, block 0 last reached by panel 0, one panel's
        rows at a time, the wide shape, contiguous when rho is the transpose
        of a C-ordered array.  Returns the largest relative residual, max |b
        - M_pp x| / max |b| column by column, of the accepted panel solves:
        the sweeps' last or LU's.
        """
        vol = self.grid.cell_volume
        s = self.grid.site_count
        if adjoint:
            buffer = np.empty(PANEL_POINTS * s * (nodes.size + 1) * s)
            panels = ((lo, hi, w[:, (lo + 1) * s:], w) for lo, hi, w in
                      self._panels(nodes, weights, bp, y, table, buffer, reverse=True))
        else:
            panels = self._own_panels(nodes, weights, bp, y, table)
            order = np.argsort(self._tuples[1], kind="stable")  # the sites sorted by tuple
            sites = np.argsort(order)  # each site's position among them
            tables = [self._joint_index(slabs, sites) for _, slabs in self._row_blocks()]
            by_tuple = np.ascontiguousarray(  # the table's rows (tuple, tau, offsets^d)
                table[1].reshape(table[1].shape[0], -1, self._joint_shape[-1]).transpose(2, 0, 1))
            history = np.empty(PANEL_POINTS * rho.shape[1] * s * s)
        residual = 0.0
        for lo, hi, own, w in panels:
            own *= -vol
            np.einsum("ii->i", own)[:] += 1.0
            below = (lo + 1) * s  # node 0 and the nodes below the panel
            b = rho[below:(hi + 1) * s]
            if adjoint:
                own = own.T
            else:
                b += vol * self._history(w[:lo + 1], rho[:below], y, order, tables, by_tuple,
                                         history)
            scale = np.maximum(np.abs(b).max(axis=0), np.finfo(float).tiny)
            x, res, last = b, np.inf, np.inf
            for _ in range(0 if adjoint else _SWEEPS):  # x <- x + (b - own x) from x = b
                r = b - own @ x
                res = float((np.abs(r).max(axis=0) / scale).max())
                if res <= _FLOOR or res > _STALL * last:
                    break
                x, last = x + r, res
            if res > _FLOOR:  # the adjoint's s columns, or a stalled sweep
                x = np.linalg.solve(own, b)
                res = float((np.abs(own @ x - b).max(axis=0) / scale).max())
            residual = max(residual, res)
            b[...] = x
            if adjoint:  # rho^T[:, rows] += dx^d x^T W_p<[:, rows], the wide shape
                x *= vol
                for q in range(0, below, PANEL_POINTS * s):
                    rows = slice(q, min(q + PANEL_POINTS * s, below))
                    rho.T[:, rows] += x.T @ w[:, rows]
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

        rho taken at the nodes of the rule on (0, h).  The initial value is
        node 0 of every plan: rho_ext = [u(t0); rho], shape ((N + 1) s, k),
        solves M rho_ext = [u(t0); f] panel by panel (``_march_panels``; H.
        Brunner, *Collocation Methods for Volterra Integral and Related
        Functional Equations*, 2004, ch. 2), and the piece ends at dx^d [A(h)
        | W_h] rho_ext, the plan of h itself contracted with A.  One piece
        marches that single column forward, gathering only each panel's own
        block of W, which sweeps solve.  The march is linear in u and f, so
        more pieces are u <- P u + G f_i, f_i the source at the node times of
        piece i: one adjoint march of the s columns of [A(h) | W_h]^T gives
        [P | G] / dx^d = [A(h) | W_h] M^-1, block 0 the one-piece propagator
        P = Gamma_Y(h) dx^d.  Each piece is then one product with P and one with
        G, and no panel is built or solved twice.  Every plan of the march
        is folded onto one tau table on (0, h), a local of the call.
        ``u0`` and ``potential`` need s finite entries (ValueError
        otherwise); ``potential`` None means Y = 0.  ``source(times)`` gives f at a
        piece's node times (offset by ``start``) as a (nodes, s) array, None
        meaning f = 0.  Returns u at every ``every``-th piece end, shape
        (pieces // every, s), and the largest relative residual of the panel
        solves, the sweeps' stopping residual or LU's.
        """
        if not (pieces >= 1 and every >= 1 and pieces % every == 0):
            raise ValueError(f"need pieces >= 1 and every dividing it, got pieces={pieces}, "
                             f"every={every}")
        vol = self.grid.cell_volume
        s = self.grid.site_count
        u = np.asarray(u0, dtype=float).reshape(-1)
        y = None if potential is None else np.asarray(potential, dtype=float).reshape(-1)
        for name, v in (("u0", u), ("potential", y)):
            if v is not None and not (v.size == s and np.isfinite(v).all()):
                raise ValueError(f"{name} must have {s} finite entries, one per site; got "
                                 f"{v.size}, {v.size - np.isfinite(v).sum()} of them not finite")
        nodes, weights, bp = self.quad.points_with_panels(h, layer=self._layer_scale())
        table = self._tau_table(h)
        if pieces == 1:  # rho_ext = [u(t0); f at the nodes], solved in place
            rho = np.zeros(((nodes.size + 1) * s, 1))
            rho[:s, 0] = u
            if source is not None:
                rho[s:, 0] = source(start + nodes).reshape(-1)
            residual = self._march_panels(nodes, weights, bp, y, table, rho)
        end = _fold_plans(np.array([h]), nodes, weights, bp, self._layer_scale(), table[0])[:, 0]
        w = self._contract_plan(end @ table[1][:end.shape[1]], correction=False)
        if pieces == 1:  # u(t0 + h) = dx^d [A(h) | W_h] rho_ext
            return (vol * (w @ rho[:, 0]))[None], residual

        # [P | G] / dx^d = [A(h) | W_h] M^-1, M the march's system on rho_ext
        residual = self._march_panels(nodes, weights, bp, y, table, w.T, adjoint=True)
        del table
        w *= vol
        prop, g = w[:, :s], w[:, s:]
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


def _series_tails(c: float, c3: float, horizon: float, first: int) -> Callable[[int], float]:
    """tail(m_max) = sum_{m > m_max} C C3^m T^{(m-1)/2} / Gamma(m/2) for
    m_max >= first, over at most 399 terms and stopped at the first term
    below e^-700.  Each term is evaluated once, when a tail first reaches
    it, and each tail is summed from them in the order of m."""
    if c == 0.0 or c3 == 0.0:
        return lambda m_max: 0.0
    log_c, log_c3, log_t = math.log(c), math.log(c3), math.log(horizon)
    terms: list[float | None] = []  # the term of m = first + 1 + i, None below e^-700

    def tail(m_max: int) -> float:
        total = 0.0
        for i in range(m_max - first, m_max - first + 399):
            while len(terms) <= i:
                m = first + 1 + len(terms)
                log_term = log_c + m * log_c3 + 0.5 * (m - 1) * log_t - math.lgamma(m / 2.0)
                terms.append(None if log_term < -700 else math.exp(log_term))
            if terms[i] is None:
                break
            total += terms[i]
        return total

    return tail
