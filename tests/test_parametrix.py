import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sdheat import bessel, bounds, oracle, quadrature
from sdheat.heat_const import ConstCoeffs, kernel_1d, kernel_nd, recommended_radius
from sdheat.lattice import Field, GridSpec, forward_diff, laplacian_array
from sdheat.parametrix import Coefficients, ParametrixSolver, _fit_growth, _series_tails, k1
from sdheat.quadrature import (PANEL_POINTS, TABLE_POINTS, TimeQuadrature, _fold, _fold_plans,
                               _tau_points, gauss_legendre)


def _shifted_sines(grid: GridSpec) -> Coefficients:
    """c^j = 1 + 0.4 sin(2 pi x_j / L + j), one period across the box."""
    axes = np.meshgrid(*[grid.axis_coordinates()] * grid.dim, indexing="ij")
    length = grid.npts * grid.dx
    return Coefficients(grid, np.stack(
        [1.0 + 0.4 * np.sin(2.0 * np.pi * axes[j] / length + j) for j in range(grid.dim)]))


def _unit_rows(table: tuple[np.ndarray, np.ndarray], times: np.ndarray) -> np.ndarray:
    """A's joint tables at ``times`` in (0, horizon], one row per time:
    entries of unit weight folded onto a build's tau ``table`` (``_fold``)."""
    edges, rows = table
    unit = np.arange(times.size)
    f = _fold(edges, times, (unit, unit, np.ones(times.size)), times.size)
    return f @ rows[:f.shape[1]]


def _stack(solver: ParametrixSolver, rows: np.ndarray, correction: bool = False,
           potential: np.ndarray | None = None) -> np.ndarray:
    """Frozen kernels A(t), or with ``correction`` the correction kernels
    K(t) (K_Y with a flat ``potential``), at the times of A's joint
    ``rows``, stacked as (times, s, s): the plans of unit weight at those
    rows, contracted by ``_contract_plan`` and laid out node by node."""
    s = solver.grid.site_count
    w = solver._contract_plan(rows, correction, potential)
    return np.ascontiguousarray(w.reshape(s, -1, s).transpose(1, 0, 2))


def _lagrange(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Lagrange weights of ``nodes`` at ``points``, a row per point, in the
    product form: weight m is the product over k != m of (x - x_k) / (x_m -
    x_k)."""
    w = np.ones((points.size, nodes.size))
    for m, k in itertools.permutations(range(nodes.size), 2):
        w[:, m] *= (points - nodes[k]) / (nodes[m] - nodes[k])
    return w


def _reference_plan(solver: ParametrixSolver, t: float, nodes: np.ndarray, weights: np.ndarray,
                    bp: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The plan of one target t, built target by target: the distinct
    kernel times tau_r and the weights C, a row per time and a column per
    node up to the last one the plan reads, with int_0^t F(t-s) G(s) ds =
    sum_{r,c} C[r, c] F(tau_r) G_c.  Panels at least 3 layer widths below t
    keep their Gauss nodes; the rest is integrated in tau = t - s on
    geometric tau pieces split at panel edges, G interpolated inside the
    panel each piece lands in."""
    k = int(np.searchsorted(bp, t, side="left")) - 1
    k = min(max(k, 0), bp.size - 2)
    lam = solver._layer_scale()
    sp = k
    while sp > 0 and t - bp[sp] < 3.0 * lam:
        sp -= 1
    full = sp * PANEL_POINTS
    depth = t - float(bp[sp])
    edges = {0.0, min(lam, depth), depth}
    g = lam
    while g < depth:
        edges.add(min(4.0 * g, depth))
        g *= 4.0
    for kk in range(sp + 1, k + 1):
        edges.add(t - float(bp[kk]))
    edges = sorted(edges)
    xg, wg = gauss_legendre(PANEL_POINTS)
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 0.0:
            continue
        half = 0.5 * (hi - lo)
        pk = int(np.searchsorted(bp, t - 0.5 * (lo + hi), side="left")) - 1
        pk = min(max(pk, 0), bp.size - 2)
        pieces.append((lo + half + half * xg, half * wg, pk * PANEL_POINTS))
    n = PANEL_POINTS + max(first for _, _, first in pieces)
    rows: dict[float, int] = {}
    c = np.zeros((full + len(pieces) * PANEL_POINTS, n))
    for q in range(full):
        c[rows.setdefault(float(t - nodes[q]), len(rows)), q] += weights[q]
    for tau_pts, tau_w, first in pieces:
        panel = slice(first, first + PANEL_POINTS)
        lagrange = _lagrange(nodes[panel], t - tau_pts)
        for tp, w, lw in zip(tau_pts, tau_w, lagrange):
            c[rows.setdefault(float(tp), len(rows)), panel] += w * lw
    return list(rows), c[:len(rows)]


def _reference_fold(edges: np.ndarray, times: list[float], c: np.ndarray) -> np.ndarray:
    """C^T L of one plan: L interpolates in tau at the Gauss points of the
    table panel holding each time, in the barycentric form, a row per time
    up to the last table panel read."""
    x, w = gauss_legendre(TABLE_POINTS)
    tau = np.asarray(times, dtype=float)
    panel = np.clip(np.searchsorted(edges, tau, side="right") - 1, 0, edges.size - 2)
    diff = ((tau - edges[panel]) / (0.5 * np.diff(edges)[panel]) - 1.0)[:, None] - x
    hit = diff == 0.0
    lagrange = np.sqrt((1.0 - x**2) * w) * (-1.0) ** np.arange(x.size) / np.where(hit, 1.0, diff)
    lagrange /= lagrange.sum(axis=1, keepdims=True)
    lagrange = np.where(hit.any(axis=1, keepdims=True), hit, lagrange)
    fold = np.zeros((tau.size, int(panel.max()) + 1, x.size))
    fold[np.arange(tau.size), panel] = lagrange
    return c.T @ fold.reshape(tau.size, -1)


class TestCoefficients:
    def test_positivity_enforced(self):
        g = GridSpec(dx=1.0, dim=1, radius=2)
        with pytest.raises(ValueError):
            Coefficients(g, np.zeros((1,) + g.shape))

    def test_extremes_of_linear(self):
        g = GridSpec(dx=0.5, dim=1, radius=4, boundary="zero-extension")
        vals = 2.0 + 0.25 * g.axis_coordinates()
        c = Coefficients.from_field(g, vals)
        assert c.c_min == pytest.approx(2.0 - 0.25 * 2.0)
        assert c.cbar == pytest.approx(2.0 + 0.25 * 2.0)

    def test_extremes_are_not_constructor_arguments(self):
        g = GridSpec(dx=1.0, dim=1, radius=2)
        with pytest.raises(TypeError):
            Coefficients(g, np.ones((1,) + g.shape), c_min=7.0)

    def test_equality_is_identity(self):
        g = GridSpec(dx=1.0, dim=1, radius=4)
        a = Coefficients.constant(g, 1.0)
        b = Coefficients.constant(g, 1.0)
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


class TestFrozenKernel:
    """Columns of ``kernel_matrix(t)``: b -> the kernel of the equation
    with coefficients frozen at b, at offsets a - b."""

    def test_initial_dirac(self, small_var_coeffs):
        grid = small_var_coeffs.grid
        mat = ParametrixSolver(small_var_coeffs).kernel_matrix(0.0)
        b = grid.flat_index((3,))
        assert mat[b, b] == grid.dx ** -1
        assert mat[grid.flat_index((4,)), b] == 0.0

    def test_constant_matches_kernel_nd(self):
        g = GridSpec(dx=0.5, dim=1, radius=8)
        c = Coefficients.constant(g, 1.3)
        mat = ParametrixSolver(c).kernel_matrix(0.2)
        for beta in ((0,), (5,)):
            v = mat[g.flat_index((2,)), g.flat_index(beta)]
            assert v == pytest.approx(kernel_nd((2 - beta[0],), 0.2, ConstCoeffs(c.at(beta)), 0.5))

    def test_mass_per_base_point(self):
        t, dx = 0.05, 0.125
        grid = GridSpec(dx=dx, dim=1, radius=recommended_radius(t, 1.3, dx))
        coeffs = Coefficients.from_function(
            grid, lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x / (grid.npts * dx)))
        mat = ParametrixSolver(coeffs).kernel_matrix(t)
        for beta in ((0,), (7,)):
            total = mat[:, grid.flat_index(beta)].sum()
            assert abs(total * grid.dx - 1.0) <= 1e-12


    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), radius=st.integers(1, 6),
           dx=st.sampled_from([0.125, 0.25, 0.5]), t=st.floats(1e-3, 4.0),
           seed=st.integers(0, 2**32 - 1))
    def test_torus_mass_on_small_boxes(self, dim, radius, dx, t, seed):
        # a kernel wider than the box wraps round the torus many times,
        # and every image counts towards its unit mass
        grid = GridSpec(dx=dx, dim=dim, radius=radius)
        vals = np.random.default_rng(seed).uniform(0.5, 2.0, (dim,) + grid.shape)
        mat = ParametrixSolver(Coefficients(grid, vals)).kernel_matrix(t)
        assert np.abs(mat.sum(axis=0) * grid.cell_volume - 1.0).max() <= 1e-13

    def test_bessel_batches_stay_bounded(self, monkeypatch):
        # at r = 1024 the torus of 5 sites takes 56 images, so a
        # stack passes fewer times per Bessel batch than 8192 // s
        grid = GridSpec(dx=0.125, dim=1, radius=2)
        solver = ParametrixSolver(Coefficients.constant(grid, 2.0))
        sizes = []
        real = bessel.iv_scaled_matrix

        def counted(nmax, r):
            sizes.append((nmax + 1) * len(r))
            return real(nmax, r)

        monkeypatch.setattr(bessel, "iv_scaled_matrix", counted)
        stack = _stack(solver, solver._joint_rows(np.linspace(0.5, 4.0, 2000)))
        assert max(sizes) <= 2**21
        assert np.array_equal(stack[-1], solver.kernel_matrix(4.0))

    @pytest.mark.parametrize("correction", [False, True])
    def test_long_stack_holds_no_weight_matrix(self, correction):
        # a stack is the plan of unit weights, taken from the Bessel rows
        # directly: 2000 times on 5 sites (a 0.4 MB stack) hold no 2000 x
        # 2000 weight matrix (32 MB) and no product with one
        grid = GridSpec(dx=0.125, dim=1, radius=2)
        solver = ParametrixSolver(Coefficients.constant(grid, 2.0))
        tracemalloc.start()
        try:
            _stack(solver, solver._joint_rows(np.linspace(0.5, 4.0, 2000)), correction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestCorrectionKernel:
    def test_diagonal_zero(self, small_var_coeffs):
        assert k1((3,), (3,), 0.2, small_var_coeffs) == 0.0

    def test_constant_coefficients_vanish(self):
        g = GridSpec(dx=0.5, dim=1, radius=6)
        c = Coefficients.constant(g, 2.0)
        mat = ParametrixSolver(c).correction_matrix(0.3)
        assert np.abs(mat).max() == 0.0

    def test_tanh_profile_against_direct_formula(self):
        g = GridSpec(dx=1.0, dim=1, radius=10)
        c = Coefficients.from_function(g, lambda x: 1.0 + 0.1 * np.tanh(x))
        t = 0.5
        got = k1((1,), (0,), t, c)
        c1 = 1.0 + 0.1 * math.tanh(1.0)
        c0 = 1.0
        d2 = kernel_1d(0, t, c0, 1.0) - 2.0 * kernel_1d(1, t, c0, 1.0) + kernel_1d(2, t, c0, 1.0)
        assert got == pytest.approx((c1 - c0) * d2, rel=1e-12)

    def test_time_validation(self, small_var_coeffs):
        with pytest.raises(ValueError):
            k1((1,), (0,), 0.0, small_var_coeffs)

    def test_matrix_time_validation(self, small_var_coeffs):
        # K needs t > 0 and A t >= 0, where A(0) is the Dirac matrix
        solver = ParametrixSolver(small_var_coeffs)
        for call in (lambda: solver.correction_matrix(0.0),
                     lambda: solver.correction_matrix(-0.1),
                     lambda: solver.kernel_matrix(-0.1)):
            with pytest.raises(ValueError, match="time must be"):
                call()
        grid = small_var_coeffs.grid
        assert np.array_equal(solver.kernel_matrix(0.0),
                              np.eye(grid.site_count) / grid.cell_volume)

    def test_matrix_matches_pointwise(self):
        # torus images beyond the first are negligible at this time, while
        # on zero-extension grids the mirror image is not at the edge a = R
        for boundary in ("periodic-wrap", "zero-extension"):
            grid = GridSpec(dx=0.125, dim=1, radius=24, boundary=boundary)
            coeffs = Coefficients.from_function(
                grid, lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x / 6.125))
            mat = ParametrixSolver(coeffs).correction_matrix(0.1)
            for a, b in (((2,), (0,)), ((-5,), (3,)), ((1,), (1,)), ((24,), (20,)),
                         ((-24,), (-23,))):
                assert mat[grid.flat_index(a), grid.flat_index(b)] == pytest.approx(
                    k1(a, b, 0.1, coeffs), rel=1e-10, abs=1e-12)


class TestPhi:
    def test_constant_coefficients_vanish(self):
        g = GridSpec(dx=0.5, dim=1, radius=6)
        solver = ParametrixSolver(Coefficients.constant(g, 1.0), TimeQuadrature(nodes=16), tol=1e-8)
        series, phi = solver._build_ladder(0.2)
        assert series.m_max == 1
        assert all(np.abs(v).max() == 0.0 for v in phi)
        assert series.tail_estimate == 0.0
        assert np.array_equal(series.gamma, solver.kernel_matrix(0.2))

    def test_tail_tolerance_honoured(self, small_var_coeffs):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=32), tol=1e-6)
        series = solver.phi_series(0.2)
        assert series.tail_estimate <= 1e-6
        assert 1 <= series.m_max <= 20

    def test_tightening_tolerance_changes_little(self, small_var_coeffs):
        quad = TimeQuadrature(nodes=32)
        loose = ParametrixSolver(small_var_coeffs, quad, tol=1e-4)._build_ladder(0.2)[1]
        tight = ParametrixSolver(small_var_coeffs, quad, tol=1e-5)._build_ladder(0.2)[1]
        dev = max(np.abs(a - b).max() for a, b in zip(loose, tight))
        assert dev <= 1e-4

    def test_factorial_decay_of_orders(self, small_var_coeffs):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=48), tol=1e-10)
        series = solver.phi_series(0.25)
        t = series.horizon
        c3 = series.fitted_c3
        scaled = [n * math.gamma(m / 2.0) / (c3**m * t ** ((m - 1) / 2.0))
                  for m, n in enumerate(series.order_sup_norms, start=1) if n > 0]
        assert max(scaled) <= series.fitted_c * (1.0 + 1e-9)

    def test_second_order_ratio_shrinks_with_horizon(self, small_var_coeffs):
        ratios = {}
        for horizon in (0.1, 0.2):
            solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=48), tol=1e-6)
            lad = solver.ladder(horizon)
            ratios[horizon] = lad.order_sup_norms[1] / lad.order_sup_norms[0]
        assert ratios[0.1] < ratios[0.2]

    def test_ladder_is_phi_series(self, small_var_coeffs):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=16), tol=1e-6)
        series = solver.phi_series(0.1)
        assert solver.ladder(0.1) is series
        assert series.weights.sum() == pytest.approx(0.1, rel=1e-13)
        assert series.breakpoints[0] == 0.0 and series.breakpoints[-1] == 0.1

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_tol_must_be_positive(self, small_var_coeffs, tol):
        with pytest.raises(ValueError, match="tol"):
            ParametrixSolver(small_var_coeffs, tol=tol)


class TestContraction:
    """The plan pass (``_fold_plans``): its fold weights against plans
    built and folded target by target, on polynomials, the W that
    ``_contract_plan`` gathers from them against the plan summed term by
    term over kernel matrices, the table against exact kernels, and the
    kernel budget of a ladder."""

    HORIZON = 0.1

    @classmethod
    def _rule(cls, solver):
        nodes, weights, bp = solver.quad.points_with_panels(
            cls.HORIZON, layer=solver._layer_scale())
        return nodes, weights, bp, np.array([nodes[3], nodes[-1], 0.061, cls.HORIZON])

    def test_plan_exact_on_polynomials(self, small_var_coeffs):
        # int_0^t (t-s)^i s^k ds = t^(i+k+1) i! k! / (i+k+1)!: the rule is
        # exact for both factors below degree 8 (eight points a panel), and
        # the fold interpolates tau^i exactly at 20 points a table panel;
        # node 0, the initial value's, reads tau^i at t itself
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=24), tol=1e-6)
        nodes, weights, bp, targets = self._rule(solver)
        edges = solver._tau_table(self.HORIZON)[0]
        f = _fold_plans(targets, nodes, weights, bp, solver._layer_scale(), edges)
        tau = _tau_points(self.HORIZON, solver._layer_scale())[1].reshape(-1)[:f.shape[2]]
        s = nodes[:f.shape[0] - 1]
        for j, t in enumerate(targets):
            for i in range(8):
                assert f[0, j] @ tau**i == pytest.approx(t**i, rel=1e-12)
                for k in range(8):
                    got = s**k @ f[1:, j] @ tau**i
                    want = t ** (i + k + 1) * math.factorial(i) * math.factorial(k) \
                        / math.factorial(i + k + 1)
                    assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), periodic=st.booleans(),
           ratio=st.sampled_from([2.0, 3.0, 48.0, 192.0]), nodes=st.sampled_from([16, 32]),
           seed=st.integers(0, 2**32 - 1))
    def test_pass_matches_per_target_folds(self, dim, periodic, ratio, nodes, seed):
        # one pass over every node of the rule and the horizon gives each
        # target's fold weights C^T L as its plan built and folded alone,
        # zero beyond the nodes and table panels that plan reads, and at
        # node 0 the fold of a unit entry at the target; h / lam = 2 and 3
        # take the power-law rule, 48 and 192 the graded one
        grid = GridSpec(dx=0.25, dim=dim, radius=5 if dim == 1 else 2,
                        boundary="periodic-wrap" if periodic else "zero-extension")
        vals = np.random.default_rng(seed).uniform(0.5, 2.0, (dim,) + grid.shape)
        solver = ParametrixSolver(Coefficients(grid, vals), TimeQuadrature(nodes=nodes))
        h = ratio * solver._layer_scale()
        rule = solver.quad.points_with_panels(h, layer=solver._layer_scale())
        edges = solver._tau_table(h)[0]
        targets = np.append(rule[0], h)
        f = _fold_plans(targets, *rule, solver._layer_scale(), edges)
        assert f.shape[:2] == (rule[0].size + 1, targets.size)
        for j, t in enumerate(targets):
            unit = _reference_fold(edges, [float(t)], np.ones((1, 1)))[0]
            assert np.array_equal(f[0, j, :unit.size], unit) and not f[0, j, unit.size:].any()
            want = _reference_fold(edges, *_reference_plan(solver, float(t), *rule))
            got = f[1:, j]
            assert not got[want.shape[0]:].any() and not got[:, want.shape[1]:].any()
            got = got[:want.shape[0], :want.shape[1]]
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), periodic=st.booleans(), three_valued=st.booleans(),
           kernel=st.sampled_from(["K", "K_Y", "A"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_plan_evaluation(self, dim, periodic, three_valued, kernel, seed):
        # W @ g = F(t) g_0 + sum_{r,c} C[r, c] F(tau_r) g_c, W from the plan
        # pass over the targets folded on the build's tau table, node 0 the
        # initial value g_0, and the sum over the per-target plan, term by
        # term over the exact kernel matrices of the joint tables, for K, K_Y
        # and A on fields with every value distinct or drawn from three
        # values
        grid = GridSpec(dx=0.25, dim=dim, radius=5 if dim == 1 else 2,
                        boundary="periodic-wrap" if periodic else "zero-extension")
        rng = np.random.default_rng(seed)
        shape = (dim,) + grid.shape
        vals = rng.choice([0.6, 1.0, 1.7], shape) if three_valued else rng.uniform(0.5, 2.0, shape)
        solver = ParametrixSolver(Coefficients(grid, vals), TimeQuadrature(nodes=24), tol=1e-6)
        s = grid.site_count
        y = rng.uniform(0.0, 3.0, s) if kernel == "K_Y" else None
        nodes, weights, bp, targets = self._rule(solver)
        edges, rows = solver._tau_table(self.HORIZON)
        f = _fold_plans(targets, nodes, weights, bp, solver._layer_scale(), edges)
        g_mat = rng.standard_normal((nodes.size + 1, s, s))
        g_vec = rng.standard_normal((nodes.size + 1, s))
        n = f.shape[0]
        for j, t in enumerate(targets):
            w = solver._contract_plan(f[:, j] @ rows[:f.shape[2]], kernel != "A", y)
            times, c = _reference_plan(solver, float(t), nodes, weights, bp)
            kernels = _stack(solver, solver._joint_rows([t] + times), kernel != "A", y)
            for g in (g_mat, g_vec):
                got = w @ g[:n].reshape((n * s,) + g.shape[2:])
                ref = kernels[0] @ g[0] + sum(
                    c[r, q] * (kern @ g[q + 1]) for r, kern in enumerate(kernels[1:])
                    for q in range(c.shape[1]))
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("dim, boundary, values", [
        (1, "zero-extension", (0.6, 1.4)),
        (2, "periodic-wrap", (0.6, 1.0, 1.7)),
        (2, "zero-extension", (0.8, 1.3)),
    ])
    @pytest.mark.parametrize("with_y", [False, True])
    def test_site_layout_matches_tuple_layout(self, dim, boundary, values, with_y):
        # the forward march's history hands _contract_plan rows laid out by
        # site, (offsets^d, s), with the sites' index tables: expanding the
        # tuple axis of joint rows to the sites, in their own order or sorted
        # by tuple as the history sorts them, gives the same W as the rows
        # in the tuple layout
        grid = GridSpec(dx=0.25, dim=dim, radius=4 if dim == 1 else 2, boundary=boundary)
        rng = np.random.default_rng(7)
        solver = ParametrixSolver(Coefficients(grid, rng.choice(values, (dim,) + grid.shape)))
        s = grid.site_count
        y = rng.uniform(0.0, 3.0, s) if with_y else None
        rows = solver._joint_rows([1e-3, 0.02, 0.1])
        want = solver._contract_plan(rows, potential=y)
        site_tuple = solver._tuples[1]
        for order in (np.arange(s), np.argsort(site_tuple, kind="stable")):
            by_site = rows.reshape(len(rows), -1, solver._joint_shape[-1])[..., site_tuple[order]]
            tables = [solver._joint_index(slabs, np.argsort(order))
                      for _, slabs in solver._row_blocks()]
            got = solver._contract_plan(by_site.reshape(len(rows), -1), potential=y,
                                        tables=tables)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), periodic=st.booleans(), three_valued=st.booleans(),
           kernel=st.sampled_from(["K", "K_Y", "A"]), seed=st.integers(0, 2**32 - 1),
           taus=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=4))
    def test_table_matches_exact_kernels(self, dim, periodic, three_valued, kernel, seed, taus):
        # a kernel at tau in (0, h], folded from the table as an entry of
        # unit weight at tau, against the exact one of the joint tables, within
        # 1e-14 of sup |F|, which |F| nears as tau -> 0 (tau = 1e-9 is among
        # the times); h itself lies in the clipped last panel
        grid = GridSpec(dx=0.25, dim=dim, radius=5 if dim == 1 else 2,
                        boundary="periodic-wrap" if periodic else "zero-extension")
        rng = np.random.default_rng(seed)
        shape = (dim,) + grid.shape
        vals = rng.choice([0.6, 1.0, 1.7], shape) if three_valued else rng.uniform(0.5, 2.0, shape)
        solver = ParametrixSolver(Coefficients(grid, vals))
        y = rng.uniform(0.0, 3.0, grid.site_count) if kernel == "K_Y" else None
        horizon = 0.3
        times = np.array([horizon * tau for tau in taus] + [horizon, 1e-9])
        got = _stack(solver, _unit_rows(solver._tau_table(horizon), times), kernel != "A", y)
        want = _stack(solver, solver._joint_rows(times), kernel != "A", y)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_table_points_fold_onto_their_rows(self, small_var_coeffs):
        # a unit entry at a Gauss point of the table, _tau_points(...)[1][k,
        # j], folds onto that point's row 20 k + j: exactly where the point
        # maps onto its panel's Gauss node without rounding, the barycentric
        # form's 0 / 0 being the node itself, and within 1e-14 of sup |A|
        # where it maps an ulp away
        solver = ParametrixSolver(small_var_coeffs)
        table = solver._tau_table(0.3)
        edges, rows = table
        points = _tau_points(0.3, solver._layer_scale())[1]
        x, _ = gauss_legendre(TABLE_POINTS)
        k = np.arange(points.shape[0])[:, None]
        hit = ((points - edges[k]) / (0.5 * np.diff(edges)[k]) - 1.0 == x).reshape(-1)
        assert hit.reshape(points.shape).any(axis=1).all()  # a hit in every panel
        got = _unit_rows(table, points.reshape(-1))
        assert np.array_equal(got[hit], rows[hit])
        assert np.abs(got - rows).max() <= 1e-14 * np.abs(rows).max()

    def test_node_zero_is_the_kernel_at_the_target(self, small_var_coeffs):
        # node 0 of each plan is a unit entry at the target itself: A's
        # joint table at the target, within 1e-15 of sup |A|, for targets at
        # Gauss points of the tau table (the fold's exact hit, which returns
        # that point's row itself), at a node of the rule and at the horizon
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=24))
        horizon = 0.3
        rule = solver.quad.points_with_panels(horizon, layer=solver._layer_scale())
        edges, rows = solver._tau_table(horizon)
        points = _tau_points(horizon, solver._layer_scale())[1]
        x, _ = gauss_legendre(TABLE_POINTS)
        k = np.arange(points.shape[0])[:, None]
        hit = np.flatnonzero((points - edges[k]) / (0.5 * np.diff(edges)[k]) - 1.0 == x)
        assert hit.size >= points.shape[0]
        targets = np.append(points.reshape(-1)[hit], [rule[0][5], horizon])
        f = _fold_plans(targets, *rule, solver._layer_scale(), edges)
        got = f[0] @ rows[:f.shape[2]]
        want = solver._joint_rows(targets)
        assert np.array_equal(got[:hit.size], rows[hit])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_ladder_builds_each_kernel_once(self, small_var_coeffs, monkeypatch):
        # every kernel row of the build is folded from its tau table, which
        # takes one Bessel batch a tau panel: each weighted plan, the end
        # step's among them, and with each its node 0, an entry of unit
        # weight at the target itself, whose K is K^(1) there; no plan and no
        # kernel matrix runs a batch of its own
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=24), tol=1e-8)
        horizon = 0.2
        tables, joint, planned, folded, batches = [], [], [], [], []
        real_table = ParametrixSolver._tau_table
        monkeypatch.setattr(ParametrixSolver, "_tau_table",
                            lambda self, h: tables.append(h) or real_table(self, h))
        real_joint = ParametrixSolver._joint_rows
        monkeypatch.setattr(ParametrixSolver, "_joint_rows", lambda self, ts, out=None:
                            joint.append(np.copy(ts)) or real_joint(self, ts, out))
        real_plans = quadrature._plans
        monkeypatch.setattr(quadrature, "_plans", lambda ts, *rule:
                            planned.extend(ts) or real_plans(ts, *rule))
        monkeypatch.setattr(quadrature, "_fold",
                            lambda edges, tau, entries, slots:
                            folded.append(tau) or _fold(edges, tau, entries, slots))
        real_batch = bessel.iv_scaled_matrix
        monkeypatch.setattr(bessel, "iv_scaled_matrix",
                            lambda nmax, r: batches.append(r.size) or real_batch(nmax, r))
        lad = solver.ladder(horizon)
        built, rows = len(batches), list(joint)
        assert lad.m_max > 3  # more than one batch of orders
        targets = np.append(lad.times, horizon)
        plans = [_reference_plan(solver, float(x), lad.times, lad.weights, lad.breakpoints)[0]
                 for x in targets]
        assert tables == [horizon]
        # each target's plan and node 0 at the target, the horizon's last;
        # then the end step Gamma(horizon) = dx^d W [I / dx^d; Phi], the
        # horizon's plan again, its node 0 A(horizon); K^(1) folds nothing
        # of its own
        assert planned == list(targets) + [horizon]
        assert len(folded) == len(plans) + 1
        for got, want, t in zip(folded, plans + [plans[-1]], list(targets) + [horizon]):
            assert np.array_equal(np.sort(got), np.sort(want + [t]))
        assert sum(map(len, folded)) == 480 + targets.size + len(plans[-1]) + 1
        # at most 8192 // s = 167 times per batch: one batch per tau panel
        # (edges 0, lam/4, lam/2, lam, 2 lam, ..., 32 lam and the horizon,
        # 33.3 lam), the joint rows of its Gauss points and no others
        points = _tau_points(horizon, solver._layer_scale())[1]
        assert len(rows) == len(points)
        assert all(np.array_equal(got, want) for got, want in zip(rows, points))
        assert built == len(points) == 9

    @pytest.mark.parametrize("pieces", [0, 1, 3])
    def test_builds_batch_only_in_their_table(self, pieces, monkeypatch):
        # every kernel row of a build is folded from its tau table: a ladder
        # (pieces 0) and a march of one or three pieces run Bessel batches
        # only while they tabulate it
        grid = GridSpec(dx=0.25, dim=2, radius=2, boundary="zero-extension")
        solver = ParametrixSolver(_shifted_sines(grid), TimeQuadrature(nodes=16))
        s = grid.site_count
        batches, in_table = [], []
        real_batch = bessel.iv_scaled_matrix
        monkeypatch.setattr(bessel, "iv_scaled_matrix",
                            lambda nmax, r: batches.append(r.size) or real_batch(nmax, r))
        real_table = ParametrixSolver._tau_table

        def table(self, h):
            first = len(batches)
            got = real_table(self, h)
            in_table.append(len(batches) - first)
            return got

        monkeypatch.setattr(ParametrixSolver, "_tau_table", table)
        if pieces:
            solver.march(0.1, np.cos(np.arange(s)), pieces, np.full(s, 0.5),
                         lambda ts: np.ones((ts.size, s)))
        else:
            solver.ladder(0.1)
        assert len(in_table) == 1 and in_table[0] == len(batches) > 0


class TestKernelStack:
    """Kernel stacks, plans of unit weight at the exact joint tables
    (``_joint_rows``) contracted by ``_contract_plan``, against the dense
    route: A gathered entry by entry through s x s offset tables, and K =
    sum_j (c_a^j - c_b^j) D2_j A by ``laplacian_array`` along a_j on the
    whole matrix (zero outside the box on zero-extension grids, as in the
    absorbing generator).

    On zero-extension grids each factor of A is the torus kernel of period
    2 npts + 2 at the offset a_j - b_j less the one at the mirror offset
    a_j + b_j + 2R + 2, and their product is written out as the signed sum
    over the choices of image in each direction: each choice's product
    divided by dx^d, the choices with an even number of mirrors added
    first, then the others subtracted.  A must be bit-identical.  The two
    routes round the second difference in different orders, so K is held
    to 1e-14 of the magnitude terms D2 cancels, entry by entry (the rows at
    a_j = -R and R included), the mirror's terms added to the direct ones:
    on a kernel spread over the whole box those terms exceed K by orders of
    magnitude.  A is nonnegative up to the rounding of direct less mirror."""

    @staticmethod
    def _dense(solver, t, times):
        # the tables come from the sorted batch _contract_plan reads: the
        # number of torus images follows the batch's largest argument
        grid = solver.grid
        s = grid.site_count
        period = grid.npts if grid.periodic else 2 * grid.npts + 2
        comps = np.array(list(grid.index_iter())).reshape(s, grid.dim)
        batch = np.sort(times)
        row = int(np.searchsorted(batch, t))

        def axis(g, j, step):
            # G_j at a_j + step at each image (the mirror, if any, second);
            # column b of the table is c_b^j's among the distinct values
            a_j, b_j = comps[:, j][:, None] + step, comps[:, j][None, :]
            images = [a_j - b_j] if grid.periodic else [a_j - b_j, a_j + b_j + 2 * grid.radius + 2]
            return [g[np.abs((n + period // 2) % period - period // 2), solver._distinct[j][1]]
                    for n in images]

        tables = [solver._axis_values(j, batch)[row] for j in range(grid.dim)]
        images = [axis(g, j, 0) for j, g in enumerate(tables)]
        plus, minus = [], []
        for choice in itertools.product(*(enumerate(vals) for vals in images)):
            term = math.prod((v for _, v in choice), start=np.ones((s, s))) / grid.cell_volume
            (minus if sum(m for m, _ in choice) % 2 else plus).append(term)
        a = sum(plus[1:], start=plus[0])
        for term in minus:
            a -= term
        sizes = [sum(vals) for vals in images]
        shaped = a.reshape(*grid.shape, s)
        k = np.zeros((s, s))
        scale = np.zeros((s, s))
        for j, (c, g) in enumerate(zip(solver._cflat, tables)):
            d2 = laplacian_array(shaped, j, grid.dx, grid.periodic).reshape(s, s)
            k += (c[:, None] - c[None, :]) * d2
            terms = sum(sum(axis(g, j, step)) for step in (-1, 0, 0, 1))
            terms = math.prod(sizes[:j] + sizes[j + 1:], start=terms)
            scale += np.abs(c[:, None] - c[None, :]) * terms / (grid.dx**2 * grid.cell_volume)
        return a, k, scale, math.prod(sizes) / grid.cell_volume

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), periodic=st.booleans(), radius=st.integers(1, 6),
           dx=st.sampled_from([0.125, 0.25, 0.5]), seed=st.integers(0, 2**32 - 1),
           times=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3))
    @example(dim=2, periodic=True, radius=12, dx=0.25, seed=7, times=[0.3, 0.02])
    @example(dim=2, periodic=False, radius=12, dx=0.25, seed=7, times=[0.3, 0.02])
    def test_matches_dense_route(self, dim, periodic, radius, dx, seed, times):
        # fields with every value distinct, and drawn from three values, so
        # that the Bessel tables hold fewer columns than there are sites;
        # the 625 sites of the examples gather in two blocks of rows
        grid = GridSpec(dx=dx, dim=dim, radius=radius,
                        boundary="periodic-wrap" if periodic else "zero-extension")
        rng = np.random.default_rng(seed)
        shape = (dim,) + grid.shape
        for vals in (rng.uniform(0.5, 2.0, shape), rng.choice([0.6, 1.0, 1.7], shape)):
            solver = ParametrixSolver(Coefficients(grid, vals))
            rows = solver._joint_rows(times)
            stacks = zip(_stack(solver, rows), _stack(solver, rows, correction=True))
            for t, (a, k) in zip(times, stacks):
                a_ref, k_ref, scale, mag = self._dense(solver, t, times)
                assert np.array_equal(a, a_ref)
                assert np.all(a >= -4.0 * np.finfo(float).eps * mag)
                assert np.all(np.abs(k - k_ref) <= 1e-14 * scale)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), periodic=st.booleans(), radius=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), times=st.lists(st.floats(1e-3, 1.0), min_size=1,
                                                          max_size=3))
    def test_potential_subtracts_frozen_kernel(self, dim, periodic, radius, seed, times):
        # K_Y = K - diag(Y) A from one stack, A taken from the same tables
        grid = GridSpec(dx=0.25, dim=dim, radius=radius,
                        boundary="periodic-wrap" if periodic else "zero-extension")
        rng = np.random.default_rng(seed)
        solver = ParametrixSolver(Coefficients(grid, rng.uniform(0.5, 2.0, (dim,) + grid.shape)))
        y = rng.uniform(0.0, 3.0, grid.site_count)
        rows = solver._joint_rows(times)
        k_y = _stack(solver, rows, correction=True, potential=y)
        k, a = _stack(solver, rows, correction=True), _stack(solver, rows)
        # |A|: absorbing entries round to -2e-16 where direct and mirror cancel
        assert np.all(np.abs(k_y - (k - y[:, None] * a))
                      <= 1e-15 * (np.abs(k) + y[:, None] * np.abs(a)))


class TestGamma:
    def test_constant_coefficients_reduce_to_kernel(self):
        dx = 0.25
        t = 0.1
        g = GridSpec(dx=dx, dim=1, radius=recommended_radius(t, 1.0, dx))
        c = Coefficients.constant(g, 1.0)
        col = ParametrixSolver(c, TimeQuadrature(nodes=16), tol=1e-8).gamma_column((0,), t)
        direct = np.array([kernel_nd((a,), t, ConstCoeffs(c.at((0,))), dx)
                           for a in range(-g.radius, g.radius + 1)])
        assert np.abs(col.flat() - direct).max() <= 1e-12 * dx**-1

    def test_small_time_dirac_limit(self, small_var_coeffs):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=16), tol=1e-6)
        grid = small_var_coeffs.grid
        dirac = Field.dirac(grid)
        sup = []
        for t in (1e-2, 1e-3, 1e-4):
            col = solver.gamma_column((0,), t)
            sup.append(np.abs(col.values - dirac.values).max() * grid.cell_volume)
        assert sup[0] > sup[1] > sup[2]
        assert sup[-1] < 0.05

    def test_oracle_equivalence_small(self, small_var_coeffs):
        t = 0.2
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=48), tol=1e-8)
        col = solver.gamma_column((3,), t)
        ref = oracle.gamma_oracle(small_var_coeffs, (3,), t, tol=1e-11)
        assert np.abs(col.values - ref.values).max() <= 1e-6

    @pytest.mark.parametrize("boundary", ["periodic-wrap", "zero-extension"])
    def test_oracle_equivalence_both_boundaries(self, boundary):
        # columns at the centre, half way out and on the edge: on
        # zero-extension grids both routes are absorbing outside the box
        grid = GridSpec(dx=0.25, dim=1, radius=24, boundary=boundary)
        length = grid.npts * grid.dx
        coeffs = Coefficients.from_function(
            grid, lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x / length))
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=48), tol=1e-8)
        for beta in ((0,), (12,), (24,)):
            col = solver.gamma_column(beta, 0.1)
            ref = oracle.gamma_oracle(coeffs, beta, 0.1, tol=1e-12)
            assert np.abs(col.values - ref.values).max() <= 1e-9

    def test_oracle_equivalence_zero_extension_2d(self):
        # the anisotropic fields of the column-2d benchmark, on an absorbing box
        grid = GridSpec(dx=0.25, dim=2, radius=6, boundary="zero-extension")
        x = grid.axis_coordinates()
        xx, yy = np.meshgrid(x, x, indexing="ij")
        coeffs = Coefficients(grid, np.stack([1.0 + 0.5 * np.sin(2.0 * np.pi * xx),
                                              1.2 + 0.3 * np.cos(2.0 * np.pi * yy)]))
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=32), tol=1e-8)
        for beta in ((0, 0), (3, 3), (6, 6), (6, -3)):
            col = solver.gamma_column(beta, 1.0 / 16.0)
            ref = oracle.gamma_oracle(coeffs, beta, 1.0 / 16.0, tol=1e-12)
            assert np.abs(col.values - ref.values).max() <= 1e-9

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), periodic=st.booleans(), radius=st.integers(1, 8),
           dx=st.sampled_from([0.25, 0.5]), t=st.floats(0.02, 0.2), data=st.data())
    def test_column_matches_oracle_on_random_data(self, dim, periodic, radius, dx, t, data):
        # an independent route: the certified Taylor integration of the
        # lattice generator, with random fields and columns
        grid = GridSpec(dx=dx, dim=dim, radius=radius if dim == 1 else min(radius, 4),
                        boundary="periodic-wrap" if periodic else "zero-extension")
        vals = data.draw(arrays(np.float64, (dim,) + grid.shape, elements=st.floats(0.5, 1.5)))
        coeffs = Coefficients(grid, vals)
        beta = tuple(data.draw(st.integers(-grid.radius, grid.radius)) for _ in range(dim))
        col = ParametrixSolver(coeffs, TimeQuadrature(nodes=32), tol=1e-8).gamma_column(beta, t)
        ref = oracle.gamma_oracle(coeffs, beta, t, tol=1e-13)
        assert np.abs(col.values - ref.values).sum() * grid.cell_volume <= 1e-8

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), radius=st.integers(1, 4), dx=st.sampled_from([0.25, 0.5]),
           ratio=st.floats(0.05, 8.0), data=st.data())
    def test_rows_conserve_constants_on_random_periodic_boxes(self, dim, radius, dx, ratio, data):
        # on a periodic box Gamma(T) maps constants to themselves and
        # nonnegative data to nonnegative data: every row times dx^d sums to
        # 1 and every entry is nonnegative, T = ratio lam up to 8 layer
        # widths; on 192 boxes of this class the row defect was at most
        # 2.2e-10 and no entry negative, so both are held to the series tol
        # 1e-8, 45 times that defect
        grid = GridSpec(dx=dx, dim=dim, radius=radius)
        vals = data.draw(arrays(np.float64, (dim,) + grid.shape, elements=st.floats(0.5, 1.5)))
        solver = ParametrixSolver(Coefficients(grid, vals), TimeQuadrature(nodes=48), tol=1e-8)
        mat = solver.gamma_matrix(ratio * solver._layer_scale()) * grid.cell_volume
        assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-8
        assert mat.min() >= -1e-8

    def test_constants_preserved(self, small_var_coeffs):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=48), tol=1e-8)
        mat = solver.gamma_matrix(0.2)
        row_mass = mat.sum(axis=1) * small_var_coeffs.grid.cell_volume
        assert np.abs(row_mass - 1.0).max() <= 1e-8


class TestDenseBudget:
    def test_correction_matrix_peak(self):
        # the coefficient increments go straight into each term's output,
        # so a correction matrix of a 2-D grid takes its output and one
        # scratch term, not d more s x s arrays of increments
        grid = GridSpec(dx=0.25, dim=2, radius=20)
        rng = np.random.default_rng(2)
        solver = ParametrixSolver(Coefficients(grid, rng.uniform(0.5, 1.5, (2,) + grid.shape)))
        tracemalloc.start()
        try:
            mat = solver.correction_matrix(0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * mat.nbytes

    def test_oversized_grid_rejected_before_allocation(self, monkeypatch):
        grid = GridSpec(dx=1.0, dim=2, radius=46)
        assert grid.site_count == 8649
        coeffs = Coefficients.constant(grid, 1.0)
        monkeypatch.setattr(ParametrixSolver, "_joint_index",
                            lambda self, slabs: pytest.fail("index tables built"))
        with pytest.raises(ValueError, match="dense budget"):
            ParametrixSolver(coeffs)

    @pytest.mark.parametrize("dim, radius, nodes, t", [(1, 12, 32, 0.2), (2, 4, 24, 0.1)])
    def test_ladder_peak(self, dim, radius, nodes, t):
        # a build holds its panels (K^(1) among them, as block 0), one order
        # buffer, a one-panel scratch and Phi while the orders run, and
        # neither panels nor orders during the end step: the peak stays
        # below the panels and six stacks of (N + 1) s^2 entries, which the
        # 1-D box exceeds if the panels and the orders live through the end
        # step
        grid = GridSpec(dx=0.25, dim=dim, radius=radius)
        solver = ParametrixSolver(_shifted_sines(grid), TimeQuadrature(nodes=nodes))
        rule = solver.quad.points_with_panels(t, layer=solver._layer_scale())
        table = solver._tau_table(t)
        panels = sum(w.nbytes for _, _, w in solver._panels(*rule, None, table, extra=[t]))
        del table
        tracemalloc.start()
        try:
            solver._build_ladder(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = 8 * (rule[0].size + 1) * grid.site_count ** 2
        assert peak < panels + 6 * stack

    def test_largest_grid_accepted_without_dense_allocation(self):
        # 7921^2 entries fit the budget; one s x s array would take 502 MB
        grid = GridSpec(dx=1.0, dim=2, radius=44)
        assert grid.site_count == 7921
        coeffs = Coefficients.constant(grid, 1.0)
        tracemalloc.start()
        try:
            solver = ParametrixSolver(coeffs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        # a solver keeps O(s) entries: index tables are built per call
        assert held < 16 * 8 * solver.grid.site_count

    def test_solver_keeps_no_build_state(self):
        # a build's tau table, panels and order buffers are locals of the
        # build: after a march the solver holds O(s) array entries, after a
        # ladder O(s) entries and the Gamma(horizon) it caches, while the
        # table alone is 0.8 MB here; array data is counted apart from
        # Python objects parked in free lists
        grid = GridSpec(dx=0.125, dim=1, radius=32)
        coeffs = Coefficients.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x))
        s = grid.site_count
        u0 = np.cos(np.arange(s))
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=16))

        def held():
            arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
            snapshot = tracemalloc.take_snapshot().filter_traces([arrays])
            return sum(stat.size for stat in snapshot.statistics("filename"))

        tracemalloc.start()
        try:
            solver.march(0.1, u0, 1)
            solver.march(0.1, u0, 2)
            after_march = held()
            gamma = solver.ladder(0.1).gamma
            after_ladder = held()
        finally:
            tracemalloc.stop()
        assert after_march < 16 * 8 * s
        assert after_ladder - gamma.nbytes < 16 * 8 * s


class TestGammaEntryPoints:
    """gamma_matrix, gamma_column, gamma_operator and gamma_apply are views
    of one Gamma(t): they agree with each other and share the handling of
    t < 0 (rejected) and t == 0 (the Dirac identity)."""

    @pytest.fixture(scope="class", params=["periodic-wrap", "zero-extension"])
    def solver(self, request):
        grid = GridSpec(dx=0.125, dim=1, radius=24, boundary=request.param)
        assert grid.site_count == 49
        coeffs = Coefficients.from_function(
            grid, lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x / 6.125))
        return ParametrixSolver(coeffs, TimeQuadrature(nodes=32), tol=1e-6)

    def test_column_is_matrix_column(self, solver):
        t = 0.1
        mat = solver.gamma_matrix(t)
        for beta in ((0,), (-24,), (17,)):
            col = solver.gamma_column(beta, t).flat()
            ref = mat[:, solver.grid.flat_index(beta)]
            assert np.abs(col - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_apply_is_operator_product(self, solver):
        v = np.random.default_rng(3).standard_normal(solver.grid.site_count)
        for t in (0.037, 0.08, 0.1):
            got = solver.gamma_apply(t, v)
            ref = solver.gamma_operator(t) @ v * solver.grid.cell_volume
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_negative_time_rejected(self, solver):
        v = np.ones(solver.grid.site_count)
        calls = (lambda: solver.gamma_matrix(-0.1),
                 lambda: solver.gamma_column((0,), -0.1),
                 lambda: solver.gamma_operator(-0.1),
                 lambda: solver.gamma_apply(-0.1, v))
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_zero_time_is_identity(self, solver):
        grid = solver.grid
        dirac = np.eye(grid.site_count) / grid.cell_volume
        v = np.random.default_rng(4).standard_normal(grid.site_count)
        assert np.array_equal(solver.gamma_matrix(0.0), dirac)
        assert np.array_equal(solver.gamma_operator(0.0), dirac)
        assert np.array_equal(solver.gamma_column((0,), 0.0).values, Field.dirac(grid).values)
        assert np.array_equal(solver.gamma_apply(0.0, v), v)

    def test_built_horizon_keeps_gamma_only(self, solver):
        # the ladder keeps Gamma(t), read-only; gamma_matrix hands out
        # copies, gamma_column reads its columns, and no Phi is kept
        t = 0.1
        s = solver.grid.site_count
        mat = solver.gamma_matrix(t)
        ref = mat.copy()
        assert mat.flags.writeable
        mat[:] = 0.0
        assert np.array_equal(solver.gamma_matrix(t), ref)
        for beta in ((0,), (-24,), (17,)):
            col = solver.gamma_column(beta, t).flat()
            assert np.array_equal(col, ref[:, solver.grid.flat_index(beta)])
        series = solver.ladder(t)
        assert not series.gamma.flags.writeable
        arrays = [v for v in vars(series).values() if isinstance(v, np.ndarray)]
        assert max(a.size for a in arrays) == s * s


class TestMarch:
    """The Cauchy march: at most one panel's W at a time, a multi-piece run
    as one propagator that agrees with the pieces marched one by one, and
    the panel solve against the series ladder on the same rule and against
    forward substitution over the W that ``_panels`` lays out."""

    @pytest.mark.parametrize("pieces", [1, 3])
    def test_one_panel_weights_alive(self, pieces):
        # the adjoint sweep of three pieces holds one panel's whole W, the
        # last panel's (8 targets reading all 48 nodes) being 13 MB, where
        # the W of every node together would be 45 MB; one piece marches
        # forward and gathers only each panel's own 8 x 8 node block, 2.2
        # MB, which the panel's sweeps solve with no copy, beside the tau
        # table and its tuple-major copy (0.9 MB each) and one panel's fold
        # weights, but no folded rows of the nodes below the panel
        grid = GridSpec(dx=0.125, dim=1, radius=32)
        coeffs = Coefficients.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x))
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=48))
        s = grid.site_count
        f = np.sin(np.arange(s))
        panel_w = PANEL_POINTS * s * 48 * s * 8
        own_w = (PANEL_POINTS * s) ** 2 * 8
        tracemalloc.start()
        try:
            ends, _ = solver.march(0.25 / pieces, np.cos(np.arange(s)), pieces, np.full(s, 0.7),
                                   lambda ts: np.tile(f, (ts.size, 1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ends.shape == (pieces, s) and np.all(np.isfinite(ends))
        assert peak < 2 * panel_w
        if pieces == 1:
            assert peak < panel_w
            assert peak < 4 * own_w

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), periodic=st.booleans(), sines=st.booleans(),
           with_y=st.booleans(), k=st.sampled_from([1, 3]), seed=st.integers(0, 2**16))
    def test_forward_march_matches_materialised_panels(self, dim, periodic, sines, with_y, k,
                                                       seed):
        # the forward march applies W_p< rho_< through the tau table; block
        # forward substitution over the whole W of each panel from _panels
        # solves the same system, on sine fields (few coefficient tuples)
        # and random ones (every tuple distinct); block 0, the initial
        # value, is read and never solved for
        grid = GridSpec(dx=0.25, dim=dim, radius=5 if dim == 1 else 2,
                        boundary="periodic-wrap" if periodic else "zero-extension")
        rng = np.random.default_rng(seed)
        axes = np.stack(np.meshgrid(*[grid.axis_coordinates()] * dim, indexing="ij"))
        vals = 1.0 + 0.5 * np.sin(2.0 * np.pi * axes) if sines else \
            rng.uniform(0.5, 1.5, axes.shape)
        solver = ParametrixSolver(Coefficients(grid, vals), TimeQuadrature(nodes=24))
        s = grid.site_count
        y = rng.uniform(0.0, 3.0, s) if with_y else None
        h = 0.1
        nodes, weights, bp = solver.quad.points_with_panels(h, layer=solver._layer_scale())
        table = solver._tau_table(h)
        b = rng.standard_normal(((nodes.size + 1) * s, k))
        got = b.copy()
        solver._march_panels(nodes, weights, bp, y, table, got)
        assert np.array_equal(got[:s], b[:s])
        want = b.copy()
        vol = grid.cell_volume
        for lo, hi, w in solver._panels(nodes, weights, bp, y, table):
            below, own = (lo + 1) * s, slice((lo + 1) * s, (hi + 1) * s)
            rhs = want[own] + vol * (w[:, :below] @ want[:below])
            want[own] = np.linalg.solve(np.eye((hi - lo) * s) - vol * w[:, below:], rhs)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @staticmethod
    def _lu_march(solver, h, y, b):
        """Block forward substitution with LU over the W of each panel from
        ``_panels``, the reference of the iterated forward march."""
        s, vol = solver.grid.site_count, solver.grid.cell_volume
        nodes, weights, bp = solver.quad.points_with_panels(h, layer=solver._layer_scale())
        want = b.copy()
        for lo, hi, w in solver._panels(nodes, weights, bp, y, solver._tau_table(h)):
            below, own = (lo + 1) * s, slice((lo + 1) * s, (hi + 1) * s)
            rhs = want[own] + vol * (w[:, :below] @ want[:below])
            want[own] = np.linalg.solve(np.eye((hi - lo) * s) - vol * w[:, below:], rhs)
        return want

    @staticmethod
    def _high_contrast(dim, periodic, seed=1):
        """c ~ U[0.1, 3] per site on a 1-D box, U[0.2, 2] per site and
        direction on a 2-D one: ||dx^d W_pp||_2 exceeds 1 on the later
        panels of a long step, so a sweep can grow the residual."""
        grid = GridSpec(dx=0.25, dim=dim, radius=6 if dim == 1 else 2,
                        boundary="periodic-wrap" if periodic else "zero-extension")
        rng = np.random.default_rng(seed)
        lo, hi = (0.1, 3.0) if dim == 1 else (0.2, 2.0)
        return ParametrixSolver(Coefficients(grid, rng.uniform(lo, hi, (dim,) + grid.shape)),
                                TimeQuadrature(nodes=48)), rng

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), periodic=st.booleans(), with_y=st.booleans(),
           k=st.sampled_from([1, 3]), h=st.sampled_from([0.25, 1.0, 4.0]),
           seed=st.integers(0, 2**16))
    def test_iterated_march_matches_lu_on_high_contrast_fields(self, dim, periodic, with_y, k,
                                                               h, seed):
        # the forward panel solves sweep, falling back to LU where a sweep
        # stalls; either way the march is LU's block forward substitution
        solver, rng = self._high_contrast(dim, periodic, seed)
        s = solver.grid.site_count
        y = rng.uniform(0.0, 3.0, s) if with_y else None
        nodes, weights, bp = solver.quad.points_with_panels(h, layer=solver._layer_scale())
        b = rng.standard_normal(((nodes.size + 1) * s, k))
        got = b.copy()
        residual = solver._march_panels(nodes, weights, bp, y, solver._tau_table(h), got)
        want = self._lu_march(solver, h, y, b)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert residual <= 1e-12

    def test_sweeps_fall_back_to_lu_only_when_they_stall(self, monkeypatch):
        # LU calls, counted: none in a one-piece march of the AC-11 field
        # and potential, at least one on a high-contrast box, whose output
        # is LU's all the same, and one per panel in the adjoint march of
        # a multi-piece run
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b))
        grid = GridSpec(dx=0.125, dim=1, radius=32)
        coeffs = Coefficients.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x))
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=48))
        x = grid.axis_coordinates()
        y = 0.5 + 0.5 * np.sin(2.0 * np.pi * x / (grid.npts * grid.dx)) ** 2
        _, residual = solver.march(0.25, np.cos(x), 1, y)
        assert calls == [] and residual <= 1e-15

        solver, rng = self._high_contrast(1, True)
        s = solver.grid.site_count
        nodes, weights, bp = solver.quad.points_with_panels(1.0, layer=solver._layer_scale())
        b = rng.standard_normal(((nodes.size + 1) * s, 1))
        got = b.copy()
        solver._march_panels(nodes, weights, bp, None, solver._tau_table(1.0), got)
        assert calls
        want = self._lu_march(solver, 1.0, None, b)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

        calls.clear()
        solver.march(0.25, np.ones(s), 3)
        panels = solver.quad.points_with_panels(0.25)[0].size // PANEL_POINTS
        assert calls == [(PANEL_POINTS * s, PANEL_POINTS * s)] * panels

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), periodic=st.booleans(), data=st.data(),
           h=st.floats(0.02, 0.3), with_y=st.booleans(), with_f=st.booleans(),
           pieces=st.integers(2, 4), seed=st.integers(0, 2**16))
    def test_propagator_matches_chained_pieces(self, dim, periodic, data, h, with_y, with_f,
                                               pieces, seed):
        radius = data.draw(st.integers(1, 6 if dim == 1 else 3))
        every = data.draw(st.sampled_from([e for e in (1, 2, 4) if pieces % e == 0]))
        grid = GridSpec(dx=0.5, dim=dim, radius=radius,
                        boundary="periodic-wrap" if periodic else "zero-extension")
        rng = np.random.default_rng(seed)
        solver = ParametrixSolver(Coefficients(grid, rng.uniform(0.5, 1.5, (dim,) + grid.shape)),
                                  TimeQuadrature(nodes=16))
        s = grid.site_count
        y = rng.uniform(0.0, 5.0, s) if with_y else None
        f0, f1 = rng.uniform(-1.0, 1.0, (2, s))
        source = (lambda ts: np.cos(ts)[:, None] * f0 + f1) if with_f else None
        u0 = rng.uniform(-1.0, 1.0, s)
        ends, _ = solver.march(h, u0, pieces, y, source, start=0.1, every=every)
        u, chained = u0, []
        for i in range(pieces):
            u = solver.march(h, u, 1, y, source, start=0.1 + i * h)[0][0]
            chained.append(u)
        want = np.array(chained[every - 1::every])
        assert ends.shape == want.shape
        assert np.abs(ends - want).max() <= 1e-13 * np.abs(want).max()

    def test_many_pieces_build_once(self, monkeypatch):
        # 13 pieces with a source on 3 sites build one tau table, and
        # besides the panels' blocks contract one plan, the end step's with
        # A, whose adjoint march gives P and G; one piece does the same with
        # a forward march, and neither contracts a stack of kernels
        grid = GridSpec(dx=0.5, dim=1, radius=1, boundary="zero-extension")
        solver = ParametrixSolver(Coefficients(grid, np.array([[0.7, 1.3, 1.0]])),
                                  TimeQuadrature(nodes=16))
        y = np.array([2.0, 0.5, 1.0])
        source = lambda ts: np.outer(np.cos(3.0 * ts), [1.0, -0.5, 0.25])  # noqa: E731
        u0 = np.array([1.0, -1.0, 0.5])
        tables, whole = [], []
        real_table = ParametrixSolver._tau_table
        monkeypatch.setattr(ParametrixSolver, "_tau_table",
                            lambda self, h: tables.append(h) or real_table(self, h))
        real_contract = ParametrixSolver._contract_plan

        def contract(self, rows, correction=True, potential=None, out=None, tables=None):
            if out is None:  # not a panel block: a whole plan of its own
                whole.append(correction)
            return real_contract(self, rows, correction, potential, out, tables)

        monkeypatch.setattr(ParametrixSolver, "_contract_plan", contract)
        ends, _ = solver.march(0.05, u0, 13, y, source)
        assert tables == [0.05] and whole == [False]
        u = u0
        for i in range(13):
            tables.clear()
            whole.clear()
            u = solver.march(0.05, u, 1, y, source, start=i * 0.05)[0][0]
            assert tables == [0.05] and whole == [False]
            assert np.abs(ends[i] - u).max() <= 1e-13 * np.abs(u).max()

    @pytest.mark.parametrize("dim, radius, t, nodes", [(1, 6, 0.2, 32), (2, 3, 0.1, 16)])
    @pytest.mark.parametrize("boundary", ["periodic-wrap", "zero-extension"])
    def test_forward_march_solves_the_ladder_equation(self, dim, radius, t, nodes, boundary):
        # Phi = K + dx^d K * Phi two ways on one rule: the summed series of
        # the ladder, and one forward march of the s columns of rho_ext =
        # [I / dx^d; 0], node 0 carrying K at the nodes; they differ by the
        # ladder's truncation tail
        grid = GridSpec(dx=0.25, dim=dim, radius=radius, boundary=boundary)
        solver = ParametrixSolver(_shifted_sines(grid), TimeQuadrature(nodes=nodes))
        lad, phi = solver._build_ladder(t)
        assert lad.m_max > 3 and lad.tail_estimate > 0.0
        s = grid.site_count
        table = solver._tau_table(t)
        rho = np.zeros(((lad.times.size + 1) * s, s))
        rho[:s] = np.eye(s) / grid.cell_volume
        solver._march_panels(lad.times, lad.weights, lad.breakpoints, None, table, rho)
        assert np.abs(rho[s:].reshape(phi.shape) - phi).max() <= 4.0 * lad.tail_estimate

    @pytest.mark.parametrize("dim, radius, t, nodes", [(1, 6, 0.2, 32), (2, 3, 0.1, 16)])
    @pytest.mark.parametrize("boundary", ["periodic-wrap", "zero-extension"])
    def test_transposed_orders_match_stacked_orders(self, dim, radius, t, nodes, boundary):
        # the ladder keeps K^(m) transposed in one buffer, K^(1) from the
        # panels' block 0; the orders stacked node by node, K^(m)(x_i) =
        # dx^d W_i @ K^(m-1) over the nodes, from K^(1) folded off the table
        # as unit entries, with the same truncation rule give the same
        # orders, norms and Phi
        grid = GridSpec(dx=0.25, dim=dim, radius=radius, boundary=boundary)
        solver = ParametrixSolver(_shifted_sines(grid), TimeQuadrature(nodes=nodes))
        lad, phi = solver._build_ladder(t)
        s = grid.site_count
        table = solver._tau_table(t)
        prev = _stack(solver, _unit_rows(table, np.append(lad.times, t)), True)
        panels = list(solver._panels(lad.times, lad.weights, lad.breakpoints, None, table,
                                     extra=[t]))
        ref, norms = prev[:-1].copy(), [float(np.abs(prev[-1]).max())]
        target = 3
        while len(norms) < target:
            cur = np.empty_like(prev)
            for lo, hi, w in panels:
                below = prev[:w.shape[1] // s - 1].reshape(-1, s)
                cur[lo:hi] = (w[:, s:] @ below).reshape(-1, s, s)
            cur *= grid.cell_volume
            ref += cur[:-1]
            norms.append(float(np.abs(cur[-1]).max()))
            prev = cur
            if len(norms) == target:
                c, c3 = _fit_growth(norms, t)
                tail = _series_tails(c, c3, t, target)
                while target < 20 and tail(target) > solver.tol:
                    target += 1
        assert lad.m_max == len(norms) > 3
        assert np.allclose(lad.order_sup_norms, norms, rtol=1e-13, atol=0.0)
        assert phi.shape == ref.shape
        assert np.abs(phi - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("pieces", [1, 3])
    @pytest.mark.parametrize("name, size, bad", [("u0", -1, None), ("u0", 0, math.nan),
                                                 ("potential", 1, None),
                                                 ("potential", 0, math.inf)])
    def test_rejects_malformed_inputs(self, small_var_coeffs, pieces, name, size, bad):
        # u0 and the potential need s finite entries, one per site: one
        # entry short or long, or a NaN or inf among them, raises before
        # any build, for one piece and for the propagator
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=16))
        s = small_var_coeffs.grid.site_count
        inputs = {"u0": np.ones(s), "potential": np.ones(s)}
        v = np.ones(s + size)
        if bad is not None:
            v[2] = bad
        inputs[name] = v
        with pytest.raises(ValueError, match=f"{name} must have {s} finite entries"):
            solver.march(0.1, inputs["u0"], pieces, inputs["potential"])

    @pytest.mark.parametrize("pieces, every", [(0, 1), (3, 2), (4, 0), (2, 3)])
    def test_rejects_pieces_every_mismatch(self, small_var_coeffs, pieces, every):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=16))
        u0 = np.ones(small_var_coeffs.grid.site_count)
        with pytest.raises(ValueError, match="every"):
            solver.march(0.1, u0, pieces, every=every)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_times(self, small_var_coeffs, t):
        # the time rule rejects them, before any kernel is evaluated
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=16))
        u0 = np.ones(small_var_coeffs.grid.site_count)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: solver.march(t, u0, 1), lambda: solver.gamma_matrix(t),
                         lambda: solver.phi_series(t)):
                with pytest.raises(ValueError, match="positive and finite"):
                    call()


class TestReciprocity:
    """Where every direction shares c at each site, L = diag(c) Delta_h
    with Delta_h symmetric, so Gamma(t) diag(c) is symmetric, and so is
    P^2 diag(c) for the one-piece propagator P of the march.  Checked on
    U[0.5, 1.5] fields, 1-D at radius 8 and 2-D isotropic at radius 3, dx
    1/4, 32 nodes: through ``gamma_matrix(0.1)`` max |M - M^T| / max |M|,
    and through the two-piece march the bilinear identity v . march(0.05,
    c w, 2) = w . march(0.05, c v, 2), relative to the sum of the moduli
    of its terms.  On 12 seeds of each case they read at most 1.8e-10
    (ladder) and 3.0e-15 (march); an anisotropic 2-D field, the control,
    read at least 0.32 and 1.4e-3.  The gates sit at least 10x from both."""

    LADDER_GATE = 1e-8
    MARCH_GATE = 1e-12

    @staticmethod
    def _readings(dim, boundary, isotropic):
        grid = GridSpec(dx=0.25, dim=dim, radius=8 if dim == 1 else 3, boundary=boundary)
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.5, 1.5, (1 if isotropic else dim,) + grid.shape)
        c = vals[0].reshape(-1)
        solver = ParametrixSolver(Coefficients(grid, np.broadcast_to(vals, (dim,) + grid.shape)),
                                  TimeQuadrature(nodes=32))
        m = solver.gamma_matrix(0.1) * c
        ladder = np.abs(m - m.T).max() / np.abs(m).max()
        v, w = rng.standard_normal((2, grid.site_count))
        a = solver.march(0.05, c * w, 2)[0][-1]
        b = solver.march(0.05, c * v, 2)[0][-1]
        return ladder, abs(v @ a - w @ b) / (np.abs(v) @ np.abs(a))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("boundary", ["periodic-wrap", "zero-extension"])
    def test_isotropic_fields_are_reciprocal(self, dim, boundary):
        ladder, march = self._readings(dim, boundary, isotropic=True)
        assert ladder <= self.LADDER_GATE
        assert march <= self.MARCH_GATE

    @pytest.mark.parametrize("boundary", ["periodic-wrap", "zero-extension"])
    def test_anisotropic_control_is_not(self, boundary):
        ladder, march = self._readings(2, boundary, isotropic=False)
        assert ladder > 10.0 * self.LADDER_GATE
        assert march > 10.0 * self.MARCH_GATE


class TestPositivity:
    """Gamma(t) >= 0 entrywise: off the diagonal the generator's entries
    are nonnegative, so its semigroup maps nonnegative data to nonnegative
    solutions.  Checked on 8 random boxes, box i drawn from default_rng([0,
    i]): d in {1, 2}, either boundary, radius 1-6 (1-D) or 1-3 (2-D), dx in
    {1/4, 1/2}, c ~ U[0.5, 1.5] per site and direction, T ~ U[0.05, 0.4], 32
    nodes.  The gate is min >= -1e-13 max, for ``gamma_matrix(T)`` (boxes
    where the ladder raises its ``_M_CAP`` RuntimeError skipped) and for a
    one-piece ``march`` column from e_beta / dx^d on every box.  Of the
    first 16 boxes of this family the ladder raises on 2 (boxes 2 and 5),
    and min / max reads 7.3e-11 to 0.15 (ladder) and 7.0e-6 to 1.0
    (march)."""

    GATE = 1e-13

    @staticmethod
    def _box(i):
        rng = np.random.default_rng([0, i])
        dim = int(rng.integers(1, 3))
        grid = GridSpec(dx=float(rng.choice([0.25, 0.5])), dim=dim,
                        radius=int(rng.integers(1, 7 if dim == 1 else 4)),
                        boundary=str(rng.choice(["periodic-wrap", "zero-extension"])))
        coeffs = Coefficients(grid, rng.uniform(0.5, 1.5, (dim,) + grid.shape))
        return ParametrixSolver(coeffs, TimeQuadrature(nodes=32)), float(rng.uniform(0.05, 0.4))

    @pytest.mark.parametrize("box", range(8))
    def test_gamma_matrix_is_nonnegative(self, box):
        solver, t = self._box(box)
        try:
            gamma = solver.gamma_matrix(t)
        except RuntimeError as exc:
            if "not convergent" not in str(exc):
                raise
            pytest.skip(f"the ladder raises at T={t:.3g}: {exc}")
        assert gamma.min() >= -self.GATE * gamma.max()

    @pytest.mark.parametrize("box", range(8))
    def test_march_column_is_nonnegative(self, box):
        solver, t = self._box(box)
        grid = solver.grid
        u0 = np.zeros(grid.site_count)
        u0[grid.site_count // 3] = 1.0 / grid.cell_volume
        column = solver.march(t, u0, 1)[0][-1]
        assert column.min() >= -self.GATE * column.max()


class TestDenseExponential:
    """Gamma(T) = exp(T L) / dx^d for the generator L of ``oracle.Generator``,
    assembled column by column from unit vectors and exponentiated densely
    by ``scipy.linalg.expm`` (Al-Mohy & Higham, *SIAM J. Sci. Comput.* 33,
    2011).  Checked on 8 random boxes, box i drawn from default_rng([30,
    i]): d in {1, 2}, either boundary, radius 1-6 (1-D) or 1-3 (2-D), dx in
    {1/4, 1/2}, c ~ U[0.5, 1.5] per site and direction, T ~ U[0.05, 0.4], 48
    nodes.  ``gamma_matrix(T)`` is held to 1e-8 of its max (boxes where the
    ladder raises its ``_M_CAP`` RuntimeError skipped) and a 4-piece
    ``march`` column from e_0 / dx^d to 1e-12 of its max.  On the first 12
    boxes of this family the ladder reads 1.6e-14 to 1.7e-10 and the march
    9.4e-16 to 1.9e-14, and no box raises."""

    @staticmethod
    def _box(i):
        from scipy.linalg import expm

        rng = np.random.default_rng([30, i])
        dim = int(rng.integers(1, 3))
        grid = GridSpec(dx=float(rng.choice([0.25, 0.5])), dim=dim,
                        radius=int(rng.integers(1, 7 if dim == 1 else 4)),
                        boundary=str(rng.choice(["periodic-wrap", "zero-extension"])))
        coeffs = Coefficients(grid, rng.uniform(0.5, 1.5, (dim,) + grid.shape))
        t = float(rng.uniform(0.05, 0.4))
        gen = oracle.Generator(coeffs)
        units = np.eye(grid.site_count).reshape((-1,) + grid.shape)
        lmat = np.stack([gen.apply(e).reshape(-1) for e in units], axis=1)
        return ParametrixSolver(coeffs, TimeQuadrature(nodes=48)), t, expm(t * lmat)

    @pytest.mark.parametrize("box", range(8))
    def test_gamma_matrix_matches_expm(self, box):
        solver, t, prop = self._box(box)
        try:
            gamma = solver.gamma_matrix(t)
        except RuntimeError as exc:
            if "not convergent" not in str(exc):
                raise
            pytest.skip(f"the ladder raises at T={t:.3g}: {exc}")
        want = prop / solver.grid.cell_volume
        assert np.abs(gamma - want).max() <= 1e-8 * np.abs(want).max()

    @pytest.mark.parametrize("box", range(8))
    def test_march_column_matches_expm(self, box):
        solver, t, prop = self._box(box)
        u0 = np.zeros(solver.grid.site_count)
        u0[0] = 1.0 / solver.grid.cell_volume
        column = solver.march(t / 4, u0, 4)[0][-1]
        want = prop[:, 0] / solver.grid.cell_volume
        assert np.abs(column - want).max() <= 1e-12 * np.abs(want).max()


class TestPropagation:
    def test_constant_degeneracy(self):
        dx = 0.25
        g = GridSpec(dx=dx, dim=1, radius=recommended_radius(0.2, 1.0, dx))
        c = Coefficients.constant(g, 1.0)
        solver = ParametrixSolver(c, TimeQuadrature(nodes=16), tol=1e-8)
        defect = solver.propagation_defect(0.1, 0.2)
        assert defect <= 1e-11

    def test_defect_decreases_under_refinement(self, small_var_coeffs):
        defects = []
        for nodes in (16, 32, 64):
            solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=nodes), tol=1e-8)
            defects.append(solver.propagation_defect(0.1, 0.2))
        assert defects[2] < defects[0]

    def test_split_consistency(self, small_var_coeffs):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=48), tol=1e-8)
        d_half = solver.propagation_defect(0.1, 0.2)
        d_third = solver.propagation_defect(0.2 / 3.0, 0.2)
        assert d_half <= 2.0 * d_third + 1e-12
        assert d_third <= 2.0 * d_half + 1e-12

    def test_window_validation(self, small_var_coeffs):
        solver = ParametrixSolver(small_var_coeffs)
        with pytest.raises(ValueError):
            solver.propagation_defect(0.3, 0.2)


class TestPointwiseBounds:
    """Fitted constants of the correction-series and fundamental-solution
    bounds: finite and stable across grid spacings."""

    @staticmethod
    def _setup(dx):
        grid = GridSpec(dx=dx, dim=1, radius=int(3 / dx))
        coeffs = Coefficients.from_function(
            grid, lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x / (grid.npts * dx)))
        return ParametrixSolver(coeffs, TimeQuadrature(nodes=48), tol=1e-8)

    def test_phi_bound_fit(self):
        sups = {}
        for dx in (0.125, 1.0 / 16.0):
            solver = self._setup(dx)
            lad, phi = solver._build_ladder(0.25)
            grid = solver.grid
            cbar = solver.coeffs.cbar
            sup = 0.0
            offs = np.arange(-grid.radius, grid.radius + 1)
            b = grid.flat_index((0,))
            for q in range(0, lad.times.size, 4):
                s = float(lad.times[q])
                col = phi[q][:, b]
                rhs = bounds.lorentz_rhs(offs, s, cbar, dx, 1, cubic_tail=False)
                sup = max(sup, float((np.abs(col) / rhs).max()))
            sups[dx] = sup
        vals = list(sups.values())
        assert all(np.isfinite(v) for v in vals)
        spread = (max(vals) - min(vals)) / max(vals)
        assert spread < 0.15, sups

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_gamma_difference_bounds(self, m):
        sups = {}
        for dx in (0.125, 1.0 / 16.0):
            solver = self._setup(dx)
            grid = solver.grid
            cbar = solver.coeffs.cbar
            sup = 0.0
            for t in (0.05, 0.1, 0.25):
                col = solver.gamma_column((0,), t)
                vals = col.values
                for _ in range(m):
                    vals = forward_diff(Field(grid, vals), 1).values
                offs = np.arange(-grid.radius, grid.radius + 1)
                rhs = bounds.lorentz_rhs(offs, t, cbar, dx, m, cubic_tail=False)
                sup = max(sup, float((np.abs(vals) / rhs).max()))
            sups[dx] = sup
        vals = list(sups.values())
        assert all(np.isfinite(v) for v in vals)
        spread = (max(vals) - min(vals)) / max(vals)
        assert spread < 0.15, (m, sups)

    def test_gamma_lp_bound(self):
        solver = self._setup(0.125)
        grid = solver.grid
        for p, pprime in ((2.0, 2.0), (math.inf, 1.0)):
            prods = []
            for t in (0.01, 0.05, 0.1, 0.25):
                col = solver.gamma_column((0,), t)
                if pprime == 1.0:
                    norm = float(np.abs(col.values).sum() * grid.dx)
                else:
                    norm = float((np.abs(col.values) ** pprime).sum() * grid.dx) ** (1.0 / pprime)
                prods.append(norm * t ** (1.0 / (2.0 * p)))
            assert np.isfinite(prods).all()
            assert max(prods) < 10.0
