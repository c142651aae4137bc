import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sdheat import bessel, bounds, oracle
from sdheat.heat_const import ConstCoeffs, kernel_1d, kernel_nd, recommended_radius
from sdheat.lattice import Field, GridSpec, forward_diff, laplacian_array
from sdheat.parametrix import Coefficients, ParametrixSolver, _fit_growth, _series_tail, k1
from sdheat.quadrature import PANEL_POINTS, TimeQuadrature


def _shifted_sines(grid: GridSpec) -> Coefficients:
    """c^j = 1 + 0.4 sin(2 pi x_j / L + j), one period across the box."""
    axes = np.meshgrid(*[grid.axis_coordinates()] * grid.dim, indexing="ij")
    length = grid.npts * grid.dx
    return Coefficients(grid, np.stack(
        [1.0 + 0.4 * np.sin(2.0 * np.pi * axes[j] / length + j) for j in range(grid.dim)]))


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
        stack = solver._kernel_stack(np.linspace(0.5, 4.0, 2000))
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
            solver._kernel_stack(np.linspace(0.5, 4.0, 2000), correction)
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
    """The plan weights C (``_conv_plan``) on polynomials, the W that
    ``_contract_plan`` contracts in Bessel-table space against the plan
    summed term by term over kernel matrices, and the kernel budget of a
    ladder."""

    HORIZON = 0.1

    @classmethod
    def _rule(cls, solver):
        nodes, weights, bp = solver.quad.points_with_panels(
            cls.HORIZON, layer=solver._layer_scale())
        return nodes, weights, bp, (float(nodes[3]), float(nodes[-1]), 0.061, cls.HORIZON)

    def test_plan_exact_on_polynomials(self, small_var_coeffs):
        # int_0^t (t-s)^i s^k ds = t^(i+k+1) i! k! / (i+k+1)!, and the rule
        # is exact for both factors below degree 8 (eight points a panel)
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=24), tol=1e-6)
        nodes, weights, bp, targets = self._rule(solver)
        for t in targets:
            times, c = solver._conv_plan(t, nodes, weights, bp)
            tau = np.array(times)
            s = nodes[:c.shape[1]]
            for i in range(8):
                for k in range(8):
                    got = tau**i @ c @ s**k
                    want = t ** (i + k + 1) * math.factorial(i) * math.factorial(k) \
                        / math.factorial(i + k + 1)
                    assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([1, 2]), periodic=st.booleans(), three_valued=st.booleans(),
           kernel=st.sampled_from(["K", "K_Y", "A"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_plan_evaluation(self, dim, periodic, three_valued, kernel, seed):
        # W @ g = sum_{r,c} C[r, c] F(tau_r) g_c, summed term by term over
        # the kernel matrices of _kernel_stack, for K, K_Y and A on fields
        # with every value distinct or drawn from three values
        grid = GridSpec(dx=0.25, dim=dim, radius=5 if dim == 1 else 2,
                        boundary="periodic-wrap" if periodic else "zero-extension")
        rng = np.random.default_rng(seed)
        shape = (dim,) + grid.shape
        vals = rng.choice([0.6, 1.0, 1.7], shape) if three_valued else rng.uniform(0.5, 2.0, shape)
        solver = ParametrixSolver(Coefficients(grid, vals), TimeQuadrature(nodes=24), tol=1e-6)
        s = grid.site_count
        y = rng.uniform(0.0, 3.0, s) if kernel == "K_Y" else None
        nodes, weights, bp, targets = self._rule(solver)
        g_mat = rng.standard_normal((nodes.size, s, s))
        g_vec = rng.standard_normal((nodes.size, s))
        for t in targets:
            times, c = solver._conv_plan(t, nodes, weights, bp)
            w = solver._contract_plan(times, c, kernel != "A", y)
            kernels = solver._kernel_stack(times, kernel != "A", y)
            n = c.shape[1]
            for g in (g_mat, g_vec):
                got = w @ g[:n].reshape((n * s,) + g.shape[2:])
                ref = sum(c[r, q] * (f @ g[q]) for r, f in enumerate(kernels) for q in range(n))
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_ladder_builds_each_kernel_once(self, small_var_coeffs, monkeypatch):
        # every target's plan is contracted once in table space, and kernel
        # matrices are built only for K^(1) at the nodes and the horizon, as
        # one plan of unit weights
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=24), tol=1e-8)
        horizon = 0.2
        stacks, contracted = {False: [], True: []}, {False: [], True: []}
        batches = []
        real_stack = ParametrixSolver._kernel_stack
        monkeypatch.setattr(ParametrixSolver, "_kernel_stack",
                            lambda self, ts, correction=False, potential=None:
                            stacks[correction].extend(ts)
                            or real_stack(self, ts, correction, potential))
        real_contract = ParametrixSolver._contract_plan
        monkeypatch.setattr(ParametrixSolver, "_contract_plan",
                            lambda self, ts, c, correction=True, potential=None, out=None:
                            contracted[correction].extend(ts)
                            or real_contract(self, ts, c, correction, potential, out))
        real_batch = bessel.iv_scaled_matrix
        monkeypatch.setattr(bessel, "iv_scaled_matrix",
                            lambda nmax, r: batches.append(r.size) or real_batch(nmax, r))
        lad = solver.ladder(horizon)
        assert lad.m_max > 3  # more than one batch of orders
        targets = np.append(lad.times, horizon)
        plans = [len(solver._conv_plan(float(x), lad.times, lad.weights, lad.breakpoints)[0])
                 for x in targets]
        assert stacks[True] == list(targets) and not stacks[False]
        assert contracted[True][:targets.size] == list(targets)
        assert len(contracted[True]) - targets.size == sum(plans) == 480
        # the end step Gamma(horizon) = A + dx^d W @ Phi: the horizon's plan
        # and A(horizon), a node of unit weight at the horizon alone
        assert contracted[False] == contracted[True][-plans[-1]:] + [horizon]
        # at most 8192 // s = 167 times per batch: one batch for the targets,
        # one per plan, one for the end step
        assert len(batches) == 2 + targets.size == 19


class TestKernelStack:
    """Kernel matrices of ``_kernel_stack``, plans of unit weight contracted
    by ``_contract_plan``, against the dense route: A gathered entry by
    entry through s x s offset tables, and K = sum_j (c_a^j - c_b^j) D2_j A
    by ``laplacian_array`` along a_j on the whole matrix (zero outside the
    box on zero-extension grids, as in the absorbing generator).

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
            stacks = zip(solver._kernel_stack(times), solver._kernel_stack(times, correction=True))
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
        k_y = solver._kernel_stack(times, correction=True, potential=y)
        k, a = solver._kernel_stack(times, correction=True), solver._kernel_stack(times)
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
        # a build holds its panels, two order buffers and Phi while the
        # orders run, K^(1) only until its transposed copy is made, and
        # neither panels nor order buffers during the end step: the peak
        # stays below the panels and six stacks of (N + 1) s^2 entries, which
        # the 1-D box exceeds if K^(1) stays alive, or if the panels and the
        # order buffers live through the end step
        grid = GridSpec(dx=0.25, dim=dim, radius=radius)
        solver = ParametrixSolver(_shifted_sines(grid), TimeQuadrature(nodes=nodes))
        rule = solver.quad.points_with_panels(t, layer=solver._layer_scale())
        panels = sum(w.nbytes for _, _, w in solver._panels(*rule, None, extra=[t]))
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
    """The Cauchy march: one panel's W at a time, a multi-piece run as one
    propagator that agrees with the pieces marched one by one, and the
    panel solve against the series ladder on the same rule."""

    @pytest.mark.parametrize("pieces", [1, 3])
    def test_one_panel_weights_alive(self, pieces):
        # the W of the last panel (8 targets reading all 48 nodes) is 13 MB;
        # the W of every node together would be 45 MB
        grid = GridSpec(dx=0.125, dim=1, radius=32)
        coeffs = Coefficients.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x))
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=48))
        s = grid.site_count
        f = np.sin(np.arange(s))
        panel_w = PANEL_POINTS * s * 48 * s * 8
        tracemalloc.start()
        try:
            ends, _ = solver.march(0.25 / pieces, np.cos(np.arange(s)), pieces, np.full(s, 0.7),
                                   lambda ts: np.tile(f, (ts.size, 1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ends.shape == (pieces, s) and np.all(np.isfinite(ends))
        assert peak < 2 * panel_w

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
        # 13 pieces with a source on 3 sites stack as many kernels as one piece
        grid = GridSpec(dx=0.5, dim=1, radius=1, boundary="zero-extension")
        solver = ParametrixSolver(Coefficients(grid, np.array([[0.7, 1.3, 1.0]])),
                                  TimeQuadrature(nodes=16))
        y = np.array([2.0, 0.5, 1.0])
        source = lambda ts: np.outer(np.cos(3.0 * ts), [1.0, -0.5, 0.25])  # noqa: E731
        u0 = np.array([1.0, -1.0, 0.5])
        stacks = []
        real_stack = ParametrixSolver._kernel_stack

        def counted(self, *args, **kwargs):
            stacks.append(1)
            return real_stack(self, *args, **kwargs)

        monkeypatch.setattr(ParametrixSolver, "_kernel_stack", counted)
        ends, _ = solver.march(0.05, u0, 13, y, source)
        built = len(stacks)
        u = u0
        for i in range(13):
            stacks.clear()
            u = solver.march(0.05, u, 1, y, source, start=i * 0.05)[0][0]
            assert len(stacks) == built
            assert np.abs(ends[i] - u).max() <= 1e-13 * np.abs(u).max()

    @pytest.mark.parametrize("dim, radius, t, nodes", [(1, 6, 0.2, 32), (2, 3, 0.1, 16)])
    @pytest.mark.parametrize("boundary", ["periodic-wrap", "zero-extension"])
    def test_forward_march_solves_the_ladder_equation(self, dim, radius, t, nodes, boundary):
        # Phi = K + dx^d K * Phi two ways on one rule: the summed series of
        # the ladder, and one forward march of the s columns of K at the
        # nodes; they differ by the ladder's truncation tail
        grid = GridSpec(dx=0.25, dim=dim, radius=radius, boundary=boundary)
        solver = ParametrixSolver(_shifted_sines(grid), TimeQuadrature(nodes=nodes))
        lad, phi = solver._build_ladder(t)
        assert lad.m_max > 3 and lad.tail_estimate > 0.0
        s = grid.site_count
        rho = solver._kernel_stack(lad.times, correction=True).reshape(-1, s)
        solver._march_panels(lad.times, lad.weights, lad.breakpoints, None, rho)
        assert np.abs(rho.reshape(phi.shape) - phi).max() <= 4.0 * lad.tail_estimate

    @pytest.mark.parametrize("dim, radius, t, nodes", [(1, 6, 0.2, 32), (2, 3, 0.1, 16)])
    @pytest.mark.parametrize("boundary", ["periodic-wrap", "zero-extension"])
    def test_transposed_orders_match_stacked_orders(self, dim, radius, t, nodes, boundary):
        # the ladder keeps K^(m) transposed; the orders stacked node by node,
        # K^(m)(x_i) = dx^d W_i @ K^(m-1), with the same truncation rule give
        # the same orders, norms and Phi
        grid = GridSpec(dx=0.25, dim=dim, radius=radius, boundary=boundary)
        solver = ParametrixSolver(_shifted_sines(grid), TimeQuadrature(nodes=nodes))
        lad, phi = solver._build_ladder(t)
        s = grid.site_count
        prev = solver._kernel_stack(np.append(lad.times, t), True)
        panels = list(solver._panels(lad.times, lad.weights, lad.breakpoints, None, extra=[t]))
        ref, norms = prev[:-1].copy(), [float(np.abs(prev[-1]).max())]
        target = 3
        while len(norms) < target:
            cur = np.empty_like(prev)
            for lo, hi, w in panels:
                cur[lo:hi] = (w @ prev[:w.shape[1] // s].reshape(-1, s)).reshape(-1, s, s)
            cur *= grid.cell_volume
            ref += cur[:-1]
            norms.append(float(np.abs(cur[-1]).max()))
            prev = cur
            if len(norms) == target:
                c, c3 = _fit_growth(norms, t)
                while target < 20 and _series_tail(c, c3, t, target) > solver.tol:
                    target += 1
        assert lad.m_max == len(norms) > 3
        assert np.allclose(lad.order_sup_norms, norms, rtol=1e-13, atol=0.0)
        assert phi.shape == ref.shape
        assert np.abs(phi - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("pieces, every", [(0, 1), (3, 2), (4, 0), (2, 3)])
    def test_rejects_pieces_every_mismatch(self, small_var_coeffs, pieces, every):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=16))
        u0 = np.ones(small_var_coeffs.grid.site_count)
        with pytest.raises(ValueError, match="every"):
            solver.march(0.1, u0, pieces, every=every)


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
