import math

import numpy as np
import pytest

from sdheat import bounds, oracle
from sdheat.heat_const import ConstCoeffs, kernel_1d, kernel_nd, recommended_radius
from sdheat.lattice import Field, GridSpec, forward_diff
from sdheat.parametrix import Coefficients, ParametrixSolver, _contract, k1
from sdheat.quadrature import TimeQuadrature


class TestCoefficients:
    def test_positivity_enforced(self):
        g = GridSpec(dx=1.0, dim=1, radius=2)
        with pytest.raises(ValueError):
            Coefficients(g, np.zeros((1,) + g.shape))

    def test_lipschitz_of_linear(self):
        g = GridSpec(dx=0.5, dim=1, radius=4, boundary="zero-extension")
        vals = 2.0 + 0.25 * g.axis_coordinates()
        c = Coefficients.from_field(g, vals)
        assert c.lip == pytest.approx(0.25)
        assert c.c_min == pytest.approx(2.0 - 0.25 * 2.0)
        assert c.cbar == pytest.approx(2.0 + 0.25 * 2.0)


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

    def test_matrix_matches_pointwise(self, small_var_coeffs):
        solver = ParametrixSolver(small_var_coeffs)
        mat = solver.correction_matrix(0.1)
        grid = small_var_coeffs.grid
        for a, b in (((2,), (0,)), ((-5,), (3,)), ((1,), (1,))):
            # interior pairs: wrap images are negligible at this time
            assert mat[grid.flat_index(a), grid.flat_index(b)] == pytest.approx(
                k1(a, b, 0.1, small_var_coeffs), rel=1e-10, abs=1e-12)


class TestPhi:
    def test_constant_coefficients_vanish(self):
        g = GridSpec(dx=0.5, dim=1, radius=6)
        solver = ParametrixSolver(Coefficients.constant(g, 1.0), TimeQuadrature(nodes=16), tol=1e-8)
        series = solver.phi_series(0.2)
        assert series.m_max == 1
        assert all(np.abs(v).max() == 0.0 for v in series.values)
        assert series.tail_estimate == 0.0

    def test_tail_tolerance_honoured(self, small_var_coeffs):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=32), tol=1e-6)
        series = solver.phi_series(0.2)
        assert series.tail_estimate <= 1e-6
        assert 1 <= series.m_max <= 20

    def test_tightening_tolerance_changes_little(self, small_var_coeffs):
        quad = TimeQuadrature(nodes=32)
        loose = ParametrixSolver(small_var_coeffs, quad, tol=1e-4).phi_series(0.2)
        tight = ParametrixSolver(small_var_coeffs, quad, tol=1e-5).phi_series(0.2)
        dev = max(np.abs(a - b).max() for a, b in zip(loose.values, tight.values))
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
            ratios[horizon] = lad.order_norms[1] / lad.order_norms[0]
        assert ratios[0.1] < ratios[0.2]


class TestContraction:
    """The contracted plan W (``_ConvPlan.matrix`` then ``_contract``) against
    a direct evaluation of the plan's pieces, and its kernel budget."""

    @staticmethod
    def _direct(plan, kernel, g):
        out = sum(w * (kernel(tau) @ g[q])
                  for q, tau, w in zip(plan.full_idx, plan.full_tau, plan.full_w))
        for seg in plan.segments:
            for p, tp in enumerate(seg.tau_pts):
                g_p = sum(seg.interp[p, c] * g[node] for c, node in enumerate(seg.panel_idx))
                out = out + seg.tau_w[p] * (kernel(tp) @ g_p)
        return out

    def test_matches_direct_plan_evaluation(self, small_var_coeffs):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=24), tol=1e-6)
        horizon = 0.1
        nodes, weights, bp, ppp = solver.quad.points_with_panels(
            horizon, layer=solver._layer_scale())
        s = solver.grid.site_count
        rng = np.random.default_rng(5)
        g_mat = rng.standard_normal((nodes.size, s, s))
        g_vec = rng.standard_normal((nodes.size, s))
        for t in (float(nodes[3]), float(nodes[-1]), 0.061, horizon):
            plan = solver._conv_plan(t, nodes, weights, bp, ppp)
            times, c = plan.matrix()
            w = _contract(c, np.stack([solver.correction_matrix(tau) for tau in times]))
            n = c.shape[1]
            for g in (g_mat, g_vec):
                got = w @ g[:n].reshape((n * s,) + g.shape[2:])
                ref = self._direct(plan, solver.correction_matrix, g)
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_ladder_builds_each_kernel_once(self, small_var_coeffs, monkeypatch):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=24), tol=1e-8)
        horizon = 0.2
        calls = []
        real = ParametrixSolver._correction_from
        monkeypatch.setattr(ParametrixSolver, "_correction_from",
                            lambda self, a: calls.append(1) or real(self, a))
        lad = solver.ladder(horizon)
        assert lad.m_max > 3  # more than one batch of orders
        targets = np.append(lad.nodes, horizon)
        plan_times = sum(len(solver._conv_plan(float(x), lad.nodes, lad.weights,
                                               lad.breakpoints, lad.ppp).matrix()[0])
                         for x in targets)
        assert len(calls) == plan_times + targets.size


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
        # columns far from the edge, where the infinite-lattice Gamma of a
        # zero-extension grid and the oracle's absorbing generator agree
        grid = GridSpec(dx=0.25, dim=1, radius=24, boundary=boundary)
        length = grid.npts * grid.dx
        coeffs = Coefficients.from_function(
            grid, lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x / length))
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=48), tol=1e-8)
        for beta in ((0,), (6,)):
            col = solver.gamma_column(beta, 0.1)
            ref = oracle.gamma_oracle(coeffs, beta, 0.1, tol=1e-12)
            assert np.abs(col.values - ref.values).max() <= 1e-9

    def test_constants_preserved(self, small_var_coeffs):
        solver = ParametrixSolver(small_var_coeffs, TimeQuadrature(nodes=48), tol=1e-8)
        mat = solver.gamma_matrix(0.2)
        row_mass = mat.sum(axis=1) * small_var_coeffs.grid.cell_volume
        assert np.abs(row_mass - 1.0).max() <= 1e-8


class TestDenseBudget:
    def test_oversized_grid_rejected_before_allocation(self, monkeypatch):
        grid = GridSpec(dx=1.0, dim=2, radius=46)
        assert grid.site_count == 8649
        coeffs = Coefficients.constant(grid, 1.0)
        monkeypatch.setattr(ParametrixSolver, "_offset_tables",
                            lambda self: pytest.fail("offset tables built"))
        with pytest.raises(ValueError, match="dense budget"):
            ParametrixSolver(coeffs)


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
        horizon = 0.1
        v = np.random.default_rng(3).standard_normal(solver.grid.site_count)
        for t in (0.037, 0.08, horizon):
            got = solver.gamma_apply(t, v, horizon=horizon)
            ref = solver.gamma_operator(t, horizon) @ v * solver.grid.cell_volume
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_negative_time_rejected(self, solver):
        v = np.ones(solver.grid.site_count)
        calls = (lambda: solver.gamma_matrix(-0.1),
                 lambda: solver.gamma_column((0,), -0.1),
                 lambda: solver.gamma_operator(-0.1, 0.1),
                 lambda: solver.gamma_apply(-0.1, v, horizon=0.1))
        for call in calls:
            with pytest.raises(ValueError):
                call()

    def test_zero_time_is_identity(self, solver):
        grid = solver.grid
        dirac = np.eye(grid.site_count) / grid.cell_volume
        v = np.random.default_rng(4).standard_normal(grid.site_count)
        assert np.array_equal(solver.gamma_matrix(0.0), dirac)
        assert np.array_equal(solver.gamma_operator(0.0, 0.1), dirac)
        assert np.array_equal(solver.gamma_column((0,), 0.0).values, Field.dirac(grid).values)
        assert np.array_equal(solver.gamma_apply(0.0, v, horizon=0.1), v)


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
            lad = solver.ladder(0.25)
            grid = solver.grid
            cbar = solver.coeffs.cbar
            sup = 0.0
            offs = np.arange(-grid.radius, grid.radius + 1)
            b = grid.flat_index((0,))
            for q in range(0, lad.nodes.size, 4):
                s = float(lad.nodes[q])
                col = lad.phi_nodes[q][:, b]
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
