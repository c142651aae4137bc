import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sdheat.heat_const import recommended_radius
from sdheat.lattice import Field, GridSpec
from sdheat.oracle import evolve_with_potential
from sdheat.parametrix import Coefficients, ParametrixSolver
from sdheat.quadrature import TimeQuadrature
from sdheat.solver import (
    CauchyProblem,
    SolveReport,
    gradient_sup,
    solve_inhomogeneous,
    solve_with_potential,
)


def small_problem():
    g = GridSpec(dx=0.25, dim=1, radius=20)
    coeffs = Coefficients.from_function(
        g, lambda x: 1.0 + 0.4 * np.sin(2 * np.pi * x / (g.npts * g.dx)))
    return g, coeffs


class TestGradientSup:
    def test_constant(self):
        g = GridSpec(dx=0.5, dim=2, radius=3)
        assert gradient_sup(Field.constant(g, 4.0)) == 0.0

    def test_linear(self):
        g = GridSpec(dx=0.5, dim=1, radius=5, boundary="zero-extension")
        f = Field(g, g.axis_coordinates())
        # interior slope one; the zero-extension edge is steeper and is
        # excluded by restricting to an interior window via periodic ramp
        vals = np.abs(np.diff(f.values)) / g.dx
        assert vals[:-1].max() == pytest.approx(1.0)


class TestSolveInhomogeneous:
    def test_dirac_initial_data_gives_column(self):
        g, coeffs = small_problem()
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=32), tol=1e-8)
        vals = np.zeros(g.shape)
        vals[g.position((3,))] = g.dx**-1
        prob = CauchyProblem(coeffs, Field(g, vals), horizon=0.2)
        u = solve_inhomogeneous(prob, 0.2, solver=solver)
        col = solver.gamma_column((3,), 0.2)
        assert np.abs(u.values - col.values).max() <= 1e-10 * col.values.max()

    def test_constants_stay(self):
        g, coeffs = small_problem()
        prob = CauchyProblem(coeffs, Field.constant(g, 1.0), horizon=0.2)
        u = solve_inhomogeneous(prob, 0.2, quad=TimeQuadrature(nodes=32))
        assert np.abs(u.values - 1.0).max() <= 1e-8

    def test_unit_source_grows_linearly(self):
        g, coeffs = small_problem()
        ones = Field.constant(g, 1.0)
        prob = CauchyProblem(coeffs, Field.constant(g, 0.0),
                             source=lambda s: ones, horizon=0.2)
        u = solve_inhomogeneous(prob, 0.2, quad=TimeQuadrature(nodes=32))
        assert np.abs(u.values - 0.2).max() <= 1e-8

    def test_rejects_potential_problem(self):
        g, coeffs = small_problem()
        prob = CauchyProblem(coeffs, Field.constant(g, 1.0),
                             potential=Field.constant(g, 1.0), horizon=0.2)
        with pytest.raises(ValueError):
            solve_inhomogeneous(prob, 0.2)


class TestSolveWithPotential:
    def test_zero_potential_matches_inhomogeneous(self):
        g, coeffs = small_problem()
        length = g.npts * g.dx
        psi = Field.from_function(g, lambda x: 1.0 + 0.2 * np.cos(2 * np.pi * x / length))
        fsrc = Field.from_function(g, lambda x: 0.1 * np.sin(2 * np.pi * x / length))
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=32), tol=1e-8)
        base = CauchyProblem(coeffs, psi, source=lambda s: fsrc, horizon=0.2)
        with_pot = CauchyProblem(coeffs, psi, source=lambda s: fsrc,
                                 potential=Field.constant(g, 0.0), horizon=0.2)
        a = solve_inhomogeneous(base, 0.2, solver=solver)
        b = solve_with_potential(with_pot, 0.2, tol=1e-11, solver=solver)
        assert np.abs(a.values - b.values).max() <= 1e-8

    def test_exponential_decay(self):
        dx = 0.25
        g = GridSpec(dx=dx, dim=1, radius=recommended_radius(0.25, 1.0, dx))
        coeffs = Coefficients.constant(g, 1.0)
        lam = 1.3
        prob = CauchyProblem(coeffs, Field.constant(g, 1.0),
                             potential=Field.constant(g, lam), horizon=0.25)
        u = solve_with_potential(prob, 0.25, tol=1e-12)
        assert np.abs(u.values - math.exp(-lam * 0.25)).max() <= 1e-8

    def test_oracle_agreement_and_positivity(self):
        g, coeffs = small_problem()
        length = g.npts * g.dx
        rng = np.random.default_rng(21)
        x = g.axis_coordinates()
        psi = Field(g, 1.0 + 0.3 * np.abs(np.cos(2 * np.pi * x / length)))
        pot = Field(g, 0.4 + 0.4 * np.sin(2 * np.pi * x / length) ** 2)
        fsrc = Field(g, 0.2 + 0.1 * np.cos(4 * np.pi * x / length))
        del rng
        prob = CauchyProblem(coeffs, psi, source=lambda s: fsrc, potential=pot, horizon=0.2)
        rep = SolveReport()
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=48), tol=1e-8)
        u = solve_with_potential(prob, 0.2, tol=1e-10, solver=solver, report=rep)
        ref = evolve_with_potential(coeffs, pot.values, fsrc.values, 0.2, psi, tol=1e-12)
        assert np.abs(u.values - ref.values).max() <= 5e-3
        assert u.values.min() >= -1e-10
        assert rep.panels == 1 and rep.residual <= 1e-12
        assert gradient_sup(u) < 10.0

    def test_equal_panels_share_operators(self, monkeypatch):
        # t max Y = 2.5, so three equal panels, which need the same
        # Gamma(tau) operators
        g, coeffs = small_problem()
        prob = CauchyProblem(coeffs, Field.constant(g, 1.0),
                             potential=Field.constant(g, 25.0), horizon=0.1)
        builds: dict[float, int] = {}
        real_operator = ParametrixSolver.gamma_operator

        def counted(self, t, horizon=None):
            builds[float(t)] = builds.get(float(t), 0) + 1
            return real_operator(self, t, horizon)

        monkeypatch.setattr(ParametrixSolver, "gamma_operator", counted)
        rep = SolveReport()
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=16), tol=1e-6)
        u = solve_with_potential(prob, 0.1, solver=solver, report=rep)
        assert rep.panels == 3
        assert builds and set(builds.values()) == {1}
        assert np.all(np.isfinite(u.values))

    @pytest.mark.parametrize("lam", [40.0, 2000.0])
    def test_fast_decay(self, lam):
        # one panel per unit of t max Y: at lam = 40 a single panel is 9%
        # off, and at lam = 2000 the solve runs 500 panels
        g = GridSpec(dx=0.25, dim=1, radius=8)
        coeffs = Coefficients.constant(g, 1.0)
        prob = CauchyProblem(coeffs, Field.constant(g, 1.0),
                             potential=Field.constant(g, lam), horizon=0.25)
        rep = SolveReport()
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=16), tol=1e-8)
        u = solve_with_potential(prob, 0.25, solver=solver, report=rep)
        exact = math.exp(-lam * 0.25)
        assert rep.panels == math.ceil(0.25 * lam)
        assert np.abs(u.values - exact).max() <= 1e-12 * exact

    def test_rejects_nonfinite_source(self):
        g, coeffs = small_problem()
        bad = Field(g, np.full(g.shape, np.nan))
        prob = CauchyProblem(coeffs, Field.constant(g, 1.0), source=lambda s: bad,
                             potential=Field.constant(g, 1.0), horizon=0.1)
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=16), tol=1e-6)
        with pytest.raises(ValueError, match="source is not finite"):
            solve_with_potential(prob, 0.1, solver=solver)

    # On dx = 1 the lattice time scale is 1/(4c), and a panel (h <= t <=
    # 0.5, c <= 2) spans at most 4 of them.  Rough data on longer panels
    # lose digits: the degree-7 collocation polynomial misses u's initial
    # layer (2.8e-8 on a panel of 16 time scales: dx = 0.5, c = 2, t = 0.5).
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(radius=st.integers(2, 8), c=st.floats(0.5, 2.0), t=st.floats(0.05, 0.5),
           t_max_y=st.floats(0.1, 20.0), data=st.data())
    def test_matches_oracle_on_random_data(self, radius, c, t, t_max_y, data):
        g = GridSpec(dx=1.0, dim=1, radius=radius)
        coeffs = Coefficients.constant(g, c)
        y = data.draw(arrays(np.float64, g.shape, elements=st.floats(1e-3, 1.0)))
        y = y * (t_max_y / t / y.max())
        psi = Field(g, data.draw(arrays(np.float64, g.shape, elements=st.floats(-1.0, 1.0))))
        f = Field(g, data.draw(arrays(np.float64, g.shape, elements=st.floats(-1.0, 1.0))))
        prob = CauchyProblem(coeffs, psi, source=lambda s: f, potential=Field(g, y), horizon=t)
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=16), tol=1e-8)
        u = solve_with_potential(prob, t, solver=solver)
        ref = evolve_with_potential(coeffs, y, f.values, t, psi, tol=1e-12)
        assert np.abs(u.values - ref.values).max() <= 1e-9


class TestCauchyProblem:
    def test_validation(self):
        g, coeffs = small_problem()
        with pytest.raises(ValueError):
            CauchyProblem(coeffs, Field.constant(g, 1.0), horizon=0.0)
        other = GridSpec(dx=0.5, dim=1, radius=4)
        with pytest.raises(ValueError):
            CauchyProblem(coeffs, Field.constant(other, 1.0), horizon=1.0)
        with pytest.raises(ValueError):
            CauchyProblem(coeffs, Field(g, np.full(g.shape, np.nan)), horizon=1.0)

    def test_rejects_nonfinite_potential(self):
        g, coeffs = small_problem()
        vals = np.ones(g.shape)
        vals[3] = np.inf
        pot = Field(g, vals)
        with pytest.raises(ValueError, match="potential must be finite"):
            CauchyProblem(coeffs, Field.constant(g, 1.0), potential=pot, horizon=1.0)
