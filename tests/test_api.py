"""The package's public names.  Adding or removing one changes this list."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import sdheat

PUBLIC = {
    "CauchyProblem", "Coefficients", "ConstCoeffs", "Field", "Generator", "GridSpec",
    "ParametrixSolver", "PhiSeries", "SolveReport", "TimeQuadrature",
    "backward_diff", "expm_apply", "forward_diff", "gamma_oracle", "gradient_sup",
    "iv_scaled", "iv_scaled_array", "iv_scaled_quadrature", "k1", "kernel_1d", "kernel_nd",
    "kernel_series_smalltime", "kernel_slice", "kernel_spectral", "laplacian_dir",
    "lorentz_closed_form", "lorentz_rhs", "lp_norm", "pang_F", "pang_rhs",
    "recommended_radius", "residual", "solve_inhomogeneous", "solve_with_potential",
}


def test_public_names():
    assert len(sdheat.__all__) == len(set(sdheat.__all__))
    assert set(sdheat.__all__) == PUBLIC
    assert all(hasattr(sdheat, name) for name in sdheat.__all__)


#: Public attributes of ``ParametrixSolver``.  Adding or removing one changes
#: this set.
SOLVER_PUBLIC = {
    "coeffs", "correction_matrix", "gamma_apply", "gamma_column", "gamma_matrix",
    "gamma_operator", "grid", "kernel_matrix", "ladder", "march", "phi_series",
    "propagation_defect", "quad", "tol",
}


def test_solver_public_names():
    grid = sdheat.GridSpec(dx=0.5, dim=1, radius=2)
    solver = sdheat.ParametrixSolver(sdheat.Coefficients.constant(grid, 1.0))
    assert {name for name in dir(solver) if not name.startswith("_")} == SOLVER_PUBLIC
    # one method under two names; the benchmark's tracer wraps each name
    assert sdheat.ParametrixSolver.gamma_operator is sdheat.ParametrixSolver.gamma_matrix


def test_benchmark_entry_points(monkeypatch):
    """What the benchmark under ``perfbench/`` uses of the package: the names
    its tracer patches, its workloads' set-up, and the fields it reads."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans
    import workloads

    from sdheat.lattice import Field, GridSpec
    from sdheat.parametrix import Coefficients, ParametrixSolver
    from sdheat.quadrature import TimeQuadrature
    from sdheat import solver as cauchy

    for name, workload in workloads.WORKLOADS.items():
        assert workload(0).prepare(), name
    grid = GridSpec(dx=0.5, dim=1, radius=3)
    coeffs = Coefficients.from_function(grid, lambda x: 1.0 + 0.3 * np.sin(x))
    ones = Field.constant(grid, 1.0)
    tracer = spans.Tracer()
    # installing raises KeyError if a patched name has left its owner, and
    # calling the patched names fails if their signatures moved
    with tracer.installed(), tracer.root("solve", "probe", 0):
        solver = ParametrixSolver(coeffs, TimeQuadrature(nodes=16))
        series = solver.phi_series(0.1)
        applied = solver.gamma_apply(0.1, ones.flat())
        prob = cauchy.CauchyProblem(coeffs, ones, source=lambda s: ones)
        u = cauchy.solve_inhomogeneous(prob, 0.1, solver=solver)
    assert series.m_max >= 1 and series.tail_estimate <= 1e-8
    assert np.abs(applied - 1.0).max() <= 1e-8 and np.abs(u.values - 1.1).max() <= 1e-8
    ladders = [sp.attrs for sp in tracer.spans if sp.name == "parametrix.ladder"]
    assert ladders == [{"built": True, "m_max": series.m_max}, {"built": False}]
    assert [sp.name for sp in tracer.spans if sp.name.startswith(("parametrix.gamma", "solver"))] \
        == ["parametrix.gamma", "solver.picard"]
    report = cauchy.SolveReport()
    assert report.picard_iters == 0 and report.panels == 0


def test_compute_path_imports_numpy_only():
    """scipy and mpmath load only where they are used: scipy for the adaptive
    Lorentz-convolution quadrature, mpmath for the cancellation corner of
    the Bessel quadrature oracle.  Checked in a fresh interpreter, after a
    Gamma column and a potential solve."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {src!r})
        import sdheat, sdheat.cli, sdheat.verify
        from sdheat import bessel, bounds
        from sdheat.lattice import Field, GridSpec
        from sdheat.parametrix import Coefficients, ParametrixSolver
        from sdheat.quadrature import TimeQuadrature
        from sdheat.solver import CauchyProblem, solve_with_potential

        def loaded():
            return sorted({{"scipy", "mpmath"}} & set(sys.modules))

        grid = GridSpec(dx=0.5, dim=1, radius=3)
        coeffs = Coefficients.from_function(grid, lambda x: 1.0 + 0.3 * x / 3.0)
        ParametrixSolver(coeffs, TimeQuadrature(nodes=16)).gamma_column((0,), 0.1)
        ones = Field.constant(grid, 1.0)
        prob = CauchyProblem(coeffs, ones, source=lambda s: ones, potential=ones)
        solve_with_potential(prob, 0.1, solver=ParametrixSolver(coeffs, TimeQuadrature(nodes=16)))
        out = {{"compute": loaded()}}
        out["quad"] = bounds.lorentz_conv_quadrature(1.5, 0.0, 0.3, 1.0)
        out["after_quad"] = loaded()
        out["iv"] = bessel.iv_scaled_quadrature(45, 1e-3)
        out["after_iv"] = loaded()
        print(json.dumps(out))
    """)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    out = json.loads(run.stdout)
    assert out["compute"] == []
    closed = sdheat.lorentz_closed_form(1.5, 0.0, 0.3, 1.0)
    assert abs(out["quad"] - closed) <= 1e-8 * abs(closed)
    assert out["after_quad"] == ["scipy"]
    want = sdheat.iv_scaled(45, 1e-3)
    assert abs(out["iv"] - want) <= 1e-10 * want
    assert out["after_iv"] == ["mpmath", "scipy"]
