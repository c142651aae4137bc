"""The package's public names.  Adding or removing one changes this list."""

import sdheat

PUBLIC = {
    "CauchyProblem", "Coefficients", "ConstCoeffs", "Field", "Generator", "GridSpec",
    "ParametrixSolver", "PhiSeries", "SolveReport", "TimeQuadrature",
    "backward_diff", "expm_apply", "forward_diff", "gamma_oracle", "gradient_sup",
    "iv_scaled", "iv_scaled_array", "iv_scaled_quadrature", "k1", "kernel_1d", "kernel_nd",
    "kernel_series_smalltime", "kernel_slice", "kernel_spectral", "laplacian_dir",
    "lorentz_closed_form", "lorentz_rhs", "lp_norm", "pang_F", "pang_rhs",
    "recommended_radius", "residual", "solve_inhomogeneous", "solve_with_potential",
    "zeros_count",
}


def test_public_names():
    assert len(sdheat.__all__) == len(set(sdheat.__all__))
    assert set(sdheat.__all__) == PUBLIC
    assert all(hasattr(sdheat, name) for name in sdheat.__all__)
