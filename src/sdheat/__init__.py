"""Semi-discrete heat kernels on lattices.

Fundamental solutions of continuous-time, lattice-space diffusion with
variable diagonal coefficients: constant-coefficient Bessel kernels,
the parametrix construction of the variable-coefficient kernel, a
certified ODE oracle, Duhamel solvers, and numeric verification of the
Lorentzian/Gaussian kernel estimates.
"""

from .bessel import iv_scaled, iv_scaled_array, iv_scaled_quadrature
from .bounds import lorentz_closed_form, lorentz_rhs, pang_F, pang_rhs
from .heat_const import (
    ConstCoeffs,
    kernel_1d,
    kernel_nd,
    kernel_series_smalltime,
    kernel_slice,
    kernel_spectral,
    recommended_radius,
)
from .lattice import Field, GridSpec, backward_diff, forward_diff, laplacian_dir, lp_norm
from .oracle import Generator, expm_apply, gamma_oracle, residual
from .parametrix import Coefficients, ParametrixSolver, PhiSeries, k1
from .quadrature import TimeQuadrature
from .solver import CauchyProblem, SolveReport, gradient_sup, solve_inhomogeneous, solve_with_potential

__all__ = [
    # bessel
    "iv_scaled", "iv_scaled_array", "iv_scaled_quadrature",
    # bounds
    "lorentz_closed_form", "lorentz_rhs", "pang_F", "pang_rhs",
    # heat_const
    "ConstCoeffs", "kernel_1d", "kernel_nd", "kernel_series_smalltime", "kernel_slice",
    "kernel_spectral", "recommended_radius",
    # lattice
    "Field", "GridSpec", "backward_diff", "forward_diff", "laplacian_dir", "lp_norm",
    # oracle
    "Generator", "expm_apply", "gamma_oracle", "residual",
    # parametrix
    "Coefficients", "ParametrixSolver", "PhiSeries", "k1",
    # quadrature
    "TimeQuadrature",
    # solver
    "CauchyProblem", "SolveReport", "gradient_sup", "solve_inhomogeneous", "solve_with_potential",
]
__version__ = "0.1.0"
