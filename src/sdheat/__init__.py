"""Semi-discrete heat kernels on lattices.

Fundamental solutions of continuous-time, lattice-space diffusion with
variable diagonal coefficients: constant-coefficient Bessel kernels,
the parametrix construction of the variable-coefficient kernel, a
certified ODE oracle, Duhamel solvers, and numeric verification of the
Lorentzian/Gaussian kernel estimates.
"""

from .bessel import iv_scaled, iv_scaled_array, iv_scaled_quadrature
from .bounds import (
    BoundReport,
    LorentzBoundParams,
    fit_bound,
    gaussian_rhs,
    gaussian_rhs_b,
    k_rhs,
    lorentz_closed_form,
    lorentz_rhs,
    pang_F,
    pang_rhs,
)
from .heat_const import (
    ConstCoeffs,
    KernelSlice,
    duhamel_const,
    kernel_1d,
    kernel_nd,
    kernel_series_smalltime,
    kernel_slice,
    kernel_spectral,
    recommended_radius,
    semigroup_apply,
)
from .lattice import (
    Field,
    GridSpec,
    TwoPointField,
    backward_diff,
    convolve_2p,
    convolve_translation,
    forward_diff,
    laplacian_dir,
    lp_norm,
    mixed_norm,
    zeros_count,
)
from .oracle import Generator, expm_apply, gamma_oracle, residual
from .parametrix import (
    Coefficients,
    ParametrixSolver,
    PhiSeries,
    frozen_kernel,
    gamma,
    k1,
    k_matrix,
    phi,
    propagation_defect,
)
from .quadrature import TimeQuadrature
from .solver import CauchyProblem, SolveReport, gradient_sup, solve_inhomogeneous, solve_with_potential

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
