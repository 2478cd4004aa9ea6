"""Isothermal slip of a moderately dense gas with mirror-diffusion walls.

The solver expands the slip velocity, the velocity spectral density and the
distribution function in powers of the wall diffusion coefficient, fixing
each expansion coefficient by eliminating the second-order pole of the
density at zero wavenumber.  See the README for the command-line surface.
"""

from .kernels import SpectralFunction, apply_kernel, s_kernel, standard_grid
from .neumann import SeriesExpansion, build_series, e_n, pole_residual, u0, u_coefficient
from .quadrature import (
    BudgetExhaustedError,
    DEFAULT_SPEC,
    NonFiniteIntegrandError,
    QuadratureError,
    QuadratureSpec,
    TailEstimateDominatesError,
    integrate_gaussian_weighted,
    integrate_spectral,
)
from .special_integrals import (
    GasParameters,
    MOMENTS,
    dispersion_l,
    j_m,
    j_n,
    phi0,
    t_n,
)
from .transport import (
    DimensionalContext,
    VelocityProfile,
    dimensional_slip,
    distribution_function,
    gamma_from_physical,
    slip_coefficient_kv,
    slip_velocity,
    velocity_profile,
)

__version__ = "0.1.0"

__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "QuadratureError",
    "BudgetExhaustedError",
    "NonFiniteIntegrandError",
    "TailEstimateDominatesError",
    "integrate_gaussian_weighted",
    "integrate_spectral",
    "GasParameters",
    "MOMENTS",
    "t_n",
    "j_n",
    "j_m",
    "dispersion_l",
    "phi0",
    "SpectralFunction",
    "standard_grid",
    "s_kernel",
    "apply_kernel",
    "SeriesExpansion",
    "u0",
    "u_coefficient",
    "e_n",
    "build_series",
    "pole_residual",
    "VelocityProfile",
    "DimensionalContext",
    "slip_velocity",
    "slip_coefficient_kv",
    "velocity_profile",
    "distribution_function",
    "gamma_from_physical",
    "dimensional_slip",
    "__version__",
]
