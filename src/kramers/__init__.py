"""Isothermal slip of a moderately dense gas with mirror-diffusion walls.

The solver expands the slip velocity, the velocity spectral density and the
distribution function in powers of the wall diffusion coefficient, fixing
each expansion coefficient by eliminating the second-order pole of the
density at zero wavenumber.  :func:`build_series` is the one producer of the
coefficients U_n and densities E_n.  This namespace holds what the CLI and
the README workflows use; the kernel, moment and quadrature building blocks
stay importable from their own modules.  See the README for the
command-line surface.
"""

from .kernels import SpectralFunction
from .neumann import SeriesExpansion, build_series, pole_residual, u0
from .quadrature import (
    BudgetExhaustedError,
    NonFiniteIntegrandError,
    QuadratureError,
    TailEstimateDominatesError,
)
from .special_integrals import GasParameters, dispersion_l, t_n
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
    "QuadratureError",
    "BudgetExhaustedError",
    "NonFiniteIntegrandError",
    "TailEstimateDominatesError",
    "GasParameters",
    "t_n",
    "dispersion_l",
    "SpectralFunction",
    "SeriesExpansion",
    "u0",
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
