"""The package namespace holds the command-line and README surface only."""

import kramers
import kramers.neumann

PUBLIC = sorted([
    "QuadratureError", "BudgetExhaustedError", "NonFiniteIntegrandError",
    "TailEstimateDominatesError",
    "GasParameters", "t_n", "dispersion_l",
    "SpectralFunction",
    "SeriesExpansion", "u0", "build_series", "pole_residual",
    "VelocityProfile", "DimensionalContext", "slip_velocity",
    "slip_coefficient_kv", "velocity_profile", "distribution_function",
    "gamma_from_physical", "dimensional_slip",
    "__version__",
])


def test_all_is_the_agreed_surface():
    assert sorted(kramers.__all__) == PUBLIC


def test_every_name_resolves():
    for name in kramers.__all__:
        assert getattr(kramers, name) is not None, name


def test_series_has_one_producer():
    """U_n and E_n come only from build_series."""
    for name in ("u_coefficient", "e_n"):
        assert not hasattr(kramers.neumann, name), name
        assert name not in kramers.neumann.__all__
