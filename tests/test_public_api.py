"""The package namespace holds the command-line and README surface only."""

import ast
import dataclasses
from pathlib import Path

import pytest

import kramers
import kramers.kernels
import kramers.neumann
import kramers.oracle
import kramers.quadrature
import kramers.special_integrals
import kramers.transport

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


@pytest.mark.parametrize("cls, fields", [
    (kramers.SpectralFunction, ["nodes", "values", "label", "(c)"]),
    (kramers.VelocityProfile, ["x_nodes", "u_continuum", "u_sl", "g_v", "(u_total)"]),
    (kramers.DimensionalContext, ["nu", "beta", "(mean_free_path)"]),
    (kramers.GasParameters, ["gamma", "q", "g_v"]),
    (kramers.SeriesExpansion,
     ["gamma", "order", "u_coeffs", "phi_funcs", "e_funcs", "diagnostics"]),
])
def test_public_shapes(cls, fields):
    """The fields of each public record, a derived one in parentheses: a
    value stored twice or taken as a redundant input fails here first."""
    assert [f.name if f.init else f"({f.name})" for f in dataclasses.fields(cls)] == fields


def test_duplicate_paths_stay_gone():
    """One T_n(0) table, one inline oracle T_n, a context built from nu
    and beta alone, densities summed only inside the transforms, so that
    every SpectralFunction is built and checked by its constructor, one
    fixed quadrature tolerance, which no function takes as ``rel_tol``, and
    one order per moment integral, checked by the one scalar order rule."""
    for owner, name in ((kramers.special_integrals, "t_moment"),
                        (kramers.quadrature, "check_rel_tol"),
                        (kramers.oracle, "_t_inline"),
                        (kramers.DimensionalContext, "from_frequency"),
                        (kramers.kernels, "weighted_sum"),
                        (kramers.SpectralFunction, "_freeze"),
                        (kramers.transport, "_combined_density"),
                        (kramers.special_integrals, "check_orders"),
                        (kramers.special_integrals, "_powers"),
                        (kramers.special_integrals, "_family")):
        assert not hasattr(owner, name), name
    for name in ("t_moment", "check_orders"):
        assert name not in kramers.special_integrals.__all__
    bypasses = [
        path.stem
        for path in sorted(Path(kramers.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert bypasses == []
    takes_tol = [
        f"{path.stem}.{node.name}"
        for path in sorted(Path(kramers.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and "rel_tol" in [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]
    ]
    assert takes_tol == []


#: every private name a module imports from a sibling, (module, source, name);
#: the benchmark tracer rebinds some of them by name (see perfbench/tracing.py)
PRIVATE_IMPORTS = sorted([
    ("kernels", "quadrature", "_gk_rule"),
    ("kernels", "quadrature", "_log_tail"),
    ("kernels", "quadrature", "_tail_points"),
    ("neumann", "kernels", "_KernelTable"),
    ("neumann", "kernels", "_apply_table"),
    ("neumann", "quadrature", "_log_integral"),
    ("neumann", "quadrature", "_tail_guard"),
    ("neumann", "quadrature", "_integrate_spectral_detail"),
    ("transport", "quadrature", "_fit_log_tail"),  # tracer-bound
    ("transport", "quadrature", "_log_integral"),
    ("transport", "quadrature", "_tail_guard"),
    ("transport", "quadrature", "_tail_points"),
])


def test_private_cross_module_imports_are_pinned():
    """A new private coupling between modules fails here; removing one
    shortens the list."""
    found = []
    for path in sorted(Path(kramers.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found += [(path.stem, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    assert sorted(found) == PRIVATE_IMPORTS


#: the imports no module reads, which the benchmark tracer rebinds by name
#: (see perfbench/tracing.py), each marked ``# noqa: F401``
TRACER_ONLY = sorted([
    ("kernels", "integrate_spectral"),
    ("neumann", "apply_kernel"),
    ("neumann", "integrate_spectral"),
    ("transport", "integrate_spectral"),
])


def test_every_import_is_used():
    """Each name a module imports is read there or listed in its __all__,
    unless its import is marked ``# noqa: F401``."""
    unused, exempt = [], []
    for path in sorted(Path(kramers.__file__).parent.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        noqa = {i for i, line in enumerate(source.splitlines(), 1) if "# noqa: F401" in line}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read.update(*(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and [getattr(t, "id", None) for t in node.targets] == ["__all__"]))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            marked = noqa.intersection(range(node.lineno, node.end_lineno + 1))
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if marked:
                    exempt.append((path.stem, name))
                elif name not in read:
                    unused.append((path.stem, name))
    assert unused == []
    assert sorted(exempt) == TRACER_ONLY
