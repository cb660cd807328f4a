"""One-dimensional vacuum energy by spectral decomposition.

Eigenmode sums, closed-orbit (image) sums, and elementary closed forms
for the cylinder kernel, heat kernel, spectral densities, and vacuum
energies of the interval, half-line, and twisted circle -- three routes
to every number, kept honest against each other.

Every public name and submodule loads on first use (PEP 562), so
``import vacuum1d`` imports none of them.  The closed-form energies and
densities (``energy``, ``spectrum``, and ``series``, the plain-float half
of the summation layer) import numpy only inside their array functions
and never load ``summation``, the lattice sums and quadrature;
``kernels``, ``orbits`` and ``verify`` import numpy on load.
"""

import importlib

__version__ = "1.0.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "errors": (
        "AtEigenvalue",
        "ContinuousSpectrum",
        "InvalidParameter",
        "NonConvergent",
        "OutOfDomain",
        "UnsupportedGeometry",
        "VacuumError",
    ),
    "spectrum": (
        "DIRICHLET",
        "NEUMANN",
        "BoundaryCondition",
        "CountingDecomposition",
        "Geometry",
        "HalfLine",
        "Interval",
        "TwistedCircle",
        "counting_decomposition",
        "counting_function",
        "eigenfunction_density",
        "eigenvalues",
    ),
    "orbits": (
        "DIRICHLET_KERNEL",
        "ORBIT_SUM",
        "DeltaAtom",
        "GlobalDensity",
        "LocalDensity",
        "global_density_decomposition",
        "green_im_diag",
        "local_counting",
        "local_spectral_density",
    ),
    "kernels": (
        "CLOSED_FORM",
        "IMAGE_SUM",
        "MODE_SUM",
        "KernelValue",
        "cylinder_kernel",
        "cylinder_trace",
        "heat_kernel_diag",
        "heat_trace",
    ),
    "energy": (
        "ApproximationReport",
        "ApproximationRow",
        "CylinderExpansion",
        "EnergyBreakdown",
        "Theorem1Report",
        "approximation_report",
        "energy_density_regularized",
        "energy_density_renormalized",
        "extract_cylinder_coefficients",
        "orbit_energy_contribution",
        "theorem1_check",
        "total_energy_regularized",
        "total_energy_renormalized",
        "twisted_energy",
        "twisted_energy_orbit_sum",
    ),
    "series": (
        "ABEL",
        "RAW",
        "RIESZ_CESARO_2",
        "SeriesControl",
        "SeriesValue",
        "bernoulli_cos_sum",
        "bernoulli_sin_sum",
        "riesz_cesaro2_energy_integrand",
    ),
    "summation": ("lattice_sum",),
    "verify": ("CheckResult", "run_checks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # the next lookup is a plain attribute read
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
