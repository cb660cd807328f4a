"""One-dimensional vacuum energy by spectral decomposition.

Eigenmode sums, closed-orbit (image) sums, and elementary closed forms
for the cylinder kernel, heat kernel, spectral densities, and vacuum
energies of the interval, half-line, and twisted circle -- three routes
to every number, kept honest against each other.
"""

from .errors import (
    AtEigenvalue,
    ContinuousSpectrum,
    IllConditionedFit,
    InvalidParameter,
    NonConvergent,
    OutOfDomain,
    UnsupportedGeometry,
    VacuumError,
)
from .spectrum import (
    DIRICHLET,
    NEUMANN,
    BoundaryCondition,
    CountingDecomposition,
    Geometry,
    HalfLine,
    Interval,
    TwistedCircle,
    counting_decomposition,
    counting_function,
    eigenfunction_density,
    eigenvalues,
)
from .orbits import (
    BOUNDARY_ODD,
    DIRECT,
    DIRICHLET_KERNEL,
    ORBIT_SUM,
    PERIODIC,
    DeltaAtom,
    GlobalDensity,
    LocalDensity,
    OrbitTerm,
    enumerate_orbits,
    global_density_decomposition,
    green_im_diag,
    local_counting,
    local_spectral_density,
)
from .kernels import (
    CLOSED_FORM,
    IMAGE_SUM,
    MODE_SUM,
    KernelValue,
    cylinder_kernel,
    cylinder_trace,
    heat_kernel_diag,
    heat_trace,
)
from .energy import (
    ApproximationReport,
    ApproximationRow,
    CylinderExpansion,
    EnergyBreakdown,
    Theorem1Report,
    approximation_report,
    energy_density_regularized,
    energy_density_renormalized,
    extract_cylinder_coefficients,
    orbit_energy_contribution,
    theorem1_check,
    total_energy_regularized,
    total_energy_renormalized,
    twisted_energy,
    twisted_energy_orbit_sum,
)
from .summation import (
    ABEL,
    RAW,
    RIESZ_CESARO_2,
    SeriesControl,
    SeriesValue,
    abel_cos_integral,
    bernoulli_cos_sum,
    bernoulli_sin_sum,
    lattice_sum,
    mittag_leffler_sum,
    poisson_check,
    riesz_cesaro2_energy_integrand,
    telescoping_check,
)

__version__ = "1.0.0"

__all__ = [
    "ABEL",
    "ApproximationReport",
    "ApproximationRow",
    "AtEigenvalue",
    "BOUNDARY_ODD",
    "BoundaryCondition",
    "CLOSED_FORM",
    "CheckResult",
    "ContinuousSpectrum",
    "CountingDecomposition",
    "CylinderExpansion",
    "DIRECT",
    "DIRICHLET",
    "DIRICHLET_KERNEL",
    "DeltaAtom",
    "EnergyBreakdown",
    "Geometry",
    "GlobalDensity",
    "HalfLine",
    "IMAGE_SUM",
    "IllConditionedFit",
    "Interval",
    "InvalidParameter",
    "KernelValue",
    "LocalDensity",
    "MODE_SUM",
    "NEUMANN",
    "NonConvergent",
    "ORBIT_SUM",
    "OrbitTerm",
    "OutOfDomain",
    "PERIODIC",
    "RAW",
    "RIESZ_CESARO_2",
    "SeriesControl",
    "SeriesValue",
    "Theorem1Report",
    "TwistedCircle",
    "UnsupportedGeometry",
    "VacuumError",
    "abel_cos_integral",
    "approximation_report",
    "bernoulli_cos_sum",
    "bernoulli_sin_sum",
    "counting_decomposition",
    "counting_function",
    "cylinder_kernel",
    "cylinder_trace",
    "eigenfunction_density",
    "eigenvalues",
    "energy_density_regularized",
    "energy_density_renormalized",
    "enumerate_orbits",
    "extract_cylinder_coefficients",
    "global_density_decomposition",
    "green_im_diag",
    "heat_kernel_diag",
    "heat_trace",
    "lattice_sum",
    "local_counting",
    "local_spectral_density",
    "mittag_leffler_sum",
    "orbit_energy_contribution",
    "poisson_check",
    "riesz_cesaro2_energy_integrand",
    "run_checks",
    "telescoping_check",
    "theorem1_check",
    "total_energy_regularized",
    "total_energy_renormalized",
    "twisted_energy",
    "twisted_energy_orbit_sum",
]


def __getattr__(name: str):
    # The check registry loads on first use, so importing the package (and
    # every CLI command but ``vacuum verify``) does not pay for it.
    if name in ("CheckResult", "run_checks"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
