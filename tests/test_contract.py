"""The input contract of every public entry.

One scalar rule (:func:`vacuum1d.errors.as_real`), one count rule
(:func:`vacuum1d.errors.as_count`) and one point rule
(:func:`vacuum1d.spectrum.as_point`) decide what each entry accepts.  Each
row below is one argument of one entry, on one geometry: every bad value
raises :class:`InvalidParameter` or :class:`OutOfDomain` (never
``ValueError``, ``TypeError``, ``OverflowError``, a number or nan, and no
numpy warning), and numpy float32, float64 and int64 values give the bits
of the equal Python float (of the equal int, for a count).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from vacuum1d import (
    DIRICHLET,
    NEUMANN,
    RIESZ_CESARO_2,
    HalfLine,
    Interval,
    InvalidParameter,
    OutOfDomain,
    SeriesControl,
    TwistedCircle,
    counting_decomposition,
    counting_function,
    cylinder_kernel,
    cylinder_trace,
    eigenfunction_density,
    eigenvalues,
    energy_density_regularized,
    energy_density_renormalized,
    enumerate_orbits,
    global_density_decomposition,
    green_im_diag,
    heat_kernel_diag,
    heat_trace,
    local_counting,
    local_spectral_density,
    orbit_energy_contribution,
    total_energy_regularized,
    twisted_energy,
    twisted_energy_orbit_sum,
)

pytestmark = pytest.mark.filterwarnings("error")

NOT_ONE_REAL = [np.array([0.3, 0.4]), np.array([0.3]), np.array(0.3), [0.3], "0.3", 0.3j, 10**400]
NOT_FINITE = [math.nan, math.inf, -math.inf]
BAD_SCALAR = NOT_ONE_REAL + NOT_FINITE
BAD_COUNT = BAD_SCALAR + [2.5]
# a kernel point may be an array; as one number it follows the point rule
BAD_KERNEL_POINT = ["0.3", [0.3j], 0.3j, 10**400] + NOT_FINITE

DD, ND = Interval(1.0), Interval(1.0, NEUMANN, DIRICHLET)
TWISTED, HALF = TwistedCircle(1.0, 2.0), HalfLine(DIRICHLET)
LABELS = {DD: "D/D", ND: "N/D", TWISTED: "twisted", HALF: "half-line"}


def numpy_forms(real: float, whole: int | None = None) -> list:
    """float32 and float64 forms of ``real``, and the int64 ``whole``."""
    return [np.float32(real), np.float64(real)] + ([] if whole is None else [np.int64(whole)])


ROWS = []


def row(entry, arg, bad, good, **base):
    geometry = base.get("geometry")
    where = f"[{LABELS[geometry]}]" if geometry is not None else ""
    ROWS.append(pytest.param(entry, base, arg, bad, good, id=f"{entry.__name__}.{arg}{where}"))


# geometries
row(Interval, "length", BAD_SCALAR + [0.0, -1.0], numpy_forms(0.7, 2), length=0.7)
row(TwistedCircle, "length", BAD_SCALAR + [0.0], numpy_forms(0.7, 2), length=0.7, theta=1.0)
row(TwistedCircle, "theta", BAD_SCALAR, numpy_forms(0.7, 2), length=1.0, theta=0.7)
# kernels
for g in (DD, TWISTED, HALF):
    row(cylinder_kernel, "t", BAD_SCALAR + [0.0], numpy_forms(0.3, 1), geometry=g, t=0.3, x=0.4)
    for arg in ("x", "y"):
        row(cylinder_kernel, arg, BAD_KERNEL_POINT, numpy_forms(0.3, 1), geometry=g, t=0.3, x=0.4,
            y=0.6)
    row(heat_kernel_diag, "t", BAD_SCALAR, numpy_forms(0.3, 1), geometry=g, t=0.3, x=0.4)
    row(heat_kernel_diag, "x", BAD_SCALAR, numpy_forms(0.3, 1), geometry=g, t=0.3, x=0.4)
row(cylinder_kernel, "y", [[0.1, 0.2, 0.3]], numpy_forms(0.3, 1), geometry=DD, t=0.3, x=[0.2, 0.4],
    y=0.6)
for g in (DD, TWISTED):
    row(cylinder_trace, "t", BAD_SCALAR, numpy_forms(0.3, 1), geometry=g, t=0.3)
    row(heat_trace, "t", BAD_SCALAR, numpy_forms(0.3, 1), geometry=g, t=0.3)
# energies and densities
for g in (DD, ND, TWISTED):
    row(total_energy_regularized, "t", BAD_SCALAR, numpy_forms(0.3, 2), geometry=g, t=0.3)
for g in (DD, ND, TWISTED, HALF):
    whole = None if isinstance(g, Interval) else 1  # an int inside the open domain
    row(energy_density_regularized, "t", BAD_SCALAR + [0.0], numpy_forms(0.3, 1), geometry=g,
        t=0.3, x=0.4, xi=0.25)
    row(energy_density_regularized, "x", BAD_SCALAR, numpy_forms(0.3, whole), geometry=g,
        t=0.3, x=0.4, xi=0.25)
    row(energy_density_regularized, "xi", BAD_SCALAR, numpy_forms(0.3, 0), geometry=g,
        t=0.3, x=0.4, xi=0.25)
    row(energy_density_renormalized, "x", BAD_SCALAR, numpy_forms(0.3, whole), geometry=g,
        x=0.4, xi=0.25)
    row(energy_density_renormalized, "xi", BAD_SCALAR, numpy_forms(0.3, 0), geometry=g,
        x=0.4, xi=0.25)
for entry in (twisted_energy, twisted_energy_orbit_sum):
    row(entry, "theta", BAD_SCALAR, numpy_forms(0.7, 2), theta=0.7, length=1.0)
    row(entry, "length", BAD_SCALAR, numpy_forms(0.7, 2), theta=0.7, length=1.0)
row(orbit_energy_contribution, "n", BAD_COUNT, [np.int64(2), 2.0, np.float64(2.0)], n=2,
    length=1.0)
for arg in ("length", "theta"):
    row(orbit_energy_contribution, arg, BAD_SCALAR, numpy_forms(0.7, 2), n=2, length=0.7,
        theta=0.7)
row(orbit_energy_contribution, "t", BAD_SCALAR, numpy_forms(0.3, 1), n=2, length=1.0, t=0.3)
row(orbit_energy_contribution, "omega_max", NOT_ONE_REAL + [math.nan, -math.inf],
    numpy_forms(30.5, 30), n=2, length=1.0, method=RIESZ_CESARO_2, omega_max=30.5)
# orbits and spectral densities
for g in (DD, TWISTED, HALF):
    whole = None if isinstance(g, Interval) else 1
    for entry in (green_im_diag, local_spectral_density, local_counting):
        row(entry, "omega", BAD_SCALAR, numpy_forms(3.3, 3), geometry=g, omega=3.3, x=0.4)
        row(entry, "x", BAD_SCALAR, numpy_forms(0.3, whole), geometry=g, omega=3.3, x=0.4)
    for arg in ("x", "y"):
        row(enumerate_orbits, arg, BAD_SCALAR, numpy_forms(0.3, whole), geometry=g, x=0.4, y=0.6,
            max_winding=3)
    row(enumerate_orbits, "max_winding", BAD_COUNT, [np.int64(3), 3.0, np.float64(3.0)],
        geometry=g, x=0.4, y=0.6, max_winding=3)
# spectra
for g in (DD, TWISTED):
    row(global_density_decomposition, "omega", BAD_SCALAR, numpy_forms(3.3, 3), geometry=g,
        omega=3.3)
    row(eigenvalues, "omega_max", BAD_SCALAR, numpy_forms(30.5, 30), geometry=g, omega_max=30.5)
    row(counting_function, "omega", BAD_SCALAR, numpy_forms(30.5, 30), geometry=g, omega=30.5)
    row(counting_decomposition, "omega", BAD_SCALAR, numpy_forms(1.3, 1), geometry=g, omega=1.3)
    row(counting_decomposition, "tol_eigen", BAD_SCALAR, numpy_forms(1e-9, 0), geometry=g,
        omega=1.3, tol_eigen=1e-9)
    row(eigenfunction_density, "j", BAD_COUNT, [np.int64(3), 3.0, np.float64(3.0)], geometry=g,
        j=3, x=0.4)
    row(eigenfunction_density, "x", BAD_SCALAR, numpy_forms(0.3), geometry=g, j=3, x=0.4)
# series control
row(SeriesControl, "max_terms", BAD_COUNT + [0], [np.int64(500), 500.0, np.float64(500.0)],
    max_terms=500)
row(SeriesControl, "tol", NOT_ONE_REAL + [math.nan, -math.inf, 0.0], numpy_forms(1e-3, 1),
    tol=1e-3)
row(SeriesControl, "damping_t", BAD_SCALAR, numpy_forms(0.1, 1), damping_t=0.1)


@pytest.mark.parametrize("entry,base,arg,bad,good", ROWS)
def test_every_argument_follows_its_input_rule(entry, base, arg, bad, good):
    for value in bad:
        # a value that is not a float breaks a scalar or count rule; a bad
        # float may instead lie outside a point's domain
        expected = InvalidParameter if type(value) is not float else (InvalidParameter, OutOfDomain)
        with pytest.raises(expected):
            entry(**{**base, arg: value})
    for value in good:
        plain = int(value) if isinstance(base[arg], int) else float(value)
        assert repr(entry(**{**base, arg: value})) == repr(entry(**{**base, arg: plain})), value


@pytest.mark.parametrize("length", numpy_forms(0.7, 2), ids=repr)
@pytest.mark.parametrize("ends", [(DIRICHLET, DIRICHLET), (NEUMANN, DIRICHLET)], ids=["D/D", "N/D"])
def test_a_numpy_length_gives_the_bits_of_the_equal_float_on_every_route(length, ends):
    # a float32 length once carried its rounding into every route, and the
    # image route warned of an overflow in a cast
    def outputs(geometry):
        x = 0.3 * geometry.length
        kernels = [cylinder_kernel(geometry, 0.1, x, method=m)
                   for m in ("closed-form", "image-sum", "mode-sum")]
        return repr((geometry, kernels, energy_density_regularized(geometry, 0.1, x),
                     local_spectral_density(geometry, 3.3, x), eigenvalues(geometry, 30.0)))

    assert outputs(Interval(length, *ends)) == outputs(Interval(float(length), *ends))
