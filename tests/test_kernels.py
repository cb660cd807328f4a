"""Cylinder and heat kernels: three routes against brute mode sums.

For t of order one the eigenmode series converge superexponentially, so
a 200-term direct sum is an oracle exact to rounding; every route must
hit it.  The small-t structure (the part the closed forms exist to
tame) is probed through the fitted 1/t and constant coefficients.
"""

import math

import mpmath
import numpy as np
import pytest

from vacuum1d import kernels
from vacuum1d.errors import ContinuousSpectrum, InvalidParameter, OutOfDomain, VacuumError
from vacuum1d.kernels import (
    CLOSED_FORM,
    IMAGE_SUM,
    MODE_SUM,
    cylinder_kernel,
    cylinder_trace,
    heat_kernel_diag,
    heat_trace,
)
from vacuum1d.spectrum import (
    DIRICHLET,
    NEUMANN,
    HalfLine,
    Interval,
    TwistedCircle,
    eigenfunction_density,
    eigenvalues,
)
from vacuum1d.summation import SeriesControl

PI = math.pi

ROUTES = (MODE_SUM, IMAGE_SUM, CLOSED_FORM)


def mode_index_origin(geometry) -> int:
    return 1 if (
        isinstance(geometry, Interval)
        and geometry.left is DIRICHLET
        and geometry.right is DIRICHLET
    ) else 0


def brute_cylinder_diag(geometry, t: float, x: float) -> float:
    """sum_j |phi_j(x)|^2 e^{-omega_j t} over the full discrete ladder."""
    j0 = mode_index_origin(geometry)
    total = 0.0
    for j, (omega_j, mult) in enumerate(eigenvalues(geometry, 600.0 / t), start=j0):
        total += mult * eigenfunction_density(geometry, j, x) * math.exp(-omega_j * t)
    return total


def brute_trace(geometry, t: float, heat: bool = False) -> float:
    total = 0.0
    cut = (600.0 / t) if not heat else math.sqrt(600.0 / t)
    for omega_j, mult in eigenvalues(geometry, cut):
        total += mult * math.exp(-(omega_j**2) * t if heat else -omega_j * t)
    return total


GEOMETRIES = [
    Interval(1.0, DIRICHLET, DIRICHLET),
    Interval(1.0, NEUMANN, NEUMANN),
    Interval(0.8, DIRICHLET, NEUMANN),
    TwistedCircle(1.0, 2.2),
    TwistedCircle(1.3, 0.0),
]


# ---------------------------------------------------------------------------
# Diagonal cylinder kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
@pytest.mark.parametrize("t", [0.3, 1.0])
def test_all_routes_hit_the_brute_mode_sum(geometry, t):
    x = 0.37 * geometry.length
    ref = brute_cylinder_diag(geometry, t, x)
    for method in ROUTES:
        got = cylinder_kernel(geometry, t, x, method=method)
        # Each route must honour its own error claim; the image route's
        # tail completion carries its remainder and rounding bound
        # (~1e-12 at the default tol), the others are at float rounding.
        budget = 2.0 * got.truncation_bound + 1e-12
        assert abs(got.value - ref) <= budget, (method, got.value - ref, budget)


def test_dirichlet_midpoint_closed_value():
    # T(1, 1/2, 1/2) on the unit Dirichlet interval: the odd modes give
    # 2 e^{-pi}/(1 - e^{-2 pi}) = 1/sinh(pi).
    got = cylinder_kernel(Interval(1.0, DIRICHLET, DIRICHLET), 1.0, 0.5)
    assert got.value == pytest.approx(1.0 / math.sinh(PI), rel=1e-14)


def test_halfline_diagonal_closed_form():
    # Free diagonal 1/(pi t) plus one image across the wall.
    t, x = 0.7, 0.4
    for condition, sgn in [(DIRICHLET, -1.0), (NEUMANN, 1.0)]:
        ref = 1.0 / (PI * t) + sgn * t / (PI * (t * t + 4.0 * x * x))
        for method in ROUTES:
            got = cylinder_kernel(HalfLine(condition), t, x, method=method)
            assert got.value == pytest.approx(ref, rel=1e-9), method


@pytest.mark.parametrize("condition", [DIRICHLET, NEUMANN], ids=str)
def test_halfline_closed_form_keeps_relative_accuracy_at_tiny_t(condition):
    # (t/pi)/(d^2 + t^2) is evaluated in units of max(|d|, t): t*t no
    # longer goes subnormal (1e-5 off at t = 1e-160) or underflows.  Where
    # x + y overflows, the reflected image is taken in half units: it once
    # raised InvalidParameter, though the kernel is 1/(pi t) there.
    sign = -1 if condition is DIRICHLET else 1
    for t, x, y in ((1e-160, 0.5, 0.5), (1e-200, 0.5, 0.5), (1e-160, 0.3, 0.7), (3e-300, 0.0, 1e-300),
                    (1.0, 1e308, 1e308), (1e300, 1.7e308, 0.9e308)):
        with mpmath.workdps(40):
            tm, xm, ym = mpmath.mpf(t), mpmath.mpf(x), mpmath.mpf(y)
            want = float(tm / mpmath.pi * (1 / ((xm - ym) ** 2 + tm**2)
                                           + sign / ((xm + ym) ** 2 + tm**2)))
        for method in (IMAGE_SUM, CLOSED_FORM):
            got = cylinder_kernel(HalfLine(condition), t, x, y, method=method).value
            assert got == pytest.approx(want, rel=4 * 2.0**-52, abs=0.0), (t, x, y, method)
            grid = cylinder_kernel(HalfLine(condition), t, [x, 0.5], [y, 0.7], method=method)
            assert grid.value[0] == got, (t, x, y, method)


def test_halfline_kernel_at_the_smallest_t_raises_on_every_route():
    # The diagonal 1/(pi t) overflows at t = 5e-324; the mode route cannot
    # scale its integral by 1/(pi t) there even off the diagonal.
    for method in ROUTES:
        with pytest.raises(InvalidParameter):
            cylinder_kernel(HalfLine(DIRICHLET), 5e-324, 0.5, method=method)
    with pytest.raises(InvalidParameter):
        cylinder_kernel(HalfLine(DIRICHLET), 5e-324, 0.5, 0.7, method=MODE_SUM)


def test_dirichlet_wall_value_is_zero():
    assert cylinder_kernel(Interval(1.0, DIRICHLET, DIRICHLET), 0.5, 0.0, 0.3).value == 0.0


def test_off_diagonal_interval_is_symmetric():
    geom = Interval(1.0, DIRICHLET, NEUMANN)
    a = cylinder_kernel(geom, 0.6, 0.2, 0.7)
    b = cylinder_kernel(geom, 0.6, 0.7, 0.2)
    assert a.value == pytest.approx(b.value, rel=1e-13)


def test_twisted_off_diagonal_is_hermitian_and_falls_back():
    geom = TwistedCircle(1.0, 2.2)
    a = cylinder_kernel(geom, 0.4, 0.1, 0.5, method=CLOSED_FORM)
    b = cylinder_kernel(geom, 0.4, 0.5, 0.1, method=CLOSED_FORM)
    assert isinstance(a.value, complex)
    assert a.value == pytest.approx(b.value.conjugate(), rel=1e-12)
    # No elementary off-diagonal closed form: the fallback is reported.
    assert a.method == MODE_SUM
    # The diagonal does have one.
    assert cylinder_kernel(geom, 0.4, 0.1, method=CLOSED_FORM).method == CLOSED_FORM


def test_twisted_off_diagonal_matches_direct_mode_sum():
    # Independent complex mode sum e^{i k (x-y)} e^{-|k| t} / L over the
    # twisted lattice k = (2 pi j + theta)/L, j in Z.
    length, theta, t, x, y = 1.0, 2.2, 0.4, 0.1, 0.5
    j = np.arange(-4000, 4001)
    k = (2.0 * PI * j + theta) / length
    ref = complex(np.sum(np.exp(1j * k * (x - y)) * np.exp(-np.abs(k) * t)) / length)
    got = cylinder_kernel(TwistedCircle(length, theta), t, x, y)
    assert got.value == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.05, 2.2, PI])
@pytest.mark.parametrize("t", [0.05, 0.4, 1.0])
def test_twisted_off_diagonal_image_sum_meets_its_bound(theta, t):
    # Same independent mode sum; the image lattice is tail-completed for
    # every theta, including theta = 0 where its weights are real.
    length, x, y = 1.0, 0.85, 0.37
    j = np.arange(-20000, 20001)
    k = (2.0 * PI * j + theta) / length
    ref = complex(np.sum(np.exp(1j * k * (x - y)) * np.exp(-np.abs(k) * t)) / length)
    got = cylinder_kernel(TwistedCircle(length, theta), t, x, y, method=IMAGE_SUM)
    assert isinstance(got.value, complex)
    assert abs(got.value - ref) <= got.truncation_bound + 1e-13
    assert got.truncation_bound <= 1e-12
    assert got.terms_used <= 1000


def test_mixed_ends_image_sum_on_the_verify_grid():
    # The D/N lattice alternates; both tails are completed, so the image
    # route meets the closed form to rounding over the registry's grid.
    geom = Interval(1.0, DIRICHLET, NEUMANN)
    worst = 0.0
    for t in np.geomspace(1e-2, 1.0, 20):
        for x in np.linspace(0.05, 0.95, 20):
            closed = cylinder_kernel(geom, float(t), float(x)).value
            image = cylinder_kernel(geom, float(t), float(x), method=IMAGE_SUM)
            err = abs(image.value - closed)
            assert err <= image.truncation_bound
            worst = max(worst, err / (1.0 + abs(closed)))
    assert worst <= 1e-13


def mp_mode_sum(geometry, t: float, x: float, y: float) -> complex:
    """The whole mode sum in closed form at 40 digits: geometric series in
    the frequencies omega_j = (j + delta) pi/L (interval) or
    k = (2 pi n + theta)/L (circle), from the exact float inputs."""
    with mpmath.workdps(40):
        length, t, x, y = (mpmath.mpf(v) for v in (geometry.length, t, x, y))
        if isinstance(geometry, TwistedCircle):
            theta, d = mpmath.mpf(geometry.theta), x - y
            right = (t - 1j * d) / length  # k > 0: n >= 0
            left = (t + 1j * d) / length  # k < 0: n >= 1
            val = mpmath.exp(-right * theta) / (1 - mpmath.exp(-2 * mpmath.pi * right))
            val += mpmath.exp(left * (theta - 2 * mpmath.pi)) / (
                1 - mpmath.exp(-2 * mpmath.pi * left)
            )
            return complex(val / length)
        # phi_j(x) phi_j(y) = (1/L)[cos(omega (x - y)) -/+ cos(omega (x + y))],
        # minus for a Dirichlet left end; a like-ends j = 0 term counts half.
        delta = 0 if geometry.like_ends else mpmath.mpf(1) / 2
        half = mpmath.mpf(1) / 2 if geometry.like_ends else 0

        def series(d):
            z = mpmath.pi * (-t + 1j * d) / length
            return mpmath.exp(z * delta) / (1 - mpmath.exp(z)) - half

        sign = -1 if geometry.left is DIRICHLET else 1
        return complex(mpmath.re(series(x - y) + sign * series(x + y)) / length)


@pytest.mark.parametrize(
    "geometry",
    [
        Interval(1.0, DIRICHLET, DIRICHLET),
        Interval(0.6, DIRICHLET, NEUMANN),
        Interval(2.5, NEUMANN, DIRICHLET),
        Interval(1.0, NEUMANN, NEUMANN),
        TwistedCircle(1.0, 0.0),
        TwistedCircle(2.5, PI),
        TwistedCircle(1.0, 2.2),
    ],
    ids=repr,
)
def test_mode_sum_bound_covers_its_rounding(geometry):
    """|mode - exact| <= truncation_bound on a 20 x 20 (t, x) grid, on the
    diagonal and off it (alternately in the bulk and next to a wall), with
    no allowance outside the bound."""
    length = geometry.length
    for t in np.geomspace(1e-3, 10.0, 20) * length:
        for i, x in enumerate(np.linspace(0.0, 1.0, 22)[1:-1] * length):
            for y in (x, 0.37 * length if i % 2 else (1.0 - 1e-5) * length):
                got = cylinder_kernel(geometry, t, x, y, method=MODE_SUM)
                err = abs(got.value - mp_mode_sum(geometry, t, x, y))
                assert err <= got.truncation_bound, (t, x, y, err, got.truncation_bound)


@pytest.mark.parametrize("condition", [DIRICHLET, NEUMANN], ids=str)
def test_halfline_mode_route_meets_the_closed_form_within_its_bound(condition):
    """The continuum mode integral against the two-Lorentzian closed form,
    with no allowance outside its own bound, for t in [1e-8, 1e3] on
    diagonal and off-diagonal points of (0, 3]."""
    geom = HalfLine(condition)
    points = [(x, y) for x in (1e-3, 0.05, 0.5, 0.75, 1.7, 3.0) for y in (x, 0.92, 2.2)]
    cases = [(float(t), x, y) for t in np.geomspace(1e-8, 1e3, 34) for x, y in points]
    cases += [(1e-6, 0.5, 0.5), (3.4e-7, 0.75, 0.92), (3e-6, 0.5, 0.5)]
    for t, x, y in cases:
        got = cylinder_kernel(geom, t, x, y, method=MODE_SUM)
        want = cylinder_kernel(geom, t, x, y, method=CLOSED_FORM).value
        assert abs(got.value - want) <= got.truncation_bound, (t, x, y, got, want)
    # the diagonal point where the adaptive quadrature once returned -0.318
    got = cylinder_kernel(HalfLine(DIRICHLET), 1e-6, 0.5, method=MODE_SUM)
    assert got.value == pytest.approx(1.0 / (PI * 1e-6), rel=1e-12)


def test_image_sum_cap_gives_a_larger_honest_bound():
    geom = Interval(1.0, DIRICHLET, NEUMANN)
    closed = cylinder_kernel(geom, 0.5, 0.3, 0.6).value
    capped = cylinder_kernel(geom, 0.5, 0.3, 0.6, IMAGE_SUM, SeriesControl(max_terms=3))
    assert capped.terms_used == 14
    assert 1e-10 < capped.truncation_bound
    assert abs(capped.value - closed) <= capped.truncation_bound


def mp_interval_kernel(geometry, t, x, y):
    """The interval closed form in sinh/cosh, at 40 + 3t/L digits: the
    like-ends difference S(x - y) - S(x + y) cancels to e^{-pi t/L}."""
    with mpmath.workdps(int(40 + 3 * t / geometry.length)):
        length, t, x, y = (mpmath.mpf(v) for v in (geometry.length, t, x, y))
        z = mpmath.pi * t / (2 * length)
        sign = -1 if geometry.left is DIRICHLET else 1

        def den(d):
            return mpmath.cosh(2 * z) - mpmath.cos(mpmath.pi * d / length)

        if geometry.left is geometry.right:
            val = mpmath.sinh(2 * z) * (1 / den(x - y) + sign / den(x + y)) / (2 * length)
        else:
            val = mpmath.sinh(z) * (
                mpmath.cos(mpmath.pi * (x - y) / (2 * length)) / den(x - y)
                + sign * mpmath.cos(mpmath.pi * (x + y) / (2 * length)) / den(x + y)
            ) / length
        return float(val)


@pytest.mark.parametrize(
    "geometry",
    [
        Interval(1.0, DIRICHLET, DIRICHLET),
        Interval(1.0, NEUMANN, DIRICHLET),
        Interval(1.0, DIRICHLET, NEUMANN),
    ],
    ids=str,
)
@pytest.mark.parametrize(
    "t, x, y",
    # Up to t/L = 175 the D/D closed form once returned S(x - y) - S(x + y)
    # as two terms near 1 (2.5e-3 off at t = 10, 0.0 at t = 20), and D/N lost
    # 1.8e-11 next to its Dirichlet wall at t = 23; 227 is where sinh(z)^2
    # once overflowed.
    [(10.0, 0.3, 0.6), (20.0, 0.3, 0.6), (100.0, 0.3, 0.6), (23.0, 0.001, 0.001),
     (227.0, 0.5, 0.3)],
)
def test_interval_kernel_far_past_the_length_scale(geometry, t, x, y):
    got = cylinder_kernel(geometry, t, x, y)
    want = mp_interval_kernel(geometry, t, x, y)
    assert got.value == pytest.approx(want, rel=1e-12, abs=0.0)
    # the ground-state asymptote (2/L) e^{-omega_0 t} phi_0(x) phi_0(y) is
    # exact to e^{-pi t/L} relative
    omega0 = PI if geometry.left is geometry.right else PI / 2.0
    phi = math.sin if geometry.left is DIRICHLET else math.cos
    ground = 2.0 * math.exp(-omega0 * t) * phi(omega0 * x) * phi(omega0 * y)
    assert got.value == pytest.approx(ground, rel=1e-9, abs=0.0)
    image = cylinder_kernel(geometry, t, x, y, method=IMAGE_SUM)
    assert math.isfinite(image.value)
    assert abs(image.value - got.value) <= image.truncation_bound


def test_interval_trace_far_past_the_length_scale():
    t = 460.0
    assert cylinder_trace(Interval(1.0, DIRICHLET, NEUMANN), t).value == pytest.approx(
        math.exp(-PI * t / 2.0), rel=1e-6, abs=0.0
    )
    assert cylinder_trace(Interval(1.0, DIRICHLET, DIRICHLET), t).value == 0.0
    assert cylinder_trace(Interval(1.0, NEUMANN, NEUMANN), t).value == 1.0


@pytest.mark.parametrize(
    "geometry",
    [
        Interval(1.0, DIRICHLET, DIRICHLET),
        Interval(1.0, DIRICHLET, NEUMANN),
        TwistedCircle(1.0, 0.0),
        TwistedCircle(1.0, 2.0),
    ],
    ids=repr,
)
@pytest.mark.parametrize("t_over_l", [20.0, 50.0, 100.0])
def test_mode_sum_far_past_the_length_scale(geometry, t_over_l):
    # The mode route keeps its relative accuracy where every term but the
    # first is dropped; its ladder was once cut at an absolute term floor,
    # and it returned 0.0 against 1.03e-27 for D/D at t = 20 L.
    t, x = t_over_l * geometry.length, 0.5 * geometry.length
    closed = cylinder_kernel(geometry, t, x).value
    mode = cylinder_kernel(geometry, t, x, method=MODE_SUM)
    assert abs(mode.value - closed) <= mode.truncation_bound <= 1e-12 * abs(closed), (mode, closed)


def test_cylinder_kernel_validates_input():
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    with pytest.raises(InvalidParameter):
        cylinder_kernel(geom, 0.0, 0.5)
    with pytest.raises(InvalidParameter):
        cylinder_kernel(geom, 0.5, 0.5, method="bogus")
    with pytest.raises(OutOfDomain):
        cylinder_kernel(geom, 0.5, 1.2)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
@pytest.mark.parametrize("t", [0.4, 1.0])
def test_trace_routes_agree_with_brute_sum(geometry, t):
    ref = brute_trace(geometry, t)
    for method in ROUTES:
        got = cylinder_trace(geometry, t, method=method)
        budget = 2.0 * got.truncation_bound + 1e-11
        assert abs(got.value - ref) <= budget, (method, got.value - ref, budget)


def mp_closed_trace(geometry, t):
    """The closed trace in 40-digit arithmetic."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        if isinstance(geometry, Interval):
            b = mpmath.pi * t / geometry.length
            if geometry.left is geometry.right:
                return float(1 / mpmath.expm1(b) + (geometry.left is NEUMANN))
            return float(1 / (2 * mpmath.sinh(b / 2)))
        theta = mpmath.mpf(geometry.theta)
        return float(
            mpmath.cosh((mpmath.pi - theta) * t / geometry.length)
            / mpmath.sinh(mpmath.pi * t / geometry.length)
        )


@pytest.mark.parametrize("method", [MODE_SUM, IMAGE_SUM])
@pytest.mark.parametrize(
    "geometry",
    [
        Interval(1.0, DIRICHLET, DIRICHLET),
        Interval(2.5, DIRICHLET, NEUMANN),
        Interval(1.0, NEUMANN, NEUMANN),
        TwistedCircle(1.0, 0.0),
        TwistedCircle(2.5, PI),
        TwistedCircle(1.0, 2.2),
    ],
    ids=repr,
)
def test_trace_mode_sum_bound_covers_its_rounding(geometry, method):
    """|series - exact| <= truncation_bound at 60 t in [1e-3, 10] L, with no
    allowance outside the bound (the twisted mode sum at theta = 0,
    t = 0.148 L once erred by 1.03e-15 against a bound of 3.3e-16); the
    interval image route also down to t = 1e-150 L, where its pole sum
    once overflowed.  The mode route runs on to t = 100 L with a bound
    within 1e-12 of the trace: it once cut its ladder at an absolute term
    floor and returned 0.0 past t omega_1 = 36.8."""
    ts = list(np.geomspace(1e-3, 10.0, 60) * geometry.length) + [0.148 * geometry.length]
    if method == IMAGE_SUM and isinstance(geometry, Interval):
        ts += list(np.geomspace(1e-150, 1e-3, 16) * geometry.length)
    if method == MODE_SUM:
        ts += list(np.geomspace(10.0, 100.0, 13)[1:] * geometry.length)
    for t in ts:
        got = cylinder_trace(geometry, float(t), method=method)
        exact = mp_closed_trace(geometry, float(t))
        err = abs(got.value - exact)
        assert err <= got.truncation_bound, (t, err, got.truncation_bound)
        if method == MODE_SUM:
            assert got.truncation_bound <= 1e-12 * exact, (t, got.truncation_bound, exact)


def test_trace_closed_values():
    assert cylinder_trace(Interval(1.0, DIRICHLET, DIRICHLET), 1.0).value == pytest.approx(
        1.0 / (math.exp(PI) - 1.0), rel=1e-14
    )
    assert cylinder_trace(Interval(1.0, NEUMANN, NEUMANN), 1.0).value == pytest.approx(
        1.0 / (math.exp(PI) - 1.0) + 1.0, rel=1e-14
    )
    assert cylinder_trace(Interval(1.0, DIRICHLET, NEUMANN), 1.0).value == pytest.approx(
        1.0 / (2.0 * math.sinh(PI / 2.0)), rel=1e-14
    )
    assert cylinder_trace(TwistedCircle(1.0, 2.0), 0.7).value == pytest.approx(
        math.cosh((PI - 2.0) * 0.7) / math.sinh(PI * 0.7), rel=1e-14
    )


def test_trace_small_t_structure():
    # t Tr T -> L/pi, and the constant term is -1/2, +1/2, 0 by parity.
    cases = [
        (Interval(1.0, DIRICHLET, DIRICHLET), -0.5),
        (Interval(1.0, NEUMANN, NEUMANN), +0.5),
        (Interval(1.0, DIRICHLET, NEUMANN), 0.0),
        (TwistedCircle(1.0, 1.0), 0.0),
    ]
    t = 1e-4
    for geometry, e1 in cases:
        tr = cylinder_trace(geometry, t).value
        assert t * tr == pytest.approx(geometry.length / PI, abs=1e-3)
        assert tr - geometry.length / (PI * t) == pytest.approx(e1, abs=1e-3)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
def test_array_trace_helpers_match_the_scalar_calls(geometry):
    """The one-pass array helpers behind the coefficient fits give the
    scalar calls' values at every t: the closed trace to the last bit, the
    heat trace (whose ladder is cut for the smallest t, so it keeps terms
    that the scalar call at a larger t drops below 1e-16 of its largest)
    to rounding, with an absolute floor of 1e-14 for the last bits of its
    O(1) sums."""
    ts = geometry.length * np.geomspace(1e-3, 500.0, 40)
    closed = kernels._closed_trace(geometry, ts)
    for t, got in zip(ts, closed):
        assert got == cylinder_trace(geometry, float(t)).value
    heat_ts = ts[:25] ** 2 / geometry.length
    heat = kernels._heat_trace(geometry, heat_ts, SeriesControl())
    for t, got in zip(heat_ts, heat):
        assert got == pytest.approx(heat_trace(geometry, float(t)), rel=4e-16, abs=1e-14)


SCALED_GEOMETRIES = {
    "D/D": lambda length: Interval(length, DIRICHLET, DIRICHLET),
    "N/N": lambda length: Interval(length, NEUMANN, NEUMANN),
    "D/N": lambda length: Interval(length, DIRICHLET, NEUMANN),
    "N/D": lambda length: Interval(length, NEUMANN, DIRICHLET),
    "twisted 0": lambda length: TwistedCircle(length, 0.0),
    "twisted 2": lambda length: TwistedCircle(length, 2.0),
}


@pytest.mark.parametrize("name", ["D/D", "D/N", "twisted 0", "twisted 2"])
def test_interval_image_trace_is_scale_safe(name):
    # t = L for L = 1e-300 ... 1e300: the trace is free of L, and the
    # image route, a unit lattice in t/2L (interval) or t/L (twisted
    # circle), neither overflows in L^2 nor underflows in L t; the twisted
    # route at theta = 0 once raised outside 1e-45 < L < 1e39
    make = SCALED_GEOMETRIES[name]
    ref = cylinder_trace(make(1.0), 1.0, method=IMAGE_SUM).value
    for k in range(-300, 301, 20):
        length = 10.0**k
        got = cylinder_trace(make(length), length, method=IMAGE_SUM)
        assert got.value == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("name", list(SCALED_GEOMETRIES))
def test_image_route_kernels_are_scale_safe(name):
    """t = L, x = 0.3 L, y = 0.6 L for L = 1e-300 ... 1e300: the image
    route is finite and within its bound (plus 16 eps) of the closed form,
    or the mode sum where the twisted closed form falls back to it, or it
    raises a VacuumError.  The interval lattices once raised OverflowError
    from L = 1e38 and ZeroDivisionError below L = 1e-46."""
    for k in range(-300, 301, 20):
        length = 10.0**k
        geom = SCALED_GEOMETRIES[name](length)
        t, x, y = length, 0.3 * length, 0.6 * length
        try:
            closed = cylinder_kernel(geom, t, x, y)
            image = cylinder_kernel(geom, t, x, y, method=IMAGE_SUM)
        except VacuumError:
            continue
        err = abs(image.value - closed.value)
        allowed = image.truncation_bound + closed.truncation_bound + 16 * 2.0**-52 * abs(closed.value)
        assert math.isfinite(abs(image.value)) and err <= allowed, (k, image, closed)


def test_mode_sums_below_their_float_range_raise():
    # The rounding envelope divides twice by 1 - e^{-t step}; it once did so
    # through gap * gap, which underflowed to a ZeroDivisionError at t step
    # below ~1e-154.  Where the bound is not finite, the route raises.
    with pytest.raises(InvalidParameter):
        cylinder_kernel(Interval(1.0, DIRICHLET, DIRICHLET), 1e-200, 0.5, method=MODE_SUM)
    for geometry in (Interval(1.0, DIRICHLET, NEUMANN), TwistedCircle(1.0, 2.0)):
        with pytest.raises(InvalidParameter):
            cylinder_kernel(geometry, 5e-324, 0.5, method=MODE_SUM)
        with pytest.raises(InvalidParameter):
            cylinder_trace(geometry, 5e-324, method=MODE_SUM)
    # the envelope is finite here, but the mode amplitude 2/L (1/L on the
    # circle) takes the bound past the float range: it was returned as inf,
    # also where an off-diagonal twisted closed-form request falls back
    for geometry in (Interval(1e-300), TwistedCircle(1e-300, 0.0)):
        with pytest.raises(InvalidParameter, match="too small for a mode sum"):
            cylinder_kernel(geometry, 5e-324, 0.0, method=MODE_SUM)
    with pytest.raises(InvalidParameter, match="too small for a mode sum"):
        cylinder_kernel(TwistedCircle(1e-300, 0.0), 5e-324, 0.0, 3e-301)
    with pytest.raises(InvalidParameter, match="too small for a mode sum"):
        cylinder_kernel(Interval(1e-300), 5e-324, [0.0, 5e-301], method=MODE_SUM)


@pytest.mark.parametrize("length", [1.0, 1e300])
@pytest.mark.parametrize(
    "call",
    [lambda length: cylinder_trace(Interval(length), 5e-324),
     lambda length: cylinder_trace(TwistedCircle(length, 0.0), 5e-324),
     lambda length: cylinder_kernel(TwistedCircle(length, 0.0), 5e-324, 0.0)],
    ids=["interval trace", "circle trace", "circle kernel"],
)
def test_closed_traces_below_their_float_range_raise_without_a_warning(length, call):
    # e^{-b}/(1 - e^{-b}), b = pi t/L, overflows (and divides by zero at
    # L = 1e300): numpy warned before the overflow check raised, so the
    # denominator is tested first
    with pytest.raises(InvalidParameter, match="overflows"):
        call(length)


@pytest.mark.parametrize(
    "geometry,t",
    [
        (Interval(1.0, DIRICHLET, DIRICHLET), 1e308),
        (Interval(1.0, NEUMANN, NEUMANN), 1e308),
        (TwistedCircle(1.0, 0.0), 1e308),
        (TwistedCircle(1.0, 2.0), 1e308),
        (TwistedCircle(1e-300, 1.0), 1e300),
        (TwistedCircle(1e-300, 0.0), 1e300),
    ],
    ids=repr,
)
def test_mode_sums_above_their_float_range_are_exact(geometry, t):
    # Once t omega overflows every term is 0.0 (the zero mode aside); the
    # rounding envelope once took step reach e^{-t step} as inf * 0 and
    # returned a nan bound, and e^{-t omega} raised a numpy overflow warning.
    x = 0.5 * geometry.length
    for mode, closed in (
        (cylinder_kernel(geometry, t, x, method=MODE_SUM), cylinder_kernel(geometry, t, x)),
        (cylinder_trace(geometry, t, method=MODE_SUM), cylinder_trace(geometry, t)),
    ):
        assert math.isfinite(mode.truncation_bound)
        assert abs(mode.value - closed.value) <= mode.truncation_bound, (mode, closed)


def test_halfline_trace_diverges():
    with pytest.raises(ContinuousSpectrum):
        cylinder_trace(HalfLine(DIRICHLET), 0.5)


# ---------------------------------------------------------------------------
# Heat kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
def test_heat_diag_matches_brute_mode_sum(geometry):
    t, x = 0.08, 0.37 * geometry.length
    j0 = mode_index_origin(geometry)
    ref = 0.0
    for j, (omega_j, mult) in enumerate(eigenvalues(geometry, 80.0), start=j0):
        ref += mult * eigenfunction_density(geometry, j, x) * math.exp(
            -(omega_j**2) * t
        )
    assert heat_kernel_diag(geometry, t, x) == pytest.approx(ref, abs=1e-13)


def test_halfline_heat_diag_closed_form():
    t, x = 0.3, 0.4
    pref = 1.0 / math.sqrt(4.0 * PI * t)
    assert heat_kernel_diag(HalfLine(DIRICHLET), t, x) == pytest.approx(
        pref * (1.0 - math.exp(-x * x / t)), rel=1e-14
    )
    assert heat_kernel_diag(HalfLine(NEUMANN), t, x) == pytest.approx(
        pref * (1.0 + math.exp(-x * x / t)), rel=1e-14
    )


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
def test_heat_trace_matches_brute_sum(geometry):
    for t in (0.05, 0.4):
        assert heat_trace(geometry, t) == pytest.approx(
            brute_trace(geometry, t, heat=True), abs=1e-12
        )
    # far past the length scale, relative to the trace itself: the ladder
    # was once cut at an absolute term floor and gave 0.0 against
    # e^{-10 pi^2} = 1.37e-43 for D/D at t = 10 L^2
    for scaled in (1.0, 10.0, 100.0):
        t = scaled * geometry.length**2 / PI**2
        assert heat_trace(geometry, t) == pytest.approx(
            brute_trace(geometry, t, heat=True), rel=1e-14, abs=0.0
        ), t


def test_heat_trace_small_t_coefficients():
    # Tr K ~ b0 t^{-1/2} + b1 with b0 = L / sqrt(4 pi).
    cases = [
        (Interval(1.0, DIRICHLET, DIRICHLET), -0.5),
        (Interval(1.0, NEUMANN, NEUMANN), +0.5),
        (Interval(1.0, DIRICHLET, NEUMANN), 0.0),
        (TwistedCircle(1.0, 2.0), 0.0),
    ]
    t = 1e-4
    for geometry, b1 in cases:
        tr = heat_trace(geometry, t)
        b0 = geometry.length / math.sqrt(4.0 * PI)
        assert tr - b0 / math.sqrt(t) == pytest.approx(b1, abs=1e-10)


def test_heat_trace_halfline_diverges():
    with pytest.raises(ContinuousSpectrum):
        heat_trace(HalfLine(NEUMANN), 0.2)


def test_heat_kernel_validates_t():
    with pytest.raises(InvalidParameter):
        heat_kernel_diag(Interval(1.0, DIRICHLET, DIRICHLET), -0.1, 0.5)


@pytest.mark.parametrize(
    "geometry,x",
    [(Interval(1e-300, DIRICHLET, NEUMANN), 5e-301), (TwistedCircle(1e-300, 1.0), 0.0),
     (TwistedCircle(5e-324, 0.0), 0.0)],
    ids=str,
)
def test_heat_kernel_refuses_more_images_than_the_cap(geometry, x):
    # sqrt(700 t)/L ~ 1e301 images: numpy once raised "Maximum allowed size
    # exceeded", and t/L^2 ~ 1e12..1e15 would have asked for gigabytes; the
    # circle's spacing L/2 underflows to 0.0 at L = 5e-324, where a
    # ZeroDivisionError once escaped
    with pytest.raises(InvalidParameter, match="images"):
        heat_kernel_diag(geometry, 1.0, x)


def test_heat_trace_past_the_float_range_of_t_omega_squared_is_zero():
    # t omega^2 overflows on every kept rung: the terms are 0.0, and numpy
    # once warned of the overflow on the way
    assert heat_trace(Interval(1e-300), 1e-300) == 0.0


def test_image_sums_near_the_float_range_stay_finite_within_their_bounds():
    # the two lattice sums of a complex Lorentzian lattice, each near 1e308,
    # were once subtracted whole: the trace overflowed to inf, and the
    # kernel's bound did
    trace = cylinder_trace(TwistedCircle(1e8, 1.3), 1e-300, method=IMAGE_SUM)
    closed = cylinder_trace(TwistedCircle(1e8, 1.3), 1e-300)
    assert math.isfinite(trace.truncation_bound)
    assert abs(trace.value - closed.value) <= trace.truncation_bound
    kernel = cylinder_kernel(TwistedCircle(5e-324, 1.3), 1e-300, 0.0, method=IMAGE_SUM)
    closed = cylinder_kernel(TwistedCircle(5e-324, 1.3), 1e-300, 0.0)
    assert math.isfinite(kernel.truncation_bound)
    assert abs(kernel.value - closed.value) <= kernel.truncation_bound


# ---------------------------------------------------------------------------
# Point-free caches of the series routes
# ---------------------------------------------------------------------------

CACHES = (kernels._mode_rows, kernels._centred_lattice)
CACHED_GEOMETRIES = GEOMETRIES + [TwistedCircle(1.0, PI), Interval(1.0, NEUMANN, DIRICHLET)]


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def bits(kv):
    """Every output of a kernel call, exact to the bit (repr tells -0.0
    from 0.0, and arrays are compared by their bytes)."""
    def exact(v):
        return (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)

    return exact(kv.value), kv.method, exact(np.asarray(kv.terms_used)), exact(kv.truncation_bound)


def cache_row(geometry):
    """(x, y) points of one row: diagonal and off-diagonal, both ends, and
    x = -0.0, y = 0.0, whose d = x - y is -0.0."""
    fractions = [(0.3, 0.3), (0.3, 0.7), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
                 (1.0, 1.0), (0.55, 0.55), (0.9, 0.1)]
    return [(a * geometry.length, b * geometry.length) for a, b in fractions]


@pytest.mark.parametrize("method", ROUTES)
@pytest.mark.parametrize("geometry", CACHED_GEOMETRIES, ids=str)
def test_cached_rows_equal_cold_calls_bit_for_bit(geometry, method):
    # what a row of points at one t shares is built once; every call must
    # return what it returns with both caches empty
    t = 0.07 * geometry.length
    row = cache_row(geometry)
    xs, ys = np.array(row).T
    calls = [lambda x=x, y=y: cylinder_kernel(geometry, t, x, y, method=method) for x, y in row]
    calls += [
        lambda: cylinder_kernel(geometry, t, xs, ys, method=method),
        lambda: cylinder_trace(geometry, t, method=method),
    ]
    cold = []
    for call in calls:
        clear_caches()
        cold.append(bits(call()))
    clear_caches()
    warm = [bits(call()) for call in calls]  # each after the calls before it
    again = [bits(call()) for call in calls]  # every key cached
    assert warm == cold and again == cold
    if method == MODE_SUM:
        assert kernels._mode_rows.cache_info().hits >= len(calls)
    if method == IMAGE_SUM:
        assert kernels._centred_lattice.cache_info().hits > 0


def test_cached_arrays_are_read_only():
    clear_caches()
    geometry = TwistedCircle(1.0, 2.2)
    cylinder_kernel(geometry, 0.1, 0.3, 0.6, method=MODE_SUM)
    assert kernels._mode_rows.cache_info().currsize == 1
    ladders = kernels._mode_rows(geometry, 0.1, SeriesControl().max_terms)  # that call's entry
    assert kernels._mode_rows.cache_info().hits == 1 and len(ladders) == 2
    for _, _, _, om, row, _ in ladders:
        for table in (om, row):
            with pytest.raises(ValueError):
                table[0] = 0.0


def test_caches_stay_bounded_over_a_sweep_of_heights():
    clear_caches()
    for geometry in (TwistedCircle(1.0, 2.2), Interval(1.0, DIRICHLET, NEUMANN)):
        for t in np.geomspace(1e-2, 10.0, 3 * kernels.summation._TABLES):
            cylinder_kernel(geometry, float(t), 0.4, method=MODE_SUM)
            cylinder_kernel(geometry, float(t), 0.4, method=IMAGE_SUM)
            cylinder_trace(geometry, float(t), method=IMAGE_SUM)
            for cache in CACHES:
                info = cache.cache_info()
                assert info.currsize <= info.maxsize == kernels.summation._TABLES


def test_the_mode_row_cache_keeps_no_row_past_the_default_cap():
    # 16 twisted mode traces at t = 1e-6...1e-5 with max_terms = 100 000
    # need 100 001 rungs a ladder: those rows are built per call, and the
    # cache keeps only the rows cut at the default max_terms
    clear_caches()
    geometry, control = TwistedCircle(1.0, 2.2), SeriesControl(max_terms=100_000)
    heights = [float(t) for t in np.linspace(1e-6, 1e-5, 16)]
    got = [cylinder_trace(geometry, t, method=MODE_SUM, control=control) for t in heights]
    cap = SeriesControl().max_terms
    misses = kernels._mode_rows.cache_info().misses
    held = sum(
        table.nbytes
        for t in heights
        for ladder in kernels._mode_rows(geometry, t, cap)
        for table in ladder[3:5]
    )
    assert kernels._mode_rows.cache_info().misses == misses  # each one a kept entry
    assert held <= 16 * 2 * 2 * (cap + 1) * 8
    for t, out in zip(heights, got):
        rows = kernels._mode_rows.__wrapped__(geometry, t, control.max_terms)  # uncached
        assert out.terms_used == sum(ladder[3].size for ladder in rows) == 2 * 100_001
        assert out.value == float(sum((ladder[4] * 1.0).sum(axis=-1) for ladder in rows))
        closed = cylinder_trace(geometry, t).value
        assert abs(out.value - closed) <= out.truncation_bound + 1e-15 * closed


@pytest.mark.parametrize("geometry", CACHED_GEOMETRIES, ids=str)
def test_a_float32_height_gives_the_bits_of_the_equal_float(geometry):
    # numpy 2 keeps float op np.float32 in float32: t is converted at entry
    low = np.float32(0.1)
    t = float(low)
    calls = [lambda h, m=m: cylinder_kernel(geometry, h, 0.3 * geometry.length, method=m) for m in ROUTES]
    calls += [lambda h, m=m: cylinder_trace(geometry, h, method=m) for m in ROUTES]
    for call in calls:
        clear_caches()
        want = bits(call(t))
        clear_caches()
        out = call(low)
        assert bits(out) == want
        assert type(out.truncation_bound) is float
    got = heat_trace(geometry, low)
    assert type(got) is float and got == heat_trace(geometry, t)


@pytest.mark.parametrize("t", [1e-200, 5e-324])
@pytest.mark.parametrize("geometry", CACHED_GEOMETRIES + [Interval(10.0)], ids=str)
def test_a_height_too_small_for_a_mode_sum_raises_cold_and_warm(geometry, t):
    # at Interval(10.0), t = 5e-324, 1 - e^{-t step} is 0.0; the trace's
    # rounding envelope has no |x| in it and is still finite at 1e-200
    calls = [lambda: cylinder_kernel(geometry, t, 0.5 * geometry.length, method=MODE_SUM)]
    if t == 5e-324:
        calls.append(lambda: cylinder_trace(geometry, t, method=MODE_SUM))
    clear_caches()
    for _ in range(2):
        for call in calls:
            with pytest.raises(InvalidParameter):
                call()
    assert kernels._mode_rows.cache_info().hits == 2 * len(calls) - 1  # all but the first warm


@pytest.mark.parametrize("theta", [0.0, PI, 2.2])
def test_a_negative_zero_displacement_sums_to_the_centred_bits(theta):
    # d = -0.0 is served from the d = 0 cache: its sign never reaches the sum
    clear_caches()
    control = SeriesControl()
    for step, t in ((2.0, 0.07), (1.0, 0.035), (1.3, 1e-3), (1.0, 40.0)):
        signed = kernels._lorentzian_lattice(step, -0.0, t, theta, control)
        assert repr(signed) == repr(kernels._centred_lattice(step, t, theta, control))
