"""Tests for vacuum energies, energy densities, and coefficient extraction.

Oracles: Abel-damped brute mode sums in geometric-series closed form
(exact up to float rounding), Bernoulli-polynomial values for the twisted
curve, Richardson extrapolation in the regulator, and hand-expanded
small-t trace coefficients.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from vacuum1d import (
    DIRICHLET,
    NEUMANN,
    ApproximationReport,
    ContinuousSpectrum,
    EnergyBreakdown,
    HalfLine,
    Interval,
    InvalidParameter,
    OutOfDomain,
    SeriesControl,
    TwistedCircle,
    UnsupportedGeometry,
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
from vacuum1d.summation import ABEL, RIESZ_CESARO_2

PI = math.pi
EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# Brute-force smoothed mode sums (geometric closed forms, float-exact).
# ---------------------------------------------------------------------------


def brute_total_like(length: float, t: float) -> float:
    # (1/2) sum_{j>=1} (j pi/L) e^{-j pi t/L}; the N/N zero mode adds nothing.
    q = math.exp(-PI * t / length)
    return 0.5 * (PI / length) * q / (1.0 - q) ** 2


def brute_total_mixed(length: float, t: float) -> float:
    # (1/2) sum_{j>=0} (j+1/2)(pi/L) u^{j+1/2} = (pi/2L) sqrt(u)(1+u)/(2(1-u)^2)
    u = math.exp(-PI * t / length)
    return 0.5 * (PI / length) * math.sqrt(u) * (1.0 + u) / (2.0 * (1.0 - u) ** 2)


def brute_total_twisted(length: float, theta: float, t: float) -> float:
    total = 0.0
    for j in range(-2000, 2001):
        w = abs(2.0 * PI * j + theta) / length
        total += 0.5 * w * math.exp(-w * t)
    return total


def brute_density_like(
    length: float, t: float, x: float, neumann: bool
) -> float:
    # (1/2) sum w phi^2 e^{-wt} with phi^2 = (2/L) sin^2 or cos^2(j pi x/L):
    # (pi/2L^2) sum_j j (1 -/+ cos(2 pi j x/L)) q^j in geometric closed form.
    q = cmath.exp(complex(-PI * t / length, 0.0))
    z = cmath.exp(complex(-PI * t / length, 2.0 * PI * x / length))
    s_plain = (q / (1.0 - q) ** 2).real
    s_cos = (z / (1.0 - z) ** 2).real
    sign = 1.0 if neumann else -1.0
    return 0.5 * (PI / length**2) * (s_plain + sign * s_cos)


def brute_density_mixed(length: float, t: float, x: float) -> float:
    # Half-integer ladder: (pi/L^2) sum (j+1/2) sin^2((j+1/2) pi x/L) u^{j+1/2}.
    zeta = cmath.exp(complex(-PI * t / (2.0 * length), PI * x / length))
    v = zeta * zeta
    s_cos = (zeta * (1.0 + v) / (2.0 * (1.0 - v) ** 2)).real
    u = math.exp(-PI * t / length)
    s_plain = math.sqrt(u) * (1.0 + u) / (2.0 * (1.0 - u) ** 2)
    return 0.5 * (PI / length**2) * (s_plain - s_cos)


# ---------------------------------------------------------------------------
# Renormalized totals: closed values and scaling.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("length", [0.5, 1.0, 2.7])
def test_total_energy_like_ends_closed_value(length):
    for bc in (DIRICHLET, NEUMANN):
        out = total_energy_renormalized(Interval(length, bc, bc))
        assert out.total_renormalized == pytest.approx(-PI / (24.0 * length), rel=1e-14)
        assert out.weyl == 0.0
        assert out.boundary == 0.0


@pytest.mark.parametrize("length", [0.5, 1.0, 2.7])
def test_total_energy_mixed_ends_closed_value(length):
    for pair in [(DIRICHLET, NEUMANN), (NEUMANN, DIRICHLET)]:
        out = total_energy_renormalized(Interval(length, *pair))
        assert out.total_renormalized == pytest.approx(PI / (48.0 * length), rel=1e-14)


def test_total_energy_scales_inversely_with_length():
    e1 = total_energy_renormalized(Interval(1.0, DIRICHLET, DIRICHLET))
    e3 = total_energy_renormalized(Interval(3.0, DIRICHLET, DIRICHLET))
    assert e3.total_renormalized == pytest.approx(e1.total_renormalized / 3.0, rel=1e-14)


def test_total_energy_halfline_raises():
    with pytest.raises(ContinuousSpectrum):
        total_energy_renormalized(HalfLine(DIRICHLET))
    with pytest.raises(ContinuousSpectrum):
        total_energy_regularized(HalfLine(DIRICHLET), 0.1)


def test_zero_mode_is_flagged_not_dropped():
    out = total_energy_renormalized(Interval(1.0, NEUMANN, NEUMANN))
    assert "zero mode" in out.note
    assert total_energy_renormalized(Interval(1.0, DIRICHLET, DIRICHLET)).note == ""
    assert "zero mode" in total_energy_renormalized(TwistedCircle(1.0, 0.0)).note
    assert total_energy_renormalized(TwistedCircle(1.0, 1.0)).note == ""


# ---------------------------------------------------------------------------
# Regularized totals against brute smoothed mode sums.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.05, 0.3, 1.1])
def test_regularized_total_matches_brute_like_ends(t):
    for bc in (DIRICHLET, NEUMANN):
        for length in (0.7, 1.0):
            out = total_energy_regularized(Interval(length, bc, bc), t)
            total = out.weyl + out.periodic + out.boundary
            assert total == pytest.approx(brute_total_like(length, t), rel=1e-12)


@pytest.mark.parametrize("t", [0.05, 0.3, 1.1])
def test_regularized_total_matches_brute_mixed_ends(t):
    out = total_energy_regularized(Interval(1.3, DIRICHLET, NEUMANN), t)
    total = out.weyl + out.periodic + out.boundary
    assert total == pytest.approx(brute_total_mixed(1.3, t), rel=1e-12)


@pytest.mark.parametrize("theta", [0.0, 1.0, PI])
def test_regularized_total_matches_brute_twisted(theta):
    t = 0.2
    out = total_energy_regularized(TwistedCircle(1.0, theta), t)
    total = out.weyl + out.periodic + out.boundary
    assert total == pytest.approx(brute_total_twisted(1.0, theta, t), rel=1e-12)


def _mp_twisted_regularized(length: float, theta: float, t: float) -> float:
    """E(t) - Weyl for the twisted circle from its closed form, at 40 + 3t/L
    digits: b cosh(at) cosh(bt) - a sinh(at) sinh(bt) cancels as a -> b."""
    import mpmath

    with mpmath.workdps(int(40 + 3 * t / length)):
        a = (mpmath.pi - mpmath.mpf(theta)) / length
        b = mpmath.pi / length
        tm = mpmath.mpf(t)
        num = b * mpmath.cosh(a * tm) * mpmath.cosh(b * tm) - a * mpmath.sinh(
            a * tm
        ) * mpmath.sinh(b * tm)
        return float(num / (2 * mpmath.sinh(b * tm) ** 2) - 1 / (2 * b * tm * tm))


@pytest.mark.parametrize("length", [1.0, 0.7])
@pytest.mark.parametrize("theta", [0.5, PI, 2.7, 2.0 * PI - 0.01, 1e-5])
@pytest.mark.parametrize(
    "u",
    # pi t / L: small t, both sides of 0.05, both sides of 0.6, where the
    # series hands over to the direct formula, and far past it: near
    # theta = 0 the direct form once lost digits as u grew (1.9e-13 of
    # |E| + Weyl at 40), and past 300 it kept only e^{(a - b) t}, which is
    # -Weyl alone near theta = 2 pi.
    [PI * 1e-3, PI * 0.01, PI * 0.015, 0.05 * (1 - 1e-9), 0.05 * (1 + 1e-9),
     0.6 * (1 - 1e-12), 0.6 * (1 + 1e-12), 18.0, 40.0, 350.0],
)
def test_twisted_regularized_energy_near_and_below_the_series_switch(length, theta, u):
    """E(t) - Weyl against 40 + 3t/L digits, relative to itself and within
    1e-13 of |E| + Weyl, at theta and at the mirror angle 2 pi - theta,
    under which E(t) is even (each against its own float angle).  The
    mirror of theta = 1e-5 is left out: within a few ulps of 2 pi, the
    float angle itself moves E by 1e-11 of |E| + Weyl."""
    t = u * length / PI
    weyl = length / (2.0 * PI * t * t)
    for angle in (theta, 2.0 * PI - theta) if theta >= 0.01 else (theta,):
        geom = TwistedCircle(length, angle)
        want = _mp_twisted_regularized(length, geom.theta, t)
        tol = 1e-13 * (abs(want + weyl) + weyl)
        got = total_energy_regularized(geom, t).periodic
        assert got == pytest.approx(want, rel=1e-13)
        assert abs(got - want) <= tol, (angle, got, want)
        density = energy_density_regularized(geom, t, 0.3).periodic
        assert density == pytest.approx(want / length, rel=1e-13)
        assert abs(density - want / length) <= tol / length, (angle, density, want)


@pytest.mark.parametrize("even", [True, False], ids=["csch2", "csch-coth"])
@pytest.mark.parametrize("switch", [0.05, 0.1, 0.5, 2.0, 170.0])
def test_interval_small_z_forms_near_their_switches(even, switch):
    """The product forms of csch^2 z - 1/z^2 (like ends) and
    csch z coth z - 1/z^2 (mixed ends) against 40 digits: around z = 2,
    where E(t) and the densities leave them for the q = e^{-2z} forms;
    around 170, far past that switch, where the sinh-excess series still
    sums all its positive terms; and around 0.05, 0.1 and 0.5, where short
    series once lost 1e-10."""
    import mpmath

    from vacuum1d.energy import _g_even, _g_odd

    func = _g_even if even else _g_odd
    for z in switch * (1.0 + np.array([-1e-2, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-2])):
        with mpmath.workdps(40):
            zm = mpmath.mpf(float(z))
            top = 1 if even else mpmath.cosh(zm)
            want = float(top / mpmath.sinh(zm) ** 2 - 1 / zm**2)
        assert func(float(z)) == pytest.approx(want, rel=1e-14), z


def test_regularized_weyl_term_is_exact():
    out = total_energy_regularized(Interval(2.0, DIRICHLET, DIRICHLET), 0.35)
    assert out.weyl == pytest.approx(2.0 / (2.0 * PI * 0.35**2), rel=1e-15)
    assert out.regulator_t == 0.35


def test_regularized_boundary_term_telescopes_to_zero():
    # The partial sums telescope to a_N -> 0, so the boundary part is an
    # exact zero at every t, including t >> L.
    for geom in [
        Interval(1.0, DIRICHLET, DIRICHLET),
        Interval(0.6, NEUMANN, NEUMANN),
        Interval(1.0, DIRICHLET, NEUMANN),
    ]:
        for t in (0.02, 0.5, 200.0):
            out = total_energy_regularized(geom, t)
            assert out.boundary == 0.0
            assert math.isfinite(out.total_renormalized)


def test_regularized_total_converges_to_renormalized():
    # Weyl-subtracted totals approach the closed value like t^2; one
    # Richardson step in t removes that and lands ~1e-10 away.
    for geom in [
        Interval(1.0, DIRICHLET, DIRICHLET),
        Interval(1.0, DIRICHLET, NEUMANN),
        TwistedCircle(1.0, 2.0),
    ]:
        target = total_energy_renormalized(geom).total_renormalized
        f = lambda t: total_energy_regularized(geom, t).total_renormalized
        t0 = 2e-3
        richardson = (4.0 * f(t0 / 2.0) - f(t0)) / 3.0
        assert richardson == pytest.approx(target, abs=1e-9)


def test_regularized_total_validates_t():
    with pytest.raises(InvalidParameter):
        total_energy_regularized(Interval(1.0, DIRICHLET, DIRICHLET), 0.0)
    with pytest.raises(InvalidParameter):
        total_energy_regularized(Interval(1.0, DIRICHLET, DIRICHLET), -0.1)
    with pytest.raises(InvalidParameter):
        total_energy_regularized(Interval(1.0, DIRICHLET, DIRICHLET), math.inf)


# ---------------------------------------------------------------------------
# Half-line sum rule.
# ---------------------------------------------------------------------------


def test_half_line_boundary_density_integrates_to_zero():
    # The sum rule: integrate the regularized density profile over
    # (0, inf) at fixed t.
    t = 0.25
    val, err = quad(
        lambda x: energy_density_regularized(HalfLine(DIRICHLET), t, x).boundary,
        0.0,
        np.inf,
        limit=200,
    )
    assert abs(val) < 1e-10


# ---------------------------------------------------------------------------
# Twisted-circle energy curve.
# ---------------------------------------------------------------------------


def test_twisted_energy_bernoulli_values():
    assert twisted_energy(0.0, 1.0) == pytest.approx(-PI / 6.0, rel=1e-14)
    assert twisted_energy(PI, 1.0) == pytest.approx(PI / 12.0, rel=1e-14)
    # B_2(u) with u = theta/2pi, generic point:
    u = 1.3 / (2.0 * PI)
    expected = -PI * (u * u - u + 1.0 / 6.0)
    assert twisted_energy(1.3, 1.0) == pytest.approx(expected, rel=1e-13)
    assert twisted_energy(1.3, 2.0) == pytest.approx(expected / 2.0, rel=1e-13)


def test_twisted_energy_even_and_periodic():
    for theta in (0.3, 1.1, 2.9):
        assert twisted_energy(-theta, 1.0) == pytest.approx(
            twisted_energy(theta, 1.0), rel=1e-13
        )
        assert twisted_energy(theta + 2.0 * PI, 1.0) == pytest.approx(
            twisted_energy(theta, 1.0), rel=1e-13
        )


@pytest.mark.parametrize(
    "geometry",
    [Interval(5e-324), Interval(5e-324, DIRICHLET, NEUMANN), Interval(1e-310, NEUMANN, NEUMANN),
     TwistedCircle(5e-324, 1.0)],
    ids=repr,
)
def test_renormalized_energy_past_the_float_range_is_invalid(geometry):
    # pi/(24 L) and its kin overflow below L ~ 1e-308: they were once
    # returned as -inf or +inf
    with pytest.raises(InvalidParameter, match="float range"):
        total_energy_renormalized(geometry)


def test_twisted_energy_past_the_float_range_is_invalid():
    with pytest.raises(InvalidParameter, match="float range"):
        twisted_energy(1.0, 5e-324)


def test_twisted_energy_root_location():
    # E(theta) = 0 at theta = pi (1 - 1/sqrt(3)).
    root = brentq(lambda th: twisted_energy(th, 1.0), 0.5, 1.5, xtol=1e-13)
    assert root == pytest.approx(PI * (1.0 - 1.0 / math.sqrt(3.0)), abs=1e-12)


def test_twisted_energy_validates_length():
    with pytest.raises(InvalidParameter):
        twisted_energy(1.0, 0.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_twisted_energy_rejects_non_finite_theta(theta):
    with pytest.raises(InvalidParameter):
        twisted_energy(theta, 1.0)


def test_twisted_orbit_sum_converges_to_closed_form():
    for theta in (0.0, 1.0, 2.5):
        out = twisted_energy_orbit_sum(
            theta, 1.0, SeriesControl(damping_t=1e-3, max_terms=10_000)
        )
        assert out.method_tag == ABEL
        target = twisted_energy(theta, 1.0)
        # The damping bias 3 zeta(4) t^2 / pi ~ 1.03 t^2 (worst at theta=0)
        # is the regulator's, not the truncation's; allow it explicitly.
        assert abs(out.value - target) <= out.truncation_bound + 2.0 * 1e-3**2
        # and the damping bias really is O(t^2):
        out2 = twisted_energy_orbit_sum(
            theta, 1.0, SeriesControl(damping_t=1e-4, max_terms=10_000)
        )
        assert abs(out2.value - target) < abs(out.value - target) / 10.0 + 1e-12


def test_twisted_orbit_sum_bound_holds_at_every_angle():
    # Undamped, the orbit sum is the Bernoulli parabola itself, and its
    # tail-completed bound must cover the error at every holonomy angle.
    for theta in np.linspace(0.0, 2.0 * PI, 201):
        out = twisted_energy_orbit_sum(float(theta), 1.0)
        err = abs(out.value - twisted_energy(float(theta), 1.0))
        assert err <= out.truncation_bound, theta
        assert out.truncation_bound <= 1e-12
        assert out.terms_used < 1000


# ---------------------------------------------------------------------------
# Past the overflow point of sinh: exponent-scaled forms.
# ---------------------------------------------------------------------------


def _mp_interval_parts(geom, t, x):
    """(periodic, boundary) of the xi = 1/4 regularized density in mpmath."""
    import mpmath

    with mpmath.workdps(40):
        length = mpmath.mpf(geom.length)
        z = mpmath.pi * t / (2 * length)
        p = mpmath.pi * x / length
        sh2, sp2 = mpmath.sinh(z) ** 2, mpmath.sin(p) ** 2
        pref = (-1) ** geom.l * mpmath.pi / (8 * length**2)
        if geom.like_ends:
            per = 1 / sh2 - 1 / z**2
            bdry = pref * (mpmath.cos(2 * p) * sh2 - sp2) / (sh2 + sp2) ** 2
        else:
            per = mpmath.cosh(z) / sh2 - 1 / z**2
            bdry = pref * mpmath.cos(p) * mpmath.cosh(z) * (sh2 - sp2) / (sh2 + sp2) ** 2
        return float(mpmath.pi / (8 * length**2) * per), float(bdry)


@pytest.mark.parametrize(
    "geom", [Interval(1.0, DIRICHLET, DIRICHLET), Interval(1.0, DIRICHLET, NEUMANN)], ids=str
)
@pytest.mark.parametrize("t", [114.0, 250.0, 460.0])
def test_interval_density_far_past_the_length_scale(geom, t):
    out = energy_density_regularized(geom, t, 0.5 if geom.like_ends else 0.3)
    per, bdry = _mp_interval_parts(geom, t, 0.5 if geom.like_ends else 0.3)
    assert out.periodic == pytest.approx(per, rel=1e-14)
    assert out.boundary == pytest.approx(bdry, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize(
    "geom", [Interval(1.0, DIRICHLET, DIRICHLET), Interval(1.0, DIRICHLET, NEUMANN)], ids=str
)
def test_interval_energy_far_past_the_length_scale(geom):
    # E(t) - Weyl -> -(pi/8L) (2L/pi t)^2 = -L/(2 pi t^2): the Weyl term cancels.
    t = 460.0
    out = total_energy_regularized(geom, t)
    assert out.periodic == pytest.approx(-1.0 / (2.0 * PI * t * t), rel=1e-14)
    assert out.weyl + out.periodic == pytest.approx(0.0, abs=1e-300)


# ---------------------------------------------------------------------------
# Per-orbit energies: regulator independence.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, -3])
@pytest.mark.parametrize("theta", [0.0, 1.7])
def test_orbit_energy_schemes_agree_in_the_limit(n, theta):
    expected = -math.cos(n * theta) / (2.0 * PI * n * n * 1.0)
    abel = orbit_energy_contribution(n, 1.0, theta, method=ABEL)
    riesz = orbit_energy_contribution(n, 1.0, theta, method=RIESZ_CESARO_2)
    assert abel == pytest.approx(expected, rel=1e-13)
    assert riesz == pytest.approx(expected, rel=1e-13)


def test_orbit_energy_length_scaling():
    # E_n = -cos(n theta) L / (2 pi (nL)^2): halving L doubles the energy.
    e1 = orbit_energy_contribution(2, 1.0, 0.0)
    e2 = orbit_energy_contribution(2, 0.5, 0.0)
    assert e2 == pytest.approx(2.0 * e1, rel=1e-13)


def test_orbit_energy_sum_reproduces_twisted_curve():
    theta, length = 1.9, 1.0
    partial = sum(
        2.0 * orbit_energy_contribution(n, length, theta) for n in range(1, 20_000)
    )
    # winding pairs +/- n are folded by the factor 2; tail is O(1/N).
    assert partial == pytest.approx(twisted_energy(theta, length), abs=1e-4)


def test_orbit_energy_abel_damped_value():
    n, length, theta, t = 3, 1.0, 0.8, 0.2
    a, b = n * length, n * theta
    expected = (
        -(length / (2.0 * PI))
        * (math.cos(b) * (a * a - t * t) - 2.0 * a * t * math.sin(b))
        / (t * t + a * a) ** 2
    )
    got = orbit_energy_contribution(n, length, theta, method=ABEL, t=t)
    assert got == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("method", [ABEL, RIESZ_CESARO_2])
@pytest.mark.parametrize("length", [1e-300, 1e-200, 1e-100, 1e160, 1e200, 1e300])
def test_orbit_energy_at_extreme_lengths(method, length):
    # The limit -cos(n theta)/(2 pi n^2 L) is finite at every one of these
    # lengths; a*a once overflowed (nan at 1e160) or underflowed
    # (ZeroDivisionError at 1e-200), and RC2's a**2 leaked OverflowError.
    for n, theta in ((1, 0.0), (-2, 0.7), (3, 2.9)):
        want = -math.cos(n * theta) / (2.0 * PI * n * n) / length
        got = orbit_energy_contribution(n, length, theta, method=method)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_orbit_energy_at_extreme_lengths_away_from_the_limit():
    import mpmath

    n, theta = 2, 0.9
    b = mpmath.mpf(n * theta)
    for length in (1e-200, 1e200):
        a = mpmath.mpf(n * length)
        # Abel damping t = a/2, so t and a are of one size
        t = 0.5 * n * length
        tm = mpmath.mpf(t)
        want = -(length / (2 * mpmath.pi)) * (
            mpmath.cos(b) * (a * a - tm * tm) - 2 * a * tm * mpmath.sin(b)
        ) / (tm * tm + a * a) ** 2
        assert orbit_energy_contribution(n, length, theta, ABEL, t=t) == pytest.approx(
            float(want), rel=1e-14
        )
        # cutoff Omega = 1/a: the closed form at a Omega = 1 would cancel
        omega = 1.0 / (n * length)
        want = (length / (2 * mpmath.pi)) * mpmath.quad(
            lambda w: (1 - w / omega) ** 2 * mpmath.cos(w * a + b) * w, [0, omega]
        )
        got = orbit_energy_contribution(n, length, theta, RIESZ_CESARO_2, omega_max=omega)
        assert got == pytest.approx(float(want), rel=1e-14)


def test_orbit_energy_past_the_float_range_is_invalid():
    # -1/(2 pi L) at L = 1e-320 is about -1.6e319
    for method in (ABEL, RIESZ_CESARO_2):
        with pytest.raises(InvalidParameter, match="float range"):
            orbit_energy_contribution(1, 1e-320, method=method)


def test_orbit_energy_validates_input():
    with pytest.raises(InvalidParameter):
        orbit_energy_contribution(0, 1.0)
    with pytest.raises(InvalidParameter):
        orbit_energy_contribution(1, -1.0)
    with pytest.raises(InvalidParameter):
        orbit_energy_contribution(1, 1.0, method="zeta")
    with pytest.raises(InvalidParameter):
        orbit_energy_contribution(1, 1.0, method=ABEL, t=-0.1)


# ---------------------------------------------------------------------------
# Regularized densities against brute smoothed mode sums.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.08, 0.21, 0.9])
@pytest.mark.parametrize("x_frac", [0.11, 0.37, 0.5, 0.83])
def test_density_matches_brute_like_ends(t, x_frac):
    length = 1.3
    x = x_frac * length
    for bc, neumann in [(DIRICHLET, False), (NEUMANN, True)]:
        out = energy_density_regularized(Interval(length, bc, bc), t, x)
        total = out.weyl + out.periodic + out.boundary
        ref = brute_density_like(length, t, x, neumann)
        assert total == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("t", [0.08, 0.21, 0.9])
@pytest.mark.parametrize("x_frac", [0.11, 0.5, 0.83])
def test_density_matches_brute_mixed_ends(t, x_frac):
    length = 1.3
    x = x_frac * length
    out = energy_density_regularized(Interval(length, DIRICHLET, NEUMANN), t, x)
    total = out.weyl + out.periodic + out.boundary
    assert total == pytest.approx(brute_density_mixed(length, t, x), rel=1e-11)


def test_density_twisted_is_uniform_total_over_length():
    geom = TwistedCircle(1.4, 2.2)
    t = 0.3
    breakdown = total_energy_regularized(geom, t)
    for x in (0.0, 0.5, 1.1):
        out = energy_density_regularized(geom, t, x)
        total = out.weyl + out.periodic + out.boundary
        expected = (breakdown.weyl + breakdown.periodic) / geom.length
        assert total == pytest.approx(expected, rel=1e-13)


def test_density_xi_enters_only_through_the_boundary_family():
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    t, x = 0.2, 0.3
    base = energy_density_regularized(geom, t, x, xi=0.0)
    quarter = energy_density_regularized(geom, t, x, xi=0.25)
    double = energy_density_regularized(geom, t, x, xi=0.5)
    assert base.boundary == 0.0
    assert base.periodic == quarter.periodic == double.periodic
    assert double.boundary == pytest.approx(2.0 * quarter.boundary, rel=1e-14)


def test_density_integrates_to_the_total():
    # The wall profile carries zero net energy at every t; the integral
    # of the full density is the global breakdown, Weyl term included.
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    t = 0.15
    breakdown = total_energy_regularized(geom, t)
    val, err = quad(
        lambda x: energy_density_regularized(geom, t, x).total_renormalized,
        0.0,
        1.0,
        limit=200,
    )
    assert val == pytest.approx(breakdown.periodic + breakdown.boundary, abs=1e-9)


def test_density_validates_domain():
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    with pytest.raises(OutOfDomain):
        energy_density_regularized(geom, 0.1, -0.2)
    with pytest.raises(OutOfDomain):
        energy_density_regularized(geom, 0.1, 1.2)
    with pytest.raises(OutOfDomain):
        energy_density_regularized(HalfLine(DIRICHLET), 0.1, 0.0)
    with pytest.raises(InvalidParameter):
        energy_density_regularized(geom, 0.0, 0.5)
    with pytest.raises(InvalidParameter):
        energy_density_regularized(geom, 0.1, 0.5, xi=math.nan)


# ---------------------------------------------------------------------------
# Renormalized density profiles.
# ---------------------------------------------------------------------------


def test_renormalized_density_dirichlet_closed_profile():
    # u(x) = -pi/24 + (pi/8) csc^2(pi x) on the unit interval at xi = 1/4.
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    for x in (0.1, 0.25, 0.5):
        out = energy_density_renormalized(geom, x)
        expected = -PI / 24.0 + (PI / 8.0) / math.sin(PI * x) ** 2
        assert out.total_renormalized == pytest.approx(expected, rel=1e-13)
    # midpoint value quoted to seven figures elsewhere: pi/12.
    mid = energy_density_renormalized(geom, 0.5).total_renormalized
    assert mid == pytest.approx(PI / 12.0, rel=1e-14)


def test_renormalized_density_neumann_flips_the_wall_sign():
    geom = Interval(1.0, NEUMANN, NEUMANN)
    out = energy_density_renormalized(geom, 0.3)
    expected = -PI / 24.0 - (PI / 8.0) / math.sin(0.3 * PI) ** 2
    assert out.total_renormalized == pytest.approx(expected, rel=1e-13)


def test_renormalized_density_is_the_small_t_limit():
    geom = Interval(1.0, DIRICHLET, NEUMANN)
    x = 0.37
    target = energy_density_renormalized(geom, x).total_renormalized
    f = lambda t: energy_density_regularized(geom, t, x).total_renormalized
    t0 = 1e-3
    richardson = (4.0 * f(t0 / 2.0) - f(t0)) / 3.0
    assert richardson == pytest.approx(target, abs=1e-8)


def test_renormalized_density_symmetries():
    like = Interval(1.0, DIRICHLET, DIRICHLET)
    for x in (0.2, 0.41):
        assert energy_density_renormalized(like, x).total_renormalized == pytest.approx(
            energy_density_renormalized(like, 1.0 - x).total_renormalized, rel=1e-13
        )
    dn = Interval(1.0, DIRICHLET, NEUMANN)
    nd = Interval(1.0, NEUMANN, DIRICHLET)
    for x in (0.2, 0.41):
        assert energy_density_renormalized(dn, x).total_renormalized == pytest.approx(
            energy_density_renormalized(nd, 1.0 - x).total_renormalized, rel=1e-13
        )


def test_renormalized_mixed_wall_profile_is_antisymmetric():
    geom = Interval(1.0, DIRICHLET, NEUMANN)
    for x in (0.1, 0.33):
        b1 = energy_density_renormalized(geom, x).boundary
        b2 = energy_density_renormalized(geom, 1.0 - x).boundary
        assert b1 == pytest.approx(-b2, rel=1e-13)


def test_renormalized_density_near_wall_matches_halfline():
    # Close to one wall the other is invisible: the interval profile
    # approaches the half-line 1/(8 pi x^2) divergence.
    x = 1e-3
    interval = energy_density_renormalized(Interval(1.0, DIRICHLET, DIRICHLET), x)
    halfline = energy_density_renormalized(HalfLine(DIRICHLET), x)
    assert interval.total_renormalized == pytest.approx(
        halfline.total_renormalized, rel=1e-4
    )
    assert halfline.total_renormalized == pytest.approx(
        1.0 / (8.0 * PI * x * x), rel=1e-10
    )


def test_halfline_boundary_profile_closed_form():
    # Regularized wall profile (-1)^l (t^2 - 4x^2) / (2 pi (t^2 + 4x^2)^2).
    t = 1e-3
    for bc, sgn in [(DIRICHLET, -1.0), (NEUMANN, 1.0)]:
        for x in (1e-4, 0.1, 1.0):
            out = energy_density_regularized(HalfLine(bc), t, x)
            expected = (
                sgn * (t * t - 4.0 * x * x) / (2.0 * PI * (t * t + 4.0 * x * x) ** 2)
            )
            assert out.boundary == pytest.approx(expected, rel=1e-13)
            assert out.periodic == 0.0


def test_halfline_density_noncommuting_limits():
    # Inside the spike (x << t) the density is t-dominated and negative
    # for Dirichlet; outside (x >> t) it settles on +1/(8 pi x^2).  The
    # integral vanishes at every t even though the pointwise t -> 0
    # limit is one-signed: the limits do not commute.
    t = 1e-3
    inner = energy_density_regularized(HalfLine(DIRICHLET), t, 1e-4).boundary
    outer = energy_density_regularized(HalfLine(DIRICHLET), t, 0.1).boundary
    assert inner < 0.0 < outer
    assert inner == pytest.approx(-1.41262e5, rel=1e-3)
    assert outer == pytest.approx(3.9785751742126303, rel=1e-12)


# ---------------------------------------------------------------------------
# Small-t coefficient extraction.
# ---------------------------------------------------------------------------


def test_cylinder_coefficients_dirichlet():
    out = extract_cylinder_coefficients(Interval(1.0, DIRICHLET, DIRICHLET))
    assert out.e[0] == pytest.approx(1.0 / PI, abs=1e-10)
    assert out.e[1] == pytest.approx(-0.5, abs=1e-9)
    assert out.e[2] == pytest.approx(PI / 12.0, abs=1e-7)
    assert out.energy == pytest.approx(-PI / 24.0, abs=1e-7)
    assert out.d == 1
    assert out.truncation_bound.keys() == out.e.keys()
    assert max(out.truncation_bound.values()) < 1e-14


def test_cylinder_coefficients_neumann_and_mixed():
    nn = extract_cylinder_coefficients(Interval(1.0, NEUMANN, NEUMANN))
    assert nn.e[1] == pytest.approx(0.5, abs=1e-9)
    assert nn.e[2] == pytest.approx(PI / 12.0, abs=1e-7)
    dn = extract_cylinder_coefficients(Interval(1.0, DIRICHLET, NEUMANN))
    assert dn.e[1] == pytest.approx(0.0, abs=1e-9)
    assert dn.e[2] == pytest.approx(-PI / 24.0, abs=1e-7)
    assert dn.energy == pytest.approx(PI / 48.0, abs=1e-7)


@pytest.mark.parametrize("theta", [0.0, 1.0, 2.5])
def test_cylinder_coefficients_twisted(theta):
    out = extract_cylinder_coefficients(TwistedCircle(1.0, theta))
    # Tr T = cosh((pi-theta)t)/sinh(pi t) expands to
    # 1/(pi t) + ((pi-theta)^2/2 - pi^2/6) t/pi + O(t^3).
    e2 = ((PI - theta) ** 2 / 2.0 - PI * PI / 6.0) / PI
    assert out.e[0] == pytest.approx(1.0 / PI, abs=1e-10)
    # t Tr T is even in t for the circle: its odd coefficients vanish.
    assert out.e[1] == pytest.approx(0.0, abs=1e-8)
    assert out.e[2] == pytest.approx(e2, abs=1e-6)
    assert out.energy == pytest.approx(twisted_energy(theta, 1.0), abs=1e-6)


def test_cylinder_coefficients_length_scaling():
    one = extract_cylinder_coefficients(Interval(1.0, DIRICHLET, DIRICHLET))
    two = extract_cylinder_coefficients(Interval(2.0, DIRICHLET, DIRICHLET))
    assert two.e[0] == pytest.approx(2.0 * one.e[0], rel=1e-8)
    assert two.e[1] == pytest.approx(one.e[1], abs=1e-8)
    assert two.e[2] == pytest.approx(one.e[2] / 2.0, rel=1e-5)


def test_cylinder_coefficients_reject_the_half_line():
    with pytest.raises(ContinuousSpectrum):
        extract_cylinder_coefficients(HalfLine(DIRICHLET))


def _taylor_reference(kind, theta=0.0):
    """Taylor coefficients h_0..h_4 of h(u) = u Tr T(u) at L = 1, to 40 digits,
    from the mode-sum closed forms of the trace."""
    import mpmath

    def trace(u):
        pi = mpmath.pi
        if kind == "twisted":
            th = mpmath.mpf(theta)
            top = mpmath.exp(-th * u) + mpmath.exp((th - 2 * pi) * u)
            return top / (1 - mpmath.exp(-2 * pi * u))
        if kind == "mixed":
            return mpmath.exp(-pi * u / 2) / (1 - mpmath.exp(-pi * u))
        return mpmath.exp(-pi * u) / (1 - mpmath.exp(-pi * u)) + (1 if kind == "N/N" else 0)

    with mpmath.workdps(40):
        # a Cauchy integral of radius 1/4 in 40-digit arithmetic: it never
        # evaluates the removable 0/0 at u = 0
        return mpmath.taylor(lambda u: u * trace(u), 0, 4, method="quad", radius=0.25)


TAYLOR_CASES = [
    (lambda L: Interval(L, DIRICHLET, DIRICHLET), ("D/D",)),
    (lambda L: Interval(L, NEUMANN, NEUMANN), ("N/N",)),
    (lambda L: Interval(L, DIRICHLET, NEUMANN), ("mixed",)),
    (lambda L: Interval(L, NEUMANN, DIRICHLET), ("mixed",)),
    (lambda L: TwistedCircle(L, 0.0), ("twisted", 0.0)),
    (lambda L: TwistedCircle(L, PI), ("twisted", PI)),
    (lambda L: TwistedCircle(L, 1.9), ("twisted", 1.9)),
]


@pytest.mark.parametrize("case", range(len(TAYLOR_CASES)),
                         ids=["DD", "NN", "DN", "ND", "circle0", "circle_pi", "circle1.9"])
def test_cylinder_coefficients_match_40_digit_taylor(case):
    """Each e_k lies within its truncation bound of the 40-digit Taylor
    coefficient, and the bound is at most 1e-13 of the coefficient's scale.

    That scale is 1 + |e_k| where it can be: e_k = h_k L^{1-k} carries the
    rounding of h_k times L^{1-k}, so the scale also holds L^{1-k}.  At
    L < 1 it matters for e_3, which is 0 for every geometry here and so
    carries rounding alone."""
    import mpmath

    make, key = TAYLOR_CASES[case]
    h = _taylor_reference(*key)
    for length in (1e-3, 0.05, 1.0, 7.3, 1e3):
        out = extract_cylinder_coefficients(make(length))
        with mpmath.workdps(40):
            want = [float(h[k] * mpmath.mpf(length) ** (1 - k)) for k in range(5)]
        for k in range(5):
            err, bound = abs(out.e[k] - want[k]), out.truncation_bound[k]
            assert err <= bound, (length, k, err, bound)
            assert bound <= 1e-13 * (max(1.0, length ** (1 - k)) + abs(want[k])), (length, k)


@pytest.mark.parametrize(
    "geometry",
    [Interval(1.0, DIRICHLET, DIRICHLET), Interval(1.0, NEUMANN, NEUMANN),
     Interval(1.0, DIRICHLET, NEUMANN), TwistedCircle(1.0, 0.0), TwistedCircle(1.0, 1.9)],
    ids=str,
)
def test_coefficients_from_tiny_to_huge_lengths(geometry):
    """L = 1e-300 .. 1e300 every 20 decades: each call returns finite values
    that scale as L^{1-k} (heat b_0 as L), or raises InvalidParameter; from
    L = 1e-100 up every call returns.  No overflow, zero division or numpy
    warning escapes (RuntimeWarning is an error in this suite)."""
    unit_cyl = extract_cylinder_coefficients(geometry)
    unit_rep = theorem1_check(geometry)
    for p in range(-300, 301, 20):
        length = 10.0**p
        scaled = dataclasses.replace(geometry, length=length)
        try:
            cyl = extract_cylinder_coefficients(scaled)
            rep = theorem1_check(scaled)
        except InvalidParameter:
            assert p < -100, p
            continue
        values = [*cyl.e.values(), *cyl.truncation_bound.values()]
        values += [rep.b0, rep.b1, rep.e0, rep.e1, rep.e2, rep.defect_e0, rep.defect_e1]
        assert all(math.isfinite(v) for v in values), p
        assert cyl.e[0] == pytest.approx(unit_cyl.e[0] * length, rel=1e-15)
        assert cyl.e[1] == unit_cyl.e[1]
        assert cyl.e[2] * length == pytest.approx(unit_cyl.e[2], rel=1e-15)
        assert rep.b0 == pytest.approx(unit_rep.b0 * length, rel=1e-15)
        assert rep.b1 == unit_rep.b1
        assert rep.defect_e0 <= 1e-12 * length


@pytest.mark.parametrize(
    "geometry,b1",
    [
        (Interval(2.5, DIRICHLET, DIRICHLET), -0.5),
        (Interval(2.5, NEUMANN, NEUMANN), 0.5),
        (Interval(2.5, DIRICHLET, NEUMANN), 0.0),
        (Interval(2.5, NEUMANN, DIRICHLET), 0.0),
        (Interval(1.0, DIRICHLET, DIRICHLET), -0.5),
        (TwistedCircle(2.5, 0.0), 0.0),
        (TwistedCircle(1.3, 2.2), 0.0),
        (TwistedCircle(1.7, 0.4), 0.0),
        (TwistedCircle(1.0, 6.2), 0.0),
    ],
    ids=str,
)
def test_theorem1_heat_side_is_exact_to_rounding(geometry, b1):
    # Past b_0 t^{-1/2} + b_1 the heat trace holds only the winding images,
    # below 1e-50 at both heights, so the two-height solve leaves rounding.
    report = theorem1_check(geometry)
    b0 = geometry.length / (2.0 * math.sqrt(PI))
    assert abs(report.b0 - b0) <= 4.0 * EPS * b0
    assert abs(report.b1 - b1) <= 1e-14


# ---------------------------------------------------------------------------
# Heat vs cylinder coefficients.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "geometry,b1",
    [
        (Interval(1.0, DIRICHLET, DIRICHLET), -0.5),
        (Interval(1.0, NEUMANN, NEUMANN), 0.5),
        (Interval(1.0, DIRICHLET, NEUMANN), 0.0),
        (TwistedCircle(1.0, 1.3), 0.0),
    ],
)
def test_theorem1_heat_determines_e0_and_e1_only(geometry, b1):
    report = theorem1_check(geometry)
    assert report.b0 == pytest.approx(geometry.length / (2.0 * math.sqrt(PI)), abs=1e-9)
    assert report.b1 == pytest.approx(b1, abs=1e-7)
    assert report.defect_e0 < 1e-7
    assert report.defect_e1 < 1e-7
    assert "heat" in report.note


def test_theorem1_e2_differs_across_equal_heat_geometries():
    # D/D and D/N on the same length share b_0, yet their e_2 differ:
    # the heat coefficients do not fix the vacuum energy.
    dd = theorem1_check(Interval(1.0, DIRICHLET, DIRICHLET))
    dn = theorem1_check(Interval(1.0, DIRICHLET, NEUMANN))
    assert dd.b0 == pytest.approx(dn.b0, abs=1e-9)
    assert abs(dd.e2 - dn.e2) > 0.3  # pi/12 vs -pi/24
    with pytest.raises(ContinuousSpectrum):
        theorem1_check(HalfLine(NEUMANN))


# ---------------------------------------------------------------------------
# Approximation hierarchy.
# ---------------------------------------------------------------------------


def test_approximation_report_total_energy_rows():
    report = approximation_report(Interval(1.0, DIRICHLET, DIRICHLET))
    assert isinstance(report, ApproximationReport)
    total = {row.quantity: row for row in report.rows}["total_energy"]
    assert total.exact == pytest.approx(-PI / 24.0, rel=1e-13)
    assert total.stationary_phase == total.exact
    assert total.short_orbit == pytest.approx(-PI / 24.0 - 1.0 / (4.0 * PI), rel=1e-13)
    bdry = {row.quantity: row for row in report.rows}["boundary_energy"]
    assert bdry.exact == 0.0
    assert bdry.stationary_phase == 0.0
    assert bdry.short_orbit == pytest.approx(-1.0 / (4.0 * PI), rel=1e-13)


def test_approximation_report_signs_follow_the_walls():
    nn = approximation_report(Interval(1.0, NEUMANN, NEUMANN))
    assert {r.quantity: r for r in nn.rows}["boundary_energy"].short_orbit == pytest.approx(
        1.0 / (4.0 * PI), rel=1e-13
    )
    dn = approximation_report(Interval(1.0, DIRICHLET, NEUMANN))
    rows = {r.quantity: r for r in dn.rows}
    assert rows["boundary_energy"].short_orbit == 0.0
    assert rows["total_energy"].short_orbit == rows["total_energy"].exact


def test_approximation_report_density_rows():
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    report = approximation_report(geom, x_points=(0.05, 0.5))
    rows = {r.quantity: r for r in report.rows}
    near = rows["density@0.05"]
    assert near.exact == pytest.approx(
        energy_density_renormalized(geom, 0.05).total_renormalized, rel=1e-13
    )
    # stationary phase strips the wall profile entirely:
    assert near.stationary_phase == pytest.approx(-PI / 24.0, rel=1e-13)
    # short orbit keeps one reflection per wall:
    wall = (1.0 / (8.0 * PI)) * (1.0 / 0.05**2 + 1.0 / 0.95**2)
    assert near.short_orbit == pytest.approx(-PI / 24.0 + wall, rel=1e-13)
    # near a wall the single reflection dominates and is a good local
    # approximation; at the midpoint it misses the resummed profile.
    assert abs(near.short_orbit / near.exact - 1.0) < 2e-2
    mid = rows["density@0.5"]
    assert abs(mid.short_orbit / mid.exact - 1.0) > 0.1


def test_approximation_report_defaults_and_validation():
    report = approximation_report(Interval(2.0, DIRICHLET, DIRICHLET))
    names = [r.quantity for r in report.rows]
    assert names[:2] == ["total_energy", "boundary_energy"]
    assert names[2:] == ["density@0.5", "density@1"]
    assert report.xi == 0.25
    with pytest.raises(UnsupportedGeometry):
        approximation_report(TwistedCircle(1.0, 0.5))


@pytest.mark.parametrize("exponent", range(-300, 301, 20))
def test_approximation_report_from_tiny_to_huge_lengths(exponent):
    # the hand-written wall term once raised OverflowError from (L - x)^2
    # at L = 1e160
    for left, right in ((DIRICHLET, DIRICHLET), (DIRICHLET, NEUMANN), (NEUMANN, NEUMANN)):
        try:
            report = approximation_report(Interval(10.0**exponent, left, right))
        except InvalidParameter:
            continue
        for row in report.rows:
            assert math.isfinite(row.exact + row.stationary_phase + row.short_orbit), row


def test_approximation_report_next_to_a_wall():
    # x = 1e-200 once raised ZeroDivisionError; at xi = 0 the walls carry
    # no weight, and at xi = 1/4 their profile overflows
    (*_, row) = approximation_report(Interval(1.0), x_points=(1e-200,), xi=0.0).rows
    assert row.short_orbit == row.stationary_phase == row.exact == pytest.approx(-PI / 24.0)
    with pytest.raises(InvalidParameter):
        approximation_report(Interval(1.0), x_points=(1e-200,))


def test_breakdown_is_frozen():
    out = total_energy_renormalized(Interval(1.0, DIRICHLET, DIRICHLET))
    assert isinstance(out, EnergyBreakdown)
    with pytest.raises(AttributeError):
        out.weyl = 1.0
