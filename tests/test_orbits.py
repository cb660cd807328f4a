"""Closed-orbit enumerations and the orbit-sum spectral densities.

The load-bearing oracle: an Abel-damped orbit sum equals the exact mode
density smoothed with the Lorentzian pair kernel

    P_s(omega - omega_j) + P_s(omega + omega_j),   P_s(u) = (s/pi)/(u^2+s^2),

the second addend coming from the even extension of the density to
omega < 0.  A zero mode's two images coincide, so it carries the full
pair weight 2 P_s(omega) -- asserted explicitly below, Neumann-Neumann
and untwisted circle both.
"""

import cmath
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from vacuum1d.errors import (
    InvalidParameter,
    OutOfDomain,
    UnsupportedGeometry,
)
from vacuum1d.orbits import (
    BOUNDARY_ODD,
    DIRECT,
    DIRICHLET_KERNEL,
    ORBIT_SUM,
    PERIODIC,
    _geometric_sum,
    enumerate_orbits,
    global_density_decomposition,
    green_im_diag,
    local_counting,
    local_spectral_density,
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
from vacuum1d.summation import ABEL, RAW, SeriesControl, SeriesValue

PI = math.pi


def lorentz_pair(omega: float, omega_j: float, s: float) -> float:
    """Smoothing weight of one mode: both images of the even extension."""
    return (s / PI) * (
        1.0 / ((omega - omega_j) ** 2 + s * s)
        + 1.0 / ((omega + omega_j) ** 2 + s * s)
    )


def smoothed_mode_density(geometry, omega: float, x: float, s: float) -> float:
    """Brute-force sigma_s(omega, x): Lorentzian-smoothed eigenmode sum."""
    # Ladder index origin: the Dirichlet-Dirichlet interval starts at j = 1.
    j0 = 1 if (
        isinstance(geometry, Interval)
        and geometry.left is DIRICHLET
        and geometry.right is DIRICHLET
    ) else 0
    total = 0.0
    for j, (omega_j, mult) in enumerate(eigenvalues(geometry, 3000.0), start=j0):
        total += mult * eigenfunction_density(geometry, j, x) * lorentz_pair(
            omega, omega_j, s
        )
    return total


# ---------------------------------------------------------------------------
# enumerate_orbits
# ---------------------------------------------------------------------------


def test_halfline_has_exactly_two_orbits():
    got = enumerate_orbits(HalfLine(DIRICHLET), 0.4, 0.1, 99)
    assert len(got) == 2
    direct, refl = got
    assert direct.family == DIRECT
    assert direct.displacement == pytest.approx(0.3)
    assert direct.sign == 1
    assert refl.family == BOUNDARY_ODD
    assert refl.displacement == pytest.approx(0.5)
    assert refl.sign == -1  # Dirichlet wall flips
    assert enumerate_orbits(HalfLine(NEUMANN), 0.4, 0.1, 0)[1].sign == 1


def test_interval_orbit_lattice():
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    x, y, w = 0.3, 0.2, 2
    got = enumerate_orbits(geom, x, y, w)
    periodic = [o for o in got if o.family in (DIRECT, PERIODIC)]
    boundary = [o for o in got if o.family == BOUNDARY_ODD]
    assert len(periodic) == 2 * w + 1
    assert len(boundary) == 2 * w
    assert sorted(o.displacement for o in periodic) == pytest.approx(
        [x - y + 2 * n for n in range(-w, w + 1)]
    )
    assert sorted(o.displacement for o in boundary) == pytest.approx(
        [x + y + 2 * n for n in range(-w, w)]
    )
    # Like ends: every periodic sign +1, every boundary sign (-1)^l = -1.
    assert all(o.sign == 1 for o in periodic)
    assert all(o.sign == -1 for o in boundary)
    # Sorted by path length.
    lengths = [o.length for o in got]
    assert lengths == sorted(lengths)


def test_mixed_interval_signs_alternate_with_winding():
    geom = Interval(1.0, DIRICHLET, NEUMANN)
    got = enumerate_orbits(geom, 0.5, 0.5, 3)
    for o in got:
        if o.family in (DIRECT, PERIODIC):
            assert o.sign == (-1) ** (o.winding % 2)
        else:
            # One left reflection: base (-1)^l, alternating in winding.
            assert o.sign == -((-1) ** (o.winding % 2))


def test_twisted_orbits_carry_holonomy_phase():
    geom = TwistedCircle(1.5, 0.9)
    got = enumerate_orbits(geom, 0.2, 0.2, 2)
    assert [o.family for o in got].count(BOUNDARY_ODD) == 0
    for o in got:
        assert o.phase == pytest.approx(o.winding * 0.9)
        assert o.sign == 1
        assert o.displacement == pytest.approx(-o.winding * 1.5)


def test_enumerate_orbits_validates_input():
    with pytest.raises(InvalidParameter):
        enumerate_orbits(Interval(1.0, DIRICHLET, DIRICHLET), 0.5, 0.5, -1)
    with pytest.raises(OutOfDomain):
        enumerate_orbits(Interval(1.0, DIRICHLET, DIRICHLET), 1.5, 0.5, 1)


# ---------------------------------------------------------------------------
# Green function and the termwise density identity
# ---------------------------------------------------------------------------


def test_halfline_green_im_worked_value():
    # (1 - cos(2 omega x)) / (2 omega) at omega = 2, x = 0.3.
    got = green_im_diag(HalfLine(DIRICHLET), 2.0, 0.3)
    assert got.value == pytest.approx(0.25 * (1.0 - math.cos(1.2)), rel=1e-15)
    got_n = green_im_diag(HalfLine(NEUMANN), 2.0, 0.3)
    assert got_n.value == pytest.approx(0.25 * (1.0 + math.cos(1.2)), rel=1e-15)


@pytest.mark.parametrize(
    "geometry,x",
    [
        (Interval(1.0, DIRICHLET, DIRICHLET), 0.37),
        (Interval(1.0, NEUMANN, DIRICHLET), 0.62),
        (HalfLine(DIRICHLET), 0.8),
        (TwistedCircle(1.0, 2.2), 0.1),
    ],
)
def test_green_im_is_pi_over_2omega_times_density(geometry, x):
    omega = 3.3
    control = SeriesControl(max_terms=500, damping_t=0.05)
    gim = green_im_diag(geometry, omega, x, control)
    sigma = local_spectral_density(geometry, omega, x, control)
    assert gim.value == pytest.approx(
        (PI / (2.0 * omega)) * sigma.total, rel=1e-13
    )


@pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan])
def test_green_im_rejects_nonpositive_omega(omega):
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    for call in (
        lambda: green_im_diag(geom, omega, 0.5),
        lambda: local_spectral_density(geom, omega, 0.5),
        lambda: global_density_decomposition(geom, omega),
        lambda: local_counting(HalfLine(DIRICHLET), omega, 0.5),
    ):
        with pytest.raises(InvalidParameter):
            call()


# ---------------------------------------------------------------------------
# Local spectral density vs smoothed mode sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "geometry,x",
    [
        (Interval(1.0, DIRICHLET, DIRICHLET), 0.33),
        (Interval(1.0, DIRICHLET, NEUMANN), 0.7),
        (Interval(0.8, NEUMANN, NEUMANN), 0.25),
        (TwistedCircle(1.0, 1.7), 0.4),
    ],
)
def test_damped_orbit_sum_is_lorentzian_smoothed_density(geometry, x):
    omega, s = 2.7, 0.15
    control = SeriesControl(max_terms=6000, damping_t=s)
    got = local_spectral_density(geometry, omega, x, control).total
    ref = smoothed_mode_density(geometry, omega, x, s)
    # Mode cutoff at 3000 leaves a fat Lorentzian tail ~ 2 s L / (pi^2 W).
    assert got == pytest.approx(ref, abs=5e-5)


def test_zero_modes_carry_the_full_lorentzian_pair_weight():
    # Neumann-Neumann zero mode and the untwisted circle's: their +0 and
    # -0 images coincide, so the smoothed density keeps 2 P_s(omega) --
    # dropping half of it shows up as exactly P_s(omega).
    omega, s = 1.9, 0.12
    for geometry, x in [
        (Interval(1.0, NEUMANN, NEUMANN), 0.41),
        (TwistedCircle(1.0, 0.0), 0.41),
    ]:
        control = SeriesControl(max_terms=6000, damping_t=s)
        got = local_spectral_density(geometry, omega, x, control).total
        full = smoothed_mode_density(geometry, omega, x, s)
        half = full - 0.5 * eigenfunction_density(geometry, 0, x) * lorentz_pair(
            omega, 0.0, s
        )
        assert abs(got - full) < 5e-5
        assert abs(got - half) > 1e-2


def test_halfline_density_is_the_smoothed_continuum():
    # Closed form (1/pi)(1 - cos(2 omega x) e^{-2 s x}) equals the
    # Lorentzian-smoothed continuum of (2/pi) sin^2(k x) weights.
    omega, x, s = 2.0, 0.6, 0.3
    got = local_spectral_density(
        HalfLine(DIRICHLET), omega, x, SeriesControl(damping_t=s)
    ).total
    assert got == pytest.approx(
        (1.0 - math.cos(2 * omega * x) * math.exp(-2 * s * x)) / PI, rel=1e-14
    )
    # 2 sin^2(kx) = 1 - cos(2kx); the flat part integrates the pair kernel
    # to exactly 1, the oscillatory part is a Fourier-weighted quadrature.
    osc, err = quad(
        lambda k: lorentz_pair(omega, k, s),
        0.0,
        np.inf,
        weight="cos",
        wvar=2.0 * x,
    )
    ref = (1.0 - osc) / PI
    assert got == pytest.approx(ref, abs=max(1e-9, 10 * err))


def test_undamped_interval_density_tags_raw():
    sigma = local_spectral_density(
        Interval(1.0, DIRICHLET, DIRICHLET), 5.0, 0.3, SeriesControl(max_terms=200)
    )
    assert sigma.periodic.method_tag == RAW
    sigma_damped = local_spectral_density(
        Interval(1.0, DIRICHLET, DIRICHLET),
        5.0,
        0.3,
        SeriesControl(max_terms=200, damping_t=0.01),
    )
    assert sigma_damped.periodic.method_tag == ABEL


# ---------------------------------------------------------------------------
# Global density decomposition
# ---------------------------------------------------------------------------


def geometric_cos_sum(amplitude: float, phase_step: float, decay: float) -> float:
    """sum_{n>=1} amplitude * cos(n * phase_step) * exp(-n * decay), exactly."""
    q = cmath.exp(complex(-decay, phase_step))
    return amplitude * (q / (1.0 - q)).real


def test_global_periodic_series_matches_geometric_closed_form():
    length, omega, s = 1.0, 3.7, 0.21
    rho = global_density_decomposition(
        Interval(length, DIRICHLET, DIRICHLET),
        omega,
        SeriesControl(max_terms=20000, damping_t=s),
    )
    ref = geometric_cos_sum(2.0 * length / PI, 2.0 * omega * length, 2.0 * s * length)
    assert rho.periodic.value == pytest.approx(ref, abs=1e-12)
    assert rho.weyl == pytest.approx(length / PI, rel=1e-15)


def test_global_twisted_periodic_series_matches_geometric_closed_form():
    length, theta, omega, s = 1.3, 2.0, 2.9, 0.17
    rho = global_density_decomposition(
        TwistedCircle(length, theta),
        omega,
        SeriesControl(max_terms=20000, damping_t=s),
    )
    # cos(n theta) cos(n omega L) splits into the two rotating lattices.
    ref = 0.5 * (
        geometric_cos_sum(2.0 * length / PI, omega * length + theta, s * length)
        + geometric_cos_sum(2.0 * length / PI, omega * length - theta, s * length)
    )
    assert rho.periodic.value == pytest.approx(ref, abs=1e-12)


def test_like_ends_boundary_density_is_the_poisson_image_of_the_atom():
    omega, s = 1.1, 0.4
    control = SeriesControl(max_terms=4000, damping_t=s)
    for left_right, sgn in [((DIRICHLET, DIRICHLET), -1.0), ((NEUMANN, NEUMANN), 1.0)]:
        rho = global_density_decomposition(
            Interval(1.0, *left_right), omega, control
        )
        assert rho.boundary.value == pytest.approx(
            sgn * s / (PI * (omega * omega + s * s)), rel=1e-14
        )
        assert rho.boundary_atom is not None
        assert rho.boundary_atom.weight == pytest.approx(0.5 * sgn)
        assert rho.boundary_atom.location == 0.0


def test_mixed_ends_boundary_density_vanishes_identically():
    rho = global_density_decomposition(
        Interval(1.0, DIRICHLET, NEUMANN), 2.0, SeriesControl(damping_t=0.1)
    )
    assert rho.boundary.value == 0.0
    assert rho.boundary_atom is None


def test_halfline_global_density_is_a_pure_wall_atom():
    rho_d = global_density_decomposition(HalfLine(DIRICHLET), 2.0)
    assert math.isinf(rho_d.weyl)
    assert rho_d.boundary_atom.weight == pytest.approx(-0.25)
    rho_n = global_density_decomposition(HalfLine(NEUMANN), 2.0)
    assert rho_n.boundary_atom.weight == pytest.approx(+0.25)


def test_undamped_like_ends_boundary_is_the_oscillatory_survivor():
    omega, w = 2.3, 700
    rho = global_density_decomposition(
        Interval(1.0, DIRICHLET, DIRICHLET), omega, SeriesControl(max_terms=w)
    )
    assert rho.boundary.value == pytest.approx(
        -math.sin(2.0 * omega * w) / (PI * omega), rel=1e-12
    )
    assert rho.boundary.method_tag == RAW


# ---------------------------------------------------------------------------
# Closed-form orbit series against high-precision sums of the same series
# ---------------------------------------------------------------------------

WINDINGS = (1, 2, 7, 10_000)
DAMPINGS = (0.0, 1e-6, 0.05, 0.5)
# Relative offsets of omega from a resonance of the summed lattice.
OFFSETS = (0.0, 1e-12, 1e-8, 1e-5)


def effective_terms(w: int, decay: float) -> float:
    """Terms that matter: W, or the damped series' 1/(1 - e^-decay)."""
    return min(float(w), 1.0 / -math.expm1(-decay)) if decay > 0.0 else float(w)


# The reference sums run term by term in fixed point: complex numbers as
# integer pairs scaled by 2^FIX, started from 60-digit mpmath values, so
# 10^4 terms lose nothing at 50 digits and cost microseconds each.
FIX = 200


def fixed(z) -> tuple[int, int]:
    with mpmath.workdps(60):
        z = mpmath.mpc(z)
        return int(mpmath.nint(mpmath.ldexp(z.real, FIX))), int(
            mpmath.nint(mpmath.ldexp(z.imag, FIX))
        )


def powers(start, ratio, count: int):
    """start * ratio^m for m = 0..count-1, as fixed-point integer pairs,
    ending early once the terms have decayed to zero."""
    (ar, ai), (qr, qi) = fixed(start), fixed(ratio)
    for _ in range(count):
        if ar == ai == 0:
            return
        yield ar, ai
        ar, ai = (ar * qr - ai * qi) >> FIX, (ar * qi + ai * qr) >> FIX


def unfixed(v: int) -> float:
    return float(mpmath.ldexp(mpmath.mpf(v), -FIX))


def mp_exp(re: float, im: float):
    with mpmath.workdps(60):
        return mpmath.exp(mpmath.mpc(re, im))


@pytest.mark.parametrize("decay", [2.0 * s for s in DAMPINGS])
@pytest.mark.parametrize(
    "phase",
    [0.0, 2.0, -3.0, 6.0 * PI] + [6.0 * PI * (1.0 + off) for off in OFFSETS[1:]],
)
def test_geometric_sum_matches_the_termwise_sum(phase, decay):
    # partial[N] = sum_{n<N} q^n with q = e^{i phase - decay}.
    partial, re, im = [(0, 0)], 0, 0
    for tr, ti in powers(1, mp_exp(-decay, phase), max(WINDINGS) + 1):
        re, im = re + tr, im + ti
        partial.append((re, im))
    partial += [partial[-1]] * (max(WINDINGS) + 2 - len(partial))
    for w in WINDINGS:
        for first in (0, 1):
            (ar, ai), (br, bi) = partial[first + w], partial[first]
            want = complex(unfixed(ar - br), unfixed(ai - bi))
            got = _geometric_sum(phase, decay, first, w)
            tol = 1e-13 * (1.0 + effective_terms(w, decay))
            assert abs(got - want) <= tol, (w, first, got, want)


def test_geometric_sum_at_exact_resonance_counts_its_terms():
    assert _geometric_sum(0.0, 0.0, 1, 10_000) == 10_000
    assert _geometric_sum(0.0, 0.0, 0, 7) == 7


def mp_orbit_series(geometry, omega: float, x: float, s: float, w: int):
    """(periodic, boundary) orbit series of Im G, summed term by term over
    exactly the windings the library keeps: the periodic members
    n = 1..W (the -n members equal these), and
    sum_{n=-W}^{W-1} sign_n cos(omega l_n) e^{-s l_n}, l_n = 2|x + nL|."""
    length = geometry.length
    if isinstance(geometry, TwistedCircle):
        ratio, turn = mp_exp(-s * length, omega * length), mp_exp(0.0, geometry.theta)
        per = sum(
            (tr * cr) >> FIX
            for (tr, _), (cr, _) in zip(powers(ratio, ratio, w), powers(turn, turn, w))
        )
        return unfixed(per), 0.0
    l, r = geometry.l, geometry.r
    ratio = mp_exp(-2.0 * s * length, 2.0 * omega * length)
    per = sum(
        (-1) ** (n * (l + r)) * tr for n, (tr, _) in enumerate(powers(ratio, ratio, w), start=1)
    )
    # n >= 0: l_n = 2(x + nL); n < 0: l_n = 2(|n| L - x).
    bdry = 0
    with mpmath.workdps(60):
        near = mpmath.mpf(x)
        far = mpmath.mpf(length) - near
        k = mpmath.mpc(-2 * mpmath.mpf(s), 2 * mpmath.mpf(omega))
        starts = (mpmath.exp(k * near), mpmath.exp(k * far))
    for start, windings in zip(starts, (range(0, w), range(-1, -w - 1, -1))):
        for n, (tr, _) in zip(windings, powers(start, ratio, w)):
            bdry += (-1) ** (l + n * (l + r)) * tr
    return unfixed(per), unfixed(bdry)


def resonant_omega(geometry) -> float:
    """A frequency at which the periodic series is undamped-resonant: every
    winding's phase a multiple of 2 pi (up to the rounding of the input)."""
    if isinstance(geometry, TwistedCircle):
        return (4.0 * PI - geometry.theta) / geometry.length
    return (2.0 if geometry.like_ends else 2.5) * PI / geometry.length


SERIES_GEOMETRIES = [
    Interval(1.0, DIRICHLET, DIRICHLET),
    Interval(1.0, DIRICHLET, NEUMANN),
    Interval(1.0, NEUMANN, DIRICHLET),
    Interval(1.0, NEUMANN, NEUMANN),
    TwistedCircle(1.0, 0.0),
    TwistedCircle(1.0, PI),
    TwistedCircle(1.0, 2.2),
]


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("geometry", SERIES_GEOMETRIES, ids=repr)
def test_orbit_densities_match_the_termwise_series(geometry, offset):
    """L = 1 makes omega L exact, so both sides sum the same series."""
    omega = resonant_omega(geometry) * (1.0 + offset)
    x = 0.3
    twisted = isinstance(geometry, TwistedCircle)
    for w, s in itertools.product(WINDINGS, DAMPINGS):
        control = SeriesControl(max_terms=w, damping_t=s)
        per, bdry = mp_orbit_series(geometry, omega, x, s, w)
        decay = s * geometry.length * (1.0 if twisted else 2.0)
        tol = 1e-13 * (1.0 + effective_terms(w, decay))
        got_g = green_im_diag(geometry, omega, x, control)
        got_s = local_spectral_density(geometry, omega, x, control)
        got_r = global_density_decomposition(geometry, omega, control)
        at = (w, s)
        assert abs(2.0 * omega * got_g.value - (1.0 + 2.0 * per + bdry)) <= 2.0 * tol, at
        assert abs(PI / 2.0 * got_s.periodic.value - per) <= tol, at
        assert abs(PI * got_s.boundary.value - bdry) <= tol, at
        assert abs(PI / (2.0 * geometry.length) * got_r.periodic.value - per) <= tol, at


# (geometry, omega, x, control, [(terms_used, method_tag, truncation_bound)
# of green_im_diag, sigma periodic, sigma boundary, rho periodic, rho
# boundary]), as the term-by-term sums reported them.
REPORTED = [
    (Interval(1.0, DIRICHLET, DIRICHLET), 3.7, 0.3, {"max_terms": 100, "damping_t": 0.1},
     [(401, "abel", 6.51177144299748e-10), (100, "abel", 6.560855749657252e-12),
      (200, "abel", 6.560855749657252e-12), (100, "abel", 1.3121711499314505e-09),
      (200, "closed-form", 6.560855749657252e-09)]),
    (Interval(1.0, NEUMANN, NEUMANN), 3.7, 0.3, {},
     [(40001, "raw", 2.252252252252252e-05), (10000, "raw", 6.366197723675813e-05),
      (20000, "raw", 6.366197723675813e-05), (10000, "raw", 6.366197723675813e-05),
      (20000, "raw", 0.08602969896859208)]),
    (Interval(1.0, DIRICHLET, NEUMANN), 2.9, 0.71, {"max_terms": 7},
     [(29, "raw", 0.04246645150331238), (7, "raw", 0.09094568176679733),
      (14, "raw", 0.09094568176679733), (7, "raw", 0.09094568176679733),
      (14, "closed-form", 0.0)]),
    (Interval(0.8, NEUMANN, DIRICHLET), 11.2, 0.05, {"max_terms": 300, "damping_t": 0.02},
     [(1201, "abel", 1.0213143545115717e-05), (300, "abel", 7.186242134591872e-08),
      (600, "abel", 7.186242134591872e-08), (300, "abel", 3.449396224604099e-05),
      (600, "closed-form", 0.0)]),
    (TwistedCircle(1.3, 2.2), 4.1, 0.4, {"max_terms": 40, "damping_t": 0.05},
     [(81, "abel", 0.016468858481153453), (40, "abel", 0.0005910503556966872),
      (0, "closed-form", 0.0), (40, "abel", 0.06146923699245548),
      (0, "closed-form", 0.0)]),
    (TwistedCircle(1.0, 0.0), 6.0, 0.9, {"max_terms": 2},
     [(5, "raw", 0.041666666666666664), (2, "raw", 0.3183098861837907),
      (0, "closed-form", 0.0), (2, "raw", 0.3183098861837907),
      (0, "closed-form", 0.0)]),
]


@pytest.mark.parametrize("geometry,omega,x,settings,reported", REPORTED)
def test_orbit_series_report_the_same_terms_tags_and_bounds(
    geometry, omega, x, settings, reported
):
    control = SeriesControl(**settings)
    sigma = local_spectral_density(geometry, omega, x, control)
    rho = global_density_decomposition(geometry, omega, control)
    got = [green_im_diag(geometry, omega, x, control), sigma.periodic, sigma.boundary,
           rho.periodic, rho.boundary]
    assert [(v.terms_used, v.method_tag, v.truncation_bound) for v in got] == reported


# ---------------------------------------------------------------------------
# Local counting function
# ---------------------------------------------------------------------------


def test_dirichlet_kernel_counting_equals_mode_sum():
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    for omega, x in [(9.0, 0.37), (25.3, 0.11), (4.0, 0.5)]:
        closed = local_counting(geom, omega, x, method=DIRICHLET_KERNEL)
        modes = sum(
            2.0 * math.sin(j * PI * x) ** 2
            for j in range(1, int(omega / PI) + 1)
        )
        assert closed == pytest.approx(modes, abs=1e-12)


def test_orbit_sum_counting_converges_to_dirichlet_kernel():
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    omega, x = 9.0, 0.37
    closed = local_counting(geom, omega, x, method=DIRICHLET_KERNEL)
    devs = []
    for w in (200, 2000, 20000):
        got = local_counting(
            geom, omega, x, method=ORBIT_SUM, control=SeriesControl(max_terms=w)
        )
        devs.append(abs(got - closed))
    assert devs[2] < devs[0]
    assert devs[2] < 2e-3


def test_dirichlet_kernel_route_requires_dirichlet_interval():
    with pytest.raises(UnsupportedGeometry):
        local_counting(
            Interval(1.0, NEUMANN, NEUMANN), 5.0, 0.3, method=DIRICHLET_KERNEL
        )


# ---------------------------------------------------------------------------
# Lengths near the top of the float range, where 2 L and W L overflow.
# ---------------------------------------------------------------------------

HUGE_GEOMETRIES = (
    Interval(1e308),
    Interval(1e308, DIRICHLET, NEUMANN),
    Interval(sys.float_info.max, NEUMANN, NEUMANN),
    TwistedCircle(1e308, 1.0),
    TwistedCircle(sys.float_info.max, 0.0),
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("geometry", HUGE_GEOMETRIES, ids=repr)
@pytest.mark.parametrize("omega", [3e-308, 1.0])
@pytest.mark.parametrize("damping", [0.0, 1e-309, 1.0])
def test_orbit_sums_at_huge_lengths_are_finite_or_invalid(geometry, omega, damping):
    control = SeriesControl(damping_t=damping)
    x = 0.3 * geometry.length
    calls = (
        lambda: green_im_diag(geometry, omega, x, control),
        lambda: local_spectral_density(geometry, omega, x, control),
        lambda: global_density_decomposition(geometry, omega, control),
    )
    for call in calls:
        try:
            out = call()
        except InvalidParameter:
            continue
        if isinstance(out, SeriesValue):
            floats = [out.value, out.truncation_bound]
        else:
            head = out.average if hasattr(out, "average") else out.weyl
            floats = [head] + [f for part in (out.periodic, out.boundary)
                               for f in (part.value, part.truncation_bound)]
        assert all(math.isfinite(f) for f in floats), (call, out)


@pytest.mark.filterwarnings("error")
def test_the_damped_green_bound_at_a_huge_length_stays_a_bound():
    # W L overflows: the last damped term is bounded by 1
    for geometry in (Interval(1e308), TwistedCircle(1e308, 1.0)):
        out = green_im_diag(geometry, 3e-308, 3e307, SeriesControl(damping_t=1e-309))
        assert math.isfinite(out.value) and 0.0 < out.truncation_bound < math.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("geometry,omega,x", [
    (Interval(1.0), 5e-324, 1e-320),
    (Interval(1e-300, DIRICHLET, NEUMANN), 1e-300, 3e-301),
])
def test_the_undamped_green_bound_at_tiny_omega_and_x_is_invalid_not_a_division_by_zero(
    geometry, omega, x
):
    # 2 omega W Lmin underflows to 0; each quotient of the bound overflows
    with pytest.raises(InvalidParameter):
        green_im_diag(geometry, omega, x)
