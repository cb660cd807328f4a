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
    DIRICHLET_KERNEL,
    ORBIT_SUM,
    _geometric_sum,
    _interval_boundary_counting,
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
    _images,
    eigenfunction_density,
    eigenvalues,
    periodic_counting_term,
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
# The image-family table (spectrum._images)
# ---------------------------------------------------------------------------


def image_heat_kernel(geometry, x: float, y: float, t: float, winding: int = 8) -> complex:
    """K(x, y, t) summed over the Gaussian images that spectrum._images
    lists, |m| <= winding in each family."""
    length = getattr(geometry, "length", 0.0)
    total = 0j
    for sign, reflected, turns, theta in _images(geometry):
        d = x + y if reflected else x - y
        for m in range(-winding, winding + 1) if turns else (0,):
            total += sign * cmath.exp(1j * m * theta) * math.exp(
                -((d + m * turns * length) ** 2) / (4.0 * t)
            )
    return total / math.sqrt(4.0 * PI * t)


def mode_heat_kernel(geometry, x: float, y: float, t: float, modes: int = 80) -> complex:
    """K(x, y, t) = sum_j phi_j(x) phi_j(y)* e^{-t k_j^2} from the textbook
    modes: sin (Dirichlet left end) or cos (Neumann) of k x on the interval,
    k = j pi/L for like ends and (j + 1/2) pi/L for mixed ends; e^{i k x}/sqrt(L)
    with k = (2 pi n + theta)/L on the circle."""
    length = geometry.length
    if isinstance(geometry, TwistedCircle):
        ks = [(2 * PI * n + geometry.theta) / length for n in range(-modes, modes + 1)]
        return sum(cmath.exp(1j * k * (x - y) - t * k * k) for k in ks) / length
    wave = math.sin if geometry.left is DIRICHLET else math.cos
    shift = 0.0 if geometry.like_ends else 0.5
    total = 0.0
    for j in range(modes):
        k = (j + shift) * PI / length
        weight = 1.0 if k == 0.0 else 2.0
        total += weight * wave(k * x) * wave(k * y) * math.exp(-t * k * k)
    return total / length


def test_halfline_has_exactly_two_orbits():
    assert _images(HalfLine(DIRICHLET)) == ((1.0, False, 0, 0.0), (-1.0, True, 0, 0.0))
    assert _images(HalfLine(NEUMANN)) == ((1.0, False, 0, 0.0), (1.0, True, 0, 0.0))
    # The reflected image makes the Dirichlet kernel vanish at the wall and
    # the Neumann kernel even across it.
    assert image_heat_kernel(HalfLine(DIRICHLET), 0.0, 0.7, 0.3) == 0.0
    assert image_heat_kernel(HalfLine(NEUMANN), -0.4, 0.7, 0.3) == pytest.approx(
        image_heat_kernel(HalfLine(NEUMANN), 0.4, 0.7, 0.3), rel=1e-15
    )


def test_interval_orbit_lattice():
    # Like ends: both families 2L apart with real unit weights; the
    # reflected one is signed (-1)^l = -1 for a Dirichlet left end.
    assert _images(Interval(1.0, DIRICHLET, DIRICHLET)) == (
        (1.0, False, 2, 0.0),
        (-1.0, True, 2, 0.0),
    )
    assert _images(Interval(1.0, NEUMANN, NEUMANN)) == (
        (1.0, False, 2, 0.0),
        (1.0, True, 2, 0.0),
    )
    # The Dirichlet kernel vanishes at both walls.
    geom = Interval(1.3, DIRICHLET, DIRICHLET)
    assert abs(image_heat_kernel(geom, 0.0, 0.4, 0.2)) <= 1e-16
    assert abs(image_heat_kernel(geom, 1.3, 0.4, 0.2)) <= 1e-16


def test_mixed_interval_signs_alternate_with_winding():
    for left, sign in ((DIRICHLET, -1.0), (NEUMANN, 1.0)):
        right = NEUMANN if left is DIRICHLET else DIRICHLET
        families = _images(Interval(1.0, left, right))
        assert [(s, reflected, turns) for s, reflected, turns, _ in families] == [
            (1.0, False, 2),
            (sign, True, 2),
        ]
        # theta = pi: the weight e^{i m pi} of image m is (-1)^m.
        for _, _, _, theta in families:
            for m in range(-3, 4):
                assert cmath.exp(1j * m * theta) == pytest.approx((-1) ** m, abs=1e-15)
    # Dirichlet left, Neumann right: the kernel vanishes at x = 0 only.
    geom = Interval(1.3, DIRICHLET, NEUMANN)
    assert abs(image_heat_kernel(geom, 0.0, 0.4, 0.2)) <= 1e-16
    assert abs(image_heat_kernel(geom, 1.3, 0.4, 0.2)) > 0.1


def test_twisted_orbits_carry_holonomy_phase():
    # Winding n sits at x - y - n L with phase n theta, so m = -n carries -theta.
    assert _images(TwistedCircle(1.5, 0.9)) == ((1.0, False, 1, -0.9),)
    # Crossing the circle once multiplies the kernel by the holonomy e^{i theta}.
    geom = TwistedCircle(1.5, 0.9)
    assert image_heat_kernel(geom, 0.2 + 1.5, 0.4, 0.3) == pytest.approx(
        cmath.exp(0.9j) * image_heat_kernel(geom, 0.2, 0.4, 0.3), rel=1e-14
    )


@pytest.mark.parametrize(
    "geom",
    [
        Interval(1.0, DIRICHLET, DIRICHLET),
        Interval(1.0, NEUMANN, NEUMANN),
        Interval(2.5, DIRICHLET, NEUMANN),
        Interval(2.5, NEUMANN, DIRICHLET),
        TwistedCircle(1.0, 0.0),
        TwistedCircle(1.5, 0.9),
        TwistedCircle(2.0, PI),
    ],
    ids=["D/D", "N/N", "D/N", "N/D", "circle", "twisted", "antiperiodic"],
)
def test_image_families_reproduce_the_heat_mode_sum(geom):
    # Poisson summation: the images of the table and the eigenmodes give
    # one heat kernel, on and off the diagonal and at both walls.
    length = geom.length
    for x, y in ((0.3, 0.2), (0.55, 0.55), (0.0, 0.7), (0.9, 0.1)):
        x, y = x * length, y * length
        for t in (0.02 * length**2, 0.3 * length**2):
            images = image_heat_kernel(geom, x, y, t)
            modes = mode_heat_kernel(geom, x, y, t)
            assert abs(images - modes) <= 1e-13 * (4 * PI * t) ** -0.5, (x, y, t)


@pytest.mark.parametrize(
    "geom",
    [
        Interval(1.0, DIRICHLET, DIRICHLET),
        Interval(1.0, NEUMANN, NEUMANN),
        Interval(2.5, DIRICHLET, NEUMANN),
        Interval(2.5, NEUMANN, DIRICHLET),
        TwistedCircle(1.0, 0.0),
        TwistedCircle(1.5, 0.9),
        TwistedCircle(2.0, PI),
    ],
    ids=["D/D", "N/N", "D/N", "N/D", "circle", "twisted", "antiperiodic"],
)
def test_damped_density_is_the_sum_over_the_image_families(geom):
    # The orbit series read the table: sigma(omega, x) is (1/pi) times the
    # sum over its rows of sign e^{i m theta} cos(omega l_m) e^{-s l_m},
    # l_m = |d + m turns L| with d = 0 (direct) or 2x (reflected), summed
    # here at 30 digits until e^{-s l} < 1e-18.
    length = geom.length
    for omega, x, s in ((3.7, 0.3, 0.2), (11.2, 0.81, 0.5), (PI, 0.55, 0.03)):
        omega, x, s = omega / length, x * length, s / length
        with mpmath.workdps(30):
            total = mpmath.mpf(0)
            for sign, reflected, turns, theta in _images(geom):
                d = 2 * mpmath.mpf(x) if reflected else mpmath.mpf(0)
                reach = int((mpmath.log(1e18) / s + abs(d)) / (turns * length)) + 1
                for m in range(-reach, reach + 1):
                    lm = abs(d + m * turns * mpmath.mpf(length))
                    weight = sign * mpmath.expj(m * mpmath.mpf(theta))
                    total += weight * mpmath.cos(omega * lm) * mpmath.exp(-s * lm)
            # theta = pi is the double nearest pi: e^{i m theta} is (-1)^m
            # to far below the tolerance in its real part
            want = float(total.real / mpmath.pi)
        sigma = local_spectral_density(geom, omega, x, SeriesControl(damping_t=s))
        bound = sigma.periodic.truncation_bound + sigma.boundary.truncation_bound
        rounding = 4 * 2.0**-52 * (1 / PI + abs(sigma.periodic.value) + abs(sigma.boundary.value))
        assert abs(sigma.total - want) <= bound + rounding, (omega, x, s, sigma, want)


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


@pytest.mark.parametrize(
    "phase",
    [0.0, 2.0, -3.0, 6.0 * PI] + [6.0 * PI * (1.0 + off) for off in OFFSETS[1:]],
)
def test_geometric_sum_matches_the_termwise_sum(phase):
    # partial[N] = sum_{n<N} q^n with q = e^{i phase}.
    partial, re, im = [(0, 0)], 0, 0
    for tr, ti in powers(1, mp_exp(0.0, phase), max(WINDINGS) + 1):
        re, im = re + tr, im + ti
        partial.append((re, im))
    partial += [partial[-1]] * (max(WINDINGS) + 2 - len(partial))
    for w in WINDINGS:
        for first in (0, 1):
            (ar, ai), (br, bi) = partial[first + w], partial[first]
            want = complex(unfixed(ar - br), unfixed(ai - bi))
            got = _geometric_sum(phase, first, w)
            tol = 1e-13 * (1.0 + w)
            assert abs(got - want) <= tol, (w, first, got, want)


def test_geometric_sum_at_exact_resonance_counts_its_terms():
    assert _geometric_sum(0.0, 1, 10_000) == 10_000
    assert _geometric_sum(0.0, 0, 7) == 7


def mp_geometric(phase, decay, first: int, w: int):
    """sum_n q^n, q = e^{-decay + i phase}: n >= first when damped (the
    infinite sum), n = first .. first + W - 1 undamped."""
    q = mpmath.exp(mpmath.mpc(-decay, phase))
    if decay > 0:
        return q**first / (1 - q)
    return mpmath.mpf(w) if q == 1 else q**first * (1 - q**w) / (1 - q)


def mp_closed_series(geometry, omega: float, x: float, s: float, w: int):
    """(periodic, boundary) orbit series of Im G as mpmath closed forms of
    the float inputs, exactly: infinite when damped, W windings undamped.
    Call inside mpmath.workdps."""
    om, sm, length, xm = map(mpmath.mpf, (omega, s, geometry.length, x))
    if isinstance(geometry, TwistedCircle):
        theta = mpmath.mpf(geometry.theta)
        both = [mp_geometric(om * length + sign * theta, sm * length, 1, w) for sign in (1, -1)]
        return sum(both).real / 2, mpmath.mpf(0)
    phase = 2 * om * length + (0 if geometry.like_ends else mpmath.pi)
    decay = 2 * sm * length
    k = mpmath.mpc(-2 * sm, 2 * om)
    starts = mpmath.exp(k * xm) + (1 if geometry.like_ends else -1) * mpmath.exp(k * (length - xm))
    per = mp_geometric(phase, decay, 1, w).real
    return per, (-1) ** geometry.l * (starts * mp_geometric(phase, decay, 0, w)).real


def mp_orbit_parts(geometry, omega: float, x: float, s: float, w: int) -> list[float]:
    """40-digit references for [green_im_diag, sigma periodic, sigma
    boundary, rho periodic, rho boundary]."""
    with mpmath.workdps(40):
        per, bdry = mp_closed_series(geometry, omega, x, s, w)
        om, sm, length = map(mpmath.mpf, (omega, s, geometry.length))
        rho_b = mpmath.mpf(0)
        if isinstance(geometry, Interval) and geometry.like_ends:
            sgn = (-1) ** geometry.l
            rho_b = (sgn * sm / (mpmath.pi * (om**2 + sm**2)) if s > 0.0
                     else sgn * mpmath.sin(2 * om * length * w) / (mpmath.pi * om))
        return [float(v) for v in ((1 + 2 * per + bdry) / (2 * om), 2 * per / mpmath.pi,
                                   bdry / mpmath.pi, 2 * length / mpmath.pi * per, rho_b)]


def mp_orbit_series(geometry, omega: float, x: float, s: float, w: int):
    """(periodic, boundary) orbit series of Im G: damped, the infinite sums
    in closed form; undamped, summed term by term over exactly the
    windings the library keeps: the periodic members n = 1..W (the -n
    members equal these), and sum_{n=-W}^{W-1} sign_n cos(omega l_n),
    l_n = 2|x + nL|."""
    if s > 0.0:
        with mpmath.workdps(60):
            return tuple(map(float, mp_closed_series(geometry, omega, x, s, w)))
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
    """L = 1 makes omega L exact, so both sides sum the same series: all
    of it when damped, W windings undamped."""
    omega = resonant_omega(geometry) * (1.0 + offset)
    x = 0.3
    twisted = isinstance(geometry, TwistedCircle)
    for w, s in itertools.product(WINDINGS, DAMPINGS):
        control = SeriesControl(max_terms=w, damping_t=s)
        per, bdry = mp_orbit_series(geometry, omega, x, s, w)
        decay = s * geometry.length * (1.0 if twisted else 2.0)
        tol = 1e-13 * (1.0 + effective_terms(w if s == 0.0 else math.inf, decay))
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
# boundary]).  Damped, terms_used counts the series summed to the end;
# undamped, the windings kept.  Every bound is a rounding bound.
REPORTED = [
    (Interval(1.0, DIRICHLET, DIRICHLET), 3.7, 0.3, {"max_terms": 100, "damping_t": 0.1},
     [(2, "abel", 2.0021565247174044e-15), (1, "abel", 3.0507243233793224e-15),
      (1, "abel", 1.4707439496884479e-15), (1, "abel", 3.0507243233793224e-15),
      (1, "closed-form", 2.0636202312820872e-18)]),
    (Interval(1.0, NEUMANN, NEUMANN), 3.7, 0.3, {},
     [(40001, "raw", 7.045860714299161e-12), (10000, "raw", 1.521444122998825e-11),
      (20000, "raw", 1.3817759357782794e-12), (10000, "raw", 1.521444122998825e-11),
      (20000, "raw", 2.827197921717498e-12)]),
    (Interval(1.0, DIRICHLET, NEUMANN), 2.9, 0.71, {"max_terms": 7},
     [(29, "raw", 7.053167186086008e-15), (7, "raw", 7.231161549803801e-15),
      (14, "raw", 5.626545492107646e-15), (7, "raw", 7.231161549803801e-15),
      (14, "closed-form", 0.0)]),
    (Interval(0.8, NEUMANN, DIRICHLET), 11.2, 0.05, {"max_terms": 300, "damping_t": 0.02},
     [(2, "abel", 8.761325249870228e-16), (1, "abel", 3.028237100929211e-15),
      (1, "abel", 3.0074710530617953e-15), (1, "abel", 2.4225896807433687e-15),
      (0, "closed-form", 0.0)]),
    (TwistedCircle(1.3, 2.2), 4.1, 0.4, {"max_terms": 40, "damping_t": 0.05},
     [(2, "abel", 8.460302912188115e-16), (2, "abel", 2.0007313787623587e-15),
      (0, "closed-form", 0.0), (2, "abel", 2.6009507923910666e-15),
      (0, "closed-form", 0.0)]),
    (TwistedCircle(1.0, 0.0), 6.0, 0.9, {"max_terms": 2},
     [(5, "raw", 1.6471258970370522e-15), (2, "raw", 5.895186262213096e-15),
      (0, "closed-form", 0.0), (2, "raw", 5.895186262213096e-15),
      (0, "closed-form", 0.0)]),
]


@pytest.mark.parametrize("geometry,omega,x,settings,reported", REPORTED)
def test_orbit_series_report_the_same_terms_tags_and_bounds(
    geometry, omega, x, settings, reported
):
    got = orbit_parts(geometry, omega, x, SeriesControl(**settings))
    assert [(v.terms_used, v.method_tag, v.truncation_bound) for v in got] == reported


# ---------------------------------------------------------------------------
# Bounds: every orbit series within its rounding bound of the 40-digit sum
# ---------------------------------------------------------------------------

PARTS = ("green_im_diag", "sigma periodic", "sigma boundary", "rho periodic", "rho boundary")


def orbit_parts(geometry, omega: float, x: float, control: SeriesControl) -> list[SeriesValue]:
    sigma = local_spectral_density(geometry, omega, x, control)
    rho = global_density_decomposition(geometry, omega, control)
    return [green_im_diag(geometry, omega, x, control), sigma.periodic, sigma.boundary,
            rho.periodic, rho.boundary]


def bound_ratios(geometry, omega: float, x: float, control: SeriesControl) -> list[float]:
    """|value - reference| / bound for each part (0 where both are 0)."""
    got = orbit_parts(geometry, omega, x, control)
    want = mp_orbit_parts(geometry, omega, x, control.damping_t, control.max_terms)
    return [abs(v.value - ref) / v.truncation_bound if v.value != ref else 0.0
            for v, ref in zip(got, want)]


@pytest.mark.parametrize("damping", [1e-4, 1e-5, 1e-2])
def test_damped_green_is_the_infinite_sum_within_its_bound(damping):
    # sLW = 2, 0.2 and 200 windings of decay: the W-winding truncation
    # was 0.23 and 1.40 off, and at s = 1e-2 its bound left out rounding
    control = SeriesControl(damping_t=damping)
    got = green_im_diag(Interval(1.0), 3.3, 0.4, control)
    want = mp_orbit_parts(Interval(1.0), 3.3, 0.4, damping, control.max_terms)[0]
    assert got.terms_used == 2
    assert abs(got.value - want) <= got.truncation_bound < 1e-12


def test_damped_local_density_is_the_infinite_sum_within_its_bound():
    # W = 100 kept e^{-2} of the periodic series: 9.5e-2 off
    control = SeriesControl(max_terms=100, damping_t=1e-2)
    ratios = bound_ratios(Interval(1.0), 3.3, 0.4, control)
    assert max(ratios) <= 1.0, dict(zip(PARTS, ratios))


def sweep_cases(count: int, seed: int):
    """D/D, D/N, N/D, N/N intervals and twisted circles: L = 10^U(-3, 3),
    s L = 10^U(-13, 1) or undamped, omega within 10^U(-16, -2) (relative)
    of a level or between levels, W from 1 to 10 000."""
    rng = np.random.default_rng(seed)
    ends = [(DIRICHLET, DIRICHLET), (DIRICHLET, NEUMANN), (NEUMANN, DIRICHLET),
            (NEUMANN, NEUMANN), None]
    for i in range(count):
        length, m = 10.0 ** rng.uniform(-3.0, 3.0), int(rng.integers(1, 40))
        pair = ends[i % len(ends)]
        if pair is None:
            geometry = TwistedCircle(length, float(rng.uniform(0.0, 2.0 * PI)))
            level = (2.0 * PI * m + rng.choice([-1.0, 1.0]) * geometry.theta) / length
        else:
            geometry = Interval(length, *pair)
            level = (m - (0.0 if geometry.like_ends else 0.5)) * PI / length
        if rng.random() < 0.5:
            omega = level * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -2.0))
        else:  # off the level by 0.05-0.95 of pi / L
            omega = level + rng.uniform(0.05, 0.95) * PI / length
        damping = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-13.0, 1.0) / length
        control = SeriesControl(max_terms=int(rng.choice([1, 7, 100, 10_000])), damping_t=damping)
        yield geometry, abs(omega), float(rng.uniform(0.02, 0.98)) * length, control


def test_every_orbit_series_lies_within_its_bound_on_a_sweep():
    worst = dict.fromkeys(PARTS, 0.0)
    for geometry, omega, x, control in sweep_cases(2000, seed=2007):
        ratios = bound_ratios(geometry, omega, x, control)
        for part, ratio in zip(PARTS, ratios):
            worst[part] = max(worst[part], ratio)
        assert max(ratios) <= 1.0, (geometry, omega, x, control, ratios)
    assert max(worst.values()) > 0.0, worst


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


# The boundary images of local_counting: a lattice sum less its tails past W.

END_PAIRS = [(DIRICHLET, DIRICHLET), (NEUMANN, NEUMANN), (DIRICHLET, NEUMANN), (NEUMANN, DIRICHLET)]
IMAGE_LENGTHS = [1e-3, 0.6, 1.0, 1.17262, 1e3]


def mp_boundary_counting(geometry, omega: float, x: float, windings) -> dict:
    """sum_{n=-W}^{W-1} sign_n sin(2 omega (x + nL)) / (2 pi (x + nL)) at 40
    digits and the float inputs, for each W of ``windings``: the windows
    are nested, so one sweep outward gives them all."""
    with mpmath.workdps(40):
        length, om, xm = mpmath.mpf(geometry.length), mpmath.mpf(omega), mpmath.mpf(x)
        total, out = mpmath.mpf(0), {}
        for w in range(1, max(windings) + 1):
            for n in (-w, w - 1):
                d = xm + n * length  # exact at 40 digits
                term = mpmath.sin(2 * om * d) / d
                total += -term if n % 2 and not geometry.like_ends else term
            if w in windings:
                out[w] = (-1) ** geometry.l * total / (2 * mpmath.pi)
    return out


def level_omega(geometry) -> float:
    """An omega whose float 2 omega L is a float multiple of 2 pi (like
    ends) or an odd multiple of pi (mixed ends): a level, where the
    windings add in phase."""
    length = geometry.length
    for k in range(1, 40):
        target = k * 2.0 * PI if geometry.like_ends else (2 * k + 1) * PI
        omega = target / (2.0 * length)
        for _ in range(8):
            phase = 2.0 * omega * length
            if phase == target:
                return omega
            omega = math.nextafter(omega, math.inf if phase < target else 0.0)
    raise AssertionError(f"no resonant omega at L = {length!r}")


def image_points(length: float) -> list[float]:
    """x one ulp of L from the left wall, inside, and 1e-7 L and one ulp
    from the right wall."""
    return [math.ulp(length), 0.37 * length, (1.0 - 1e-7) * length, math.nextafter(length, 0.0)]


@pytest.mark.parametrize("ends", END_PAIRS, ids=lambda e: e[0].value + e[1].value)
def test_boundary_counting_lies_within_its_bound_of_the_40_digit_truncation(ends):
    # W = 2000 on one x per (L, omega), in turn, and W <= 200 on every x
    for i, length in enumerate(IMAGE_LENGTHS):
        geometry = Interval(length, *ends)
        between = 3.37 * PI / length  # off the levels of every end pair
        for j, omega in enumerate((between, level_omega(geometry))):
            for k, x in enumerate(image_points(length)):
                windings = (1, 2, 7, 200) + ((2000,) if k == (i + j) % 4 else ())
                want = mp_boundary_counting(geometry, omega, x, windings)
                for w in windings:
                    got, bound = _interval_boundary_counting(
                        geometry, _images(geometry)[1], omega, x, SeriesControl(max_terms=w)
                    )
                    assert abs(mpmath.mpf(got) - want[w]) <= bound, (length, omega, x, w, got, bound)


@pytest.mark.parametrize("ends", END_PAIRS, ids=lambda e: e[0].value + e[1].value)
def test_boundary_counting_bound_at_the_default_windings(ends):
    # the images scale like 1/L, and so does the bound: at most 1e-9 of
    # max(1, 1/L) at W = 10^4, levels and walls included
    for length in IMAGE_LENGTHS:
        geometry = Interval(length, *ends)
        for omega in (3.37 * PI / length, level_omega(geometry), 100.1 / length):
            for x in image_points(length):
                got, bound = _interval_boundary_counting(geometry, _images(geometry)[1], omega, x, SeriesControl())
                assert math.isfinite(got) and 0.0 < bound <= 1e-9 * max(1.0, 1.0 / length)


def test_local_counting_adds_the_bounded_images_to_weyl_and_sawtooth():
    geometry, omega, x = Interval(0.6, NEUMANN, DIRICHLET), 7.7, 0.41
    images = _interval_boundary_counting(geometry, _images(geometry)[1], omega, x, SeriesControl())[0]
    want = omega / PI + periodic_counting_term(geometry, omega) / 0.6 + images
    assert local_counting(geometry, omega, x) == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("length", [1e308, 1e300, 2.0, 1.0, 1e-300, 1e-310, 5e-324], ids=repr)
@pytest.mark.parametrize("ends", END_PAIRS, ids=lambda e: e[0].value + e[1].value)
def test_interval_local_counting_at_extreme_lengths_is_finite_or_invalid(length, ends):
    # no OverflowError, nan, inf or numpy warning (the sawtooth over a
    # subnormal L overflows); no float lies in (0, 5e-324), so there every
    # point is out of the domain.  The Dirichlet-kernel phase (2M + 1) pi x/L
    # leaked a math domain error, or an OverflowError where 2M + 1 passes
    # the float range, at omega L near the float maximum
    geometry = Interval(length, *ends)
    points = [0.3 * length, 0.5 * length, math.nextafter(length, 0.0), 5e-324]
    omegas = [5e-324, 3e-308, 1.0, 3.3, 1e300, 1e308, sys.float_info.max]
    methods = [ORBIT_SUM, DIRICHLET_KERNEL] if ends == (DIRICHLET, DIRICHLET) else [ORBIT_SUM]
    for x, omega, w, method in itertools.product(points, omegas, [1, 10_000], methods):
        try:
            got = local_counting(geometry, omega, x, method, SeriesControl(max_terms=w))
        except OutOfDomain:
            assert not 0.0 < x < length
            continue
        except InvalidParameter:
            continue
        assert math.isfinite(got), (x, omega, w, method, got)
        if method == DIRICHLET_KERNEL:
            continue
        value, bound = _interval_boundary_counting(
            geometry, _images(geometry)[1], omega, x, SeriesControl(max_terms=w)
        )
        assert math.isfinite(value) and math.isfinite(bound)


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
@pytest.mark.parametrize("damping", [0.0, 1.0])
def test_half_line_orbit_sums_past_the_float_range_are_invalid(damping):
    # 2 omega x overflows: math.cos(inf) raised ValueError
    control = SeriesControl(damping_t=damping)
    for call in (green_im_diag, local_spectral_density):
        with pytest.raises(InvalidParameter):
            call(HalfLine(DIRICHLET), 1e308, 1e308, control)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("condition", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("omega,x", [(1e308, 1e308), (1e308, 2.0), (1.0, 1e308)])
def test_half_line_local_counting_past_the_float_range_is_invalid(condition, omega, x):
    # 2 omega x overflows: math.sin(inf) raised ValueError
    with pytest.raises(InvalidParameter):
        local_counting(HalfLine(condition), omega, x)


@pytest.mark.filterwarnings("error")
def test_the_damped_green_bound_at_a_huge_length_stays_a_bound():
    # W L overflows: the last damped term is bounded by 1
    for geometry in (Interval(1e308), TwistedCircle(1e308, 1.0)):
        out = green_im_diag(geometry, 3e-308, 3e307, SeriesControl(damping_t=1e-309))
        assert math.isfinite(out.value) and 0.0 < out.truncation_bound < math.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("geometry,omega,x", [
    (Interval(1.0), 5e-324, 1e-320),
])
def test_the_undamped_green_bound_at_tiny_omega_and_x_is_invalid_not_a_division_by_zero(
    geometry, omega, x
):
    # the value, 1/(2 omega) = 1e323, leaves the float range
    with pytest.raises(InvalidParameter):
        green_im_diag(geometry, omega, x)


@pytest.mark.filterwarnings("error")
def test_the_undamped_green_at_tiny_omega_and_x_is_the_exact_sum_within_its_bound():
    # 2 omega L underflows to 0, but the sum is 1/(2 omega) = 5e299 to
    # within 1e-596 relative, and its rounding bound stays finite
    geometry = Interval(1e-300, DIRICHLET, NEUMANN)
    got = green_im_diag(geometry, 1e-300, 3e-301)
    want = mp_orbit_parts(geometry, 1e-300, 3e-301, 0.0, SeriesControl().max_terms)[0]
    assert abs(got.value - want) <= got.truncation_bound < 1e-10 * want
