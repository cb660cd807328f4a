"""Closed orbits of the model spaces and the spectral sums they carry.

A classical path that returns to its starting point contributes an
oscillatory term to spectral densities and Green functions.  Its family,
sign and phase are those of the image families of
:func:`vacuum1d.spectrum._images`, the one table that the kernel image
routes read too: a direct family (the zero-length Weyl path, then the
windings m turns L, weighed e^{i m theta}) and, with walls, a reflected
one (displacement 2x + m turns L, signed (-1)^l).  A W-winding truncation
keeps direct windings ``|m| <= W`` and reflected ``m in [-W, W-1]``, which
pairs the members whose tails cancel.

Along each family the orbit lengths step arithmetically, so with the
phase, the sign and the Abel factor ``e^{-s length}`` every orbit series of
the spectral densities is a geometric series, summed in closed form by one
rule (:func:`_orbit_series`): Abel-damped (s > 0), over every winding,
with no truncation; undamped, where the series has no limit, over
W = ``SeriesControl.max_terms`` windings, which is then the definition of
the value (sigma smoothed by a Dirichlet kernel of width about
pi / (W L)).  Either way the reported bound is a proven bound on the
rounding, the only error left.  The boundary images of ``local_counting``
carry ``1/(x + nL)`` weights instead; their W-winding truncation is the
tail-completed lattice sum less its two tails past W
(:func:`_interval_boundary_counting`, which bounds it), and
``local_counting`` returns it as a bare float.

Local and global spectral densities are organized the same way: a smooth
Weyl part, a periodic-orbit series, and a boundary series whose global
integral telescopes.  The half-line boundary contribution to the global
density is a pure delta atom at omega = 0, kept as a tagged
:class:`DeltaAtom`, never as a large float.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import spectrum, summation
from .errors import InvalidParameter, UnsupportedGeometry, as_real
from .spectrum import DIRICHLET, Family, Geometry, Interval, TwistedCircle, as_point
from .spectrum import _images, _walls
from .summation import ABEL, CLOSED_FORM, RAW, TWO_PI, SeriesControl, SeriesValue

# Local-counting methods.
DIRICHLET_KERNEL = "dirichlet-kernel"
ORBIT_SUM = "orbit-sum"


@dataclass(frozen=True)
class DeltaAtom:
    """A weighted Dirac atom, kept symbolic so it never leaks into floats."""

    weight: float
    location: float = 0.0


@dataclass(frozen=True)
class LocalDensity:
    """Local spectral density sigma(omega, x) split by orbit family."""

    average: float
    periodic: SeriesValue
    boundary: SeriesValue

    @property
    def total(self) -> float:
        return self.average + self.periodic.value + self.boundary.value


@dataclass(frozen=True)
class GlobalDensity:
    """Global density rho(omega) = integral of sigma over the space."""

    weyl: float
    periodic: SeriesValue
    boundary: SeriesValue
    boundary_atom: DeltaAtom | None = None

    @property
    def total(self) -> float:
        return self.weyl + self.periodic.value + self.boundary.value


# ---------------------------------------------------------------------------
# Orbit series in closed form.  The windings of each family have lengths in
# arithmetic progression, so with the phase, the sign and the Abel factor
# every series is a geometric series, summed by _orbit_series.
# ---------------------------------------------------------------------------

# 2 pi minus the double nearest it.
_TWO_PI_LO = 2.4492935982947064e-16
_EPS = 2.0**-52


def _finite(*values: float) -> None:
    """Raise InvalidParameter unless every value is finite: past lengths of
    about 1e308 an orbit phase or an orbit sum can leave the float range."""
    if not all(map(math.isfinite, values)):
        raise InvalidParameter("an orbit phase or sum leaves the float range")


def _angle(*parts: float) -> float:
    """The exact sum of ``parts`` reduced mod 2 pi to about [-pi, pi].

    Each part is reduced exactly by ``math.remainder`` against the double
    nearest 2 pi, the turns it took are charged the low part of 2 pi that
    the double drops, and ``math.fsum`` adds the pieces.  The result is
    good to an ulp or two of itself even next to a multiple of 2 pi, where
    a W-term undamped sum moves by up to W^2/2 per radian of phase error.
    """
    _finite(*parts)
    reduced = [math.remainder(p, TWO_PI) for p in parts]
    turns = sum(round((p - r) / TWO_PI) for p, r in zip(parts, reduced))
    extra = round(math.fsum(reduced) / TWO_PI)
    return math.fsum(reduced + [-extra * TWO_PI, -(turns + extra) * _TWO_PI_LO])


def _one_minus_exp(decay: float, angle: float) -> complex:
    """1 - e^{-decay + i angle} without cancellation as both go to 0."""
    damp = math.exp(-decay)
    return complex(
        -math.expm1(-decay) + 2.0 * damp * math.sin(0.5 * angle) ** 2,
        -damp * math.sin(angle),
    )


def _geometric_sum(phase: float, first: int, count: int) -> complex:
    """sum_{n=first}^{first+count-1} e^{i n phase} in closed form,
    q^first (1 - q^count) / (1 - q) with q = e^{i phase}."""
    angle = _angle(phase)
    if angle == 0.0:
        return complex(count)
    head = cmath.exp(complex(0.0, angle)) ** first
    tail = _one_minus_exp(0.0, math.remainder(count * angle, TWO_PI))
    return head * tail / _one_minus_exp(0.0, angle)


def _orbit_series(
    phase: tuple[float, ...], decay: float, first: int, w: int
) -> tuple[complex, float]:
    """One orbit family, sum_n q^n with q = e^{-decay + i angle}, and a
    bound on its error.

    ``angle`` is the exact sum of the ``phase`` parts: the first is a
    rounded product (omega L times a power of two), the others exact
    shifts (pi, theta).  ``decay`` is s L times a power of two.

    * Damped (decay > 0): n runs from ``first`` to infinity, q^first/(1 - q).
      Nothing is truncated and ``w`` is not read.
    * Undamped: the series has no limit, and its value is by definition the
      W-winding truncation n = first .. first + W - 1 (the density smoothed
      by a Dirichlet kernel of width about pi / (W L)).

    Either way the bound is rounding only (Higham, ch. 3), in two parts:
    the closed form at the rounded q, 4 eps of its size; and the move from
    the rounded to the exact q, ``drift`` in log q, times the largest
    |d sum / d log q| on the way.  Near resonance that slope grows like
    1/|1 - q|^2, which carries the conditioning; on the way |1 - q| stays
    above ``near``: its rounded value less twice the drift, and, damped,
    never below 1 - |q|.  Undamped, the rounding of W angle moves q^W by
    at most eps W |angle|, which over |1 - q| stays under 4 eps times the
    slope.  The bound is capped by |value| plus the largest |sum| at any
    phase.
    """
    angle = _angle(*phase)
    drift = _EPS * (abs(phase[0]) + decay + 4.0)
    den = _one_minus_exp(decay, angle)
    near = abs(den) * (1.0 - 4.0 * _EPS) - 2.0 * drift
    if decay > 0.0:
        value = cmath.exp(complex(-decay, angle)) ** first / den
        gap = -math.expm1(-decay * (1.0 - _EPS))  # 1 - |q| on the way
        near, q = max(near, gap), math.exp(-decay * (1.0 - _EPS))
        # d/dlog q of q^a/(1 - q) = a q^a/(1 - q) + q^{a+1}/(1 - q)^2
        slope, largest = q**first * (first / near + q / near / near), q**first / gap
    else:
        value = _geometric_sum(angle, first, w)
        ends = 2 * first + w - 1  # first plus last winding
        # |sum n q^n| over the W windings: at most their sum, and by parts
        # at most (ends + 1)/|1 - q| + 2/|1 - q|^2
        slope, largest = 0.5 * w * ends, w
        if near > 0.0:
            slope = min(slope, (ends + 1) / near + 2.0 / near / near)
    return value, min(4.0 * _EPS * abs(value) + drift * slope, abs(value) + largest)


def _sign_turn(theta: float) -> tuple[float, ...]:
    """A wall family's theta, 0 or pi (a sign), as exact parts for
    :func:`_angle`: pi is the double nearest it plus the low part it drops."""
    return (theta, 0.5 * _TWO_PI_LO) if theta else ()


def _direct_series(
    geometry: Interval | TwistedCircle, row: Family, walls: bool, omega: float, s: float, w: int
) -> tuple[float, float, int]:
    """The windings m >= 1 of a direct family of :func:`spectrum._images`,
    sum_m cos(m theta) Re q^m with q = e^{(i omega - s) turns L}, its bound
    and its terms (the geometric series summed, damped; W, undamped).
    With walls theta is 0 or pi, a sign that m and -m share: one series at
    the exact phase turns omega L + theta.  On the circle theta is the
    float holonomy (stored as -theta): half of two series, omega L -/+ theta."""
    _, _, turns, theta = row
    phase, decay = turns * omega * geometry.length, turns * s * geometry.length
    if walls:
        value, bound = _orbit_series((phase, *_sign_turn(theta)), decay, 1, w)
        return value.real, bound, 1 if s > 0.0 else w
    plus, plus_bound = _orbit_series((phase, -theta), decay, 1, w)
    minus, minus_bound = _orbit_series((phase, theta), decay, 1, w)
    bound = 0.5 * (plus_bound + minus_bound + _EPS * abs(plus + minus))
    return 0.5 * (plus + minus).real, bound, 2 if s > 0.0 else w


def _reflected_series(
    geometry: Geometry, row: Family, omega: float, x: float, s: float, w: int
) -> tuple[float, float, int]:
    """A reflected family of :func:`spectrum._images` on the diagonal,
    sign sum_m e^{i m theta} Re e^{(i omega - s) |2x + m turns L|}
    (n in [-W, W-1] undamped), its bound and its terms.

    Without turns (the half-line) it is the lone image at 2x.  On the
    interval m >= 0 has |x + mL| = x + mL and m = -1 - k has (L - x) + kL,
    phase e^{-i theta} e^{-i k theta}, theta a sign: one geometric series in
    k, started at x and at L - x, the second start weighed e^{-i theta} =
    cos theta.  Each start's exponent is rounded at most twice.
    """
    sign, _, turns, theta = row
    if not turns:
        a = 2.0 * omega * x
        _finite(a)
        return sign * math.cos(a) * math.exp(-2.0 * x * s), _EPS * (2.0 * (omega + s) * x + 2.0), 1
    length = geometry.length
    phase = (turns * omega * length, *_sign_turn(theta))
    series, bound = _orbit_series(phase, turns * s * length, 0, w)  # checks the phase first
    k = complex(-2.0 * s, 2.0 * omega)
    near, far = cmath.exp(k * x), cmath.exp(k * (length - x))
    starts = near + math.cos(theta) * far
    slack = _EPS * (turns * ((omega + s) * length) + 2.0) * (abs(near) + abs(far))
    bound = abs(starts) * bound + (slack + 2.0 * _EPS * abs(starts)) * abs(series)
    return sign * (starts * series).real, bound, 1 if s > 0.0 else 2 * w


def _scaled(factor: float, part: tuple[float, float, int], s: float) -> SeriesValue:
    """An orbit series (value, bound, terms) times its prefactor, with the
    product's rounding, tagged by the damping s."""
    value = factor * part[0]
    bound = abs(factor) * part[1] + _EPS * abs(value)
    _finite(value, bound)
    return SeriesValue(value, part[2], bound, ABEL if s > 0.0 else RAW)


def _interval_boundary_counting(
    geom: Interval, row: Family, omega: float, x: float, control: SeriesControl
) -> tuple[float, float]:
    """sum_{n=-W}^{W-1} sign e^{i n theta} sin(2 omega (x + nL)) / (2 pi (x + nL)),
    the boundary images of local_counting for the reflected ``row`` of
    :func:`spectrum._images` (theta = 0 or pi, a sign), W = ``max_terms``,
    and a bound on its error.

    Measured from the wall image x' = x or x - L (exact), whichever is at
    most L/2, the images are x' + mL over the window |m| <= W less one end
    m = e (W, or -W after the shift), and with phi = turns omega L + theta
    and c = x'/L the sum is

        sign/(2 pi) [sin(2 omega x')/x' + Im(e^{2 i omega x'} (S - T)) / L],

    S = sum_{0 < |m| <= W} e^{i m phi}/(m + c) by summation._window_sum,
    T = e^{i e phi}/(e + c), and the sign times e^{-i theta} = cos theta
    after the shift.  phi comes from _angle, since near a level S moves by
    about W per radian of phase error.  The bound adds to the window sum's
    the drift of the rounded 2 omega L (half an ulp) and of the reduction
    (an ulp or two of phi, and the low parts' own rounding) times the
    largest |dS/dphi| on the way, as in :func:`_orbit_series`: at most
    sum |m|/|m + c| <= 2W + 2 + log(2W), and off resonance, with
    m/(m + c) = 1 - c/(m + c) and Abel summation of each side, at most
    8/|1 - q|, q = e^{i phi}; T adds at most 2.  Then the roundings of T,
    of the wall term and of the assembly.
    """
    sign, _, turns, theta = row
    length, w = geom.length, int(control.max_terms)
    phase = turns * omega * length
    angle = _angle(phase, *_sign_turn(theta))
    shift = x > 0.5 * length
    near = x - length if shift else x  # exact (Sterbenz) after the shift
    end = -w if shift else w
    sign *= math.cos(theta) if shift else 1.0
    c = near / length
    images, bound = summation._window_sum(c, angle, w, control)
    left_out = cmath.exp(complex(0.0, end * angle)) / (end + c)
    a = 2.0 * omega * near
    wall = math.sin(a) / near
    im = (cmath.exp(complex(0.0, a)) * (images - left_out)).imag / length
    value = sign * (wall + im) / TWO_PI
    drift = _EPS * (abs(phase) + 2.0 * abs(angle) + 4.0 * _EPS)
    slope = 2.0 * w + 2.0 + math.log(2.0 * w)
    near_q = 2.0 * abs(math.sin(0.5 * angle)) * (1.0 - 4.0 * _EPS) - drift  # |1 - q| on the way
    if near_q > 0.0:
        slope = min(slope, 8.0 / near_q)
    bound += drift * (slope + 2.0)  # T moves by at most 2 per radian
    bound += _EPS * (abs(a) + 4.0) * (abs(images) + abs(left_out))  # e^{2 i omega x'} (S - T)
    bound += _EPS * (abs(end * angle) + 8.0) * abs(left_out)  # T itself
    bound = (bound / length + 2.0 * _EPS * (omega + 2.0 * abs(wall) + abs(im))) / TWO_PI
    bound += 2.0 * _EPS * abs(value)
    _finite(value, bound)
    return value, bound


def green_im_diag(
    geometry: Geometry, omega: float, x: float, control: SeriesControl = SeriesControl()
) -> SeriesValue:
    """Imaginary part of the diagonal Green function by orbit sum.

    Im G(omega; x, x) = (1/2 omega) sum_orbits sign * cos(omega * length
    + phase), Abel-damped by ``exp(-length * damping_t)`` when the control
    asks for it.  Equals (pi/2 omega) * sigma(omega, x) termwise.

    Damped, every orbit is summed (two closed-form geometric series, the
    ``terms_used``); undamped, the value is the W = ``max_terms``
    truncation, and ``terms_used`` counts its orbits.  Either way
    ``truncation_bound`` is a proven bound on the rounding, the only error
    there is (see :func:`_orbit_series`).
    """
    omega, x = as_real(omega, "omega", positive=True), as_point(geometry, x)
    s, w = control.damping_t, int(control.max_terms)
    rows = _images(geometry)
    per, per_bound, bdry, bdry_bound, nterms = 0.0, 0.0, 0.0, 0.0, 0
    for row in rows:
        n = 1  # the lone direct image, of length 0
        if row[1]:
            bdry, bdry_bound, n = _reflected_series(geometry, row, omega, x, s, w)
        elif row[2]:
            per, per_bound, n = _direct_series(geometry, row, _walls(rows), omega, s, w)
            n = n if s > 0.0 else 2 * n + 1  # undamped, the windings -W..W
        nterms += n
    val = (1.0 + 2.0 * per + bdry) / (2.0 * omega)
    rounding = 2.0 * _EPS * (1.0 + 2.0 * abs(per) + abs(bdry))
    bound = (2.0 * per_bound + bdry_bound + rounding) / (2.0 * omega)
    _finite(val, bound)
    return SeriesValue(val, nterms, bound, ABEL if s > 0.0 else RAW)


def local_spectral_density(
    geometry: Geometry, omega: float, x: float, control: SeriesControl = SeriesControl()
) -> LocalDensity:
    """sigma(omega, x) split into average, periodic, and boundary parts.

    The average is the local Weyl density 1/pi.  The two series are the
    cosine orbit sums; with ``damping_t = s`` each term carries
    ``exp(-s * length)``, equivalent to smoothing sigma in omega with a
    Lorentzian of width s, and each series is summed to the end.
    Undamped, each keeps W = ``max_terms`` windings.  Bounds and term
    counts as in :func:`green_im_diag`.
    """
    omega, x = as_real(omega, "omega", positive=True), as_point(geometry, x)
    s, w = control.damping_t, int(control.max_terms)
    rows = _images(geometry)
    periodic = boundary = SeriesValue(0.0, 0, 0.0, CLOSED_FORM)
    for row in rows:
        if row[1]:
            boundary = _scaled(1.0 / math.pi, _reflected_series(geometry, row, omega, x, s, w), s)
        elif row[2]:
            per = _direct_series(geometry, row, _walls(rows), omega, s, w)
            periodic = _scaled(2.0 / math.pi, per, s)
    return LocalDensity(1.0 / math.pi, periodic, boundary)


def global_density_decomposition(
    geometry: Geometry, omega: float, control: SeriesControl = SeriesControl()
) -> GlobalDensity:
    """rho(omega) = d N / d omega split by orbit family.

    The boundary series integrates x over the domain first.  For mixed
    ends consecutive windings carry opposite signs and the integrals
    cancel pairwise: the boundary density is exactly zero.  For like ends
    the windings tile the whole line, and the content is concentrated at
    the spectral origin: N jumps by the weight a =
    :func:`spectrum.boundary_counting_term` = ``(-1)^l / 2`` at omega = 0+,
    reported as ``boundary_atom``.  Undamped, the W-winding truncation is
    the survivor ``2a sin(2 omega L W) / (pi omega)``; with Abel damping s
    it is the atom's Poisson image ``2a (1/pi) s / (omega^2 + s^2)``.  On
    the half-line the single wall gives the atom ``(-1)^l/4 delta(omega)``,
    returned symbolically.  The periodic series are those of
    :func:`local_spectral_density`; every bound is a rounding bound.
    """
    omega = as_real(omega, "omega", positive=True)
    s, w = control.damping_t, int(control.max_terms)
    damped = s > 0.0
    zero = SeriesValue(0.0, 0, 0.0, CLOSED_FORM)
    rows = _images(geometry)
    direct, walls = rows[0], _walls(rows)
    if not direct[2]:  # no turns: the half-line, whose lone wall image is an atom
        return GlobalDensity(math.inf, zero, zero, DeltaAtom(0.25 * rows[1][0], 0.0))
    length = geometry.length
    # 2 (L / pi): 2 L / pi wherever 2 L is finite, and finite past it
    per = _direct_series(geometry, direct, walls, omega, s, w)
    periodic = _scaled(2.0 * (length / math.pi), per, s)
    weight = spectrum.boundary_counting_term(geometry)
    if not weight:  # the circle, or mixed ends, whose windings cancel pairwise
        bdry = SeriesValue(0.0, 2 * w if walls and not damped else 0, 0.0, CLOSED_FORM)
        return GlobalDensity(length / math.pi, periodic, bdry)
    sgn, turns = 2.0 * weight, rows[1][2]
    if damped:
        # (s/pi)/(omega^2 + s^2) with omega and s scaled by a power of two
        # m near the larger: the same double wherever the squares neither
        # underflow nor overflow, and finite past that
        m = math.ldexp(1.0, math.frexp(max(omega, s))[1] - 1)
        om, sm = omega / m, s / m
        val = sgn * sm / (math.pi * m * (om * om + sm * sm))
        bdry = SeriesValue(val, 1, 4.0 * _EPS * abs(val), CLOSED_FORM)
    else:
        phase = turns * omega * length * w
        _finite(phase)
        surv = sgn * math.sin(phase) / (math.pi * omega)
        bdry = SeriesValue(surv, 2 * w, 2.0 * _EPS * (abs(phase) + 1.0) / (math.pi * omega), RAW)
    _finite(bdry.value, bdry.truncation_bound)
    return GlobalDensity(length / math.pi, periodic, bdry, DeltaAtom(weight, 0.0))


def local_counting(
    geometry: Geometry, omega: float, x: float, method: str = ORBIT_SUM,
    control: SeriesControl = SeriesControl(),
) -> float:
    """Local counting function N(omega, x) = sum_{omega_j <= omega} |phi_j(x)|^2.

    Two routes:

    * ``dirichlet-kernel`` -- exact partial-sum closed form, available only
      for the Dirichlet-Dirichlet interval:
      ``(M + 1/2)/L - sin((2M+1) pi x/L) / (2 L sin(pi x/L))`` with
      M = N(omega).  Reproduces the mode sum to rounding.
    * ``orbit-sum`` -- Weyl term omega/pi plus the periodic sawtooth over L
      plus the truncated boundary-image series
      ``sum_n sign_n sin(2 omega (x + nL)) / (2 pi (x + nL))``, n from -W
      to W - 1, W = ``max_terms``.  That truncation is the value; it is
      evaluated as the tail-completed lattice sum less its two tails past
      W (:func:`_interval_boundary_counting`), and no bound is returned.

    The two agree as the winding cutoff grows (Poisson summation).  A
    value past the float range raises :class:`InvalidParameter`.
    """
    omega, x = as_real(omega, "omega", positive=True), as_point(geometry, x)
    if method == DIRICHLET_KERNEL:
        if not (isinstance(geometry, Interval) and geometry.left is DIRICHLET is geometry.right):
            raise UnsupportedGeometry(
                "dirichlet-kernel local counting needs a Dirichlet-Dirichlet interval"
            )
        length = geometry.length
        m = spectrum.counting_function(geometry, omega)
        # 2M + 1 may be an int past the float range, and pi x/L underflow to 0
        phase = (2 * m + 1) * math.pi * x / length if 2 * m + 1 <= summation._HUGE else math.inf
        _finite(phase)
        den = 2.0 * length * math.sin(math.pi * x / length)
        if not den > 0.0:
            raise InvalidParameter(f"the Dirichlet kernel's pi x/L underflows at x={x!r}")
        _finite(value := (m + 0.5) / length - math.sin(phase) / den)
        return value
    if method != ORBIT_SUM:
        raise InvalidParameter(f"unknown local counting method {method!r}")
    value = omega / math.pi
    for row in _images(geometry):
        sign, reflected, turns, _ = row
        if reflected and turns:
            value += _interval_boundary_counting(geometry, row, omega, x, control)[0]
        elif reflected:  # the half-line's lone wall image, at 2x
            _finite(2.0 * omega * x)
            value += sign * math.sin(2.0 * omega * x) / (2.0 * math.pi * x)
        elif turns:
            value += spectrum.periodic_counting_term(geometry, omega) / geometry.length
    _finite(value)
    return value
