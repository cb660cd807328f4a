"""Closed orbits of the model spaces and the spectral sums they carry.

A classical path that returns to its starting point after ``n`` traversals
of the interval (winding ``n`` of the circle) contributes an oscillatory
term to spectral densities and Green functions, weighted by a sign built
from the reflection parities and, on the twisted circle, a holonomy phase
``e^{i n theta}``.  Orbits come in three families:

* ``direct``   -- the zero-length path (Weyl terms),
* ``periodic`` -- even number of reflections, displacement ``x - y + 2nL``
  (interval) or ``x - y - nL`` (circle),
* ``boundary-odd`` -- odd number of reflections, displacement ``x + y + 2nL``.

Truncation at ``max_winding = W`` keeps periodic windings ``|n| <= W`` and
the boundary-odd pairs ``n in [-W, W-1]`` (reflection counts ``|2n+1|``),
which pairs the members whose tails cancel.  The spectral sums below take
W = ``SeriesControl.max_terms``.  Along each family the orbit lengths
step arithmetically (2nL, 2(x + nL), nL), so with the phase, the sign
and the Abel factor ``e^{-s length}`` every truncated series is a finite
geometric series, summed in closed form (:func:`_geometric_sum`).  Only
``local_counting``, whose boundary images carry ``1/(x + nL)`` weights,
sums its 2W terms one by one.

Sign conventions (l, r the parity indices, Dirichlet = 1):

    periodic n:      (-1)^{n(l+r)}
    boundary-odd n:  (-1)^{l + n(l+r)}

Local and global spectral densities below are organized the same way:
a smooth Weyl part, a periodic-orbit series, and a boundary series whose
global integral telescopes.  The half-line boundary contribution to the
global density is a pure delta atom at omega = 0, kept as a tagged
:class:`DeltaAtom`, never as a large float.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import spectrum, summation
from .errors import ContinuousSpectrum, InvalidParameter, OutOfDomain, UnsupportedGeometry
from .spectrum import Geometry, HalfLine, Interval, TwistedCircle
from .summation import ABEL, CLOSED_FORM, RAW, TWO_PI, SeriesControl, SeriesValue

DIRECT = "direct"
PERIODIC = "periodic"
BOUNDARY_ODD = "boundary-odd"

# Local-counting methods.
DIRICHLET_KERNEL = "dirichlet-kernel"
ORBIT_SUM = "orbit-sum"


@dataclass(frozen=True)
class OrbitTerm:
    """One closed orbit between x and y.

    ``sign`` is the product of reflection parities, ``phase`` the holonomy
    angle accumulated (nonzero only on the twisted circle), ``length`` the
    geometric path length |displacement|.
    """

    family: str
    winding: int
    displacement: float
    sign: int
    phase: float

    @property
    def length(self) -> float:
        return abs(self.displacement)


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


def _check_point(geometry: Geometry, x: float) -> None:
    if isinstance(geometry, Interval):
        if not (0.0 < x < geometry.length):
            raise OutOfDomain(f"x={x!r} not in (0, {geometry.length})")
    elif isinstance(geometry, HalfLine):
        if not (x > 0.0):
            raise OutOfDomain(f"x={x!r} not in (0, inf)")
    # Twisted circle: every real x is on the covering line.


def enumerate_orbits(
    geometry: Geometry, x: float, y: float, max_winding: int
) -> list[OrbitTerm]:
    """All closed orbits from y to x up to the winding cutoff.

    Parameters
    ----------
    geometry : Geometry
        Any of the three model spaces; the half-line has exactly two
        orbits (direct and one reflection) regardless of ``max_winding``.
    x, y : float
        Endpoints, inside the open domain.
    max_winding : int
        W >= 0.  Periodic windings run over |n| <= W, boundary-odd over
        n in [-W, W-1] so reflected paths appear in tail-cancelling pairs.

    Returns
    -------
    list of OrbitTerm
        Sorted by path length (stable: family, then winding breaks ties).
    """
    if max_winding < 0:
        raise InvalidParameter("max_winding must be >= 0")
    _check_point(geometry, x)
    _check_point(geometry, y)
    out: list[OrbitTerm] = []
    if isinstance(geometry, HalfLine):
        sgn = (-1) ** geometry.l
        out.append(OrbitTerm(DIRECT, 0, x - y, 1, 0.0))
        out.append(OrbitTerm(BOUNDARY_ODD, 0, x + y, sgn, 0.0))
    elif isinstance(geometry, Interval):
        length, l, r = geometry.length, geometry.l, geometry.r
        for n in range(-max_winding, max_winding + 1):
            sign = -1 if (n * (l + r)) % 2 else 1
            fam = DIRECT if n == 0 else PERIODIC
            out.append(OrbitTerm(fam, n, x - y + 2.0 * n * length, sign, 0.0))
        for n in range(-max_winding, max_winding):
            sign = -1 if (l + n * (l + r)) % 2 else 1
            out.append(OrbitTerm(BOUNDARY_ODD, n, x + y + 2.0 * n * length, sign, 0.0))
    else:
        length, theta = geometry.length, geometry.theta
        for n in range(-max_winding, max_winding + 1):
            fam = DIRECT if n == 0 else PERIODIC
            out.append(OrbitTerm(fam, n, x - y - n * length, 1, n * theta))
    out.sort(key=lambda o: (o.length, o.family, o.winding))
    return out


# ---------------------------------------------------------------------------
# Orbit series in closed form.  The windings of each family have lengths in
# arithmetic progression, so with the phase, the sign and the Abel factor
# every truncated series is a finite geometric series.
# ---------------------------------------------------------------------------

# 2 pi minus the double nearest it.
_TWO_PI_LO = 2.4492935982947064e-16


# Windings per block of local_counting's boundary-image sum.  Its float
# temporaries then stay at 64 KB, under glibc's default 128 KB threshold,
# past which every array is mapped and unmapped afresh (a page fault per
# 4 KB touched): with 20 000-winding arrays a call took 816 us instead of
# 305 us (D/D, L = 1, omega = 3.3, x = 0.4).
_IMAGE_BLOCK = 8192


def _angle(*parts: float) -> float:
    """The exact sum of ``parts`` reduced mod 2 pi to about [-pi, pi].

    Each part is reduced exactly by ``math.remainder`` against the double
    nearest 2 pi, the turns it took are charged the low part of 2 pi that
    the double drops, and ``math.fsum`` adds the pieces.  The result is
    good to an ulp or two of itself even next to a multiple of 2 pi, where
    a W-term undamped sum moves by up to W^2/2 per radian of phase error.
    """
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


def _geometric_sum(phase: float, decay: float, first: int, count: int) -> complex:
    """sum_{n=first}^{first+count-1} e^{n (i phase - decay)} in closed form,
    q^first (1 - q^count) / (1 - q) with q = e^{-decay + i phase}."""
    angle = _angle(phase)
    if angle == 0.0 and decay == 0.0:
        return complex(count)
    head = cmath.exp(complex(-decay, angle)) ** first
    tail = _one_minus_exp(count * decay, math.remainder(count * angle, TWO_PI))
    return head * tail / _one_minus_exp(decay, angle)


def _half_turn(phase: float) -> float:
    """phase + pi, exactly reduced: the sign (-1)^n as a phase."""
    return _angle(phase, math.pi, 0.5 * _TWO_PI_LO)


def _interval_periodic_sum(geom: Interval, omega: float, s: float, w: int) -> float:
    """sum_{n=1}^{W} sign_n cos(2 n omega L) e^{-2 n s L}: the windings
    n > 0 (the n and -n members are equal, so sums fold to twice this)."""
    phase = 2.0 * omega * geom.length
    if not geom.like_ends:
        phase = _half_turn(phase)
    return _geometric_sum(phase, 2.0 * s * geom.length, 1, w).real


def _interval_boundary_sum(
    geom: Interval, omega: float, x: float, s: float, w: int
) -> float:
    """sum_{n=-W}^{W-1} sign_n cos(2 omega |x + nL|) e^{-2 s |x + nL|}.

    Windings n = m >= 0 have |x + nL| = x + mL and n = -1 - m have
    (L - x) + mL, so both halves are one geometric series in m, started
    at x and at L - x (for mixed ends the second start carries (-1)^1).
    """
    length = geom.length
    phase, parity = 2.0 * omega * length, 1.0
    if not geom.like_ends:
        phase, parity = _half_turn(phase), -1.0
    k = complex(-2.0 * s, 2.0 * omega)
    starts = cmath.exp(k * x) + parity * cmath.exp(k * (length - x))
    series = _geometric_sum(phase, 2.0 * s * length, 0, w)
    return (-1.0) ** geom.l * (starts * series).real


def _twisted_periodic_sum(geom: TwistedCircle, omega: float, s: float, w: int) -> float:
    """sum_{n=1}^{W} cos(n theta) cos(n omega L) e^{-n s L}, half the real
    part of the two geometric series with steps omega L +/- theta."""
    phase, decay = omega * geom.length, s * geom.length
    plus = _geometric_sum(_angle(phase, geom.theta), decay, 1, w)
    minus = _geometric_sum(_angle(phase, -geom.theta), decay, 1, w)
    return 0.5 * (plus + minus).real


def _interval_boundary_counting(geom: Interval, omega: float, x: float, w: int) -> float:
    """sum_{n=-W}^{W-1} sign_n sin(2 omega (x + nL)) / (2 pi (x + nL)), the
    boundary images of local_counting: sign_n = (-1)^l, times (-1)^n for
    mixed ends.  Summed in blocks of _IMAGE_BLOCK windings."""
    total = 0.0
    for start in range(-w, w, _IMAGE_BLOCK):
        disp = x + np.arange(start, min(start + _IMAGE_BLOCK, w), dtype=float) * geom.length
        terms = np.sin(2.0 * omega * disp) / disp
        if geom.like_ends:
            total += float(terms.sum())
        else:  # n = start + i is even where i has the parity of start
            even = start % 2
            total += float(terms[even::2].sum() - terms[1 - even :: 2].sum())
    return (-1.0) ** geom.l * total / (2.0 * math.pi)


def green_im_diag(
    geometry: Geometry, omega: float, x: float, control: SeriesControl = SeriesControl()
) -> SeriesValue:
    """Imaginary part of the diagonal Green function by orbit sum.

    Im G(omega; x, x) = (1/2 omega) sum_orbits sign * cos(omega * length
    + phase), Abel-damped by ``exp(-length * damping_t)`` when the control
    asks for it.  Equals (pi/2 omega) * sigma(omega, x) termwise.

    Truncation bound: the last damped term when damping is on; otherwise
    the Cesaro envelope heuristic ``1/(2 omega N Lmin)`` with Lmin the
    shortest nonzero orbit length.
    """
    if not (omega > 0.0) or not math.isfinite(omega):
        raise InvalidParameter("omega must be positive and finite")
    _check_point(geometry, x)
    s = control.damping_t
    w = int(control.max_terms)
    if isinstance(geometry, HalfLine):
        val = 1.0 + (-1.0) ** geometry.l * math.cos(2.0 * omega * x) * math.exp(
            -2.0 * x * s
        )
        return SeriesValue(
            value=val / (2.0 * omega),
            terms_used=2,
            truncation_bound=0.0,
            method_tag=ABEL if s > 0.0 else RAW,
        )
    if isinstance(geometry, Interval):
        length = geometry.length
        per = _interval_periodic_sum(geometry, omega, s, w)
        bdry = _interval_boundary_sum(geometry, omega, x, s, w)
        val = (1.0 + 2.0 * per + bdry) / (2.0 * omega)
        if s > 0.0:
            # The last members kept: periodic n = W, boundary n = -W and W - 1.
            lp = 2.0 * w * length
            last = 2.0 * abs(np.cos(omega * lp) * np.exp(-lp * s))
            for n in (-w, w - 1):
                lb = 2.0 * abs(x + n * length)
                last += abs(np.cos(omega * lb) * np.exp(-lb * s))
        lmin = min(2.0 * length, 2.0 * x, 2.0 * abs(x - length))
        nterms = 4 * w + 1
    else:
        val = (1.0 + 2.0 * _twisted_periodic_sum(geometry, omega, s, w)) / (2.0 * omega)
        if s > 0.0:
            lw = w * geometry.length
            last = 2.0 * abs(np.cos(w * geometry.theta) * np.cos(omega * lw) * np.exp(-lw * s))
        lmin = geometry.length
        nterms = 2 * w + 1
    if s > 0.0:
        return SeriesValue(val, nterms, float(last / (2.0 * omega)), ABEL)
    return SeriesValue(val, nterms, 1.0 / (2.0 * omega * max(1, w) * lmin), RAW)


def local_spectral_density(
    geometry: Geometry,
    omega: float,
    x: float,
    control: SeriesControl = SeriesControl(),
) -> LocalDensity:
    """sigma(omega, x) split into average, periodic, and boundary parts.

    The average is the local Weyl density 1/pi.  The two series are the
    cosine orbit sums; with ``damping_t = s`` each term carries
    ``exp(-s * length)``, equivalent to smoothing sigma in omega with a
    Lorentzian of width s.
    """
    if not (omega > 0.0) or not math.isfinite(omega):
        raise InvalidParameter("omega must be positive and finite")
    _check_point(geometry, x)
    s = control.damping_t
    w = int(control.max_terms)
    tag = ABEL if s > 0.0 else RAW
    if isinstance(geometry, HalfLine):
        b = (-1.0) ** geometry.l / math.pi * math.cos(2.0 * omega * x) * math.exp(
            -2.0 * x * s
        )
        return LocalDensity(
            average=1.0 / math.pi,
            periodic=SeriesValue(0.0, 0, 0.0, CLOSED_FORM),
            boundary=SeriesValue(b, 1, 0.0, tag),
        )
    if isinstance(geometry, Interval):
        per = (2.0 / math.pi) * _interval_periodic_sum(geometry, omega, s, w)
        bdry = (1.0 / math.pi) * _interval_boundary_sum(geometry, omega, x, s, w)
        pb = (
            math.exp(-s * 2.0 * w * geometry.length) / (math.pi * w)
            if s > 0.0
            else 2.0 / (math.pi * w)
        )
        return LocalDensity(
            average=1.0 / math.pi,
            periodic=SeriesValue(per, w, pb, tag),
            boundary=SeriesValue(bdry, 2 * w, pb, tag),
        )
    per = (2.0 / math.pi) * _twisted_periodic_sum(geometry, omega, s, w)
    pb = math.exp(-s * w * geometry.length) / (math.pi * w) if s > 0.0 else 2.0 / (math.pi * w)
    return LocalDensity(
        average=1.0 / math.pi,
        periodic=SeriesValue(per, w, pb, tag),
        boundary=SeriesValue(0.0, 0, 0.0, CLOSED_FORM),
    )


def global_density_decomposition(
    geometry: Geometry, omega: float, control: SeriesControl = SeriesControl()
) -> GlobalDensity:
    """rho(omega) = d N / d omega split by orbit family.

    The boundary series integrates x over the domain first.  For mixed
    ends consecutive windings carry opposite signs and the integrals
    cancel pairwise: the boundary density is exactly zero.  For like ends
    the windings tile the whole line, and the content is concentrated at
    the spectral origin: the counting function jumps by ``(-1)^l / 2``
    at omega = 0+ (one ``(-1)^l / 4`` per wall), reported as
    ``boundary_atom``.  Undamped, the truncated series evaluates to the
    oscillatory survivor ``(-1)^l sin(2 omega L W) / (pi omega)``; with
    Abel damping s the windings assemble the full-line integral of
    ``cos(2 omega u) exp(-2 s |u|)`` and the value is the atom's Poisson
    image ``(-1)^l (1/pi) s / (omega^2 + s^2)``.  On the half-line the
    single wall gives the atom ``(-1)^l/4 delta(omega)``, returned
    symbolically.
    """
    if not (omega > 0.0) or not math.isfinite(omega):
        raise InvalidParameter("omega must be positive and finite")
    s = control.damping_t
    w = int(control.max_terms)
    tag = ABEL if s > 0.0 else RAW
    if isinstance(geometry, HalfLine):
        return GlobalDensity(
            weyl=math.inf,
            periodic=SeriesValue(0.0, 0, 0.0, CLOSED_FORM),
            boundary=SeriesValue(0.0, 0, 0.0, CLOSED_FORM),
            boundary_atom=DeltaAtom(weight=0.25 * (-1.0) ** geometry.l, location=0.0),
        )
    if isinstance(geometry, Interval):
        length = geometry.length
        per = (2.0 * length / math.pi) * _interval_periodic_sum(geometry, omega, s, w)
        pb = (
            (2.0 * length / math.pi) * math.exp(-s * 2.0 * w * length)
            if s > 0.0
            else 2.0 * length / math.pi / max(1, w)
        )
        atom = None
        if geometry.like_ends:
            sgn = (-1.0) ** geometry.l
            atom = DeltaAtom(weight=0.5 * sgn, location=0.0)
            if s > 0.0:
                val = sgn * s / (math.pi * (omega * omega + s * s))
                bound = math.exp(-2.0 * s * length * w) / (math.pi * s)
                bdry = SeriesValue(val, 2 * w, bound, CLOSED_FORM)
            else:
                surv = sgn * math.sin(2.0 * omega * length * w) / (math.pi * omega)
                bdry = SeriesValue(surv, 2 * w, 1.0 / (math.pi * omega), RAW)
        else:
            bdry = SeriesValue(0.0, 2 * w, 0.0, CLOSED_FORM)
        return GlobalDensity(
            weyl=length / math.pi,
            periodic=SeriesValue(per, w, pb, tag),
            boundary=bdry,
            boundary_atom=atom,
        )
    length = geometry.length
    per = (2.0 * length / math.pi) * _twisted_periodic_sum(geometry, omega, s, w)
    pb = (
        (2.0 * length / math.pi) * math.exp(-s * w * length)
        if s > 0.0
        else 2.0 * length / math.pi / max(1, w)
    )
    return GlobalDensity(
        weyl=length / math.pi,
        periodic=SeriesValue(per, w, pb, tag),
        boundary=SeriesValue(0.0, 0, 0.0, CLOSED_FORM),
    )


def local_counting(
    geometry: Geometry,
    omega: float,
    x: float,
    method: str = ORBIT_SUM,
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
      ``sum_n sign_n sin(2 omega (x + nL)) / (2 pi (x + nL))``.

    The two agree as the winding cutoff grows (Poisson summation).
    """
    if not (omega > 0.0) or not math.isfinite(omega):
        raise InvalidParameter("omega must be positive and finite")
    _check_point(geometry, x)
    if method == DIRICHLET_KERNEL:
        if not (
            isinstance(geometry, Interval)
            and geometry.left is spectrum.DIRICHLET
            and geometry.right is spectrum.DIRICHLET
        ):
            raise UnsupportedGeometry(
               "dirichlet-kernel local counting needs a Dirichlet-Dirichlet interval"
            )
        length = geometry.length
        m = spectrum.counting_function(geometry, omega)
        return (m + 0.5) / length - math.sin(
            (2 * m + 1) * math.pi * x / length
        ) / (2.0 * length * math.sin(math.pi * x / length))
    if method != ORBIT_SUM:
        raise InvalidParameter(f"unknown local counting method {method!r}")
    if isinstance(geometry, HalfLine):
        return omega / math.pi + (-1.0) ** geometry.l * math.sin(
            2.0 * omega * x
        ) / (2.0 * math.pi * x)
    weyl = omega / math.pi
    per = spectrum.periodic_counting_term(geometry, omega) / geometry.length
    if isinstance(geometry, TwistedCircle):
        return weyl + per
    bdry = _interval_boundary_counting(geometry, omega, x, int(control.max_terms))
    return weyl + per + bdry
