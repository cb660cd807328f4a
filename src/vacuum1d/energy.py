"""Vacuum energies and energy densities of the model geometries.

Everything here is a derivative of the cylinder kernel:

    E(t)    = -1/2 d/dt Tr T(t),          E      = lim_{t->0} [E(t) - Weyl]
    E(t, x) = -1/2 d/dt T(t; x, x),       (xi = 1/4 form; other curvature
                                           couplings reweight the boundary
                                           part by 4 xi)

organized orbit family by orbit family.  The Weyl part ``L/(2 pi t^2)``
(or ``1/(2 pi t^2)`` per unit length) is divergent and dropped by
renormalization; the periodic-orbit part has a finite limit -- the
vacuum (Casimir) energy; the boundary part contributes zero to the total
energy at every t (its pole-pair series telescopes) while remaining a
nontrivial x-dependent density profile.

Renormalized totals:

    like ends:   - pi / 24 L          (zero mode flagged for Neumann ends)
    mixed ends:  + pi / 48 L
    twisted:     - (pi/L) B_2(theta / 2 pi),  B_2(u) = u^2 - u + 1/6
    half-line:   0 (exactly; the boundary density integrates to zero)

Renormalized densities at coupling xi (bulk + 4 xi * boundary):

    like ends:   -pi/24L^2  -  4 xi (-1)^l (pi/8L^2) csc^2(pi x/L)
    mixed ends:  +pi/48L^2  -  4 xi (-1)^l (pi/8L^2) cot(pi x/L) csc(pi x/L)
    half-line:             -  4 xi (-1)^l / (8 pi x^2)
    twisted:     E_theta / L (uniform)

The regularized (finite-t) forms keep the full t-dependence and exhibit
the non-commuting t -> 0 / x -> 0 limits near a wall: at fixed x the
Dirichlet boundary density tends to +1/(8 pi x^2), while at fixed t it
dives to -1/(2 pi t^2) as x -> 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, summation
from .errors import (
    ContinuousSpectrum,
    IllConditionedFit,
    InvalidParameter,
    OutOfDomain,
    UnsupportedGeometry,
)
from .spectrum import DIRICHLET, NEUMANN, Geometry, HalfLine, Interval, TwistedCircle
from .summation import ABEL, RIESZ_CESARO_2, SeriesControl, SeriesValue

PI = math.pi
# Inputs inside (_TINY, _HUGE) keep every square and product of the direct
# formulas a normal float; outside, scaled forms take over.
_TINY, _HUGE = 1e-150, 1e150
_ZERO_MODE = "zero mode present (omega = 0); it adds nothing to the energy sum"
_isfinite = math.isfinite


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy (or energy density) split by orbit family.

    ``weyl`` is the divergent volume part at the given regulator (0 once
    renormalized); ``total_renormalized`` is ``periodic + boundary``,
    i.e. the total with the Weyl part subtracted.  ``note`` flags
    conventions that matter for interpretation (zero modes).
    """

    weyl: float
    periodic: float
    boundary: float
    total_renormalized: float
    regulator_t: float
    note: str = ""


# ---------------------------------------------------------------------------
# Cancellation-free small-argument forms, and exponent-scaled large ones.
# ---------------------------------------------------------------------------

# Past z = 170 every hyperbolic factor is one exponential to within e^{-340}
# relative: csch^2 z = 4 e^{-2z}, csch z coth z = 2 e^{-z}.  The scaled
# forms take over well before sinh(z)^2 (z ~ 355) or sinh(z) (z ~ 710)
# overflows.
_SCALED = 170.0


def _sinh_excess(z: float) -> float:
    """(sinh z - z) / z^3 for 0 < z <= _SCALED, free of cancellation: below
    z = 2 its Taylor series sum_k z^(2k-2) / (2k+1)!, whose terms are all
    positive; above, where sinh z > 1.8 z, the direct form."""
    if z > 2.0:
        return (math.sinh(z) - z) / (z * z * z)
    z2, term, total, k = z * z, 1.0 / 6.0, 1.0 / 6.0, 1
    while term > 1e-17 * total:
        k += 1
        term *= z2 / ((2 * k) * (2 * k + 1))
        total += term
    return total


def _g_even(z: float) -> float:
    """csch^2(z) - 1/z^2, stable for all z > 0.

    With e = (sinh z - z)/z^3 it is -e (2 + z^2 e) / (1 + z^2 e)^2: a
    product with no difference of nearly equal terms."""
    if z > _SCALED:
        return 4.0 * math.exp(-2.0 * z) - 1.0 / (z * z)
    e = _sinh_excess(z)
    ez = z * z * e
    return -e * (2.0 + ez) / ((1.0 + ez) * (1.0 + ez))


def _g_odd(z: float) -> float:
    """csch(z) coth(z) - 1/z^2, stable for all z > 0: csch z coth z =
    csch^2 z + sech^2(z/2)/2, so it is _g_even(z) + sech^2(z/2)/2, where
    the two parts are -1/3 and 1/2 at z = 0."""
    if z > _SCALED:
        return 2.0 * math.exp(-z) - 1.0 / (z * z)
    return _g_even(z) + 0.5 / math.cosh(0.5 * z) ** 2


# Small-t series of the twisted E(t) - Weyl (see below): row j - 1 holds
# the coefficients (2j - 1)/(2j)! C(2j, 2i) B_2i(1/2) of beta^(2j - 2i),
# i = 0..j, so B_2j(1/2 + beta) is a polynomial in beta^2, highest power
# first; B_2i(1/2) = (2^(1 - 2i) - 1) B_2i, and j runs to 12.
_BERNOULLI_HALF = (1.0,) + tuple(
    (2.0 ** (1 - 2 * i) - 1.0) * b for i, b in enumerate(summation._BERNOULLI_EVEN, start=1)
)
_TWISTED_SERIES = tuple(
    tuple(
        (2 * j - 1) / math.factorial(2 * j) * math.comb(2 * j, 2 * i) * _BERNOULLI_HALF[i]
        for i in range(j + 1)
    )
    for j in range(1, len(_BERNOULLI_HALF))
)


def _twisted_periodic_regularized(length: float, theta: float, t: float) -> float:
    """E(t) - Weyl for the twisted circle, stable at small and large t.

    E(t) = -1/2 d/dt Tr T with Tr T = (e^{-alpha t} + e^{-beta t}) / (1 - e^{-2bt}),
    alpha = theta/L, beta = (2 pi - theta)/L, b = pi/L (theta normalized
    to [0, 2 pi)), is
    [alpha (e^{-alpha t} + e^{-(alpha + 2 beta) t}) + beta (e^{-beta t}
    + e^{-(2 alpha + beta) t})] / (2 (1 - e^{-2bt})^2): even under
    theta -> 2 pi - theta, every term non-negative and no exponential
    growing, so it neither cancels nor overflows.  Below bt = 0.6, where
    subtracting the Weyl part 1/(2 b t^2) would cost more than 1e-14
    relative, it is the series
    -2b sum_j (2j - 1) B_2j(1/2 + c) (2bt)^(2j - 2) / (2j)!,
    c = (pi - theta) / 2 pi, to j = 12: its terms shrink like
    (bt/pi)^2j, so the truncation is below 1e-15 relative there.
    """
    b = PI / length
    bt = b * t
    if bt < 0.6:
        c2, tau2 = (0.5 * (PI - theta) / PI) ** 2, (2.0 * bt) ** 2
        total = 0.0
        for row in reversed(_TWISTED_SERIES):
            coef = 0.0
            for c in row:
                coef = coef * c2 + c
            total = total * tau2 + coef
        return -2.0 * b * total
    alpha, beta = theta / length, (2.0 * PI - theta) / length
    top = alpha * (math.exp(-alpha * t) + math.exp(-(alpha + 2.0 * beta) * t)) + beta * (
        math.exp(-beta * t) + math.exp(-(2.0 * alpha + beta) * t)
    )
    gap = -math.expm1(-2.0 * bt)
    return top / (2.0 * gap * gap) - 1.0 / (2.0 * b * t * t)


def total_energy_regularized(geometry: Geometry, t: float) -> EnergyBreakdown:
    """E(t) = -1/2 d/dt Tr T(t), split by orbit family.

    ``weyl = L/(2 pi t^2)`` exactly; ``periodic`` carries the finite
    vacuum energy as t -> 0; ``boundary`` is exactly zero at every t.
    For like ends the boundary pole pairs ``a_{n+1} - a_n`` with
    ``a_n = 2 L n / (t^2 + 4 L^2 n^2)`` telescope to ``a_N -> 0``; for
    mixed ends the two-sided sum cancels pairwise.  The verify registry
    sums the like-ends pairs independently to confirm it.  The half-line
    has no trace to differentiate: its boundary density integrates to
    zero over (0, inf).
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise InvalidParameter("regulator t must be positive and finite")
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum(
            "half-line has no global trace; its boundary density "
            "integrates to zero"
        )
    length = geometry.length
    if _TINY < t < _HUGE:
        weyl = length / (2.0 * PI * t * t)
    else:
        weyl = length / (2.0 * PI * t) / t
    if isinstance(geometry, Interval):
        z = PI * t / (2.0 * length)
        g = _g_even(z) if geometry.like_ends else _g_odd(z)
        per = (PI / (8.0 * length)) * g
    else:
        per = _twisted_periodic_regularized(length, geometry.theta, t)
    if not (_isfinite(weyl) and _isfinite(per)):
        raise InvalidParameter(f"E(t) overflows at t={t!r}: weyl={weyl!r}, periodic={per!r}")
    return EnergyBreakdown(
        weyl=weyl,
        periodic=per,
        boundary=0.0,
        total_renormalized=per,
        regulator_t=t,
        note=_zero_mode_note(geometry),
    )


def _zero_mode_note(geometry: Interval | TwistedCircle) -> str:
    if isinstance(geometry, Interval):
        return _ZERO_MODE if geometry.left is NEUMANN is geometry.right else ""
    return _ZERO_MODE if geometry.theta == 0.0 else ""


def total_energy_renormalized(geometry: Geometry) -> EnergyBreakdown:
    """The t -> 0 limit of the Weyl-subtracted total energy.

    Closed values: ``-pi/24L`` (like ends), ``+pi/48L`` (mixed ends),
    ``-(pi/L) B_2(theta/2pi)`` (twisted circle).  Zero modes carry zero
    energy and are flagged in ``note`` rather than shifted or dropped
    silently.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum(
            "half-line has no global trace; its boundary density "
            "integrates to zero"
        )
    length = geometry.length
    if isinstance(geometry, Interval):
        per = -PI / (24.0 * length) if geometry.like_ends else PI / (48.0 * length)
    else:
        per = twisted_energy(geometry.theta, length)
    return EnergyBreakdown(
        weyl=0.0,
        periodic=per,
        boundary=0.0,
        total_renormalized=per,
        regulator_t=0.0,
        note=_zero_mode_note(geometry),
    )


def twisted_energy(theta: float, length: float) -> float:
    """Closed-form twisted-circle vacuum energy -(pi/L) B_2(theta/2pi).

    Even and 2 pi-periodic in theta; equals -pi/6L at theta = 0 and
    +pi/12L at theta = pi, crossing zero at theta = pi (1 -/+ 1/sqrt 3).
    """
    if not (length > 0.0):
        raise InvalidParameter("length must be positive")
    if not math.isfinite(theta):
        raise InvalidParameter("theta must be finite")
    return -summation.bernoulli_cos_sum(theta) / (PI * length)


def twisted_energy_orbit_sum(
    theta: float, length: float, control: SeriesControl = SeriesControl()
) -> SeriesValue:
    """Twisted-circle energy as an Abel-damped orbit sum.

    Sums the folded winding pairs

        E_n(t) = -(L/pi) cos(n theta) (a^2 - t^2)/(a^2 + t^2)^2,  a = n L,

    at ``t = control.damping_t`` over every n >= 1: the windings are the
    lattice sums ``sum_{m != 0} e^{i m theta} (m L -/+ i t)^-2`` of
    :func:`summation.lattice_sum`, whose tails are completed in closed form,
    so ``truncation_bound`` (the sum of theirs) meets ``control.tol`` with
    tens to hundreds of windings.  Converges to :func:`twisted_energy` as
    t -> 0; at t > 0 the value keeps the damping's own O(t^2) bias.
    """
    if not (length > 0.0):
        raise InvalidParameter("length must be positive")
    t = control.damping_t
    # Re (a - i t)^-2 = (a^2 - t^2)/(a^2 + t^2)^2; the m and -m terms of
    # the two lattices at +-t add up to 4 cos(n theta) Re (a - i t)^-2.
    parts = [
        summation.lattice_sum(length, 0.0, s, theta, 2, control, skip_zero=True)
        for s in ((t, -t) if t > 0.0 else (0.0,))
    ]
    scale = length / (2.0 * PI * len(parts))
    return SeriesValue(
        value=-scale * sum(p.value.real for p in parts),
        terms_used=sum(p.terms_used for p in parts),
        truncation_bound=scale * sum(p.truncation_bound for p in parts),
        method_tag=ABEL,
    )


def orbit_energy_contribution(
    n: int,
    length: float,
    theta: float = 0.0,
    method: str = ABEL,
    t: float = 0.0,
    omega_max: float = math.inf,
) -> float:
    """Energy carried by a single winding-n orbit, by either regulator.

    * ``abel``: differentiate the damped cosine integral in closed form,

          E_n(t) = -(L/2pi) [cos(n theta)(a^2 - t^2) - 2 a t sin(n theta)]
                   / (t^2 + a^2)^2,     a = n L,

      evaluated at the requested t (default: the t -> 0 limit
      ``-cos(n theta) / (2 pi n^2 L)``).
    * ``riesz-cesaro-2``: the order-2 Riesz-Cesaro mean of the divergent
      frequency integral, ``(1/2pi) * closed antiderivative`` from
      :func:`summation.riesz_cesaro2_energy_integrand` at the requested
      cutoff (default: its Omega -> inf limit).

    The two regulators agree exactly in their limits -- the orbit energy
    is scheme-independent: ``E_n = -cos(n theta) / (2 pi n^2 L)``.
    """
    if n == 0:
        raise InvalidParameter("winding n must be nonzero")
    if not (length > 0.0):
        raise InvalidParameter("length must be positive")
    a = n * length
    b = n * theta
    if method == ABEL:
        if t < 0.0:
            raise InvalidParameter("abel damping t must be >= 0")
        num = math.cos(b) * (a * a - t * t) - 2.0 * a * t * math.sin(b)
        return -(length / (2.0 * PI)) * num / (t * t + a * a) ** 2
    if method == RIESZ_CESARO_2:
        return (length / (2.0 * PI)) * summation.riesz_cesaro2_energy_integrand(
            n, length, theta, omega_max
        )
    raise InvalidParameter(f"unknown per-orbit method {method!r}")


# ---------------------------------------------------------------------------
# Energy densities.
#
# Each density call is one pass over plain floats: a numpy call on a scalar
# costs about a microsecond, as much as the whole formula.  The direct forms
# stay normal floats while L, sinh^2 z + sin^2 p and the half-line scale
# max(t, 2x) (to the fourth power) lie inside (_TINY, _HUGE).  Outside, or
# when a direct form overflows, the scaled forms divide 1/L^2 and 1/t^2 out
# one factor at a time, and a part whose true value overflows raises
# InvalidParameter.
# ---------------------------------------------------------------------------


def _breakdown(
    weyl: float, periodic: float, boundary: float, total: float, t: float, note: str, xi: float
) -> EnergyBreakdown:
    """The density's EnergyBreakdown; total = periodic + boundary is finite
    exactly when both parts are."""
    if not (_isfinite(weyl) and _isfinite(total)):
        if xi == 0.0 and _isfinite(weyl) and _isfinite(periodic):
            # the wall profile overflows, but xi = 0 gives it no weight
            return EnergyBreakdown(weyl, periodic, 0.0, periodic, t, note)
        raise InvalidParameter(
            f"energy density overflows at t={t!r}: weyl={weyl!r}, periodic={periodic!r}, "
            f"boundary={boundary!r}"
        )
    return EnergyBreakdown(weyl, periodic, boundary, total, t, note)


def _interval_density(geom: Interval, t: float, x: float) -> tuple[float, float]:
    """(periodic, boundary) parts of the interval density at xi = 1/4.

    With z = pi t / 2L, p = pi x / L and c = pi / 8L^2, the periodic part is
    c g(z), g = _g_even (like ends) or _g_odd (mixed ends), and the boundary
    part, obtained by differentiating the closed-form kernel diagonal, is

        like ends:  (-1)^l c [cos(2p) sinh^2 z - sin^2 p] / (sinh^2 z + sin^2 p)^2
        mixed ends: (-1)^l c cos p cosh z [sinh^2 z - sin^2 p] / (sinh^2 z + sin^2 p)^2

    whose numerators and denominators are cancellation-free as written.
    Past z = _SCALED both are divided through by sinh^4 z, with
    r = csch^2 z = 4 e^{-2z}.
    """
    length = geom.length
    like = geom.left is geom.right
    z = PI * t / (2.0 * length)
    p = PI * x / length
    sp2 = math.sin(p) ** 2
    if _TINY < length < _HUGE:
        c = PI / (8.0 * length**2)
        pref = -c if geom.left is DIRICHLET else c
        per = c * (_g_even(z) if like else _g_odd(z))
        if z <= _SCALED:
            sh2 = math.sinh(z) ** 2
            if sh2 + sp2 > _TINY:
                denom = (sh2 + sp2) ** 2
                if like:
                    b = pref * (math.cos(2.0 * p) * sh2 - sp2) / denom
                else:
                    b = pref * math.cos(p) * math.cosh(z) * (sh2 - sp2) / denom
                if _isfinite(b):
                    return per, b
        elif length >= 1.0 or z < (354.0 if like else 708.0):
            # (with L < 1, e^{-2z} or e^{-z} would leave the normal floats
            # past these before 1/L^2 lifts it)
            r = 4.0 * math.exp(-2.0 * z)
            denom = (1.0 + sp2 * r) ** 2
            if like:
                return per, pref * (math.cos(2.0 * p) * r - sp2 * r * r) / denom
            return per, pref * math.cos(p) * 2.0 * math.exp(-z) * (1.0 - sp2 * r) / denom
        return per, _interval_density_scaled(geom, like, t, x, z, p, sp2)[1]
    return _interval_density_scaled(geom, like, t, x, z, p, sp2)


def _interval_density_scaled(
    geom: Interval, like: bool, t: float, x: float, z: float, p: float, sp2: float
) -> tuple[float, float]:
    """_interval_density with 1/L^2 kept out of every intermediate.

    Near the walls the boundary part is written in the lengths
    H = L sinh z and S = L sin p, which tend to pi t/2 and pi x as z and p
    underflow; dividing H and S by w = max(H, S) leaves
    c L^2 (...) / (H^2 + S^2)^2 = (pi/8) (...) / ((h^2 + s^2)^2 w^2).
    Past z = _SCALED the exponentials are e^{-2z}/L^2 = (h k)^2 and
    e^{-z}/L^2 = k^2, with h = e^{-z/2} and k = h/L, which underflow only
    where they do.
    """
    length = geom.length
    c = 0.125 * PI
    pref = -c if geom.left is DIRICHLET else c
    weyl_t = 0.5 / PI / t / t
    if z > _SCALED:
        h = math.exp(-0.5 * z)
        k = h / length
        r = 4.0 * h * h * h * h
        denom = (1.0 + sp2 * r) ** 2
        if like:
            # g = 4 e^{-2z} - 1/z^2, and c/z^2 = 1/(2 pi t^2) after scaling
            e2 = h * k * (h * k)
            return 4.0 * c * e2 - weyl_t, pref * 4.0 * e2 * (math.cos(2.0 * p) - sp2 * r) / denom
        per = 2.0 * c * k * k - weyl_t
        return per, pref * math.cos(p) * 2.0 * k * k * (1.0 - sp2 * r) / denom
    per = c * (_g_even(z) if like else _g_odd(z)) / length / length
    sh, sp = math.sinh(z), math.sin(p)
    w = max(sh, sp)
    if w > 1e-290:
        h, s, q = sh / w, sp / w, length * w
    else:
        big_h, big_s = 0.5 * PI * t, PI * x
        w = max(big_h, big_s)
        h, s, q = big_h / w, big_s / w, w
    m = h * h + s * s
    if like:
        b = pref * (math.cos(2.0 * p) * h * h - s * s) / (m * m) / q / q
    else:
        b = pref * math.cos(p) * math.cosh(z) * (h * h - s * s) / (m * m) / q / q
    return per, b


def energy_density_regularized(
    geometry: Geometry, t: float, x: float, xi: float = 0.25
) -> EnergyBreakdown:
    """Local energy density at regulator t and curvature coupling xi.

    ``weyl = 1/(2 pi t^2)`` per unit length; ``periodic`` is the uniform
    bulk part; ``boundary`` is the wall profile scaled by 4 xi.  The
    xi-dependence is exactly that factor: xi = 1/4 reproduces the
    cylinder-kernel diagonal derivative, and xi = 0 removes the wall
    profile altogether.  The bulk is xi-independent.  A part too large
    for a float raises :class:`InvalidParameter`.
    """
    if not (t > 0.0) or not _isfinite(t):
        raise InvalidParameter("regulator t must be positive and finite")
    if not _isfinite(xi):
        raise InvalidParameter("xi must be finite")
    weyl = 1.0 / (2.0 * PI * t * t) if _TINY < t < _HUGE else 0.5 / PI / t / t
    if isinstance(geometry, Interval):
        if not (0.0 < x < geometry.length):
            raise OutOfDomain(f"x={x!r} not in (0, {geometry.length})")
        per, b = _interval_density(geometry, t, x)
        bdry = 4.0 * xi * b
        note = _ZERO_MODE if geometry.left is NEUMANN is geometry.right else ""
        return _breakdown(weyl, per, bdry, per + bdry, t, note, xi)
    if isinstance(geometry, HalfLine):
        if not (x > 0.0):
            raise OutOfDomain(f"x={x!r} not in (0, inf)")
        # (-1)^l (t^2 - 4x^2) / (2 pi (t^2 + 4x^2)^2), in units of
        # s = max(t, 2x) outside the direct window
        sign = -1.0 if geometry.condition is DIRICHLET else 1.0
        s = max(t, 2.0 * x)
        if 1e-75 < s < 1e75:
            b = sign * (t * t - 4.0 * x * x) / (2.0 * PI * (t * t + 4.0 * x * x) ** 2)
        else:
            ts, xs = t / s, 2.0 * x / s
            m = ts * ts + xs * xs
            b = sign * (ts * ts - xs * xs) / (m * m) / (2.0 * PI * s) / s
        bdry = 4.0 * xi * b
        return _breakdown(weyl, 0.0, bdry, bdry, t, "", xi)
    length, theta = geometry.length, geometry.theta
    per = _twisted_periodic_regularized(length, theta, t) / length
    return _breakdown(weyl, per, 0.0, per, t, _ZERO_MODE if theta == 0.0 else "", xi)


def energy_density_renormalized(
    geometry: Geometry, x: float, xi: float = 0.25
) -> EnergyBreakdown:
    """The t -> 0 energy density profile at coupling xi.

    Interval walls diverge like ``+/- 1/(8 pi d^2)`` with d the distance
    to the nearest wall (sign set by the condition there); the closed
    forms are in the module docstring.  The profile integrates to the
    renormalized total for every xi: the boundary part has zero integral
    by the cot*csc / csc^2 antiderivative identities.  A part too large
    for a float raises :class:`InvalidParameter`.
    """
    if not _isfinite(xi):
        raise InvalidParameter("xi must be finite")
    if isinstance(geometry, Interval):
        length = geometry.length
        if not (0.0 < x < length):
            raise OutOfDomain(f"x={x!r} not in (0, {length})")
        like = geometry.left is geometry.right
        p = PI * x / length
        sp = math.sin(p)
        if _TINY < length < _HUGE and sp > _TINY:
            pref = PI / (8.0 * length**2)
            if geometry.left is NEUMANN:
                pref = -pref
            if like:
                per = -PI / (24.0 * length**2)
                b = pref / sp**2
            else:
                per = PI / (48.0 * length**2)
                b = pref * math.cos(p) / sp**2
        else:
            # pi/8L^2 csc^2 p = (pi/8) / (L sin p)^2, with L sin p -> pi x
            # once p underflows
            q = length * sp if sp > 1e-290 else PI * x
            pref = 0.125 * PI if geometry.left is DIRICHLET else -0.125 * PI
            if like:
                per = -PI / 24.0 / length / length
                b = pref / q / q
            else:
                per = PI / 48.0 / length / length
                b = pref * math.cos(p) / q / q
        bdry = 4.0 * xi * b
        note = _ZERO_MODE if geometry.left is NEUMANN is geometry.right else ""
        return _breakdown(0.0, per, bdry, per + bdry, 0.0, note, xi)
    if isinstance(geometry, HalfLine):
        if not (x > 0.0):
            raise OutOfDomain(f"x={x!r} not in (0, inf)")
        # (-1)^(l+1) / (8 pi x^2)
        sign = 1.0 if geometry.condition is DIRICHLET else -1.0
        b = sign / (8.0 * PI * x * x) if _TINY < x < _HUGE else sign / (8.0 * PI * x) / x
        bdry = 4.0 * xi * b
        return _breakdown(0.0, 0.0, bdry, bdry, 0.0, "", xi)
    theta = geometry.theta
    per = twisted_energy(theta, geometry.length) / geometry.length
    return _breakdown(0.0, per, 0.0, per, 0.0, _ZERO_MODE if theta == 0.0 else "", xi)


# ---------------------------------------------------------------------------
# Cylinder / heat coefficient extraction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderExpansion:
    """Fitted small-t expansion Tr T ~ sum_s e_s t^{s-d}.

    In one dimension the expansion has no logarithmic terms, which is
    what makes the e_2 energy coefficient well-defined.
    """

    e: dict[int, float]
    d: int
    residual: float

    @property
    def energy(self) -> float:
        """The vacuum energy read off the expansion: -e_2 / 2."""
        return -0.5 * self.e[2]


# The cylinder fit's basis powers of t.
_CYLINDER_POWERS = (0, 1, 2, 3, 4, 6)


def _least_squares_factor(design: np.ndarray) -> tuple[np.ndarray, int]:
    """(pseudo-inverse, rank) of a design matrix, with the rank cut of
    ``np.linalg.lstsq(..., rcond=None)``: singular values at or below
    eps max(m, n) times the largest count as zero."""
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    rank = int(np.count_nonzero(sv > np.finfo(float).eps * max(design.shape) * sv[0]))
    return (vt[:rank].T / sv[:rank]) @ u[:, :rank].T, rank


def _cylinder_factor(u: np.ndarray) -> tuple[np.ndarray, int]:
    """For the scaled grid u = t / t[-1]: the matrix taking y to the fitted
    coefficients followed by the fitted values, and the design rank."""
    design = u[:, None] ** np.array(_CYLINDER_POWERS)[None, :]
    pinv, rank = _least_squares_factor(design)
    return np.vstack([pinv, design @ pinv]), rank


# The default grids (in units of L for the cylinder fit, L^2 for the heat
# fit) and their factors are built on first use, once per process, and
# shared read-only by every fit.


@functools.cache
def _default_cylinder_fit() -> tuple[np.ndarray, np.ndarray, int]:
    grid = np.geomspace(1e-3, 0.1, 25)
    factor, rank = _cylinder_factor(grid / grid[-1])
    grid.setflags(write=False)
    factor.setflags(write=False)
    return grid, factor, rank


@functools.cache
def _default_heat_fit() -> tuple[np.ndarray, np.ndarray, int]:
    """The heat basis t^{-1/2, 0, 1/2, 1}, each column divided by its
    largest entry, which leaves it free of L."""
    g = np.geomspace(5e-4, 6e-3, 16)
    design = np.column_stack([(g / g[0]) ** -0.5, np.ones_like(g), (g / g[-1]) ** 0.5, g / g[-1]])
    pinv, rank = _least_squares_factor(design)
    g.setflags(write=False)
    pinv.setflags(write=False)
    return g, pinv, rank


def extract_cylinder_coefficients(
    geometry: Geometry,
    t_grid: np.ndarray | None = None,
) -> CylinderExpansion:
    """Fit e_0 / t + e_1 + e_2 t + e_3 t^2 + e_4 t^3 to the exact trace.

    ``t * Tr T(t)`` is polynomial in t up to exponentially small terms;
    the fit uses the basis ``t^{0,1,2,3,4,6}`` (the t^5 coefficient is
    absent for every geometry here, the t^6 column absorbs the next
    correction so it cannot contaminate e_2), in the scaled variable
    ``u = t / t[-1]`` for conditioning.  The design matrix depends on the
    grid only through u, so the default grid's least-squares factor (the
    pseudo-inverse, rank cut as in ``np.linalg.lstsq``) is built once per
    process and each fit is one matrix-vector product over one array
    evaluation of the closed-form trace.

    Parameters
    ----------
    geometry : Interval or TwistedCircle
    t_grid : array, optional
        Strictly increasing, at least 8 points, spanning at least a
        decade, inside (0, 0.1 L].  Default ``L * geomspace(1e-3, 0.1, 25)``.
        A caller's grid is factored on each call.

    Raises
    ------
    IllConditionedFit
        If the fit residual exceeds 1e-9 * max(1, |y|) or the design
        matrix is rank-deficient.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line cylinder trace diverges")
    length = geometry.length
    if t_grid is None:
        grid, factor, rank = _default_cylinder_fit()
        t = length * grid
    else:
        t = np.asarray(t_grid, dtype=float)
        if t.ndim != 1 or t.size < 8:
            raise InvalidParameter("t_grid needs at least 8 points")
        if not (np.all(np.diff(t) > 0.0) and t[0] > 0.0):
            raise InvalidParameter("t_grid must be strictly increasing and positive")
        if t[-1] > 0.1 * length * (1.0 + 1e-12):
            raise InvalidParameter("t_grid must stay inside (0, 0.1 L]")
        if t[-1] / t[0] < 10.0:
            raise InvalidParameter("t_grid must span at least a decade")
        factor, rank = _cylinder_factor(t / t[-1])
    n = len(_CYLINDER_POWERS)
    if rank < n:
        raise IllConditionedFit("rank-deficient design matrix")
    y = t * kernels._closed_trace(geometry, t)
    out = factor @ y
    coef = out[:n]
    resid = float(np.max(np.abs(out[n:] - y)))
    scale = max(1.0, float(np.max(np.abs(y))))
    if resid > 1e-9 * scale:
        raise IllConditionedFit(
            f"fit residual {resid:.3e} above {1e-9 * scale:.3e}; "
            "grid likely outside the asymptotic regime"
        )
    e = {k: float(c / t[-1] ** k) for k, c in zip(_CYLINDER_POWERS, coef) if k <= 4}
    return CylinderExpansion(e=e, d=1, residual=resid)


@dataclass(frozen=True)
class Theorem1Report:
    """Heat-kernel vs cylinder-kernel coefficient comparison (d = 1).

    The heat coefficients determine e_0 and e_1 through

        e_0 = (2 / sqrt(pi)) b_0,        e_1 = b_1,

    but say nothing about e_2: that coefficient (the energy) lives in the
    exponentially small part of the heat trace, as ``note`` states.
    """

    b0: float
    b1: float
    e0: float
    e1: float
    e2: float
    defect_e0: float
    defect_e1: float
    note: str


def theorem1_check(geometry: Geometry) -> Theorem1Report:
    """Fit heat and cylinder expansions and compare where they must agree.

    Heat side: ``Tr K ~ b_0 t^{-1/2} + b_1`` fitted with two spurious
    basis columns (t^{1/2}, t) on 16 points ``t in L^2 * [5e-4, 6e-3]``.
    The grid top is set by the shortest closed geodesic: for the circle
    that is L itself, so the first image correction is exp(-L^2/4t) ~
    8e-19 at t = 6e-3 L^2 (intervals, with shortest image 2L, are far
    cleaner).  Each basis column divided by its largest entry is free of
    L, so the fit is one product with a pseudo-inverse built once per
    process, over one array evaluation of the heat trace.  Cylinder side:
    :func:`extract_cylinder_coefficients` on its default grid.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line traces diverge")
    length = geometry.length
    grid, factor, rank = _default_heat_fit()
    tg = length**2 * grid
    if rank < 4:
        raise IllConditionedFit("rank-deficient heat-trace design matrix")
    coef = factor @ kernels._heat_trace(geometry, tg, SeriesControl())
    # undo the column scaling: t^{-1/2} peaks at the first point, 1 is 1
    b0, b1 = float(coef[0]) * math.sqrt(tg[0]), float(coef[1])
    cyl = extract_cylinder_coefficients(geometry)
    e0, e1, e2 = cyl.e[0], cyl.e[1], cyl.e[2]
    pred_e0 = 2.0 / math.sqrt(PI) * b0
    return Theorem1Report(
        b0=b0,
        b1=b1,
        e0=e0,
        e1=e1,
        e2=e2,
        defect_e0=abs(e0 - pred_e0),
        defect_e1=abs(e1 - b1),
        note=(
            "e2 (hence the vacuum energy -e2/2) is invisible to the heat "
            "expansion: it sits in terms exponentially small in 1/t"
        ),
    )


# ---------------------------------------------------------------------------
# Approximation hierarchy.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproximationRow:
    quantity: str
    exact: float
    stationary_phase: float
    short_orbit: float


@dataclass(frozen=True)
class ApproximationReport:
    """Exact vs truncated-orbit answers for an interval.

    ``stationary_phase`` drops the boundary family entirely (it carries
    no stationary point of the phase at omega > 0): total energies are
    exact, densities lose their wall profile.  ``short_orbit`` truncates
    the boundary family at the two single-reflection paths while keeping
    the periodic family resummed -- the tempting shortcut that leaves a
    spurious wall energy behind.
    """

    geometry: Interval
    xi: float
    rows: tuple[ApproximationRow, ...] = field(default_factory=tuple)


def approximation_report(
    geometry: Interval,
    x_points: tuple[float, ...] | None = None,
    xi: float = 0.25,
) -> ApproximationReport:
    """Compare exact, stationary-phase, and short-orbit answers.

    Rows: total energy, boundary-family total, and the renormalized
    density at each requested point (default L/4 and L/2).

    Short-orbit values: the one-reflection boundary total
    ``[(-1)^l + (-1)^r] / (8 pi L)`` (which no longer telescopes away:
    ``(-1)^l/(4 pi L)`` for like ends, 0 for mixed), added to the exact
    periodic resummation for the total row; densities keep the exact
    bulk and replace the wall profile by the two nearest single
    reflections.
    """
    if not isinstance(geometry, Interval):
        raise UnsupportedGeometry("approximation report is defined for intervals")
    length, l, r = geometry.length, geometry.l, geometry.r
    if x_points is None:
        x_points = (0.25 * length, 0.5 * length)
    exact_total = total_energy_renormalized(geometry).total_renormalized
    short_bdry = ((-1.0) ** l + (-1.0) ** r) / (8.0 * PI * length)
    rows = [
        ApproximationRow(
            "total_energy", exact_total, exact_total, exact_total + short_bdry
        ),
        ApproximationRow("boundary_energy", 0.0, 0.0, short_bdry),
    ]
    for x in x_points:
        full = energy_density_renormalized(geometry, x, xi)
        bulk_exact = full.periodic
        wall = 4.0 * xi * (
            (-1.0) ** (l + 1) / (8.0 * PI * x * x)
            + (-1.0) ** (r + 1) / (8.0 * PI * (length - x) ** 2)
        )
        rows.append(
            ApproximationRow(
                f"density@{x:g}",
                full.total_renormalized,
                bulk_exact,
                bulk_exact + wall,
            )
        )
    return ApproximationReport(geometry=geometry, xi=xi, rows=tuple(rows))
