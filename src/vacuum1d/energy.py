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
import sys
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from . import summation
from .errors import ContinuousSpectrum, IllConditionedFit, InvalidParameter, UnsupportedGeometry
from .errors import as_count, as_float, as_real
from .spectrum import DIRICHLET, NEUMANN, Geometry, HalfLine, Interval, TwistedCircle, _phase
from .spectrum import as_point
from .summation import ABEL, RIESZ_CESARO_2, SeriesControl, SeriesValue

if TYPE_CHECKING:
    import numpy as np

PI = math.pi
# Below this an angle pi t/2L or pi x/L has lost bits to underflow.
_NORMAL = sys.float_info.min
_ZERO_MODE = "zero mode present (omega = 0); it adds nothing to the energy sum"
_isfinite = math.isfinite


@dataclass(frozen=True, init=False)
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

    # Written out: a density profile builds thousands of these, and the
    # generated frozen __init__, one object.__setattr__ a field, costs about
    # three times as much.  The fields, equality, hash, repr, replace and
    # FrozenInstanceError stay the dataclass's.
    def __init__(
        self,
        weyl: float,
        periodic: float,
        boundary: float,
        total_renormalized: float,
        regulator_t: float,
        note: str = "",
    ) -> None:
        d = self.__dict__
        d["weyl"] = weyl
        d["periodic"] = periodic
        d["boundary"] = boundary
        d["total_renormalized"] = total_renormalized
        d["regulator_t"] = regulator_t
        d["note"] = note


# ---------------------------------------------------------------------------
# The interval's periodic part is c g(z), z = pi t/2L, with
# g = csch^2 z - 1/z^2 (like ends) or csch z coth z - 1/z^2 (mixed ends) and
# c/z^2 the Weyl part.  Up to z = 2, g is a product free of cancellation
# (_g_even, _g_odd).  Above, with q = e^{-2z}, the hyperbolic parts are
# 4q/(1 - q)^2 and 2 e^{-z} (1 + q)/(1 - q)^2, in which no exponential
# grows, and the Weyl part is subtracted as the caller computed it, so the
# periodic part is exactly minus the Weyl part once they underflow.
# ---------------------------------------------------------------------------


def _sinh_excess(z: float) -> float:
    """(sinh z - z) / z^3 by its Taylor series sum_k z^(2k-2) / (2k+1)!,
    whose terms are all positive (about z + 10 of them)."""
    z2, term, total, k = z * z, 1.0 / 6.0, 1.0 / 6.0, 1
    while term > 1e-17 * total:
        k += 1
        term *= z2 / ((2 * k) * (2 * k + 1))
        total += term
    return total


def _g_even(z: float) -> float:
    """csch^2(z) - 1/z^2 for 0 <= z < 350 (the callers stop at z = 2).

    With e = (sinh z - z)/z^3 it is -e (2 + z^2 e) / (1 + z^2 e)^2: a
    product with no difference of nearly equal terms."""
    e = _sinh_excess(z)
    ez = z * z * e
    return -e * (2.0 + ez) / ((1.0 + ez) * (1.0 + ez))


def _g_odd(z: float) -> float:
    """csch(z) coth(z) - 1/z^2 for 0 <= z < 350: csch z coth z =
    csch^2 z + sech^2(z/2)/2, so it is _g_even(z) + sech^2(z/2)/2, where
    the two parts are -1/3 and 1/2 at z = 0."""
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
    t = as_real(t, "regulator t", positive=True)
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum(
            "half-line has no global trace; its boundary density "
            "integrates to zero"
        )
    length = geometry.length
    weyl = length / (2.0 * PI * t) / t
    if isinstance(geometry, Interval):
        z = _phase(0.5 * t, length)
        if z <= 2.0:
            per = (PI / (8.0 * length)) * (_g_even(z) if geometry.like_ends else _g_odd(z))
        else:
            q = math.exp(-2.0 * z)
            hyperbolic = 4.0 * q if geometry.like_ends else 2.0 * math.exp(-z) * (1.0 + q)
            per = (PI / (8.0 * length)) * hyperbolic / ((1.0 - q) * (1.0 - q)) - weyl
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
    theta, length = as_real(theta, "theta"), as_real(length, "length", positive=True)
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
    theta, length = as_real(theta, "theta"), as_real(length, "length", positive=True)
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
    n, length = as_count(n, "winding n"), as_real(length, "length", positive=True)
    theta, t = as_real(theta, "theta"), as_real(t, "abel damping t")
    omega_max = as_float(omega_max, "omega_max")  # inf is the limit
    if not omega_max > 0.0:
        raise InvalidParameter("omega_max must be positive")
    if n == 0:
        raise InvalidParameter("winding n must be nonzero")
    if t < 0.0:
        raise InvalidParameter("abel damping t must be >= 0")
    a = n * length
    b = n * theta
    if method == ABEL:
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
# Only the wall profile depends on x.  The Weyl and periodic parts, and the
# exponentials of z = pi t/2L that the interval profile is made of, depend
# on (L, ends, t) alone: _density_bulk computes them once and keeps the
# summation._TABLES most recent, so the points of a profile at one t share
# them.  The rest of a density call is one pass over plain floats: a numpy
# call on a scalar costs about a microsecond, as much as the whole formula.
# Each part is written once, in quantities that leave the float range only
# where the part does: lengths and their ratios in place of squares and
# fourth powers (L sin p, max(t, 2x)), 1/L^2 and 1/t^2 divided out one
# factor at a time, and e^{-z}/L^2 carried as a square.  A part whose true
# value overflows raises InvalidParameter.
# ---------------------------------------------------------------------------


def _breakdown(
    weyl: float, periodic: float, boundary: float, total: float, t: float, note: str, xi: float
) -> EnergyBreakdown:
    """The density's EnergyBreakdown; total = periodic + boundary is finite
    exactly when both parts are.  A nan or infinite xi, times the wall
    profile, leaves a non-finite total, and the scalar rule reports it."""
    if not (_isfinite(weyl) and _isfinite(total)):
        as_real(xi, "xi")
        if xi == 0.0 and _isfinite(weyl) and _isfinite(periodic):
            # the wall profile overflows, but xi = 0 gives it no weight
            return EnergyBreakdown(weyl, periodic, 0.0, periodic, t, note)
        raise InvalidParameter(
            f"energy density overflows at t={t!r}: weyl={weyl!r}, periodic={periodic!r}, "
            f"boundary={boundary!r}"
        )
    return EnergyBreakdown(weyl, periodic, boundary, total, t, note)


def _sine_length(length: float, x: float, p: float) -> float:
    """L sin p, p = pi x/L, which is pi x once p has lost bits to underflow."""
    return length * math.sin(p) if p >= _NORMAL else PI * x


# typed: the interval's like_ends (a bool) and the twist theta (a float)
# share the middle place of the key, and False == 0.0
@functools.lru_cache(maxsize=summation._TABLES, typed=True)
def _density_bulk(length: float, ends: bool | float, t: float) -> tuple[float, ...]:
    """The x-free part of the density at regulator t: (weyl, periodic) on the
    twisted circle (``ends`` = theta), and on the interval (``ends`` =
    like_ends) (weyl, e^{-z/2}, e^{-z}, G/2, 1 + q, periodic), z = pi t/2L,
    q = e^{-2z}, G = L (1 - q); see :func:`_interval_density`.  Raises
    :class:`InvalidParameter`, and so keeps no entry, where t breaks the
    scalar rule or a part overflows: a density call that hits has a valid t."""
    t = as_real(t, "regulator t", positive=True)
    weyl = 0.5 / PI / t / t
    if type(ends) is float:
        bulk = weyl, _twisted_periodic_regularized(length, ends, t) / length
    else:
        z = _phase(0.5 * t, length)
        half = math.exp(-0.5 * z)
        # G/2, which stays finite where G passes 8.99e307
        g_half = 0.5 * length * -math.expm1(-2.0 * z) if z >= _NORMAL else 0.5 * PI * t
        one_plus_q = 1.0 + (half * half) ** 2
        if z <= 2.0:
            per = 0.125 * PI * (_g_even(z) if ends else _g_odd(z)) / length / length
        else:
            # S/2 <= e^{-z} L < G/2 here, so w = G/2 at every x
            k = 0.5 * (half / g_half)
            r = half * k
            per = (0.5 * PI * r * r if ends else 0.25 * PI * one_plus_q * k * k) - weyl
        bulk = weyl, half, math.exp(-z), g_half, one_plus_q, per
    if not (_isfinite(weyl) and _isfinite(bulk[-1])):
        raise InvalidParameter(
            f"energy density overflows at t={t!r}: weyl={weyl!r}, periodic={bulk[-1]!r}"
        )
    return bulk


def _interval_density(geom: Interval, t: float, x: float) -> tuple[float, float, float]:
    """(weyl, periodic, boundary) parts of the interval density at xi = 1/4.

    With z = pi t/2L, p = pi x/L and c = pi/8L^2, the periodic part is
    c g(z), g = _g_even (like ends) or _g_odd (mixed ends), and the boundary
    part, obtained by differentiating the closed-form kernel diagonal, is

        like ends:  (-1)^l c [cos(2p) sinh^2 z - sin^2 p] / (sinh^2 z + sin^2 p)^2
        mixed ends: (-1)^l c cos p cosh z [sinh^2 z - sin^2 p] / (sinh^2 z + sin^2 p)^2.

    In the lengths G = L (1 - q), q = e^{-2z}, and S = 2 e^{-z} L sin p,
    which tend to pi t and 2 pi x as z and p underflow, sinh^2 z + sin^2 p
    = e^{2z} (G^2 + S^2) / 4L^2 and the boundary part is

        like ends:  (-1)^l (pi/2) e^{-2z} [cos(2p) G^2 - S^2] / (G^2 + S^2)^2
        mixed ends: (-1)^l (pi/4) e^{-z} (1 + q) cos p [G^2 - S^2] / (G^2 + S^2)^2,

    free of L.  G and S are divided by w = max(G, S), and e^{-z}/w^2 is
    carried as k^2, k = e^{-z/2}/w, which underflows only where the part
    does.  Above z = 2, where w = G, the periodic part c g(z) is
    (pi/2) (e^{-z/2} k)^2 (like ends) or (pi/4) (1 + q) k^2 (mixed ends)
    minus the Weyl part c/z^2; up to z = 2 it is c g(z), whose product
    forms stay near 1.  All but p, S and what follows from them comes from
    :func:`_density_bulk`.
    """
    length = geom.length
    like = geom.left is geom.right
    weyl, half, e_z, g_half, one_plus_q, per = _density_bulk(length, like, t)
    p = _phase(x, length)
    # S/2, which stays finite where S passes 8.99e307
    s_half = e_z * _sine_length(length, x, p)
    w = max(g_half, s_half)
    h, s = g_half / w, s_half / w
    m = h * h + s * s
    k = 0.5 * (half / w)
    sign = -1.0 if geom.left is DIRICHLET else 1.0
    if like:
        r = half * k
        return weyl, per, sign * 0.5 * PI * (math.cos(2.0 * p) * h * h - s * s) / (m * m) * r * r
    return weyl, per, sign * 0.25 * PI * one_plus_q * math.cos(p) * (h * h - s * s) / (m * m) * k * k


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
    if not (type(t) is type(xi) is float):
        t, xi = as_float(t, "regulator t"), as_float(xi, "xi")
    x = as_point(geometry, x)
    if isinstance(geometry, Interval):
        weyl, per, b = _interval_density(geometry, t, x)
        bdry = 4.0 * xi * b
        note = _ZERO_MODE if geometry.left is NEUMANN is geometry.right else ""
        return _breakdown(weyl, per, bdry, per + bdry, t, note, xi)
    if isinstance(geometry, HalfLine):
        t = as_real(t, "regulator t", positive=True)
        weyl = 0.5 / PI / t / t
        # (-1)^l (t^2 - 4x^2) / (2 pi (t^2 + 4x^2)^2) in units of the power of
        # two s just above max(t, 2x): scaling by s is exact, so this rounds
        # as the unscaled form does wherever that one stays normal
        sign = -1.0 if geometry.condition is DIRICHLET else 1.0
        s = math.ldexp(1.0, math.frexp(max(t, 2.0 * x))[1])
        ts, xs = t / s, 2.0 * x / s
        b = sign * (ts * ts - xs * xs) / (2.0 * PI * (ts * ts + xs * xs) ** 2) / s / s
        bdry = 4.0 * xi * b
        return _breakdown(weyl, 0.0, bdry, bdry, t, "", xi)
    # no wall part to carry a bad xi into _breakdown, whose checks the bulk has made
    xi = as_real(xi, "xi")
    weyl, per = _density_bulk(geometry.length, geometry.theta, t)
    return EnergyBreakdown(weyl, per, 0.0, per, t, _ZERO_MODE if geometry.theta == 0.0 else "")


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
    if type(xi) is not float:
        xi = as_float(xi, "xi")
    x = as_point(geometry, x)
    if isinstance(geometry, Interval):
        length = geometry.length
        # pi/8L^2 csc^2 p = (pi/8) / (L sin p)^2, p = pi x/L
        p = _phase(x, length)
        wall = _sine_length(length, x, p)
        pref = 0.125 * PI if geometry.left is DIRICHLET else -0.125 * PI
        if geometry.left is geometry.right:
            per = -PI / 24.0 / length / length
            b = pref / wall / wall
        else:
            per = PI / 48.0 / length / length
            b = pref * math.cos(p) / wall / wall
        bdry = 4.0 * xi * b
        note = _ZERO_MODE if geometry.left is NEUMANN is geometry.right else ""
        return _breakdown(0.0, per, bdry, per + bdry, 0.0, note, xi)
    if isinstance(geometry, HalfLine):
        # (-1)^(l+1) / (8 pi x^2)
        sign = 1.0 if geometry.condition is DIRICHLET else -1.0
        b = sign / (8.0 * PI * x) / x
        bdry = 4.0 * xi * b
        return _breakdown(0.0, 0.0, bdry, bdry, 0.0, "", xi)
    xi, theta, length = as_real(xi, "xi"), geometry.theta, geometry.length
    per = -summation.bernoulli_cos_sum(theta) / (PI * length) / length  # twisted_energy / L
    return _breakdown(0.0, per, 0.0, per, 0.0, _ZERO_MODE if theta == 0.0 else "", xi)


# ---------------------------------------------------------------------------
# Cylinder / heat coefficient extraction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderExpansion:
    """Small-t expansion ``t Tr T(t) = sum_k e_k t^k``, k = 0..4, read off
    the closed-form trace by a Cauchy integral.

    In one dimension the expansion has no logarithmic terms, which is
    what makes the e_2 energy coefficient well-defined.
    ``truncation_bound`` is keyed like ``e`` and bounds each coefficient's
    error (see :func:`extract_cylinder_coefficients`).
    """

    e: dict[int, float]
    d: int
    truncation_bound: dict[int, float]

    @property
    def energy(self) -> float:
        """The vacuum energy read off the expansion: -e_2 / 2."""
        return -0.5 * self.e[2]


# N nodes on |u| = r = R/2, aliasing bounded on |u| = rho = 0.95 R, so
# q = (r/rho)^N = 1.9^-64.  Against 40-digit Taylor coefficients of every
# interval and six twists the rounding reaches 0.92 eps max|h| r^-k; the
# bound allows _CAUCHY_ROUNDING of these.
_CAUCHY_NODES = 64
_ALIASING = 1.9**-_CAUCHY_NODES / (1.0 - 1.9**-_CAUCHY_NODES)
_CAUCHY_ROUNDING = 4.0


@functools.cache
def _cauchy_rule(r: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_m = r e^{2 pi i m/N}, m = 0..N/2, and the matrix taking h(u_m)
    to h_0..h_4 (real part), built once per radius.  h is real on the real
    axis, so the lower half circle adds the conjugate of the upper: weights
    1/N at u = +-r and 2/N between."""
    import numpy as np

    m = np.arange(_CAUCHY_NODES // 2 + 1)
    k = np.arange(5)[:, None]
    nodes = r * np.exp(2j * PI / _CAUCHY_NODES * m)
    weight = np.where((m == 0) | (m == _CAUCHY_NODES // 2), 1.0, 2.0) / _CAUCHY_NODES
    rule = weight * np.exp(-2j * PI / _CAUCHY_NODES * k * m) / r**k
    nodes.setflags(write=False)
    rule.setflags(write=False)
    return nodes, rule


def _trace_envelope(unit: Interval | TwistedCircle, rho: float) -> float:
    """A bound of |Tr T(u)| on |u| = rho < R for the unit-length geometry.

    The traces are e^{-pi u/2} / 2 sinh(pi u/2) (+1 for Neumann ends),
    1 / 2 sinh(pi u/2) (mixed ends) and cosh((pi - theta) u) / sinh(pi u);
    |e^{-a u}| <= e^{a rho}, |cosh(a u)| <= cosh(a rho), and |sinh z| >= sin|z|
    for |z| < pi, factor by factor in sinh z = z prod_n (1 + z^2/(n pi)^2)."""
    if isinstance(unit, TwistedCircle):
        return math.cosh((PI - unit.theta) * rho) / math.sin(PI * rho)
    half = 0.5 * PI * rho
    if not unit.like_ends:
        return 0.5 / math.sin(half)
    return 0.5 * math.exp(half) / math.sin(half) + (1.0 if unit.left is NEUMANN else 0.0)


def extract_cylinder_coefficients(geometry: Geometry) -> CylinderExpansion:
    """Taylor coefficients e_0..e_4 of ``t Tr T(t)`` by one Cauchy integral.

    In u = t/L, h(u) = u Tr T of the unit-length geometry is free of L and
    e_k = h_k L^{1-k}.  h is analytic in |u| < R, R = 2 on the interval and
    1 on the circle (poles at t = +-2iL, +-iL).  The trapezoidal rule on
    N = 64 nodes u_m of |u| = r = R/2, one array call of the closed form,
    gives r^-k (1/N) sum_m h(u_m) e^{-2 pi i mk/N} = h_k + sum_{j>=1}
    h_{k+jN} r^{jN}.  With M(s) = s _trace_envelope(s) >= max_{|u|=s} |h|,
    Cauchy's estimate |h_n| <= M(rho) rho^-n on |u| = rho = 0.95 R bounds
    the aliased sum by M(rho) q/(1 - q) rho^-k, q = (r/rho)^N ~ 1.4e-18.
    ``truncation_bound[k]`` adds the rounding, 4 eps M(r) r^-k, and scales
    both by L^{1-k}.  The rule converges geometrically (Trefethen &
    Weideman, SIAM Rev. 56, 2014) and keeps its rounding at a few eps on a
    circle of radius comparable to R (Bornemann, Found. Comput. Math. 11,
    2011).  Coefficient and bound are scaled by L one factor at a time, so
    no power of L over- or underflows on the way.

    Raises :class:`ContinuousSpectrum` for the half-line, and
    :class:`InvalidParameter` where a coefficient or its bound leaves the
    float range (e_3, e_4 carry L^-2, L^-3: below about L = 1e-100).
    """
    from . import kernels

    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line cylinder trace diverges")
    unit = replace(geometry, length=1.0)
    pole = 1.0 if isinstance(geometry, TwistedCircle) else 2.0
    r, rho = 0.5 * pole, 0.95 * pole
    nodes, rule = _cauchy_rule(r)
    coef = (rule @ (nodes * kernels._closed_trace(unit, nodes))).real.tolist()
    aliasing = rho * _trace_envelope(unit, rho) * _ALIASING
    rounding = _CAUCHY_ROUNDING * sys.float_info.epsilon * r * _trace_envelope(unit, r)
    length = geometry.length
    e, bound = {}, {}
    for k, value in enumerate(coef):
        err = aliasing / rho**k + rounding / r**k
        if k == 0:
            value, err = value * length, err * length
        for _ in range(k - 1):
            value, err = value / length, err / length
        if not (_isfinite(value) and _isfinite(err)):
            raise InvalidParameter(f"e_{k} leaves the float range at L = {length!r}")
        e[k], bound[k] = value, err
    return CylinderExpansion(e=e, d=1, truncation_bound=bound)


@functools.cache
def _default_heat_fit() -> tuple[np.ndarray, np.ndarray]:
    """The heat fit's grid, in units of L^2, and the pseudo-inverse of its
    basis t^{-1/2, 0, 1/2, 1} with each column divided by its largest entry;
    built once per process and shared read-only.  Raises
    :class:`IllConditionedFit` if the basis is rank-deficient by the rank cut
    of ``np.linalg.lstsq(..., rcond=None)``."""
    import numpy as np

    g = np.geomspace(5e-4, 6e-3, 16)
    design = np.column_stack([(g / g[0]) ** -0.5, np.ones_like(g), (g / g[-1]) ** 0.5, g / g[-1]])
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    if sv[-1] <= np.finfo(float).eps * max(design.shape) * sv[0]:
        raise IllConditionedFit("rank-deficient heat-trace design matrix")
    pinv = (vt.T / sv) @ u.T
    g.setflags(write=False)
    pinv.setflags(write=False)
    return g, pinv


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
    """Heat and cylinder coefficients, compared where they must agree.

    Heat side: ``Tr K ~ b_0 t^{-1/2} + b_1`` fitted with two spurious
    basis columns (t^{1/2}, t) on 16 points ``t in L^2 * [5e-4, 6e-3]``; a
    fit, since the heat trace carries e^{-L^2/t}, which has no Laurent
    series at t = 0.  The grid top is set by the shortest closed geodesic:
    for the circle that is L, so the first image correction is
    exp(-L^2/4t) ~ 8e-19 at t = 6e-3 L^2 (intervals are far cleaner).  The
    trace depends only on t/L^2, so the fit (a pseudo-inverse built once
    per process) runs at L = 1 and scales b_0 by L.  Cylinder side:
    :func:`extract_cylinder_coefficients`.
    """
    from . import kernels

    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line traces diverge")
    grid, pinv = _default_heat_fit()
    coef = pinv @ kernels._heat_trace(replace(geometry, length=1.0), grid, SeriesControl())
    # undo the column scaling: t^{-1/2} peaks at the first point, 1 is 1
    b0, b1 = float(coef[0]) * math.sqrt(grid[0]) * geometry.length, float(coef[1])
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
            "e2 (hence the vacuum energy -e2/2) is invisible to the heat expansion: it "
            "sits in terms like e^(-L^2/t), exponentially small in 1/t and with no "
            "power series at t = 0, which is why the heat side can only be fitted"
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
    reflections, which are the two half-line wall densities.
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
        wall = (
            energy_density_renormalized(HalfLine(geometry.left), x, xi).boundary
            + energy_density_renormalized(HalfLine(geometry.right), length - x, xi).boundary
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
