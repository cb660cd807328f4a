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
from .spectrum import Geometry, HalfLine, Interval, TwistedCircle
from .summation import ABEL, RIESZ_CESARO_2, SeriesControl, SeriesValue

PI = math.pi


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

    E(t) = [b cosh(at) cosh(bt) - a sinh(at) sinh(bt)] / (2 sinh^2(bt))
    with a = (pi - theta)/L, b = pi/L (theta normalized to [0, 2 pi)).
    Below bt = 0.6, where subtracting the Weyl part 1/(2 b t^2) would
    cost more than 1e-14 relative, it is the series
    -2b sum_j (2j - 1) B_2j(1/2 + beta) (2bt)^(2j - 2) / (2j)!,
    beta = a / 2b, to j = 12: its terms shrink like (bt/pi)^2j, so the
    truncation is below 1e-15 relative there.
    """
    a = (PI - theta) / length
    b = PI / length
    bt = b * t
    if bt < 0.6:
        beta2, tau2 = (0.5 * a / b) ** 2, (2.0 * bt) ** 2
        total = 0.0
        for row in reversed(_TWISTED_SERIES):
            coef = 0.0
            for c in row:
                coef = coef * beta2 + c
            total = total * tau2 + coef
        return -2.0 * b * total
    if bt > 300.0:
        return 0.5 * (b - a) * math.exp((a - b) * t) - 1.0 / (2.0 * b * t * t)
    sh = math.sinh(bt)
    num = b * math.cosh(a * t) * math.cosh(bt) - a * math.sinh(a * t) * math.sinh(bt)
    return num / (2.0 * sh * sh) - 1.0 / (2.0 * b * t * t)


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
    weyl = length / (2.0 * PI * t * t)
    if isinstance(geometry, Interval):
        z = PI * t / (2.0 * length)
        g = _g_even(z) if geometry.like_ends else _g_odd(z)
        per = (PI / (8.0 * length)) * g
    else:
        per = _twisted_periodic_regularized(length, geometry.theta, t)
    return EnergyBreakdown(
        weyl=weyl,
        periodic=per,
        boundary=0.0,
        total_renormalized=per,
        regulator_t=t,
        note=_zero_mode_note(geometry),
    )


def _zero_mode_note(geometry: Geometry) -> str:
    if isinstance(geometry, Interval):
        if geometry.l == 0 and geometry.r == 0:
            return "zero mode present (omega = 0); it adds nothing to the energy sum"
        return ""
    if isinstance(geometry, TwistedCircle) and geometry.theta == 0.0:
        return "zero mode present (omega = 0); it adds nothing to the energy sum"
    return ""


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
# ---------------------------------------------------------------------------


def _interval_boundary_density_regularized(
    geom: Interval, t: float, x: float
) -> float:
    """Boundary energy density (xi = 1/4) at regulator t, closed form.

    With z = pi t / 2L and p = pi x / L:

        like ends:  (-1)^l (pi/8L^2) [cos(2p) sinh^2 z - sin^2 p]
                    / (sinh^2 z + sin^2 p)^2
        mixed ends: (-1)^l (pi/8L^2) cos p cosh z [sinh^2 z - sin^2 p]
                    / (sinh^2 z + sin^2 p)^2

    both obtained by differentiating the closed-form kernel diagonal;
    numerators and denominators are cancellation-free as written.
    """
    length, l = geom.length, geom.l
    z = PI * t / (2.0 * length)
    p = PI * x / length
    pref = (-1.0) ** l * PI / (8.0 * length**2)
    if z > _SCALED:
        # numerator and denominator divided by sinh^4 z; r = csch^2 z
        r = 4.0 * math.exp(-2.0 * z)
        sp2 = math.sin(p) ** 2
        denom = (1.0 + sp2 * r) ** 2
        if geom.like_ends:
            return pref * (math.cos(2.0 * p) * r - sp2 * r * r) / denom
        return pref * math.cos(p) * 2.0 * math.exp(-z) * (1.0 - sp2 * r) / denom
    sh2 = math.sinh(z) ** 2
    sp2 = math.sin(p) ** 2
    denom = (sh2 + sp2) ** 2
    if geom.like_ends:
        return pref * (math.cos(2.0 * p) * sh2 - sp2) / denom
    return pref * math.cos(p) * math.cosh(z) * (sh2 - sp2) / denom


def energy_density_regularized(
    geometry: Geometry, t: float, x: float, xi: float = 0.25
) -> EnergyBreakdown:
    """Local energy density at regulator t and curvature coupling xi.

    ``weyl = 1/(2 pi t^2)`` per unit length; ``periodic`` is the uniform
    bulk part; ``boundary`` is the wall profile scaled by 4 xi.  The
    xi-dependence is exactly that factor: xi = 1/4 reproduces the
    cylinder-kernel diagonal derivative, and xi = 0 removes the wall
    profile altogether.  The bulk is xi-independent.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise InvalidParameter("regulator t must be positive and finite")
    if not math.isfinite(xi):
        raise InvalidParameter("xi must be finite")
    weyl = 1.0 / (2.0 * PI * t * t)
    if isinstance(geometry, HalfLine):
        if not (x > 0.0):
            raise OutOfDomain(f"x={x!r} not in (0, inf)")
        b = (
            (-1.0) ** geometry.l
            * (t * t - 4.0 * x * x)
            / (2.0 * PI * (t * t + 4.0 * x * x) ** 2)
        )
        return EnergyBreakdown(
            weyl=weyl,
            periodic=0.0,
            boundary=4.0 * xi * b,
            total_renormalized=4.0 * xi * b,
            regulator_t=t,
        )
    length = geometry.length
    if isinstance(geometry, Interval):
        if not (0.0 < x < length):
            raise OutOfDomain(f"x={x!r} not in (0, {length})")
        z = PI * t / (2.0 * length)
        g = _g_even(z) if geometry.like_ends else _g_odd(z)
        per = (PI / (8.0 * length**2)) * g
        b = _interval_boundary_density_regularized(geometry, t, x)
        return EnergyBreakdown(
            weyl=weyl,
            periodic=per,
            boundary=4.0 * xi * b,
            total_renormalized=per + 4.0 * xi * b,
            regulator_t=t,
            note=_zero_mode_note(geometry),
        )
    per = _twisted_periodic_regularized(length, geometry.theta, t) / length
    return EnergyBreakdown(
        weyl=weyl,
        periodic=per,
        boundary=0.0,
        total_renormalized=per,
        regulator_t=t,
        note=_zero_mode_note(geometry),
    )


def energy_density_renormalized(
    geometry: Geometry, x: float, xi: float = 0.25
) -> EnergyBreakdown:
    """The t -> 0 energy density profile at coupling xi.

    Interval walls diverge like ``+/- 1/(8 pi d^2)`` with d the distance
    to the nearest wall (sign set by the condition there); the closed
    forms are in the module docstring.  The profile integrates to the
    renormalized total for every xi: the boundary part has zero integral
    by the cot*csc / csc^2 antiderivative identities.
    """
    if not math.isfinite(xi):
        raise InvalidParameter("xi must be finite")
    if isinstance(geometry, HalfLine):
        if not (x > 0.0):
            raise OutOfDomain(f"x={x!r} not in (0, inf)")
        b = (-1.0) ** (geometry.l + 1) / (8.0 * PI * x * x)
        return EnergyBreakdown(
            weyl=0.0,
            periodic=0.0,
            boundary=4.0 * xi * b,
            total_renormalized=4.0 * xi * b,
            regulator_t=0.0,
        )
    length = geometry.length
    if isinstance(geometry, Interval):
        if not (0.0 < x < length):
            raise OutOfDomain(f"x={x!r} not in (0, {length})")
        p = PI * x / length
        pref = (-1.0) ** (geometry.l + 1) * PI / (8.0 * length**2)
        if geometry.like_ends:
            per = -PI / (24.0 * length**2)
            b = pref / math.sin(p) ** 2
        else:
            per = PI / (48.0 * length**2)
            b = pref * math.cos(p) / math.sin(p) ** 2
        return EnergyBreakdown(
            weyl=0.0,
            periodic=per,
            boundary=4.0 * xi * b,
            total_renormalized=per + 4.0 * xi * b,
            regulator_t=0.0,
            note=_zero_mode_note(geometry),
        )
    per = twisted_energy(geometry.theta, length) / length
    return EnergyBreakdown(
        weyl=0.0,
        periodic=per,
        boundary=0.0,
        total_renormalized=per,
        regulator_t=0.0,
        note=_zero_mode_note(geometry),
    )


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


def extract_cylinder_coefficients(
    geometry: Geometry,
    t_grid: np.ndarray | None = None,
) -> CylinderExpansion:
    """Fit e_0 / t + e_1 + e_2 t + e_3 t^2 + e_4 t^3 to the exact trace.

    ``t * Tr T(t)`` is polynomial in t up to exponentially small terms;
    the fit uses the basis ``t^{0,1,2,3,4,6}`` (the t^5 coefficient is
    absent for every geometry here, the t^6 column absorbs the next
    correction so it cannot contaminate e_2), scaled to the unit
    interval for conditioning.

    Parameters
    ----------
    geometry : Interval or TwistedCircle
    t_grid : array, optional
        Strictly increasing, at least 8 points, spanning at least a
        decade, inside (0, 0.1 L].  Default ``L * geomspace(1e-3, 0.1, 25)``.

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
        t_grid = length * np.geomspace(1e-3, 0.1, 25)
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 8:
        raise InvalidParameter("t_grid needs at least 8 points")
    if not (np.all(np.diff(t) > 0.0) and t[0] > 0.0):
        raise InvalidParameter("t_grid must be strictly increasing and positive")
    if t[-1] > 0.1 * length * (1.0 + 1e-12):
        raise InvalidParameter("t_grid must stay inside (0, 0.1 L]")
    if t[-1] / t[0] < 10.0:
        raise InvalidParameter("t_grid must span at least a decade")
    y = np.array(
        [t_i * kernels.cylinder_trace(geometry, t_i, kernels.CLOSED_FORM).value for t_i in t]
    )
    powers = np.array([0, 1, 2, 3, 4, 6])
    u = t / t[-1]
    design = u[:, None] ** powers[None, :]
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < powers.size:
        raise IllConditionedFit("rank-deficient design matrix")
    resid = float(np.max(np.abs(design @ coef - y)))
    scale = max(1.0, float(np.max(np.abs(y))))
    if resid > 1e-9 * scale:
        raise IllConditionedFit(
            f"fit residual {resid:.3e} above {1e-9 * scale:.3e}; "
            "grid likely outside the asymptotic regime"
        )
    e = {int(k): float(c / t[-1] ** k) for k, c in zip(powers, coef) if k <= 4}
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
    basis columns (t^{1/2}, t) on ``t in L^2 * [5e-4, 6e-3]``.  The grid
    top is set by the shortest closed geodesic: for the circle that is L
    itself, so the first image correction is exp(-L^2/4t) ~ 8e-19 at
    t = 6e-3 L^2 (intervals, with shortest image 2L, are far cleaner).
    Cylinder side: :func:`extract_cylinder_coefficients` on its default
    grid.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line traces diverge")
    length = geometry.length
    tg = length**2 * np.geomspace(5e-4, 6e-3, 16)
    yk = np.array([kernels.heat_trace(geometry, t_i) for t_i in tg])
    basis = np.column_stack(
        [tg ** (-0.5), np.ones_like(tg), tg**0.5, tg]
    )
    # Column scaling keeps the normal equations well-conditioned.
    col = np.max(np.abs(basis), axis=0)
    coef, _, rank, _ = np.linalg.lstsq(basis / col, yk, rcond=None)
    if rank < 4:
        raise IllConditionedFit("rank-deficient heat-trace design matrix")
    b = coef / col
    cyl = extract_cylinder_coefficients(geometry)
    e0, e1, e2 = cyl.e[0], cyl.e[1], cyl.e[2]
    pred_e0 = 2.0 / math.sqrt(PI) * b[0]
    return Theorem1Report(
        b0=float(b[0]),
        b1=float(b[1]),
        e0=e0,
        e1=e1,
        e2=e2,
        defect_e0=abs(e0 - pred_e0),
        defect_e1=abs(e1 - float(b[1])),
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
