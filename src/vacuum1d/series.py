"""Series records and the scalar closed forms of the summation layer.

:mod:`vacuum1d.summation` is split along its numpy seam, and this is the
half that runs on plain floats, the half the closed-form energies,
densities and spectra read:

* :class:`SeriesControl` and :class:`SeriesValue`, the truncation policy
  and the result record of every series, and the method tags a result
  carries;
* the Fourier closed forms ``sum sin(n z)/n`` and ``sum cos(n z)/n**2``
  (sawtooth and periodic Bernoulli polynomial);
* the Riesz--Cesaro means ``int_0^Omega (1 - w/Omega)^2 cos(a w + b) w dw``
  of one winding's energy integral;
* the constants the layers share: the float limits, the even Bernoulli
  numbers and the size of the point-free array caches.

The lattice sums, window sums and double-exponential quadrature, and the
caches behind them, stay in :mod:`vacuum1d.summation`, which re-exports
every name here: ``from vacuum1d.summation import SeriesControl`` still
works.  ``energy``, ``spectrum`` and ``cli`` import this module, so a
closed-form command never compiles the lattice engine.
"""

from __future__ import annotations

import math
import sys

from .errors import InvalidParameter, Record, as_count, as_float, as_real

TWO_PI = 2.0 * math.pi

# Method tags carried by SeriesValue.method_tag: the summation schemes,
# the tail completions of a lattice sum and the quadrature rules.
RAW = "raw"
ABEL = "abel"
RIESZ_CESARO_2 = "riesz-cesaro-2"
CLOSED_FORM = "closed-form"
EULER_MACLAURIN = "euler-maclaurin"
SUMMATION_BY_PARTS = "summation-by-parts"
TANH_SINH = "tanh-sinh"
EXP_SINH = "exp-sinh"
OOURA_MORI = "ooura-mori"

_EPS = 2.0**-52
_TINY, _HUGE = sys.float_info.min, sys.float_info.max
# B_2, B_4, ..., B_24; |B_2m| / (2m)! = 2 zeta(2m) / (2 pi)^2m.
_BERNOULLI_EVEN = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730,
)
# Entries of each point-free cache of arrays or per-key parts: the winding
# tables of summation, the mode rows and centred lattices of kernels, and
# energy's density bulk (see the comment above summation._winding_table).
_TABLES = 16


class SeriesControl(Record):
    """Truncation and damping policy for orbit and mode sums.

    Attributes
    ----------
    max_terms : int
        Cap on the retained terms: windings per side of a lattice sum
        (:func:`~vacuum1d.summation.lattice_sum`: image series and the
        energy orbit sum) and modes of a mode sum.  Tail-completed
        lattice sums rarely come near it; at the cap they return their
        larger bound instead of raising.
        The spectral-density orbit series of :mod:`vacuum1d.orbits` read
        it only undamped (``damping_t = 0``), where their value is the
        W-winding truncation; damped, they are summed to the end and do
        not read it.  ``local_counting`` keeps the W-winding truncation of
        its boundary images, as a lattice sum less its two tails past W.
    tol : float
        Target absolute accuracy, read by
        :func:`~vacuum1d.summation.lattice_sum`: its windings grow until
        the truncation bound is at most ``max(tol, rounding)``.
        Mode sums stop on their own term floor, relative to their largest
        term, and do not read it.
    damping_t : float
        Abel damping parameter.  Each term acquires ``exp(-damping_t * len)``
        with ``len`` the orbit length, i.e. a Lorentzian smoothing of
        width ``damping_t`` in frequency.  Zero means raw truncation.
    """

    max_terms: int = 10_000
    tol: float = 1e-12
    damping_t: float = 0.0

    # Written out: each field is checked and stored once, as the rules convert it.
    def __init__(self, max_terms: int = 10_000, tol: float = 1e-12, damping_t: float = 0.0) -> None:
        max_terms = as_count(max_terms, "max_terms")
        tol, damping_t = as_float(tol, "tol"), as_real(damping_t, "damping_t")
        if max_terms < 1:
            raise InvalidParameter("max_terms must be a positive integer")
        if not (tol > 0.0):
            raise InvalidParameter("tol must be positive")
        if damping_t < 0.0:
            raise InvalidParameter("damping_t must be >= 0")
        object.__setattr__(self, "max_terms", max_terms)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "damping_t", damping_t)


class SeriesValue(Record):
    """A summed series together with how the number was obtained.

    ``truncation_bound`` bounds the error of ``value``.  It is a proven
    bound for :func:`~vacuum1d.summation.lattice_sum` (tail remainders
    plus rounding) and for the orbit series of :mod:`vacuum1d.orbits`
    (rounding only: damped, they are summed to the end; undamped, the
    value is the W-winding truncation).  One producer gives an estimate,
    not a bound: the last level difference (plus a rounding allowance) of
    :func:`~vacuum1d.summation.de_quadrature`.  ``terms_used`` counts the windings summed directly for a lattice sum
    and the nodes of a quadrature; for an orbit series, the series summed
    to the end in closed form when damped, and the windings kept when
    undamped.  ``method_tag`` is one of :data:`RAW`,
    :data:`ABEL`, :data:`RIESZ_CESARO_2`, :data:`CLOSED_FORM`, for a
    lattice sum the tail completion used, :data:`EULER_MACLAURIN` or
    :data:`SUMMATION_BY_PARTS` (whose ``value`` is complex), or for a
    quadrature the rule, :data:`TANH_SINH`, :data:`EXP_SINH` or
    :data:`OOURA_MORI`.
    """

    value: float
    terms_used: int
    truncation_bound: float
    method_tag: str

    # Stored straight into __dict__, as for energy.EnergyBreakdown.
    def __init__(
        self, value: float, terms_used: int, truncation_bound: float, method_tag: str
    ) -> None:
        d = self.__dict__
        d["value"] = value
        d["terms_used"] = terms_used
        d["truncation_bound"] = truncation_bound
        d["method_tag"] = method_tag


# Below |a Omega| = 4 the closed form cancels, its error growing like
# eps/(a Omega)^4, and 32 terms of its Taylor series in z = a Omega take over,
# even and odd k apart.  Against 40-digit quadrature over up to 24 phases, in
# eps of Omega^2 min(1/12, z^-2): the closed form is off by 500 at z = 0.5,
# 13 at 2, 7.5 at 3 and 2.5 at 4; the series by at most 1.5 up to 4.
_RC2_SERIES = 4.0
_RC2_EVEN = tuple((-1) ** j * 2.0 * (2 * j + 1) / math.factorial(2 * j + 4) for j in range(16))
_RC2_ODD = tuple((-1) ** (j + 1) * 2.0 * (2 * j + 2) / math.factorial(2 * j + 5) for j in range(16))


def _riesz_cesaro2(a: float, b: float, omega_max: float, scale: float) -> float:
    """``scale`` times :func:`riesz_cesaro2_energy_integrand` at a = n L,
    b = n theta, one factor at a time, so it overflows only where its true
    value does, and then raises :class:`InvalidParameter`."""
    z = a * omega_max
    cos_b, sin_b = math.cos(b), math.sin(b)
    if abs(z) < _RC2_SERIES:
        w, even, odd = z * z, 0.0, 0.0
        for ce, co in zip(reversed(_RC2_EVEN), reversed(_RC2_ODD)):
            even, odd = even * w + ce, odd * w + co
        value = (cos_b * even + z * sin_b * odd) * (scale * omega_max) * omega_max
    else:
        g = -cos_b
        if not math.isinf(z):  # the Omega -> inf limit keeps only -cos(b)
            g -= (2.0 * math.sin(z + b) + 4.0 * sin_b) / z
            g += 6.0 * (cos_b - math.cos(z + b)) / z / z
        value = g * (scale / a) / a
    if not math.isfinite(value):
        raise InvalidParameter(f"the Riesz-Cesaro integral leaves the float range at a = {a!r}")
    return value


def riesz_cesaro2_energy_integrand(
    n: int, length: float, theta: float = 0.0, omega_max: float = math.inf
) -> float:
    """Riesz-Cesaro mean of order 2 for one winding's energy integral.

    Closed form of ``int_0^Omega (1 - w/Omega)^2 cos(w n L + n theta) w dw``
    with ``a = n L``, ``b = n theta`` and ``z = a Omega``:

        (1/a^2) [ -cos(b)
                  - (2 sin(z + b) + 4 sin(b)) / z
                  + 6 (cos(b) - cos(z + b)) / z^2 ],

    obtained by two integrations by parts (the (1-w/Omega)^2 weight kills
    the boundary terms at w = Omega up to the explicit remainders).  For
    ``omega_max = inf`` only the first term survives, which is the
    regularized value of the divergent raw integral.  Below |z| = 4 the
    bracket cancels to O(z^2), and the value is summed from its Taylor
    series ``Omega^2 sum_k 2(k+1)/(k+4)! z^k cos(b + k pi/2)`` instead
    (Omega^2 cos(b)/12 at z = 0).  A value past the float range raises
    :class:`InvalidParameter`.

    Parameters
    ----------
    n : int
        Winding number, n != 0.
    length : float
        Circumference L > 0.
    theta : float
        Holonomy angle entering the phase ``n theta``.
    omega_max : float
        Cutoff Omega > 0, or ``inf`` for the limiting value.
    """
    n, length = as_count(n, "winding n"), as_real(length, "length", positive=True)
    theta = as_real(theta, "theta")
    omega_max = as_float(omega_max, "omega_max")  # inf is the limit
    if not omega_max > 0.0:
        raise InvalidParameter("omega_max must be positive")
    if n == 0:
        raise InvalidParameter("winding n must be nonzero")
    return _riesz_cesaro2(n * length, _winding_phase(n, theta), omega_max, 1.0)


def _winding_phase(n: int, theta: float) -> float:
    """The phase n theta of winding n, which must be a finite float."""
    if not math.isfinite(b := n * theta):
        raise InvalidParameter(f"the phase n theta leaves the float range at n = {n:.3g}")
    return b


def bernoulli_sin_sum(z: float) -> float:
    """Closed form of ``sum_{n>=1} sin(n z)/n``: the sawtooth ``(pi - z)/2``.

    The value is ``(pi - z_r)/2`` with ``z_r = z mod 2 pi`` in (0, 2 pi),
    extended periodically, and 0 exactly at the jump points ``z = 2 pi j``
    (the Abel/Cesaro value of the series there).
    """
    z = as_real(z, "z")
    zr = math.fmod(z, TWO_PI)
    if zr < 0.0:
        zr += TWO_PI
    if zr == 0.0:
        return 0.0
    return 0.5 * (math.pi - zr)


def bernoulli_cos_sum(theta: float) -> float:
    """Closed form of ``sum_{n>=1} cos(n theta)/n^2 = pi^2 B_2(theta/2pi)``.

    ``B_2(u) = u^2 - u + 1/6`` on ``u in [0, 1]``, extended periodically.
    Continuous everywhere; equals ``pi^2/6`` at ``theta = 0 mod 2 pi``.
    """
    theta = as_real(theta, "theta")
    tr = math.fmod(theta, TWO_PI)
    if tr < 0.0:
        tr += TWO_PI
    u = tr / TWO_PI
    return math.pi**2 * (u * u - u + 1.0 / 6.0)

