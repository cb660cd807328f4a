"""Regularized summation primitives for oscillatory spectral series.

Orbit expansions produce series that converge slowly, conditionally, or
only in the sense of distributions:

* tail-completed lattice sums ``sum_m e^{i m theta} (step m + d - i t)^-k``
  (:func:`lattice_sum`), the one primitive behind every image and orbit
  series of the kernels and energies, two-sided pole sums
  ``sum_n w_n/(n^2 + a^2)`` (w_n = 1 or (-1)^n, the Mittag-Leffler
  expansions of coth and csch) among them, and the window sums of
  ``local_counting``;
* double-exponential quadrature on finite and half-infinite intervals and
  of Fourier integrals ``int_0^inf f(x) cos(x) dx`` (:func:`de_quadrature`),
  behind the half-line mode route and the integrals of the verify registry.

This is the numpy half of the summation layer, and it loads only with
``kernels``, ``orbits``, ``verify`` and ``_arrays``, and on the first
``energy.twisted_energy_orbit_sum``.  The plain-float half lives in
:mod:`vacuum1d.series`: :class:`SeriesControl`, :class:`SeriesValue`, the
method tags, the shared constants, and the closed forms -- the sawtooth
and Bernoulli sums ``sum sin(n z)/n`` and ``sum cos(n z)/n**2``
(:func:`bernoulli_sin_sum`, :func:`bernoulli_cos_sum`) and the
Riesz--Cesaro means of one winding's energy integral
(:func:`riesz_cesaro2_energy_integrand`).  Every name of it is
re-exported here.  All closed forms are elementary; the layer exists so
the spectral and kernel code can share one audited implementation of each.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import TYPE_CHECKING

from .errors import InvalidParameter, NonConvergent
from .series import (  # noqa: F401 - re-exported: the plain-float half of this layer
    _BERNOULLI_EVEN,
    _EPS,
    _HUGE,
    _TABLES,
    _TINY,
    ABEL,
    CLOSED_FORM,
    EULER_MACLAURIN,
    EXP_SINH,
    OOURA_MORI,
    RAW,
    RIESZ_CESARO_2,
    SUMMATION_BY_PARTS,
    TANH_SINH,
    TWO_PI,
    SeriesControl,
    SeriesValue,
    bernoulli_cos_sum,
    bernoulli_sin_sum,
    riesz_cesaro2_energy_integrand,
)

if TYPE_CHECKING:
    import numpy as np

# ---------------------------------------------------------------------------
# Tail-completed lattice sums S = sum_m e^{i m theta} (step m + d - i t)^{-k}.
#
# S = step^-k sum_m e^{i m theta} (m + c)^{-k}, c = (d - i t)/step, so the
# helpers below sum the unit lattice only, and lattice_sum scales the
# target on entry and the value and bound on exit.  Windings |m| <= W are
# summed directly.  Each one-sided tail (m < -W maps onto m > W under
# m -> -m) is completed in closed form with a remainder bound that needs no
# sign condition on g(x) = (x + c)^{-k}:
#
# * |theta| < 0.1 (mod 2 pi), Poisson summation: the n = 0 frequency is
#   the integral of e^{i theta x} g(x) (an exponential integral,
#   elementary at theta = 0, where this is Euler-Maclaurin), the others
#   are integrated by parts J times; R <= sum_{n != 0} |theta + 2 pi n|^-J
#   int_a^inf |g^(J)|.
# * otherwise, K-fold summation by parts against the geometric sum of q^m,
#   q = e^{i theta}, with the differences of g exact from its partial
#   fractions; R <= |1 - q|^-K sum_{m >= a} |Delta^K g(m)|.
# ---------------------------------------------------------------------------

# Largest lattice power k.  The series of the package use k = 1 and 2; the
# tolerance and result scalings and each fold of a by-parts tail do O(k)
# work, which sets the cost past k ~ 64 (lattice_sum(1.0, 0.3, 0.5, 2.0, k):
# 38-42 us a call for k = 8...64, 109 us at 256, 400 us at 1024).
MAX_POWER = 64
_EULER_GAMMA = 0.5772156649015329
_SMALL_ANGLE = 0.1
_ORDER = 8  # J: integrations by parts of the Poisson tail
_ZETA_ORDER = math.pi**8 / 9450.0  # zeta(J)
_MAX_FOLDS = 60  # cap on K for summation by parts
_ZETA_RATIO = tuple(abs(b) / math.factorial(2 * i + 2) for i, b in enumerate(_BERNOULLI_EVEN))


# sigma_p(theta) = sum_{n != 0} (i (theta + 2 pi n))^{-p}, p = 1..J, expanded
# for |theta| < 2 pi in the even zeta values (n summed symmetrically for
# p = 1): theta^(p mod 2) times a series in theta^2 with these coefficients.
_POISSON_SERIES = tuple(
    tuple(
        (-1j) ** p * (-1) ** r * math.comb(p + r - 1, r) * _ZETA_RATIO[(p + r) // 2 - 1]
        for r in range(p % 2, 2 * len(_ZETA_RATIO) - p + 1, 2)
    )
    for p in range(1, _ORDER + 1)
)

# The caches below hold what depends on (theta, k, tol) or (theta, W) alone,
# never on the point: W is set by tol, step and theta, so the points of a
# kernel row or an array call share a handful of keys (10 in a pass of the
# kernel-routes benchmark, where 438 of 448 calls find their table).  Each
# is a least-recently-used cache of fixed size: _TABLES arrays tables,
# _SCALARS entries for each of the others (the tables 13 MB at most).  Every
# lattice sum shares them, window sums (local_counting) included, whose
# phases seldom repeat and push older entries out: after the 34 calls of an
# observables pass a warm kernel-routes pass rebuilt 11 winding tables and
# took 0.7-1.1 % longer (medians of 40 cycles, 2-core x86-64, inside its
# drift).  Three more point-free caches keep _TABLES entries (the constant
# lives in vacuum1d.series, so energy reads it without loading this module):
# the two of the kernel series routes (kernels._mode_rows,
# kernels._centred_lattice), and energy._density_bulk, the x-free part of
# the regularized density (the Weyl and periodic parts, and on the interval
# e^{-z/2}, e^{-z}, G/2 and 1 + q), keyed by (L, like_ends, t) on the
# interval and (L, theta, t) on the twisted circle.  Every value read from
# any of them is the one the uncached function returns, bit for bit.
_SCALARS = 256


@functools.lru_cache(maxsize=_SCALARS)
def _poisson_weights(theta: float) -> tuple[complex, ...]:
    t2 = theta * theta
    out = []
    for p, coefs in enumerate(_POISSON_SERIES, start=1):
        acc = 0j
        for coef in reversed(coefs):
            acc = acc * t2 + coef
        out.append(acc * theta if p % 2 else acc)
    return tuple(out)


@functools.lru_cache(maxsize=_TABLES)
def _winding_table(
    theta: float, w: int
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """m = -w..w (complex, so that m + c needs no cast) and, at theta off 0
    and +-pi, e^{i m theta} and |m|: read-only arrays that every lattice
    sum at (theta, w) shares.  The _TABLES most recently used are kept,
    40 (2w + 1) bytes each at a generic theta and 16 (2w + 1) at 0 and pi:
    at most 13 MB while w stays within the default cap of 10 000."""
    import numpy as np

    m = np.arange(-w, w + 1, dtype=float)
    phase = abs_m = None
    if theta != 0.0 and abs(theta) != math.pi:
        phase, abs_m = np.exp(1j * theta * m), np.abs(m)
        phase.flags.writeable = abs_m.flags.writeable = False
    m = m.astype(complex)
    m.flags.writeable = False
    return m, phase, abs_m


def _unit(theta: float, m: int) -> float | complex:
    """e^{i m theta}, exact at theta in {0, +-pi}."""
    if theta == 0.0:
        return 1.0
    if abs(theta) == math.pi:
        return -1.0 if m % 2 else 1.0
    return complex(math.cos(theta * m), math.sin(theta * m))


def _clog(u: complex) -> complex:
    return complex(math.log(abs(u)), math.atan2(u.imag, u.real))


def _expint_scaled(w: complex) -> tuple[complex, float]:
    """e^w E_1(w) for w off the negative real axis, with an error allowance.

    The power series loses about e^{|w| + Re w} to cancellation, so it
    serves near the origin and along the negative real axis, where the
    continued fraction E_1(w) = e^{-w} / (w + 1 - 1/(w + 3 - 4/(w + 5 - ...)))
    converges slowly; the fraction serves everywhere else."""
    if abs(w) > 700.0 and abs(w) + w.real <= 8.0:
        raise NonConvergent(f"exponential integral at {w!r} is out of range")
    if abs(w) + w.real <= 8.0:
        series, power, size, n = 0j, 1.0 + 0j, 0.0, 0
        while True:
            n += 1
            power *= -w / n
            piece = power / n
            series -= piece
            size += abs(piece)
            if n > 4 and abs(piece) <= 1e-18 * size:
                break
        log_w = _clog(w)
        scale = math.exp(w.real) * complex(math.cos(w.imag), math.sin(w.imag))
        value = scale * (-_EULER_GAMMA - log_w + series)
        return value, 8.0 * _EPS * abs(scale) * (_EULER_GAMMA + abs(log_w) + size)
    tiny = 1e-300
    f = w + 1.0
    big_c, big_d, delta = f, 0j, 0.0
    for n in range(1, 2000):
        a_n, b_n = -float(n * n), w + (2 * n + 1)
        big_d = b_n + a_n * big_d
        big_c = b_n + a_n / big_c
        big_d = 1.0 / (big_d if big_d != 0 else tiny)
        big_c = big_c if big_c != 0 else tiny
        delta = big_c * big_d
        f *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    value = 1.0 / f
    return value, abs(value) * (16.0 * _EPS + 4.0 * abs(delta - 1.0))


@functools.lru_cache(maxsize=_SCALARS)
def _poisson_scale(theta: float, k: int) -> float:
    """2 zeta(J) (2 pi - |theta|)^-J (k)_J, the point-free factor of
    :func:`_poisson_remainder`."""
    return 2.0 * _ZETA_ORDER * (TWO_PI - abs(theta)) ** -_ORDER * math.prod(range(k, k + _ORDER))


def _poisson_remainder(scale: float, k: int, z: float) -> float:
    """2 zeta(J) (2 pi - |theta|)^-J (k)_J z^-(k+J-1) / (k+J-1): the bound
    on sum_{n != 0} |theta + 2 pi n|^-J int_a^inf |g^(J)|, z = Re(a + c),
    given ``scale`` = :func:`_poisson_scale` (theta, k)."""
    n = k + _ORDER - 1
    return scale / (n * z**n)


def _tail_poisson(c: complex, theta: float, k: int, a: int) -> tuple[complex, float, float]:
    """sum_{m >= a} e^{i m theta} (m + c)^{-k}, |theta| small, by Poisson
    summation: (value, remainder bound, rounding allowance).

    At theta = 0 and k = 1 the integral diverges; its regularized value
    -log(u_a) is returned, and the divergences of the two tails of a
    symmetric lattice sum cancel exactly."""
    u = a + c
    y = 1.0 / u
    g = y**k
    corr, size, deriv = 0j, 0.0, g  # deriv = (k)_j u^{-(k+j)}
    for j, weight in enumerate(_poisson_weights(theta)):
        if weight:  # the odd orders vanish at theta = 0
            piece = deriv * weight
            corr += piece
            size += abs(piece)
        deriv *= (k + j) * y
    if theta == 0.0:
        integral, err = (-_clog(u) if k == 1 else y ** (k - 1) / (k - 1)), 0.0
    else:
        integral, err = _expint_scaled(-1j * theta * u)
        for kk in range(2, k + 1):
            integral = y ** (kk - 1) / (kk - 1) + (1j * theta / (kk - 1)) * integral
            err *= abs(theta) / (kk - 1)
    value = _unit(theta, a) * (0.5 * g + integral - corr)
    remainder = _poisson_remainder(_poisson_scale(theta, k), k, a + c.real)
    rounding = 8.0 * _EPS * (abs(g) + abs(integral) + size) + err
    return value, remainder, rounding


@functools.lru_cache(maxsize=_SCALARS)
def _fold_ratio(theta: float) -> tuple[complex, complex, float]:
    """1 - q, -q/(1 - q) and 1/|1 - q| at q = e^{i theta}."""
    q = _unit(theta, 1)
    one_q = 1.0 - q
    return one_q, -q / one_q, 1.0 / abs(one_q)


@functools.lru_cache(maxsize=_SCALARS)
def _fold_steps(k: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """Per fold j of :func:`_tail_by_parts`: (j, j + 1, C(j + k - 1, k - 1),
    C(j + k, k - 1), j + k)."""
    return tuple(
        (j, j + 1, math.comb(j + k - 1, k - 1), math.comb(j + k, k - 1), j + k)
        for j in range(_MAX_FOLDS)
    )


def _tail_by_parts(
    c: complex, theta: float, k: int, a: int, goal: float
) -> tuple[complex, float, float]:
    """sum_{m >= a} q^m (m + c)^{-k}, q = e^{i theta} != 1, by K-fold
    summation by parts,

        S = q^a/(1-q) sum_{j<K} (q/(1-q))^j Delta^j g(a) + R,

    with Delta^j g(a) = (-1)^j j! h_{k-1}(y) prod y_i exactly
    (y_i = 1/(a + i + c), h the complete homogeneous polynomial).
    K grows until the bound on R reaches ``goal`` or stops shrinking."""
    one_q, ratio, inv = _fold_ratio(theta)
    z = a + c.real
    homog = [1.0 + 0j] + [0j] * (k - 1)
    degrees = range(1, k)
    # growth = (inv / z)^j j! z^{-k}; times C(j + k - 1, k - 1) it bounds
    # |piece j|, and at j = K it gives the remainder bound, so a fold's
    # complex piece is formed only once that bound has shrunk.
    total, size, amp, growth = 0j, 0.0, 0j, z**-k
    shrink = inv / z
    bound = math.inf
    for j, folds, binom, binom_next, span in _fold_steps(k):
        piece_size = growth * binom
        growth *= shrink * folds
        nxt = growth * binom_next * (1.0 + z / span)
        if nxt >= bound:
            break
        y = 1.0 / (a + j + c)
        amp = y if j == 0 else amp * (ratio * j * y)
        for deg in degrees:
            homog[deg] += y * homog[deg - 1]
        total += amp * homog[-1]
        size += piece_size
        bound = nxt
        if bound <= goal:
            break
    lead = _unit(theta, a) / one_q
    return lead * total, bound, 4.0 * (_MAX_FOLDS + k) * _EPS * abs(lead) * size


@functools.lru_cache(maxsize=_SCALARS)
def _first_winding(theta: float, k: int, tol: float) -> float:
    """The z for which W = z + |d0| - 1 is where the remainder formula of
    the tails first meets ``tol``; z depends on (theta, k, tol) only."""
    if abs(theta) < _SMALL_ANGLE:
        # two tails, each at most tol / 2
        remainder = _poisson_remainder(_poisson_scale(theta, k), k, 1.0)
        return (2.0 * remainder / tol) ** (1.0 / (k + _ORDER - 1))
    # The fold remainder ~ K! / rho^K, rho = |1 - q| z, reaches tol at
    # K = rho = log(1/tol) at the latest.  Direct terms are far cheaper
    # than folds: take rho = (6!/tol)^(1/6), where six folds do, as long
    # as W stays near 150.  Measured with rho = (n!/tol)^(1/n) instead,
    # the mean cost of the 264 summation-by-parts calls of a seed-1
    # kernel-routes pass (2-core x86-64, Python 3.11, numpy 2.4) was, in
    # us a call: n = 4: 22.9, 5: 22.8, 6: 22.6, 7: 22.9, 8: 22.7, 10: 25.0,
    # 12: 26.2.  The cost is flat from n = 4 to 8 (below 6, the cap
    # 150 gap sets W), and past 8 the extra folds cost more than the direct
    # terms they save, so n = 6 stays.
    gap = 2.0 * math.sin(0.5 * abs(theta))
    rho = max(math.log(1.0 / tol) + 4.0, min((720.0 / tol) ** (1.0 / 6.0), 150.0 * gap))
    return rho / gap


def _direct_sum(
    c: complex, theta: float, k: int, w: int, skip: int | None, c_err: float
) -> tuple[complex, float]:
    """sum_{|m| <= w} e^{i m theta} (m + c)^{-k} (the skipped term left out)
    and its rounding allowance: pairwise summation, the rounding of the
    phases m theta, and ``c_err``, the error of c."""
    if abs(c) < 1.0 and abs(c) ** k < 1e-300:  # |c|^k may overflow past 1
        import numpy as np

        # next to the pole a term may overflow: the sum comes back inf or
        # nan, and lattice_sum raises InvalidParameter
        with np.errstate(over="ignore", invalid="ignore"):
            return _direct_terms(c, theta, k, w, skip, c_err)
    return _direct_terms(c, theta, k, w, skip, c_err)


def _direct_terms(
    c: complex, theta: float, k: int, w: int, skip: int | None, c_err: float
) -> tuple[complex, float]:
    import numpy as np

    add = np.add.reduce  # what ndarray.sum calls: the same pairwise sum
    m, phase, abs_m = _winding_table(theta, w)
    u = m + c
    if skip is not None:
        u[w + skip] = 1.0
    g = np.divide(1.0, u, out=u)
    if k > 1:
        g **= k
    mag = np.abs(g)
    if skip is not None:
        g[w + skip] = 0.0
        mag[w + skip] = 0.0
    size = float(add(mag))
    rounding = _EPS * (math.log2(2 * w + 1) + 16.0 + 4.0 * k) * size
    if phase is not None:
        total = add(np.multiply(g, phase, out=g))
        rounding += _EPS * abs(theta) * float(abs_m @ mag)
    elif theta == 0.0:
        total = add(g)
    else:
        total = add(g[w % 2 :: 2]) - add(g[1 - w % 2 :: 2])
    if c_err:
        # |dg/dc| = k |g| / |u| = k |g|^{1 + 1/k} <= k |g| max|g|^{1/k}
        rounding += c_err * k * size * float(mag.max()) ** (1.0 / k)
    return complex(total), rounding


def _unit_tol(tol: float, step: float, k: int, c: complex) -> float:
    """The target of a unit-lattice sum: tol step^k, one factor at a time so
    that it saturates instead of raising; below eps times the largest
    term, at least (1 + |c|)^-k, it is below the rounding and cannot be
    met; and kept inside the normal floats."""
    for _ in range(k):
        tol *= step
    return min(max(tol, _EPS * (1.0 + abs(c)) ** -k, _TINY), _HUGE)


def _tail_pair(
    c: complex, th: float, k: int, a: int, goal: float
) -> tuple[tuple[complex, float, float], tuple[complex, float, float]]:
    """The tails m >= a and m <= -a of the unit lattice sum, each as
    (value, remainder bound, rounding), the second as
    sum_{m >= a} e^{-i m th} (m - c)^{-k}: by Poisson summation at small
    angles, by summation by parts to ``goal`` otherwise."""
    if abs(th) < _SMALL_ANGLE:
        return _tail_poisson(c, th, k, a), _tail_poisson(-c, -th, k, a)
    half = 0.5 * goal
    return _tail_by_parts(c, th, k, a, half), _tail_by_parts(-c, -th, k, a, half)


def _completed_sum(
    c: complex, th: float, k: int, tol: float, cap: int, skip: int | None, c_err: float
) -> tuple[int, complex, float, tuple, tuple]:
    """The windings of a unit lattice sum: W starts where the remainder
    formula meets ``tol`` and doubles until the two tails' remainder is at
    most max(tol, rounding) or W reaches ``cap``.  Returns W, the direct
    sum over |m| <= W and its rounding, and the two tails past W (see
    :func:`_tail_pair`)."""
    first = _first_winding(th, k, tol) + abs(c.real) - 1.0
    w = cap if first >= cap else max(1, math.ceil(first), abs(skip or 0))
    total, rounding = _direct_sum(c, th, k, w, skip, c_err)
    goal = max(tol, rounding)
    first_w = w
    while True:
        plus, minus = _tail_pair(c, th, k, w + 1, goal)
        if plus[1] + minus[1] <= goal or w >= cap:
            break
        w = min(cap, 2 * w)
    if w != first_w:
        total, rounding = _direct_sum(c, th, k, w, skip, c_err)
    return w, total, rounding, plus, minus


def _window_sum(c: float, th: float, w: int, control: SeriesControl) -> tuple[complex, float]:
    """sum_{0 < |m| <= w} e^{i m th} / (m + c), real c with |c| <= 1/2 and
    rounded at most once, and a bound on its error: the unit lattice sum
    (k = 1, t = 0, the m = 0 term skipped) run with ``w`` as its cap, less
    its two tails past w.

    Where the lattice sum's own windings reach w, its direct sum is the
    value and no tail enters.  Otherwise the value is that direct sum,
    plus its tails, less the tails past w, all four from :func:`_tail_pair`,
    so that at th = 0 the regularized divergences of the two pairs cancel
    as they do inside :func:`lattice_sum`.  The target is ``control.tol``
    on the unit lattice, so a value scaled by 1/step keeps its relative
    accuracy at every step.  The bound adds the tails' remainders and
    roundings, the rounding of c in the direct sum (absolute when c is
    subnormal; the skipped pole makes any c safe) and in the tails past
    the direct sum (|d/dc| <= 2/W there), and the three additions.  It
    reads the caches that every lattice sum shares.
    """
    cc = complex(c)
    tol = _unit_tol(control.tol, 1.0, 1, cc)
    c_err = _EPS * (abs(c) + _TINY)
    lat, total, bound, plus, minus = _completed_sum(cc, th, 1, tol, w, 0, c_err)
    if lat < w:
        far_plus, far_minus = _tail_pair(cc, th, 1, w + 1, max(tol, bound))
        tails = (plus, minus, far_plus, far_minus)
        bound += math.fsum(p[1] + p[2] + 4.0 * _EPS * abs(p[0]) for p in tails)
        bound += 4.0 * _EPS * abs(total) + 2.0 * c_err / lat
        total += (plus[0] - minus[0]) - (far_plus[0] - far_minus[0])
    return total, bound


def lattice_sum(
    step: float,
    d: float | np.ndarray,
    t: float | np.ndarray,
    theta: float = 0.0,
    k: int = 1,
    control: SeriesControl = SeriesControl(),
    skip_zero: bool = False,
) -> SeriesValue:
    """Tail-completed lattice sum ``sum_{m in Z} e^{i m theta} (step m + d - i t)^{-k}``.

    Every image and orbit series of the package is one of these: Im/pi of
    the k = 1 sum at real weights (theta = 0: weight 1, theta = pi:
    (-1)^m) is the Lorentzian lattice ``sum (t/pi)/((step m + d)^2 + t^2)``,
    and Re of the k = 2 sum carries the twisted energy terms
    ``(a^2 - t^2)/(a^2 + t^2)^2``.  Both tails are completed in closed
    form (see the comment above).  W starts where the remainder formula
    meets ``control.tol`` and doubles until the remainder is at most
    max(tol, rounding) or W reaches ``control.max_terms``; at the cap the
    value comes back with its larger bound and nothing is raised.

    ``k`` is an integer from 1 to :data:`MAX_POWER` (64); a larger k
    raises :class:`InvalidParameter` before any work, since the cost grows
    like k past it.  ``d`` is first reduced to |d| <= step/2 by shifting
    the lattice (a phase); ``t`` may have either sign, and be 0 unless a lattice point
    then sits on the pole; ``skip_zero`` leaves out the m = 0 term.  For
    k = 1 at theta = 0 the sum converges only symmetrically, and the
    symmetric limit is returned; it differs by i pi/step from the limit
    theta -> 0+, and theta is reduced modulo the floating-point 2 pi, so
    a float multiple of 2 pi counts as 0.

    The sum runs on the unit lattice in (d - i t)/step, to the target
    ``tol step^k`` (kept inside the normal floats), and the value and bound
    are divided by step^k at the end, so no intermediate depends on the
    scale of step.  A value or bound past the float range raises
    :class:`InvalidParameter`.

    Returns a :class:`SeriesValue` with a complex ``value``; its
    ``truncation_bound`` covers the tail remainders and the rounding,
    ``terms_used`` counts the windings summed directly, and
    ``method_tag`` is :data:`EULER_MACLAURIN` or :data:`SUMMATION_BY_PARTS`.

    ``d`` and ``t`` may be arrays (or sequences), broadcast against each
    other.  Then ``value`` (complex) and ``truncation_bound`` are arrays of
    their shape and ``terms_used`` a ``TermCounts`` int array, whose
    ``int()`` is the total.  Each element is its own float call, so an
    array call returns what the per-element calls return, bit for bit, and
    an element that fails raises for the whole call.  Floats return
    scalars.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise InvalidParameter("lattice step must be positive and finite")
    if not (1 <= k <= MAX_POWER and int(k) == k):
        raise InvalidParameter(f"lattice power k must be an integer from 1 to {MAX_POWER}")
    k = int(k)
    if not (isinstance(d, (int, float)) and isinstance(t, (int, float))):
        from ._arrays import lattice_sum_array

        return lattice_sum_array(step, d, t, theta, k, control, skip_zero)
    return _lattice_sum(step, d, t, theta, k, control, skip_zero)


def _lattice_sum(
    step: float, d: float, t: float, theta: float, k: int, control: SeriesControl,
    skip_zero: bool,
) -> SeriesValue:
    """:func:`lattice_sum` at float d and t, with step and k checked."""
    if not (math.isfinite(d) and math.isfinite(t) and math.isfinite(theta)):
        raise InvalidParameter("lattice displacement, offset and phase must be finite")
    th = math.remainder(theta, TWO_PI)
    du, tu = d / step, t / step
    if not (math.isfinite(du) and math.isfinite(tu)):
        raise InvalidParameter(f"d={d!r} or t={t!r} leaves the float range in steps of {step!r}")
    shift = round(du)
    d0 = du - shift  # exact (Sterbenz)
    if tu == 0.0 and d0 == 0.0 and not (skip_zero and shift == 0):
        raise InvalidParameter("a lattice point sits on the pole (t = 0)")
    cap = int(control.max_terms)
    skip = shift if skip_zero else None
    if skip is not None and abs(skip) > cap:
        raise InvalidParameter("skip_zero needs |d| <= step * max_terms")
    c = complex(d0, -tu)
    tol = _unit_tol(control.tol, step, k, c)
    # dividing by a power of two is exact; otherwise d/step and t/step are
    # each rounded once
    c_err = 0.0 if math.frexp(step)[0] == 0.5 else _EPS * (abs(du) + abs(tu))
    w, total, rounding, plus, minus = _completed_sum(c, th, k, tol, cap, skip, c_err)
    remainder = plus[1] + minus[1]
    unshifted = total + plus[0] + (-1) ** k * minus[0]
    if th != 0.0 and abs(th) != math.pi:
        if not math.isfinite(turn := th * shift):
            raise InvalidParameter(f"the phase of the shift leaves the float range at d={d!r}")
        rounding += _EPS * abs(turn) * abs(unshifted)  # the phase of the shift
    value = _unit(th, -shift) * unshifted
    bound = remainder + rounding + plus[2] + minus[2]
    if c_err:
        bound += k * _EPS * abs(value)  # the divisions by step below
    for _ in range(k):
        value /= step
        bound /= step
    if not (cmath.isfinite(value) and math.isfinite(bound)):
        raise InvalidParameter(f"lattice sum overflows at step={step!r}, d={d!r}, t={t!r}")
    tag = EULER_MACLAURIN if abs(th) < _SMALL_ANGLE else SUMMATION_BY_PARTS
    return SeriesValue(complex(value), 2 * w + 1 - (skip is not None), bound, tag)


# ---------------------------------------------------------------------------
# Double-exponential quadrature (Takahasi & Mori 1974; Ooura & Mori 1999).
#
# The trapezoidal rule with step h after a change of variables x = psi(s)
# that makes the integrand decay double exponentially in s:
#
# * tanh-sinh on [a, b]: x = (a+b)/2 + (b-a)/2 tanh(pi/2 sinh s);
# * exp-sinh on [a, inf): x = a + exp(pi/2 sinh s);
# * Ooura-Mori for int_0^inf f(x) cos(x) dx: x = M phi(s), s = (k - 1/2) h,
#   M = pi/h, phi(s) = s / (1 - exp(-2s - alpha(1 - e^-s) - beta(e^s - 1))),
#   whose nodes approach the zeros (k - 1/2) pi of cos double exponentially.
#
# The nodes and weights (cos(x) folded into the Ooura-Mori weights) depend
# on the level alone, so each level's table is built once.  Halving h keeps
# the old tanh-sinh and exp-sinh nodes; the Ooura-Mori nodes all move.
# Nodes closer than _DE_CUT to a finite end (relative to b - a), or past
# 1/_DE_CUT, are left out, which drops at most _DE_CUT sup|f| (b - a), or
# C _DE_CUT of an integrand decaying like C/x^2.
# ---------------------------------------------------------------------------

_DE_CUT = 1e-30
# Level 0 step per kind, and the levels halved past it before giving up.
_DE_STEP = {TANH_SINH: 1.0 / 16.0, EXP_SINH: 1.0 / 16.0, OOURA_MORI: 1.0 / 8.0}
_DE_LEVELS = 4
# Rounding allowance: this many eps times sum |w f| over the nodes.
_DE_ROUNDING = 16.0


@functools.cache
def _de_table(kind: str, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (times h) of one level, on the canonical interval
    ([0, 1] as signed distance from the near end for tanh-sinh, [0, inf)
    otherwise); for tanh-sinh and exp-sinh above level 0 only the new nodes."""
    import numpy as np

    h = _DE_STEP[kind] * 2.0**-level
    if kind == OOURA_MORI:
        m = math.pi / h
        beta = 0.25
        alpha = beta / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
        k = np.arange(-round(16.0 / h), round(8.0 / h) + 1)
        s = (k - 0.5) * h
        with np.errstate(over="ignore", invalid="ignore"):
            g = 2.0 * s - alpha * np.expm1(-s) + beta * np.expm1(s)
            one = -np.expm1(-g)
            x = m * s / one
            dg = 2.0 + alpha * np.exp(-s) + beta * np.exp(s)
            dphi = (one - s * np.exp(-g) * dg) / (one * one)
            # cos(M phi) = (-1)^k sin(M (phi - s)) is exact near the zeros,
            # where cos of the rounded node is not.
            near = np.where(k % 2 == 0, 1.0, -1.0) * np.sin(m * s / np.expm1(g))
            w = h * m * dphi * np.where(s < 0.0, np.cos(x), near)
        keep = np.isfinite(x) & np.isfinite(w) & (x >= _DE_CUT) & (np.abs(w) >= _DE_CUT)
        return x[keep], w[keep]
    k = np.arange(-round(6.0 / h), round(6.0 / h) + 1)
    if level > 0:
        k = k[k % 2 != 0]
    s = k * h
    u = 0.5 * math.pi * np.sinh(s)
    du = h * 0.5 * math.pi * np.cosh(s)
    with np.errstate(over="ignore"):
        if kind == EXP_SINH:
            x = np.exp(u)
            keep = (x >= _DE_CUT) & (x <= 1.0 / _DE_CUT)
            return x[keep], (du * x)[keep]
        frac = 1.0 / (1.0 + np.exp(2.0 * np.abs(u)))
    keep = frac >= _DE_CUT
    return np.where(s < 0.0, frac, -frac)[keep], (2.0 * du * frac * (1.0 - frac))[keep]


@functools.cache
def _de_start(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Levels 0 and 1 as one node array and a 2 x n weight matrix whose
    rows give the two estimates."""
    import numpy as np

    (x0, w0), (x1, w1) = _de_table(kind, 0), _de_table(kind, 1)
    weights = np.zeros((2, x0.size + x1.size))
    weights[0, : x0.size] = w0
    weights[1, x0.size :] = w1
    if kind != OOURA_MORI:
        weights[1, : x0.size] = 0.5 * w0
    return np.concatenate([x0, x1]), weights


def de_quadrature(
    f, a: float = 0.0, b: float = math.inf, cosine: bool = False, rows: bool = False
) -> SeriesValue:
    """Double-exponential quadrature of ``int_a^b f(x) dx``.

    Tanh-sinh for finite ``b``, exp-sinh for ``b = inf``; with
    ``cosine=True``, ``int_0^inf f(x) cos(x) dx`` by the Ooura--Mori
    formula (``a`` must be 0; rescale x for another frequency).  ``f``
    takes an array of nodes in the open interval and returns an array
    whose last axis runs over them; leading axes (several integrands on
    one node set) are summed.  With ``rows=True`` the first axis is kept:
    each row is one integral, ``value`` and ``truncation_bound`` are arrays
    with one entry per row, and h halves until every row has converged.
    f must be smooth inside, bounded near a finite end and, towards
    infinity, decay at least like 1/x^2.

    h halves until two levels agree to within the rounding allowance
    ``16 eps sum |w f|`` (each integrand counted separately), for at most
    four halvings past the first pair.  ``truncation_bound`` is the last
    difference plus that allowance: an error estimate, not a proven
    bound, which holds when the integrand is as smooth as required
    above.  ``terms_used`` counts the nodes
    evaluated, and ``method_tag`` is :data:`TANH_SINH`, :data:`EXP_SINH`
    or :data:`OOURA_MORI`.
    """
    import numpy as np

    if not (math.isfinite(a) and b > a):
        raise InvalidParameter("quadrature needs a finite a < b")
    if cosine and not (a == 0.0 and math.isinf(b)):
        raise InvalidParameter("the cosine quadrature runs over [0, inf)")
    kind = OOURA_MORI if cosine else EXP_SINH if math.isinf(b) else TANH_SINH
    width = b - a if kind == TANH_SINH else 1.0

    def sample(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sum of the integrands, sum of their magnitudes) per row and node."""
        if kind == TANH_SINH:
            # nodes within rounding of an end are moved just inside it
            x = np.where(x > 0.0, a + width * x, b + width * x)
            x = np.clip(x, np.nextafter(a, b), np.nextafter(b, a))
        elif kind == EXP_SINH:
            x = a + x
        vals = np.asarray(f(x), dtype=float)
        if rows:  # (rows, nodes)
            vals = vals.reshape(len(vals), -1, x.size)
            return vals.sum(axis=1), np.abs(vals).sum(axis=1)
        vals = vals.reshape(-1, x.size)
        return vals.sum(axis=0), np.abs(vals).sum(axis=0)

    x, weights = _de_start(kind)
    vals, mags = sample(x)
    prev, est = weights @ vals.T
    size = np.abs(weights[1]) @ mags.T
    used = x.size
    carry = 0.0 if kind == OOURA_MORI else 0.5  # nested levels reuse the old sum
    for level in range(2, _DE_LEVELS + 2):
        done = abs(est - prev) <= _DE_ROUNDING * _EPS * size
        if done.all() if rows else done:
            break
        x, w = _de_table(kind, level)
        vals, mags = sample(x)
        prev, est = est, carry * est + w @ vals.T
        size = carry * size + np.abs(w) @ mags.T
        used += x.size
    value = est * width
    bound = (abs(est - prev) + _DE_ROUNDING * _EPS * size) * width
    return SeriesValue(
        value=value if rows else float(value),
        terms_used=used,
        truncation_bound=bound if rows else float(bound),
        method_tag=kind,
    )
