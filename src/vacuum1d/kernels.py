"""Cylinder and heat kernels by eigenmode sum, image sum, and closed form.

The cylinder kernel is the frequency-damped mode sum

    T(t; x, y) = sum_j e^{-t omega_j} phi_j(x) phi_j(y)*,

equivalently the Poisson kernel of the spatial operator: the solution of
``u_tt + u_xx = 0`` on the half-cylinder with u(0, x, y) = delta(x - y).
Its free-space form is the Lorentzian ``(t/pi) / ((x-y)^2 + t^2)``, so the
method of images turns every geometry here into a lattice of Lorentzians
with reflection signs and holonomy phases.  The image route sums each
lattice with :func:`vacuum1d.summation.lattice_sum`, which completes both
tails in closed form and stops once its bound meets ``SeriesControl.tol``
(tens to a few hundred windings).  Geometric resummation of the lattice
gives elementary closed forms; all three routes must agree, and the
verify registry holds them to 1e-8 of each other (they agree to ~1e-14).
The half-line has two routes: its image sum (two Lorentzians) is the
closed form, and its continuous spectrum turns the mode sum into a
Fourier integral, evaluated by double-exponential quadrature
(:func:`vacuum1d.summation.de_quadrature`).

:func:`cylinder_kernel` takes floats or arrays of points at one height t
and evaluates an array with one call per route (see its docstring); floats
keep the plain-float form of each route.

The heat kernel is the same construction for ``e^{-t omega^2}`` with the
Gaussian free kernel ``(4 pi t)^{-1/2} e^{-(x-y)^2/4t}``; its image sums
converge so fast that a closed form is never needed.

Each closed form is written once, in exponentials that decay, e.g.
``sinh(2z) / (cosh 2z - cos 2h) = (1 - q^2) / ((1 - q)^2 + 4 q sin^2 h)``
with ``q = e^{-2z}``: nothing overflows at any t, and differences of
nearly equal terms are worked out by hand (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2002), so the forms keep their
relative accuracy from t << L to the ground-state asymptote at t >> L.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from . import summation
from .errors import ContinuousSpectrum, InvalidParameter, Record, UnsupportedGeometry, as_real
from .series import _TABLES, SeriesControl
from .spectrum import (
    DIRICHLET,
    MAX_RUNGS,
    NEUMANN,
    Geometry,
    HalfLine,
    Interval,
    TwistedCircle,
    _images,
    _ladders,
    _phase,
    _rung,
    _rungs,
    as_point,
    boundary_counting_term,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

    from ._arrays import TermCounts

TWO_PI = 2.0 * math.pi

MODE_SUM = "mode-sum"
IMAGE_SUM = "image-sum"
CLOSED_FORM = "closed-form"
_ONE_NUMBER = (int, float, np.number)  # a point given as one number takes the float routes

# Mode sums drop the terms below this fraction of their largest term:
# e^{-t omega} (or e^{-t omega^2}) relative to its value at the lowest
# frequency, so they keep their relative accuracy at any t/L.
_TERM_FLOOR = 1e-16
_EPS = 2.0**-52
# Mode sums bound their rounding by this many eps times the envelope
# sum_j e^{-t omega_j} (1 + omega_j (t + |x| + |y|)) (see _mode_rounding);
# the deviation from exact values, scanned over (t, x, y) grids of every
# geometry, reaches 1.55 of these units.
_MODE_ROUNDING = 4.0
# Half-line mode legs int_0^inf e^{-u} cos(b u) du switch from exp-sinh to
# the Ooura-Mori rule at this b.  Exp-sinh takes 287 nodes below it, twice
# that just above and fails outright near b = 30; Ooura-Mori takes 295 from
# b = 0.03 up, and more below.
_FOURIER_SWITCH = 0.25


class KernelValue(Record):
    """A kernel evaluation plus provenance.

    ``method`` records the route actually used (requests that fall back,
    e.g. closed-form twisted off-diagonal, report the fallback here).
    ``value`` is complex only for twisted-circle off-diagonal points;
    every other case is real.

    For point arrays ``value`` and ``truncation_bound`` are float arrays
    of the broadcast shape of x and y (``value`` is complex on the twisted
    circle when any point is off the diagonal), and ``terms_used`` is a
    ``TermCounts`` int array of that shape, whose ``int()`` is the total
    term count of the call.  ``method`` is one for the
    whole call: a twisted closed-form request with any off-diagonal point
    is a mode sum at every point and says so.
    """

    value: float | complex | np.ndarray
    method: str
    terms_used: int | TermCounts
    truncation_bound: float | np.ndarray

    # Stored straight into __dict__, as for energy.EnergyBreakdown.
    def __init__(
        self,
        value: float | complex | np.ndarray,
        method: str,
        terms_used: int | TermCounts,
        truncation_bound: float | np.ndarray,
    ) -> None:
        d = self.__dict__
        d["value"] = value
        d["method"] = method
        d["terms_used"] = terms_used
        d["truncation_bound"] = truncation_bound


def _all(cond: bool | np.ndarray) -> bool:
    """A comparison of floats or of point arrays: true where it holds at
    every point."""
    return cond if isinstance(cond, (bool, np.bool_)) else bool(cond.all())


def _column(v: float | np.ndarray) -> float | np.ndarray:
    """A point array as a column against a row of frequencies."""
    return v[:, None] if isinstance(v, np.ndarray) else v


def _point_array(geometry: Geometry, v: ArrayLike) -> np.ndarray:
    """:func:`~vacuum1d.spectrum.as_point` (closed) over a point array, returned
    as floats: one point outside fails the whole array and is reported."""
    v = np.asarray(v)
    if v.dtype.kind not in "biuf":
        raise InvalidParameter(f"points must be real numbers, not {v.dtype}")
    x = v.astype(float, copy=False)
    lo, hi = geometry._domain
    inside = np.isfinite(x) & (x >= lo) & (x <= hi)
    if not inside.all():
        as_point(geometry, float(x[~inside][0]), closed=True)
    return x


def _interval_mode_phi(geom: Interval, omegas: np.ndarray, x: float) -> np.ndarray:
    """Normalized eigenfunctions at x for the frequency array: sqrt(2/L)
    sin(omega x) rooted Dirichlet at 0, sqrt(2/L) cos(omega x) rooted
    Neumann, and sqrt(1/L) for the zero mode."""
    length = geom.length
    if geom.left is DIRICHLET:
        return np.sqrt(2.0 / length) * np.sin(omegas * x)
    out = np.sqrt(2.0 / length) * np.cos(omegas * x)
    if omegas.size and omegas[0] == 0.0:
        out[..., 0] = math.sqrt(1.0 / length)
    return out


def _kept_rungs(
    geometry: Interval | TwistedCircle, max_terms: int, cut: Callable[[float], float]
) -> Iterator[tuple[float, float, np.ndarray]]:
    """(step, first frequency, kept frequencies) of each ladder: the rungs
    up to cut(omega_min), omega_min the lowest frequency of the geometry,
    and at most max_terms + 1 of them."""
    ladders = _ladders(geometry)
    omega_cut = cut(min(_rung(*ladder) for ladder in ladders))
    for ladder in ladders:
        yield ladder[0], _rung(*ladder), _rungs(ladder, omega_cut, max_terms + 1)


# Longest rows the mode-row cache keeps: those of the default max_terms.
_CACHED_TERMS = SeriesControl().max_terms


@functools.lru_cache(maxsize=_TABLES)
def _mode_rows(
    geometry: Interval | TwistedCircle, t: float, max_terms: int
) -> tuple[tuple[float, float, float, np.ndarray, np.ndarray, float], ...]:
    """(sign, step, first, rungs om, row e^{-t om}, tail) of each ladder
    that adds anything at height t: the part of :func:`_mode_sum` that
    depends on no point.  Sign is +1 on the first ladder and -1 on the
    second; tail is the geometric bound e^{-t (first + n step)}/(1 - e^{-t
    step}) past the n kept rungs (inf where 1 - e^{-t step} is 0, where
    _mode_rounding raises first).  A ladder whose t omega_0 overflows adds
    nothing and is left out.

    Every mode sum of a (geometry, t) row shares one entry, and the
    _TABLES most recently used are kept: read-only arrays of at
    most 2 (max_terms + 1) floats per ladder.  :func:`_mode_sum` asks
    for at most the default max_terms, so they hold 5 MB at most; longer
    rows are built for their call through ``__wrapped__`` and not kept."""
    span = -math.log(_TERM_FLOOR) / t
    rows = []
    ladders = _kept_rungs(geometry, max_terms, lambda w: w + span)
    for sign, (step, first, om) in zip((1.0, -1.0), ladders):
        if math.isinf(t * first):
            continue  # every term of the ladder is exactly 0.0
        row = np.exp(-t * om)
        gap = -math.expm1(-t * step)
        tail = math.exp(-t * (first + om.size * step)) / gap if gap else math.inf
        om.flags.writeable = row.flags.writeable = False
        rows.append((sign, step, first, om, row, tail))
    return tuple(rows)


def _mode_sum(
    geometry: Interval | TwistedCircle,
    t: float,
    halves: tuple[float, float | np.ndarray, float | np.ndarray],
    control: SeriesControl,
    amplitude: Callable[[np.ndarray, float], np.ndarray | float],
    size: float,
    norm: float = 1.0,
) -> tuple[float | complex, int, float]:
    """sum_j norm e^{-t omega_j} amplitude(omega_j, sign) over every
    frequency ladder of the geometry, sign +1 on the first ladder and -1 on
    the second (the twisted circle's left movers), with |norm amplitude| <=
    size.  A constant norm goes into the real e^{-t omega} row, not into
    every entry of a complex grid.

    Each ladder keeps its rungs up to omega_min + (-ln _TERM_FLOOR)/t,
    omega_min the lowest frequency, and at most max_terms + 1 of them; a
    ladder whose t omega_0 overflows adds nothing.  The rungs, their
    e^{-t omega} row and the tail bound depend on no point: they come from
    the cache :func:`_mode_rows`, so the points of a row pay for them
    once.  Its rows are cut at the default max_terms; where a larger
    max_terms asks for more and a cut row reaches that cap, the longer rows
    are built for the call.  The bound adds, per ladder, its rounding
    envelope (_mode_rounding, with halves = (t/2, |x|/2, |y|/2), per
    call) and the geometric tail past its last rung; past the float range
    it raises InvalidParameter.

    For a point array, amplitude returns one row of rungs per point and
    the halves of x and y are arrays: each row is multiplied by the
    e^{-t omega} row and summed along it, as the one-point sum is.
    Returns (value, terms, bound).  An amplitude size past the float range
    (L below about 1e-308) raises before any term is formed: its inf norm
    times a term of 0.0 would be nan."""
    if not size < math.inf:
        raise InvalidParameter(
            f"L={geometry.length!r} is too small for a mode sum: its amplitude {size!r} "
            "leaves the float range"
        )
    total, terms, bound = 0.0, 0, 0.0
    rows = _mode_rows(geometry, t, min(control.max_terms, _CACHED_TERMS))
    if control.max_terms > _CACHED_TERMS and any(ladder[3].size > _CACHED_TERMS for ladder in rows):
        rows = _mode_rows.__wrapped__(geometry, t, control.max_terms)
    for sign, step, first, om, row, tail in rows:
        bound += _mode_rounding(t, first, step, halves)
        decay = row if norm == 1.0 else norm * row
        # a product and row sum: a complex (20 x 1173)(1173) matrix-vector
        # product takes 8.4 ms on a 2-core machine, this 83 us
        total += (decay * amplitude(om, sign)).sum(axis=-1)
        bound += tail
        terms += om.size
    bound = size * bound
    if not _all(bound < math.inf):
        raise InvalidParameter(f"t={t!r} is too small for a mode sum of amplitude {size!r}")
    return total, terms, bound


def _interval_mode_sum(
    geom: Interval, t: float, x: float | np.ndarray, y: float | np.ndarray, control: SeriesControl
) -> KernelValue:
    xc, yc = _column(x), _column(y)
    diagonal = _all(x == y)

    def amplitude(om: np.ndarray, sign: float) -> np.ndarray:
        phi = _interval_mode_phi(geom, om, xc)
        return phi * (phi if diagonal else _interval_mode_phi(geom, om, yc))

    halves = (0.5 * t, 0.5 * x, 0.5 * y)
    val, terms, bound = _mode_sum(geom, t, halves, control, amplitude, 2.0 / geom.length)
    return KernelValue(val if isinstance(x, np.ndarray) else float(val), MODE_SUM, terms, bound)


def _twisted_mode_sum(
    geom: TwistedCircle, t: float, x: float | np.ndarray, y: float | np.ndarray,
    control: SeriesControl,
) -> KernelValue:
    # phi_k(x) phi_k(y)* = e^{i k (x - y)}/L, and left movers carry k < 0
    d, length = x - y, geom.length
    off = not _all(d == 0.0)
    dc = _column(d)

    def amplitude(om: np.ndarray, sign: float) -> np.ndarray | float:
        return np.exp(1j * sign * dc * om) if off else 1.0 / length

    halves = (0.5 * t, 0.5 * abs(x), 0.5 * abs(y))
    norm = 1.0 / length if off else 1.0
    val, terms, bound = _mode_sum(geom, t, halves, control, amplitude, 1.0 / length, norm)
    if isinstance(x, np.ndarray):
        val = val if off or val.shape == x.shape else np.full(x.shape, val)
    else:
        val = complex(val) if off else float(val)
    return KernelValue(val, MODE_SUM, terms, bound)


def _mode_rounding(t: float, first: float, step: float, halves: tuple) -> float | np.ndarray:
    """Rounding bound of a mode sum over the ladder omega_j = first + j step,
    per unit mode amplitude.  Each term e^{-t omega} phi(x) phi(y)* is off
    by a few eps of itself, and by eps of omega t, omega x and omega y in
    its arguments, so the bound is _MODE_ROUNDING eps times
    sum_{j>=0} e^{-t omega_j} (1 + omega_j reach), reach = t + |x| + |y|,
    summed in closed form.  reach enters as its halves (t/2, |x|/2, |y|/2),
    summed to half_reach = reach/2; where that sum overflows (reach above
    about 3.6e308), each product with it is formed from the three halves
    instead, as spectrum._phase does; where q reach overflows (reach near
    the top of the float range, t step small), q step is formed before it
    meets reach.  Where the envelope leaves the float range (t step below
    about 1e-154), the mode sum cannot bound itself and InvalidParameter
    is raised, so the callers take this before their tail bounds, which
    divide by the same gap once."""
    q, gap = math.exp(-t * step), -math.expm1(-t * step)
    half_reach = halves[0] + halves[1] + halves[2]

    def twice(c: float) -> float | np.ndarray:
        """2 c half_reach, from the three halves where half_reach overflows."""
        whole = 2.0 * c * half_reach
        if _all(half_reach < math.inf):
            return whole
        split = 2.0 * c * halves[0] + 2.0 * c * halves[1] + 2.0 * c * halves[2]
        return np.where(half_reach < math.inf, whole, split) if np.ndim(split) else split

    # q first: once it underflows, q reach step is 0 where step reach is
    # inf; a q of 0 adds 0 also where the step itself is inf
    slope = twice(q) * step if q else 0.0
    if not _all(slope < math.inf):
        # 2 q reach overflowed before the step brought it back: q step first
        late = twice(q * step)
        slope = np.where(slope < math.inf, slope, late) if np.ndim(slope) else late
    if gap:
        envelope = (1.0 + twice(first)) / gap + slope / gap / gap
    else:
        envelope = math.inf
    if not _all(envelope < math.inf):
        raise InvalidParameter(f"t={t!r} is too small for a mode sum with spacing {step!r}")
    return _MODE_ROUNDING * _EPS * math.exp(-t * first) * envelope


def _halfline_mode_quadrature(
    geom: HalfLine, t: float, x: float | np.ndarray, y: float | np.ndarray
) -> KernelValue:
    """Continuum mode integral (1/pi) int_0^inf [cos(w(x-y)) -/+ cos(w(x+y))]
    e^{-t w} dw by double-exponential quadrature -- a numeric route
    genuinely independent of the image algebra.

    With u = t w it is (1/(pi t)) sum_i c_i int_0^inf e^{-u} cos(b_i u) du,
    b_i = |x -/+ y| / t.  Legs with b_i >= _FOURIER_SWITCH take the
    Ooura-Mori rule after v = b_i u, the others exp-sinh; legs of one kind
    share one node set.  For a point array every leg of every point is one
    row of the one quadrature of its kind, and each point adds its legs."""
    scale = 1.0 / (math.pi * t)
    if math.isinf(scale):
        raise InvalidParameter(f"t={t!r} too small for the half-line mode integral")
    if isinstance(x, np.ndarray):
        return _halfline_mode_rows(geom, t, x, y, scale)
    families = _images(geom)
    # an overflow to inf drops its leg
    b = np.array([abs(x + y if reflected else x - y) / t for _, reflected, _, _ in families])
    c = np.array([sign for sign, _, _, _ in families])
    fast = b >= _FOURIER_SWITCH
    parts = []
    if not fast.all():
        bs, cs = b[~fast, None], c[~fast, None]
        parts.append(summation.de_quadrature(lambda u: cs * np.exp(-u) * np.cos(bs * u)))
    if fast.any():
        bf, cf = b[fast, None], c[fast, None]
        parts.append(summation.de_quadrature(lambda v: cf / bf * np.exp(-v / bf), cosine=True))
    return KernelValue(
        scale * sum(p.value for p in parts),
        MODE_SUM,
        sum(p.terms_used for p in parts),
        scale * sum(p.truncation_bound for p in parts),
    )


def _halfline_mode_rows(
    geom: HalfLine, t: float, x: np.ndarray, y: np.ndarray, scale: float
) -> KernelValue:
    """The half-line mode route at a point array: rows 0..n-1 are the
    direct legs, n..2n-1 the reflected ones."""
    n, families = x.size, _images(geom)
    # an overflow to inf drops its leg
    b = np.concatenate([np.abs(x + y if reflected else x - y) / t for _, reflected, _, _ in families])
    c = np.repeat([sign for sign, _, _, _ in families], n)
    point = np.tile(np.arange(n), 2)
    value, bound, terms = np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64)
    for cosine in (False, True):
        legs = (b >= _FOURIER_SWITCH) == cosine
        if not legs.any():
            continue
        bs, cs = b[legs, None], c[legs, None]
        if cosine:
            part = summation.de_quadrature(
                lambda v: cs / bs * np.exp(-v / bs), cosine=True, rows=True
            )
        else:
            part = summation.de_quadrature(lambda u: cs * np.exp(-u) * np.cos(bs * u), rows=True)
        value += np.bincount(point[legs], part.value, n)
        bound += np.bincount(point[legs], part.truncation_bound, n)
        terms[point[legs]] = terms[point[legs]] + part.terms_used
    return KernelValue(scale * value, MODE_SUM, terms, scale * bound)


def _lorentzian(t: float, d: float | np.ndarray) -> float | np.ndarray:
    """(t/pi)/(d^2 + t^2), scaled by s = max(|d|, t) so that neither square
    underflows or overflows: (t/s)/(pi s ((d/s)^2 + (t/s)^2))."""
    s = np.maximum(np.abs(d), t) if isinstance(d, np.ndarray) else max(abs(d), t)
    ds, ts = d / s, t / s
    return (ts / math.pi) / (s * (ds * ds + ts * ts))


def _lorentzian_lattice(
    step: float, d: float | np.ndarray, t: float, theta: float, control: SeriesControl
) -> tuple[complex | np.ndarray, int | np.ndarray, float | np.ndarray]:
    """sum_m e^{i m theta} (t/pi)/((step m + d)^2 + t^2) with its bound, at
    a float d or at every d of an array.

    (t/pi)/(z^2 + t^2) = [(z - i t)^-1 - (z + i t)^-1] / (2 pi i), so the
    sum is two tail-completed lattice sums; at real weights (theta a
    multiple of pi) the second is the conjugate of the first.  The division
    by 2 pi i is written out in real divisions, which floats and arrays
    round alike, and each sum is halved before the difference is formed,
    so that two sums near the float range do not overflow it.

    At d = 0 the sum depends on no point: :func:`_image_sum` and
    :func:`cylinder_trace` read it from :func:`_centred_lattice`, the cache
    keyed by (step, t, theta, control)."""
    plus = summation.lattice_sum(step, d, t, theta, 1, control)
    if math.remainder(theta, math.pi) == 0.0:
        return plus.value.imag / math.pi + 0j, plus.terms_used, plus.truncation_bound / math.pi
    minus = summation.lattice_sum(step, d, -t, theta, 1, control)
    diff = 0.5 * plus.value - 0.5 * minus.value
    return (
        diff.imag / math.pi - 1j * (diff.real / math.pi),
        plus.terms_used + minus.terms_used,
        (0.5 * plus.truncation_bound + 0.5 * minus.truncation_bound) / math.pi,
    )


@functools.lru_cache(maxsize=_TABLES)
def _centred_lattice(
    step: float, t: float, theta: float, control: SeriesControl
) -> tuple[complex, int, float]:
    """:func:`_lorentzian_lattice` at d = 0.0: the direct family of every
    diagonal point and of both trace image sums.
    The _TABLES most recently used keys are kept."""
    return _lorentzian_lattice(step, 0.0, t, theta, control)


def _image_sum(
    geometry: Geometry, t: float, x: float | np.ndarray, y: float | np.ndarray,
    control: SeriesControl,
) -> KernelValue:
    """The image route: sum over the families of
    :func:`~vacuum1d.spectrum._images`, each one lattice of Lorentzians
    summed at every point in one :func:`_lorentzian_lattice` call (from the
    cache :func:`_centred_lattice` for a direct family on the diagonal,
    where d is 0.0), or one Lorentzian a point where the family has no
    turns (the half-line).
    Where turns L overflows (L above 8.99e307 on the interval) the lattice
    is summed in half units: half the lattice of step turns L/2 at half the
    displacements and height; so is a half-line image where x + y does.
    The value is complex only off the twisted diagonal; there, diagonal
    points of an array are real, as their float calls are."""
    diagonal = _all(x == y)
    real = diagonal or not isinstance(geometry, TwistedCircle)
    val, terms, bound = 0.0, 0, 0.0
    for sign, reflected, turns, theta in _images(geometry):
        if turns == 0:
            d = x + y if reflected else x - y
            part, n, b = _lorentzian(t, d), 1, 0.0
            if not _all(abs(d) < math.inf):  # x + y overflows: half units, as below
                half = 0.5 * _lorentzian(0.5 * t, 0.5 * x + 0.5 * y)
                part = np.where(np.isinf(d), half, part) if isinstance(d, np.ndarray) else half
        else:
            length = geometry.length
            half = 0.5 if turns * length == math.inf else 1.0
            step = half * turns * length
            if diagonal and not reflected:
                part, n, b = _centred_lattice(step, half * t, theta, control)
            else:
                d = half * x + half * y if reflected else half * x - half * y
                part, n, b = _lorentzian_lattice(step, d, half * t, theta, control)
            part, b = half * (part.real if real else part), half * b
        val, terms, bound = val + sign * part, terms + n, bound + b
    if real and not _all(abs(val) < math.inf):
        raise InvalidParameter(f"the image sum overflows at t={t!r}")
    if not real and isinstance(x, np.ndarray):
        val.imag[x == y] = 0.0
    return KernelValue(val, IMAGE_SUM, terms, bound)


def _phase_array(v: np.ndarray, length: float) -> np.ndarray:
    """:func:`_phase` at every element."""
    p = math.pi * v / length
    return np.where(np.abs(p) < math.inf, p, math.pi * (v / length))


def _interval_closed_form(
    geom: Interval, t: float, x: float | np.ndarray, y: float | np.ndarray
) -> KernelValue:
    """The interval closed forms of :func:`cylinder_kernel` in q = e^{-2z}
    and g = 1 - q, z = pi t/2L: every exponential decays and no difference
    of nearly equal terms is formed, so they keep their relative accuracy
    from t/L near the float range up to the ground-state asymptote.  One
    formula serves floats (math) and point arrays (numpy, elementwise)."""
    xp, phase = (np, _phase_array) if isinstance(x, np.ndarray) else (math, _phase)
    length = geom.length
    z = _phase(0.5 * t, length)
    q = math.exp(-2.0 * z)
    g = -math.expm1(-2.0 * z)
    if g < 4.0 / sys.float_info.max:  # 4 q/g would overflow
        raise InvalidParameter(f"t={t!r} is below the float range at L={length!r}")
    # S(x -/+ y) = (1 + q)/den_-/+, den_pm = D_pm / g, and
    # gap = 1/den_- - 1/den_+ = 4 q sin(pi x/L) sin(pi y/L) / (den_+ g den_-),
    # divided in this order so that no intermediate leaves the float range
    h_minus, h_plus = phase(0.5 * (x - y), length), phase(0.5 * x + 0.5 * y, length)
    den_minus = g + 4.0 * q * xp.sin(h_minus) ** 2 / g
    den_plus = g + 4.0 * q * xp.sin(h_plus) ** 2 / g
    cross = xp.sin(phase(x, length)) * xp.sin(phase(y, length))
    gap = 4.0 * q * cross / den_plus / g / den_minus
    if geom.left is NEUMANN is geom.right:  # (1/2L)[S(x - y) + S(x + y)]
        val = 0.5 * ((1.0 + q) * (1.0 / den_minus + 1.0 / den_plus)) / length
    elif geom.left is DIRICHLET is geom.right:  # (1/2L)[S(x - y) - S(x + y)]
        val = 0.5 * ((1.0 + q) * gap) / length
    else:
        # (1/L) e^{-z} [cos h_-/den_- -/+ cos h_+/den_+], h_pm = pi (x -/+ y)/2L,
        # = (1/L) e^{-z} [cos h_- gap + (cos h_- -/+ cos h_+)/den_+], where
        # cos h_- -/+ cos h_+ = 2 sin sin (D/N) or 2 cos cos (N/D) of pi x/2L, pi y/2L
        wave = xp.sin if geom.left is DIRICHLET else xp.cos
        wall = 2.0 * wave(phase(0.5 * x, length)) * wave(phase(0.5 * y, length))
        val = math.exp(-z) * (xp.cos(h_minus) * gap + wall / den_plus) / length
    if not _all(val < math.inf):
        raise InvalidParameter(f"interval kernel overflows at t={t!r}")
    return KernelValue(val, CLOSED_FORM, 0, 0.0)


def _twisted_closed_form_diag(geom: TwistedCircle, t: float) -> KernelValue:
    # T(t; x, x) = Tr T(t) / L
    val = float(_closed_trace(geom, t)) / geom.length
    if not math.isfinite(val):
        raise InvalidParameter(f"twisted kernel overflows at t={t!r}")
    return KernelValue(val, CLOSED_FORM, 0, 0.0)


def cylinder_kernel(
    geometry: Geometry,
    t: float,
    x: float | ArrayLike,
    y: float | ArrayLike | None = None,
    method: str = CLOSED_FORM,
    control: SeriesControl = SeriesControl(),
) -> KernelValue:
    """Cylinder kernel T(t; x, y) by the requested route.

    Parameters
    ----------
    geometry : Geometry
    t : float
        Cylinder height, > 0; one height per call.
    x, y : float or array_like
        Points in the closed domain; ``y`` defaults to ``x`` (diagonal).
        Arrays (or sequences) broadcast against each other, and every
        point is evaluated in one call per route: one lattice-sum call per
        image family for all the points (a float sum per image lattice,
        so each point equals its float call bit for bit), one (points x
        rungs) grid for a mode sum, one node set per kind for the
        half-line quadrature, and the closed forms elementwise.  One point
        outside the domain raises :class:`OutOfDomain` for the whole call.
        Floats and numpy scalars keep the plain-float form of each route
        and return scalars.
    method : str
        ``mode-sum``, ``image-sum``, or ``closed-form``.  The twisted
        circle has an elementary closed form only on the diagonal;
        off-diagonal closed-form requests fall back to the mode sum and
        the returned ``method`` says so.  The half-line has two routes:
        ``closed-form`` returns its exact two-term image sum under that
        label, and ``mode-sum`` is the continuum mode integral by
        quadrature.
    control : SeriesControl
        Truncation policy for the series routes.

    Returns
    -------
    KernelValue
        Real except for twisted off-diagonal points, where the kernel is
        genuinely complex (Hermitian in x <-> y).  For point arrays its
        fields are arrays of the broadcast shape (see :class:`KernelValue`);
        a twisted closed-form request with any off-diagonal point is a mode
        sum at every point, and ``method`` says so.

    Examples
    --------
    >>> kv = cylinder_kernel(Interval(1.0), 0.1, [0.25, 0.5, 0.75], method="image-sum")
    >>> kv.value.shape, kv.terms_used.shape
    ((3,), (3,))

    Notes
    -----
    Closed forms, with z = pi t / 2L, q = e^{-2z}, g = 1 - q,
    s_pm = sin^2(pi (x -/+ y)/2L) and D_pm = g^2 + 4 q s_pm, in which
    every exponential decays and every term is non-negative:

    * Neumann-Neumann:  ``(1/2L)[S(x-y) + S(x+y)]``, ``S(x -/+ y) = g (1+q) / D_-/+``
    * Dirichlet-Dirichlet: ``(1/2L)[S(x-y) - S(x+y)]
      = (1/2L) g (1+q) 4q sin(pi x/L) sin(pi y/L) / (D_- D_+)``
    * Dirichlet-Neumann: ``(1/L) e^{-z} g [2 sin(pi x/2L) sin(pi y/2L) D_-
      + cos(pi (x-y)/2L) 4q sin(pi x/L) sin(pi y/L)] / (D_- D_+)``;
      Neumann-Dirichlet, its mirror image at ``(L - x, L - y)``, has cos
      for sin in the first term
    * half-line:  direct + reflected Lorentzian (the image sum is exact)
    * twisted diagonal: ``cosh((pi-theta) t/L) / (L sinh(pi t/L))``
      ``= (e^{-theta t/L} + e^{-(2 pi-theta) t/L}) / (L (1 - e^{-2 pi t/L}))``.
    """
    t = as_real(t, "t", positive=True)
    if method not in (MODE_SUM, IMAGE_SUM, CLOSED_FORM):
        raise InvalidParameter(f"unknown kernel method {method!r}")
    if y is None:
        y = x
    if isinstance(x, _ONE_NUMBER) and isinstance(y, _ONE_NUMBER):
        x, y = as_point(geometry, x, closed=True), as_point(geometry, y, closed=True)
        return _route(geometry, t, x, y, method, control)
    from ._arrays import term_counts

    x, y = _point_array(geometry, x), _point_array(geometry, y)
    if x.shape != y.shape:
        try:
            x, y = np.broadcast_arrays(x, y)
        except ValueError:
            raise InvalidParameter(f"x and y do not broadcast: {x.shape}, {y.shape}") from None
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    # numpy's overflow warnings are off for the whole array: every route
    # checks its own result, and a value or bound past the float range
    # raises InvalidParameter
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _route(geometry, t, x, y, method, control)
    return KernelValue(
        np.broadcast_to(out.value, x.shape).reshape(shape).copy(),
        out.method,
        term_counts(out.terms_used, x.shape).reshape(shape),
        np.broadcast_to(out.truncation_bound, x.shape).reshape(shape).astype(float),
    )


def _route(
    geometry: Geometry,
    t: float,
    x: float | np.ndarray,
    y: float | np.ndarray,
    method: str,
    control: SeriesControl,
) -> KernelValue:
    """cylinder_kernel after its checks, at float or 1-d array points."""
    if method == IMAGE_SUM:
        return _image_sum(geometry, t, x, y, control)
    if isinstance(geometry, HalfLine):
        if method == MODE_SUM:  # the continuum mode integral, by quadrature
            return _halfline_mode_quadrature(geometry, t, x, y)
        return KernelValue(_image_sum(geometry, t, x, y, control).value, CLOSED_FORM, 0, 0.0)

    if isinstance(geometry, Interval):
        if method == MODE_SUM:
            return _interval_mode_sum(geometry, t, x, y, control)
        return _interval_closed_form(geometry, t, x, y)

    if method == CLOSED_FORM and _all(x == y):
        return _twisted_closed_form_diag(geometry, t)
    return _twisted_mode_sum(geometry, t, x, y, control)


def cylinder_trace(
    geometry: Geometry, t: float, method: str = CLOSED_FORM,
    control: SeriesControl = SeriesControl(),
) -> KernelValue:
    """Tr T(t) = sum_j e^{-t omega_j} by the requested route.

    Closed forms::

        like ends:   1/(e^{pi t/L} - 1) + 1 (Neumann) or + 0 (Dirichlet)
        mixed ends:  1 / (2 sinh(pi t / 2L))
        twisted:     cosh((pi - theta) t/L) / sinh(pi t/L)

    The image-sum route integrates each image family over the domain
    analytically: periodic Lorentzians give the two-sided pole sum
    ``(1/2 pi) sum_n w_n a/(n^2 + a^2)``, a = t/2L, w_n = 1 (like ends)
    or (-1)^n (mixed ends), summed by
    :func:`vacuum1d.summation.lattice_sum` with its terms and bound;
    boundary ones telescope to ``(-1)^l/2`` for like ends and to zero for
    mixed ends.  On the twisted circle it is
    ``sum_n e^{i n theta} (a/pi)/(n^2 + a^2)``, a = t/L.  Both are unit
    lattices in a, free of L.  This route is numerically independent of
    the geometric-series closed form.

    The half-line trace diverges (continuous spectrum);
    :class:`ContinuousSpectrum` is raised.
    """
    t = as_real(t, "t", positive=True)
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line cylinder trace diverges")
    if method not in (MODE_SUM, IMAGE_SUM, CLOSED_FORM):
        raise InvalidParameter(f"unknown kernel method {method!r}")

    if method == CLOSED_FORM:
        return KernelValue(float(_closed_trace(geometry, t)), CLOSED_FORM, 0, 0.0)
    if method == MODE_SUM:
        return _trace_mode_sum(geometry, t, control)
    # A direct family integrates over the domain to 1/turns times the unit
    # lattice of Lorentzians of width t/(turns L), free of L; the reflected
    # ones telescope to the boundary counting term.
    val, terms, bound = boundary_counting_term(geometry), 0, 0.0
    for _, reflected, turns, theta in _images(geometry):
        if not reflected:
            per, n, b = _centred_lattice(1.0, t / turns / geometry.length, theta, control)
            val, terms, bound = val + per.real / turns, terms + n, bound + b / turns
    return KernelValue(val, IMAGE_SUM, terms, bound)


def _trace_mode_sum(geometry: Geometry, t: float, control: SeriesControl) -> KernelValue:
    val, terms, bound = _mode_sum(geometry, t, (0.5 * t, 0.0, 0.0), control, lambda *_: 1.0, 1.0)
    return KernelValue(float(val), MODE_SUM, terms, bound)


def _gaussian_images(t: float, a: float, s: float, theta: float) -> float:
    """sum_n cos(n theta) e^{-(a + n s)^2/t} over the images inside
    e^{-700}, i.e. |a + n s| <= sqrt(700 t); cos(n pi) is exactly +/-1 for
    every n here.  Past :data:`~vacuum1d.spectrum.MAX_RUNGS` images a side,
    or at s = 0, it raises :class:`InvalidParameter`."""
    reach = math.sqrt(700.0) * math.sqrt(t)  # finite at every t
    if not (s > 0.0 and reach / s <= MAX_RUNGS):
        raise InvalidParameter(f"more than {MAX_RUNGS} images at t = {t!r}, {s!r} apart")
    n = np.arange(math.ceil((-reach - a) / s), math.floor((reach - a) / s) + 1)
    d = a + n * s
    return float(np.sum(np.cos(n * theta) * np.exp(-d * d / t)))


def heat_kernel_diag(geometry: Geometry, t: float, x: float) -> float:
    """Heat kernel diagonal K(t; x, x) by the (superexponential) image sum.

    * interval:  ``(4 pi t)^{-1/2} [ sum_n s_n e^{-(nL)^2/t}
      + (-1)^l sum_n s_n e^{-(x+nL)^2/t} ]``, s_n = 1 for like ends and
      (-1)^n for mixed ends
    * half-line: ``(4 pi t)^{-1/2} (1 + (-1)^l e^{-x^2/t})``
    * twisted:   ``(4 pi t)^{-1/2} sum_n cos(n theta) e^{-(nL)^2/4t}``

    Each image family of :func:`~vacuum1d.spectrum._images` is one
    Gaussian lattice, at half its displacement (0 direct, x reflected) and
    half its spacing; the half-line's families have one image each.
    Images beyond ``e^{-700}`` are dropped; the result is exact to
    rounding for every t of practical interest.  Past
    :data:`~vacuum1d.spectrum.MAX_RUNGS` images per family (t/L^2 of order
    1e9, or a spacing that underflows to 0) it raises
    :class:`InvalidParameter`.
    """
    t, x = as_real(t, "t", positive=True), as_point(geometry, x, closed=True)
    root = math.sqrt(4.0 * math.pi * t)
    pref = 1.0 / (root if root < math.inf else math.sqrt(4.0 * math.pi) * math.sqrt(t))
    total = 0.0
    for sign, reflected, turns, theta in _images(geometry):
        a = x if reflected else 0.0
        if turns == 0:
            total += sign * math.exp(-a * a / t)
        else:
            total += sign * _gaussian_images(t, a, 0.5 * turns * geometry.length, theta)
    return pref * total


def heat_trace(geometry: Geometry, t: float, control: SeriesControl = SeriesControl()) -> float:
    """Tr K(t) = sum_j e^{-t omega_j^2} (mode sum; converges like a theta
    function).  Half-line raises :class:`ContinuousSpectrum`.

    Small-t behaviour: ``L (4 pi t)^{-1/2} + b_1 + O(e^{-L^2/t})`` with
    ``b_1 = -1/2, 0, +1/2`` for Dirichlet-Dirichlet, mixed, and
    Neumann-Neumann ends, and ``b_1 = 0`` on the circle.
    """
    t = as_real(t, "t", positive=True)
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line heat trace diverges")
    return float(_heat_trace(geometry, t, control))


def _closed_trace(geometry: Interval | TwistedCircle, t: np.ndarray | float) -> np.ndarray:
    """Closed-form Tr T at a float t or at every t of an array (t > 0), in
    one numpy pass; a float stays a numpy scalar, which costs a third of a
    0-d array.

    The formulas are those of :func:`cylinder_trace`, written in decaying
    exponentials over 1 - e^{-b}, b = pi t/L, so that nothing overflows:
    like ends e^{-b}/(1 - e^{-b}), mixed ends e^{-b/2}/(1 - e^{-b}), and
    the twisted circle (e^{-theta t/L} + e^{-(2 pi - theta) t/L})/(1 - e^{-2b}).
    Each numerator is at most 2, so where the denominator would take the
    trace past the float range (t/L below about 1e-308) it raises first.
    Each exponent is c t/L with c = pi, theta or 2 pi - theta; where a
    float 2 pi t (pi t on the interval) overflows, t/L is formed first and
    the trace runs in units of L, so every other t keeps the bits of c t/L."""
    length = geometry.length
    circle = isinstance(geometry, TwistedCircle)
    if isinstance(t, float) and not (TWO_PI if circle else math.pi) * t < math.inf:
        t, length = t / length, 1.0
    b = math.pi * t / length
    gap = -np.expm1(-2.0 * b if circle else -b)
    if not _all(abs(gap) >= 4.0 / sys.float_info.max):
        raise InvalidParameter(f"trace overflows at t={t!r}")
    if circle:
        theta = geometry.theta
        return (np.exp(-theta * t / length) + np.exp(-(TWO_PI - theta) * t / length)) / gap
    if geometry.like_ends:
        val = np.exp(-b) / gap
        return val + 1.0 if geometry.left is NEUMANN else val
    return np.exp(-0.5 * b) / gap


def _heat_trace(
    geometry: Interval | TwistedCircle, t: np.ndarray | float, control: SeriesControl
) -> np.ndarray:
    """Tr K(t) = sum_j e^{-t omega_j^2} at every t of an array (t > 0): each
    ladder is cut where omega^2 passes omega_min^2 + (-ln _TERM_FLOOR)/t_min,
    so at the smallest t every dropped term is below _TERM_FLOOR times the
    largest."""
    t = np.asarray(t, dtype=float)
    span = -math.log(_TERM_FLOOR) / float(t.min())
    total = 0.0
    for _, _, om in _kept_rungs(geometry, control.max_terms, lambda w: math.sqrt(w * w + span)):
        with np.errstate(over="ignore"):  # t omega^2 past the float range: a term of 0.0
            total = total + np.exp(-t[..., None] * om * om).sum(axis=-1)
    return total
