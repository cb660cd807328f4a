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

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import summation
from .errors import ContinuousSpectrum, InvalidParameter, OutOfDomain, UnsupportedGeometry
from .spectrum import (
    DIRICHLET,
    NEUMANN,
    Geometry,
    HalfLine,
    Interval,
    TwistedCircle,
    _count_leq,
)
from .summation import SeriesControl

TWO_PI = 2.0 * math.pi

MODE_SUM = "mode-sum"
IMAGE_SUM = "image-sum"
CLOSED_FORM = "closed-form"

# Drop mode-sum terms with e^{-t omega} (or e^{-t omega^2}) below this.
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


@dataclass(frozen=True)
class KernelValue:
    """A kernel evaluation plus provenance.

    ``method`` records the route actually used (requests that fall back,
    e.g. closed-form twisted off-diagonal, report the fallback here).
    ``value`` is complex only for twisted-circle off-diagonal points;
    every other case is real.
    """

    value: float | complex
    method: str
    terms_used: int
    truncation_bound: float


def _check_closed_point(geometry: Geometry, x: float) -> None:
    """Kernel evaluations allow the closed domain (boundary included)."""
    if isinstance(geometry, Interval):
        if not (0.0 <= x <= geometry.length):
            raise OutOfDomain(f"x={x!r} not in [0, {geometry.length}]")
    elif isinstance(geometry, HalfLine):
        if not (x >= 0.0):
            raise OutOfDomain(f"x={x!r} not in [0, inf)")


def _interval_mode_phi(geom: Interval, omegas: np.ndarray, x: float) -> np.ndarray:
    """Normalized eigenfunctions at x for the frequency array."""
    length = geom.length
    if geom.left is NEUMANN and geom.right is NEUMANN:
        out = np.sqrt(2.0 / length) * np.cos(omegas * x)
        if omegas.size and omegas[0] == 0.0:
            out[0] = math.sqrt(1.0 / length)
        return out
    if geom.left is DIRICHLET:
        return np.sqrt(2.0 / length) * np.sin(omegas * x)
    return np.sqrt(2.0 / length) * np.cos(omegas * x)


def _interval_mode_sum(
    geom: Interval, t: float, x: float, y: float, control: SeriesControl
) -> KernelValue:
    omega_cut = -math.log(_TERM_FLOOR) / t
    step = math.pi / geom.length
    cap = int(control.max_terms)
    omega_cut = min(omega_cut, (cap + 1.5) * step)
    from .spectrum import _mode_arrays

    om, _ = _mode_arrays(geom, omega_cut)
    val = float(
        np.sum(
            np.exp(-t * om)
            * _interval_mode_phi(geom, om, x)
            * _interval_mode_phi(geom, om, y)
        )
    )
    # Geometric tail bound: remaining terms < (2/L) e^{-t omega} summed.
    last = om[-1] if om.size else 0.0
    tail = (2.0 / geom.length) * math.exp(-t * (last + step)) / (-math.expm1(-t * step))
    first = float(om[0]) if om.size else 0.0
    rounding = (2.0 / geom.length) * _mode_rounding(t, first, step, t + x + y)
    return KernelValue(val, MODE_SUM, int(om.size), tail + rounding)


def _mode_rounding(t: float, first: float, step: float, reach: float) -> float:
    """Rounding bound of a mode sum over the ladder omega_j = first + j step,
    per unit mode amplitude.  Each term e^{-t omega} phi(x) phi(y)* is off
    by a few eps of itself, and by eps of omega t, omega x and omega y in
    its arguments, so the bound is _MODE_ROUNDING eps times
    sum_{j>=0} e^{-t omega_j} (1 + omega_j reach), reach = t + |x| + |y|,
    summed in closed form."""
    q, gap = math.exp(-t * step), -math.expm1(-t * step)
    envelope = (1.0 + first * reach) / gap + step * reach * q / (gap * gap)
    return _MODE_ROUNDING * _EPS * math.exp(-t * first) * envelope


def _halfline_mode_quadrature(geom: HalfLine, t: float, x: float, y: float) -> KernelValue:
    """Continuum mode integral (1/pi) int_0^inf [cos(w(x-y)) -/+ cos(w(x+y))]
    e^{-t w} dw by double-exponential quadrature -- a numeric route
    genuinely independent of the image algebra.

    With u = t w it is (1/(pi t)) sum_i c_i int_0^inf e^{-u} cos(b_i u) du,
    b_i = |x -/+ y| / t.  Legs with b_i >= _FOURIER_SWITCH take the
    Ooura-Mori rule after v = b_i u, the others exp-sinh; legs of one kind
    share one node set."""
    scale = 1.0 / (math.pi * t)
    if math.isinf(scale):
        raise InvalidParameter(f"t={t!r} too small for the half-line mode integral")
    b = np.array([abs(x - y) / t, (x + y) / t])  # an overflow to inf drops its leg
    c = np.array([1.0, (-1.0) ** geom.l])
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


def _twisted_mode_sum(
    geom: TwistedCircle, t: float, x: float, y: float, control: SeriesControl
) -> KernelValue:
    length, theta = geom.length, geom.theta
    omega_cut = -math.log(_TERM_FLOOR) / t
    step = TWO_PI / length
    omega_cut = min(omega_cut, (control.max_terms + 1.5) * step)
    n_plus = _count_leq(step, theta / length, 0, omega_cut)
    n_minus = _count_leq(step, -theta / length, 1, omega_cut)
    jp = np.arange(0, n_plus, dtype=float)
    jm = np.arange(1, n_minus + 1, dtype=float)
    kp = (TWO_PI * jp + theta) / length
    km = -(TWO_PI * jm - theta) / length  # left-movers carry k < 0
    d = x - y
    val = (
        np.sum(np.exp(-t * np.abs(kp)) * np.exp(1j * kp * d))
        + np.sum(np.exp(-t * np.abs(km)) * np.exp(1j * km * d))
    ) / length
    tail = (2.0 / length) * math.exp(-t * omega_cut) / (-math.expm1(-t * step))
    # Right movers start at |k| = theta/L, left movers at (2 pi - theta)/L.
    reach = t + abs(x) + abs(y)
    bound = tail + (
        _mode_rounding(t, theta / length, step, reach)
        + _mode_rounding(t, (TWO_PI - theta) / length, step, reach)
    ) / length
    terms = int(n_plus + n_minus)
    if x == y:
        return KernelValue(float(val.real), MODE_SUM, terms, bound)
    return KernelValue(complex(val), MODE_SUM, terms, bound)


def _lorentzian(t: float, d: float) -> float:
    """(t/pi)/(d^2 + t^2), scaled by s = max(|d|, t) so that neither square
    underflows or overflows: (t/s)/(pi s ((d/s)^2 + (t/s)^2))."""
    s = max(abs(d), t)
    ds, ts = d / s, t / s
    return (ts / math.pi) / (s * (ds * ds + ts * ts))


def _lorentzian_lattice(
    step: float, d: float, t: float, theta: float, control: SeriesControl
) -> tuple[complex, int, float]:
    """sum_m e^{i m theta} (t/pi)/((step m + d)^2 + t^2) with its bound.

    (t/pi)/(z^2 + t^2) = [(z - i t)^-1 - (z + i t)^-1] / (2 pi i), so the
    sum is two tail-completed lattice sums; at real weights (theta a
    multiple of pi) the second is the conjugate of the first."""
    plus = summation.lattice_sum(step, d, t, theta, 1, control)
    if math.remainder(theta, math.pi) == 0.0:
        return (
            complex(plus.value.imag / math.pi),
            plus.terms_used,
            plus.truncation_bound / math.pi,
        )
    minus = summation.lattice_sum(step, d, -t, theta, 1, control)
    return (
        (plus.value - minus.value) / (2j * math.pi),
        plus.terms_used + minus.terms_used,
        (plus.truncation_bound + minus.truncation_bound) / (2.0 * math.pi),
    )


def _interval_image_sum(
    geom: Interval, t: float, x: float, y: float, control: SeriesControl
) -> KernelValue:
    # Periodic images at x - y + 2nL and boundary images at x + y + 2nL,
    # the latter signed (-1)^l; mixed ends alternate (-1)^n in both.
    theta = 0.0 if geom.like_ends else math.pi
    step = 2.0 * geom.length
    per, n_per, b_per = _lorentzian_lattice(step, x - y, t, theta, control)
    bdry, n_bdry, b_bdry = _lorentzian_lattice(step, x + y, t, theta, control)
    val = per.real + (-1.0) ** geom.l * bdry.real
    return KernelValue(val, IMAGE_SUM, n_per + n_bdry, b_per + b_bdry)


def _halfline_image_sum(geom: HalfLine, t: float, x: float, y: float) -> KernelValue:
    val = _lorentzian(t, x - y) + (-1.0) ** geom.l * _lorentzian(t, x + y)
    if not math.isfinite(val):
        raise InvalidParameter(f"half-line kernel overflows at t={t!r}, x={x!r}, y={y!r}")
    return KernelValue(val, IMAGE_SUM, 2, 0.0)


def _twisted_image_sum(
    geom: TwistedCircle, t: float, x: float, y: float, control: SeriesControl
) -> KernelValue:
    # sum_n e^{i n theta} (t/pi)/((x - y - nL)^2 + t^2)
    val, terms, bound = _lorentzian_lattice(geom.length, y - x, t, geom.theta, control)
    if x == y:
        return KernelValue(val.real, IMAGE_SUM, terms, bound)
    return KernelValue(val, IMAGE_SUM, terms, bound)


def _interval_closed_form(geom: Interval, t: float, x: float, y: float) -> KernelValue:
    """The interval closed forms of :func:`cylinder_kernel` in q = e^{-2z}
    and g = 1 - q, z = pi t/2L: every exponential decays and no difference
    of nearly equal terms is formed, so they keep their relative accuracy
    from t/L near the float range up to the ground-state asymptote."""
    length = geom.length
    z = math.pi * t / (2.0 * length)
    q = math.exp(-2.0 * z)
    g = -math.expm1(-2.0 * z)
    if g < 4.0 / sys.float_info.max:  # 4 q/g would overflow
        raise InvalidParameter(f"t={t!r} is below the float range at L={length!r}")
    # S(x -/+ y) = (1 + q)/den_-/+, den_pm = D_pm / g, and
    # gap = 1/den_- - 1/den_+ = 4 q sin(pi x/L) sin(pi y/L) / (den_+ g den_-),
    # divided in this order so that no intermediate leaves the float range
    h_minus, h_plus = math.pi * (x - y) / (2.0 * length), math.pi * (x + y) / (2.0 * length)
    den_minus = g + 4.0 * q * math.sin(h_minus) ** 2 / g
    den_plus = g + 4.0 * q * math.sin(h_plus) ** 2 / g
    cross = math.sin(math.pi * x / length) * math.sin(math.pi * y / length)
    gap = 4.0 * q * cross / den_plus / g / den_minus
    if geom.left is NEUMANN is geom.right:  # (1/2L)[S(x - y) + S(x + y)]
        val = (1.0 + q) * (1.0 / den_minus + 1.0 / den_plus) / (2.0 * length)
    elif geom.left is DIRICHLET is geom.right:  # (1/2L)[S(x - y) - S(x + y)]
        val = (1.0 + q) * gap / (2.0 * length)
    else:
        # (1/L) e^{-z} [cos h_-/den_- -/+ cos h_+/den_+], h_pm = pi (x -/+ y)/2L,
        # = (1/L) e^{-z} [cos h_- gap + (cos h_- -/+ cos h_+)/den_+], where
        # cos h_- -/+ cos h_+ = 2 sin sin (D/N) or 2 cos cos (N/D) of pi x/2L, pi y/2L
        wave = math.sin if geom.left is DIRICHLET else math.cos
        wall = 2.0 * wave(math.pi * x / (2.0 * length)) * wave(math.pi * y / (2.0 * length))
        val = math.exp(-z) * (math.cos(h_minus) * gap + wall / den_plus) / length
    if not math.isfinite(val):
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
    x: float,
    y: float | None = None,
    method: str = CLOSED_FORM,
    control: SeriesControl = SeriesControl(),
) -> KernelValue:
    """Cylinder kernel T(t; x, y) by the requested route.

    Parameters
    ----------
    geometry : Geometry
    t : float
        Cylinder height, > 0.
    x, y : float
        Points in the closed domain; ``y`` defaults to ``x`` (diagonal).
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
        genuinely complex (Hermitian in x <-> y).

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
    if not (t > 0.0) or not math.isfinite(t):
        raise InvalidParameter("t must be positive and finite")
    if y is None:
        y = x
    _check_closed_point(geometry, x)
    _check_closed_point(geometry, y)
    if method not in (MODE_SUM, IMAGE_SUM, CLOSED_FORM):
        raise InvalidParameter(f"unknown kernel method {method!r}")

    if isinstance(geometry, HalfLine):
        if method == MODE_SUM:
            # No discrete modes; the continuum integral plays that role
            # and is evaluated by quadrature, independent of the images.
            return _halfline_mode_quadrature(geometry, t, x, y)
        out = _halfline_image_sum(geometry, t, x, y)
        if method == CLOSED_FORM:
            return KernelValue(out.value, CLOSED_FORM, 0, 0.0)
        return out

    if isinstance(geometry, Interval):
        if method == MODE_SUM:
            return _interval_mode_sum(geometry, t, x, y, control)
        if method == IMAGE_SUM:
            return _interval_image_sum(geometry, t, x, y, control)
        return _interval_closed_form(geometry, t, x, y)

    if method == MODE_SUM:
        return _twisted_mode_sum(geometry, t, x, y, control)
    if method == IMAGE_SUM:
        return _twisted_image_sum(geometry, t, x, y, control)
    if x == y:
        return _twisted_closed_form_diag(geometry, t)
    return _twisted_mode_sum(geometry, t, x, y, control)


def cylinder_trace(
    geometry: Geometry,
    t: float,
    method: str = CLOSED_FORM,
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
    mixed ends.  This route is numerically independent of the
    geometric-series closed form.

    The half-line trace diverges (continuous spectrum);
    :class:`ContinuousSpectrum` is raised.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise InvalidParameter("t must be positive and finite")
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line cylinder trace diverges")
    if method not in (MODE_SUM, IMAGE_SUM, CLOSED_FORM):
        raise InvalidParameter(f"unknown kernel method {method!r}")

    if method == CLOSED_FORM:
        val = float(_closed_trace(geometry, t))
        if math.isinf(val):
            raise InvalidParameter(f"trace overflows at t={t!r}")
        return KernelValue(val, CLOSED_FORM, 0, 0.0)
    if method == MODE_SUM:
        return _trace_mode_sum(geometry, t, control)
    if isinstance(geometry, Interval):
        # The periodic Lorentzians integrate to (1/2 pi) sum_n w_n a/(n^2 + a^2),
        # a = t/2L, w_n = 1 (like ends) or (-1)^n (mixed): half the unit
        # lattice of Lorentzians of width a, free of L^2.
        a, theta = t / (2.0 * geometry.length), 0.0 if geometry.like_ends else math.pi
        per, terms, bound = _lorentzian_lattice(1.0, 0.0, a, theta, control)
        val = 0.5 * per.real
        if geometry.like_ends:
            val += 0.5 * (-1.0) ** geometry.l
        return KernelValue(val, IMAGE_SUM, terms, 0.5 * bound)

    length = geometry.length
    diag = _twisted_image_sum(geometry, t, 0.0, 0.0, control)
    return KernelValue(
        length * diag.value, IMAGE_SUM, diag.terms_used, length * diag.truncation_bound
    )


def _trace_mode_sum(geometry: Geometry, t: float, control: SeriesControl) -> KernelValue:
    from .spectrum import _mode_arrays

    if isinstance(geometry, Interval):
        step = math.pi / geometry.length
    else:
        step = TWO_PI / geometry.length
    omega_cut = min(-math.log(_TERM_FLOOR) / t, (control.max_terms + 1.5) * step)
    om, mult = _mode_arrays(geometry, omega_cut)
    val = float(np.sum(mult * np.exp(-t * om)))
    tail = 2.0 * math.exp(-t * omega_cut) / (-math.expm1(-t * step))
    if isinstance(geometry, Interval):
        rounding = _mode_rounding(t, float(om[0]) if om.size else 0.0, step, t)
    else:
        # right movers start at theta/L, left movers at (2 pi - theta)/L
        theta, length = geometry.theta, geometry.length
        rounding = _mode_rounding(t, theta / length, step, t) + _mode_rounding(
            t, (TWO_PI - theta) / length, step, t
        )
    return KernelValue(val, MODE_SUM, int(om.size), tail + rounding)


def heat_kernel_diag(geometry: Geometry, t: float, x: float) -> float:
    """Heat kernel diagonal K(t; x, x) by the (superexponential) image sum.

    * interval:  ``(4 pi t)^{-1/2} [ sum_n s_n e^{-(nL)^2/t}
      + sum_n s'_n e^{-(x+nL)^2/t} ]``
    * half-line: ``(4 pi t)^{-1/2} (1 + (-1)^l e^{-x^2/t})``
    * twisted:   ``(4 pi t)^{-1/2} sum_n cos(n theta) e^{-(nL)^2/4t}``

    Images beyond ``e^{-700}`` are dropped; the result is exact to
    rounding for every t of practical interest.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise InvalidParameter("t must be positive and finite")
    _check_closed_point(geometry, x)
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    if isinstance(geometry, HalfLine):
        return pref * (1.0 + (-1.0) ** geometry.l * math.exp(-x * x / t))
    length = geometry.length
    if isinstance(geometry, Interval):
        l, r = geometry.l, geometry.r
        # Periodic images: displacement 2nL -> e^{-(nL)^2/t}.
        nmax = int(math.ceil(math.sqrt(700.0 * t) / length)) + 1
        n = np.arange(1, nmax + 1, dtype=float)
        sg = (
            np.ones_like(n)
            if (l + r) % 2 == 0
            else np.where(np.arange(1, nmax + 1) % 2 == 0, 1.0, -1.0)
        )
        per = 1.0 + 2.0 * float(np.sum(sg * np.exp(-((n * length) ** 2) / t)))
        # Boundary images: displacement 2(x + nL) -> e^{-(x+nL)^2/t}.
        nb = np.arange(-nmax - 1, nmax + 1, dtype=float)
        db = x + nb * length
        keep = db * db / t < 700.0
        nb, db = nb[keep], db[keep]
        sgb = (
            np.full(nb.shape, (-1.0) ** l)
            if (l + r) % 2 == 0
            else (-1.0) ** l * np.where(nb.astype(int) % 2 == 0, 1.0, -1.0)
        )
        bdry = float(np.sum(sgb * np.exp(-db * db / t)))
        return pref * (per + bdry)
    theta = geometry.theta
    nmax = int(math.ceil(math.sqrt(4.0 * 700.0 * t) / length)) + 1
    n = np.arange(1, nmax + 1, dtype=float)
    series = 1.0 + 2.0 * float(
        np.sum(np.cos(n * theta) * np.exp(-((n * length) ** 2) / (4.0 * t)))
    )
    return pref * series


def heat_trace(geometry: Geometry, t: float, control: SeriesControl = SeriesControl()) -> float:
    """Tr K(t) = sum_j e^{-t omega_j^2} (mode sum; converges like a theta
    function).  Half-line raises :class:`ContinuousSpectrum`.

    Small-t behaviour: ``L (4 pi t)^{-1/2} + b_1 + O(e^{-L^2/t})`` with
    ``b_1 = -1/2, 0, +1/2`` for Dirichlet-Dirichlet, mixed, and
    Neumann-Neumann ends, and ``b_1 = 0`` on the circle.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise InvalidParameter("t must be positive and finite")
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
    the twisted circle (e^{-theta t/L} + e^{-(2 pi - theta) t/L})/(1 - e^{-2b})."""
    length = geometry.length
    b = math.pi * t / length
    if isinstance(geometry, TwistedCircle):
        theta = geometry.theta
        top = np.exp(-theta * t / length) + np.exp(-(TWO_PI - theta) * t / length)
        return top / -np.expm1(-2.0 * b)
    if geometry.like_ends:
        val = np.exp(-b) / -np.expm1(-b)
        return val + 1.0 if geometry.left is NEUMANN else val
    return np.exp(-0.5 * b) / -np.expm1(-b)


def _heat_trace(
    geometry: Interval | TwistedCircle, t: np.ndarray | float, control: SeriesControl
) -> np.ndarray:
    """Tr K(t) = sum_j e^{-t omega_j^2} at every t of an array (t > 0): one
    mode ladder, cut where the smallest t drops its terms below _TERM_FLOOR."""
    from .spectrum import _mode_arrays

    t = np.asarray(t, dtype=float)
    omega_cut = math.sqrt(-math.log(_TERM_FLOOR) / float(t.min())) + 1.0
    if isinstance(geometry, Interval):
        step = math.pi / geometry.length
    else:
        step = TWO_PI / geometry.length
    omega_cut = min(omega_cut, (control.max_terms + 1.5) * step)
    om, _ = _mode_arrays(geometry, omega_cut)
    return np.exp(-t[..., None] * om * om).sum(axis=-1)
