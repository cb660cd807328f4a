"""Energy densities against 40-digit closed forms, and their scale safety.

The references evaluate the closed forms of the ``vacuum1d.energy`` module
docstring (and of ``_interval_density``) in mpmath, with no switch points,
rescaling or float intermediates.  The float code writes each part once:
the interval wall profile in the lengths G = L (1 - e^{-2z}) and
S = 2 e^{-z} L sin p, normalised by max(G, S), and the periodic part as a
product up to z = 2 and in q = e^{-2z} above it.  So the points check
both sides of z = 2, the range where e^{-2z} itself underflows, angles
that underflow, and lengths from 1e-300 to 1e300.  They start from the
same rounded angles the library uses,
z = fl(pi t / 2L) and p = fl(pi x / L) (fl(pi fl(x / L)) once pi x
overflows): an exponentially small wall term
e^{-2z} would otherwise inherit the 2z-fold amplification of the rounding
of z, and cos p at x = L/2 the rounding of pi/2.

Each part is held to a multiple of eps times its own scale: the size of
the terms it is made of (for the wall profiles, the numerator with every
cosine set to one), which is the value itself wherever nothing cancels.
"""

from __future__ import annotations

import math

import mpmath
import pytest

from vacuum1d import (
    DIRICHLET,
    NEUMANN,
    HalfLine,
    Interval,
    InvalidParameter,
    TwistedCircle,
    energy_density_regularized,
    energy_density_renormalized,
    total_energy_regularized,
)

PI = math.pi
EPS = 2.0**-52
# absolute slack for parts below the normal range, where no float is
# relative to its value: a part of 1e-320 may come out 0
TINY = 1e-315
FLOAT_MAX = mpmath.mpf(1.7976931348623157e308)

GEOMETRIES = {
    "D/D": lambda length: Interval(length, DIRICHLET, DIRICHLET),
    "N/N": lambda length: Interval(length, NEUMANN, NEUMANN),
    "D/N": lambda length: Interval(length, DIRICHLET, NEUMANN),
    "N/D": lambda length: Interval(length, NEUMANN, DIRICHLET),
    "twisted 0": lambda length: TwistedCircle(length, 0.0),
    "twisted 2": lambda length: TwistedCircle(length, 2.0),
    "half-line D": lambda length: HalfLine(DIRICHLET),
    "half-line N": lambda length: HalfLine(NEUMANN),
}
BOUNDED = [name for name in GEOMETRIES if not name.startswith("half")]


def _rel(name: str) -> float:
    """Tolerance in eps of the part's scale.  The twisted E(t) combines
    cosh and sinh of the rounded products a t and b t, which costs up to
    about 25 eps at t = L."""
    return (64 if name.startswith("twisted") else 16) * EPS


def _sign(geom) -> int:
    """(-1)^l for the condition at x = 0."""
    cond = geom.condition if isinstance(geom, HalfLine) else geom.left
    return -1 if cond is DIRICHLET else 1


def _digits(*small: mpmath.mpf) -> int:
    """Working digits: 40, plus what subtracting a 1/z^2-sized Weyl part
    from a 1/sinh^2-sized one cancels when z is small."""
    return 40 + max([0] + [int(-2 * mpmath.log10(s)) for s in small if 0 < s < 1])


def _angle(value: float, exact: mpmath.mpf) -> mpmath.mpf:
    """The library's rounded angle, or the exact one where it is subnormal."""
    return mpmath.mpf(value) if abs(value) > 1e-300 else exact


def _phase(x: float, length: float) -> float:
    """The library's rounded p: pi x / L, or pi (x / L) once pi x overflows."""
    return PI * x / length if PI * x < math.inf else PI * (x / length)


def mp_regularized(geom, t: float, x: float, xi: float) -> tuple[tuple, tuple]:
    """(weyl, periodic, boundary, total) of the regularized density and
    the scale of each part."""
    tm, xm, xim = mpmath.mpf(t), mpmath.mpf(x), mpmath.mpf(xi)
    with mpmath.workdps(40):
        weyl = 1 / (2 * mpmath.pi * tm * tm)
    if isinstance(geom, HalfLine):
        with mpmath.workdps(40):
            r2 = tm * tm + 4 * xm * xm
            b = _sign(geom) * (tm * tm - 4 * xm * xm) / (2 * mpmath.pi * r2**2)
            scale = abs(4 * xim) / (2 * mpmath.pi * r2)
            return (weyl, 0, 4 * xim * b, 4 * xim * b), (weyl, 0, scale, scale)
    length = mpmath.mpf(geom.length)
    if isinstance(geom, TwistedCircle):
        a = (mpmath.pi - mpmath.mpf(geom.theta)) / length
        bb = mpmath.pi / length
        with mpmath.workdps(_digits(bb * tm)):
            num = bb * mpmath.cosh(a * tm) * mpmath.cosh(bb * tm) - a * mpmath.sinh(
                a * tm
            ) * mpmath.sinh(bb * tm)
            sh2 = 2 * mpmath.sinh(bb * tm) ** 2
            weyl_total = 1 / (2 * bb * tm * tm)
            per = (num / sh2 - weyl_total) / length
            # Above its series switch the float E(t) subtracts the Weyl part
            # and, inside num, a sinh product from a cosh product; near
            # theta = 0 both products are ~e^{2bt}/4 and their difference ~1.
            terms = bb * mpmath.cosh(a * tm) * mpmath.cosh(bb * tm) / sh2 + weyl_total
            per_scale = terms / length if bb * tm > 0.6 else abs(per)
            return (weyl, per, 0, per), (weyl, per_scale, 0, per_scale)
    z = _angle(PI * t / (2.0 * geom.length), mpmath.pi * tm / (2 * length))
    p = _angle(_phase(x, geom.length), mpmath.pi * xm / length)
    with mpmath.workdps(_digits(z)):
        sh2, sp2 = mpmath.sinh(z) ** 2, mpmath.sin(p) ** 2
        c = mpmath.pi / (8 * length**2)
        like = geom.left is geom.right
        if like:
            per = c * (1 / sh2 - 1 / z**2)
            per_scale = abs(per)
            b = _sign(geom) * c * (mpmath.cos(2 * p) * sh2 - sp2) / (sh2 + sp2) ** 2
            b_scale = c / (sh2 + sp2)
        else:
            per = c * (mpmath.cosh(z) / sh2 - 1 / z**2)
            # _g_odd sums csch^2 z - 1/z^2 and sech^2(z/2)/2, and crosses zero
            # near z = 2.67
            per_scale = c * (abs(1 / sh2 - 1 / z**2) + 1 / (2 * mpmath.cosh(z / 2) ** 2))
            b = (
                _sign(geom) * c * mpmath.cos(p) * mpmath.cosh(z) * (sh2 - sp2)
                / (sh2 + sp2) ** 2
            )
            b_scale = c * mpmath.cosh(z) / (sh2 + sp2)
        bdry, bdry_scale = 4 * xim * b, abs(4 * xim) * b_scale
        return (weyl, per, bdry, per + bdry), (weyl, per_scale, bdry_scale, per_scale + bdry_scale)


def mp_renormalized(geom, x: float, xi: float) -> tuple[tuple, tuple]:
    """(weyl, periodic, boundary, total) of the renormalized density and
    the scale of each part."""
    with mpmath.workdps(40):
        xm, xim = mpmath.mpf(x), mpmath.mpf(xi)
        if isinstance(geom, HalfLine):
            b = 4 * xim * -_sign(geom) / (8 * mpmath.pi * xm * xm)
            return (0, 0, b, b), (0, 0, abs(b), abs(b))
        length = mpmath.mpf(geom.length)
        if isinstance(geom, TwistedCircle):
            u = mpmath.mpf(geom.theta) / (2 * mpmath.pi)
            per = -mpmath.pi * (u * u - u + mpmath.mpf(1) / 6) / length**2
            return (0, per, 0, per), (0, abs(per), 0, abs(per))
        p = _angle(_phase(x, geom.length), mpmath.pi * xm / length)
        c = -_sign(geom) * mpmath.pi / (8 * length**2)
        if geom.left is geom.right:
            per, b = -mpmath.pi / (24 * length**2), c / mpmath.sin(p) ** 2
        else:
            per, b = mpmath.pi / (48 * length**2), c * mpmath.cos(p) / mpmath.sin(p) ** 2
        b_scale = abs(4 * xim * c) / mpmath.sin(p) ** 2
        return (0, per, 4 * xim * b, per + 4 * xim * b), (0, abs(per), b_scale, abs(per) + b_scale)


def _parts(br) -> tuple:
    return br.weyl, br.periodic, br.boundary, br.total_renormalized


def assert_parts_close(got, reference: tuple[tuple, tuple], rel: float, what: str) -> None:
    want, scale = reference
    for name, g, w, s in zip(("weyl", "periodic", "boundary", "total"), got, want, scale):
        assert abs(g - float(w)) <= rel * float(s) + TINY, f"{what} {name}: {g!r} vs {float(w)!r}"


def check_or_overflow(call, reference: tuple[tuple, tuple], rel: float, what: str) -> None:
    """The density within rel of the reference, or InvalidParameter where
    a part of the reference overflows."""
    if any(abs(w) > FLOAT_MAX for w in reference[0]):
        with pytest.raises(InvalidParameter):
            call()
    else:
        assert_parts_close(_parts(call()), reference, rel, what)


XIS = (0.0, 0.25, 0.7)


@pytest.mark.parametrize("name", BOUNDED)
@pytest.mark.parametrize(
    "t_over_l",
    # z = pi t / 2L: small; both sides of z = 2 (t/L = 1.273), where the
    # periodic part leaves its product form for the q = e^{-2z} form; near
    # z = 170 (t/L = 108.23), where the wall profile is e^{-340} of the
    # bulk; and z = 471, where e^{-2z} underflows and only the products of
    # e^{-z/2} carry the wall profile
    [0.0318, 0.3, 1.27, 1.28, 108.0, 108.5, 300.0],
)
@pytest.mark.parametrize("x_frac", [0.013, 0.31, 0.5, 0.77])
def test_regularized_density_matches_mpmath(name, t_over_l, x_frac):
    for length in (1.0, 2.3):
        geom = GEOMETRIES[name](length)
        t, x = t_over_l * length, x_frac * length
        for xi in XIS:
            got = _parts(energy_density_regularized(geom, t, x, xi))
            want = mp_regularized(geom, t, x, xi)
            assert_parts_close(got, want, _rel(name), f"{name} L={length} xi={xi}")


@pytest.mark.parametrize("cond", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("t", [1e-3, 0.2, 3.0])
@pytest.mark.parametrize("x", [1e-4, 0.07, 0.5, 40.0])
def test_halfline_regularized_density_matches_mpmath(cond, t, x):
    geom = HalfLine(cond)
    for xi in XIS:
        got = _parts(energy_density_regularized(geom, t, x, xi))
        assert_parts_close(got, mp_regularized(geom, t, x, xi), 8 * EPS, f"t={t} x={x} xi={xi}")


@pytest.mark.parametrize("cond", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("t,x", [(1.7e308, 0.5), (1.0, 1e308), (1e300, 1.7e308), (1.7e308, 1e308)])
def test_halfline_regularized_density_past_the_float_range_of_t_and_2x(cond, t, x):
    # the wall part was once scaled by the power of two above max(t, 2x):
    # math.ldexp overflowed from t = 9e307, and 2x from x = 9e307 to a nan
    geom = HalfLine(cond)
    for xi in XIS:
        got = _parts(energy_density_regularized(geom, t, x, xi))
        assert_parts_close(got, mp_regularized(geom, t, x, xi), 8 * EPS, f"t={t} x={x} xi={xi}")


@pytest.mark.parametrize("name", list(GEOMETRIES))
@pytest.mark.parametrize("x_frac", [0.013, 0.31, 0.5, 0.77])
def test_renormalized_density_matches_mpmath(name, x_frac):
    for length in (1.0, 2.3):
        geom = GEOMETRIES[name](length)
        x = x_frac * length
        for xi in XIS:
            got = _parts(energy_density_renormalized(geom, x, xi))
            want = mp_renormalized(geom, x, xi)
            assert_parts_close(got, want, 8 * EPS, f"{name} L={length} xi={xi}")


@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_densities_and_energies_are_scale_safe(name):
    """t = L and x = 0.3 L for L = 1e-300 ... 1e300: every part is the
    closed form to rounding, and a part that overflows raises
    InvalidParameter, never OverflowError or ZeroDivisionError.  E(t)
    stays finite: it scales like 1/L."""
    for k in range(-300, 301, 3):
        length = 10.0**k
        geom = GEOMETRIES[name](length)
        t, x = length, 0.3 * length
        check_or_overflow(
            lambda: energy_density_regularized(geom, t, x),
            mp_regularized(geom, t, x, 0.25), _rel(name), f"{name} L=1e{k}",
        )
        check_or_overflow(
            lambda: energy_density_renormalized(geom, x),
            mp_renormalized(geom, x, 0.25), _rel(name), f"{name} L=1e{k}",
        )
        if isinstance(geom, HalfLine):
            continue
        br = total_energy_regularized(geom, t)
        assert br.weyl == pytest.approx(1.0 / (2.0 * PI * length), rel=4 * EPS, abs=0.0)
        unit = total_energy_regularized(GEOMETRIES[name](1.0), 1.0).periodic
        assert br.periodic * length == pytest.approx(unit, rel=2 * _rel(name))


@pytest.mark.parametrize("name", [n for n in GEOMETRIES if not n.startswith("twisted")])
@pytest.mark.parametrize("length", [1.0, 1e200])
@pytest.mark.parametrize(
    "t, x",
    # both angles tiny; x/L subnormal; t below the direct window; and a
    # Weyl part past the float range
    [(1e-80, 3e-80), (1e-3, 1e-300), (2e-151, 5e-151), (1e-160, 1e-160)],
)
def test_scaled_density_forms_near_the_walls(name, length, t, x):
    """Points whose direct form would underflow, x and t far below L.  At
    xi = 0 a wall profile past the float range carries no weight, and the
    density is its finite bulk part."""
    geom = GEOMETRIES[name](length)
    for xi in (0.0, 0.25):
        check_or_overflow(
            lambda: energy_density_regularized(geom, t, x, xi),
            mp_regularized(geom, t, x, xi), 16 * EPS, f"{name} t={t} x={x} xi={xi}",
        )
        check_or_overflow(
            lambda: energy_density_renormalized(geom, x, xi),
            mp_renormalized(geom, x, xi), 16 * EPS, f"{name} x={x} xi={xi}",
        )


@pytest.mark.parametrize("name", [n for n in BOUNDED if not n.startswith("twisted")])
@pytest.mark.parametrize("length", [1e308, 1.7e308])
@pytest.mark.parametrize("x_frac", [0.6, 0.95, 0.99])
def test_densities_past_the_overflow_of_pi_x(name, length, x_frac):
    """x above about 5.7e307, where pi x overflows to inf and math.sin(inf)
    once raised ValueError: the phase is pi (x/L) there, and each part is
    the closed form (here all of them underflow to zero)."""
    geom = GEOMETRIES[name](length)
    x = x_frac * length
    assert PI * x == math.inf
    for xi in XIS:
        check_or_overflow(
            lambda: energy_density_renormalized(geom, x, xi),
            mp_renormalized(geom, x, xi), 8 * EPS, f"{name} L={length} x={x} xi={xi}",
        )
    if x_frac > 0.9:  # nearer the middle, S = 2 L sin p itself overflows
        check_or_overflow(
            lambda: energy_density_regularized(geom, 1.0, x),
            mp_regularized(geom, 1.0, x, 0.25), _rel(name), f"{name} L={length} x={x} t=1",
        )
