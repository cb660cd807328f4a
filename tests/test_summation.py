"""Summation primitives against independent closed forms and quadrature.

Oracles here never reuse the implementation's own route: damped
integrals are recomputed by adaptive quadrature, lattice sums by
mpmath's double-sided summation, Bernoulli closed forms by their
polynomial definitions, and tails by subtracting explicit partial sums
from exact totals.
"""

import cmath
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from vacuum1d import summation
from vacuum1d.errors import InvalidParameter
from vacuum1d.orbits import local_counting
from vacuum1d.spectrum import DIRICHLET, NEUMANN, Interval
from vacuum1d.summation import (
    EULER_MACLAURIN,
    EXP_SINH,
    OOURA_MORI,
    TANH_SINH,
    SUMMATION_BY_PARTS,
    SeriesControl,
    bernoulli_cos_sum,
    bernoulli_sin_sum,
    de_quadrature,
    lattice_sum,
    riesz_cesaro2_energy_integrand,
)

PI = math.pi
EPS = sys.float_info.epsilon


def bernoulli_b2(u: float) -> float:
    return u * u - u + 1.0 / 6.0


def bernoulli_b4(u: float) -> float:
    return u**4 - 2.0 * u**3 + u * u - 1.0 / 30.0


def cos_power_total(theta: float, power: int) -> float:
    """Exact sum_{n>=1} cos(n theta)/n^power from Bernoulli polynomials."""
    u = math.fmod(theta, 2.0 * PI) / (2.0 * PI)
    if u < 0.0:
        u += 1.0
    if power == 2:
        return PI**2 * bernoulli_b2(u)
    assert power == 4
    return -(PI**4) * bernoulli_b4(u) / 3.0


# ---------------------------------------------------------------------------
# riesz_cesaro2_energy_integrand
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,length,theta,omega_max",
    [(1, 1.0, 0.0, 40.0), (3, 0.7, 1.1, 25.0), (-2, 1.3, 2.5, 60.0)],
)
def test_riesz_cesaro2_matches_quadrature(n, length, theta, omega_max):
    val = riesz_cesaro2_energy_integrand(n, length, theta, omega_max)
    ref, err = quad(
        lambda w: (1.0 - w / omega_max) ** 2 * math.cos(w * n * length + n * theta) * w,
        0.0,
        omega_max,
        limit=200,
    )
    assert val == pytest.approx(ref, abs=max(1e-10, 10 * err))


def test_riesz_cesaro2_infinite_cutoff_is_the_regularized_value():
    # Only the -cos(b)/a^2 term survives Omega -> inf.
    assert riesz_cesaro2_energy_integrand(2, 1.5, 0.9, math.inf) == pytest.approx(
        -math.cos(1.8) / 9.0, rel=1e-15
    )


def test_riesz_cesaro2_converges_to_limit_as_cutoff_grows():
    # The finite-cutoff corrections decay like sin(Omega)/Omega.
    lim = riesz_cesaro2_energy_integrand(1, 1.0, 0.0, math.inf)
    devs = [
        abs(riesz_cesaro2_energy_integrand(1, 1.0, 0.0, om) - lim)
        for om in (1e2, 1e3, 1e4)
    ]
    assert devs[2] < devs[0]
    assert devs[2] < 3.0 / 1e4


@pytest.mark.parametrize("theta", [0.0, 0.7, PI / 2.0, 2.5, 4.0])
@pytest.mark.parametrize("n,omega_max", [(1, 1.3), (-2, 40.0), (3, 1.3)])
def test_riesz_cesaro2_from_tiny_to_large_a_omega(n, omega_max, theta):
    # a Omega from 1e-9 to 10 across the switch to the Taylor series; the
    # closed form alone cancels to -8.0 at a Omega = 1e-4 and 0.0 at 1e-5.
    for k in range(-36, 5):
        z = 10.0 ** (k / 4.0)
        length = z / (abs(n) * omega_max)
        with mpmath.workdps(30):
            a, b = mpmath.mpf(n * length), mpmath.mpf(n * theta)
            ref = omega_max**2 * mpmath.quad(
                lambda u: (1 - u) ** 2 * u * mpmath.cos(a * omega_max * u + b), [0, 0.5, 1]
            )
        envelope = omega_max**2 * min(1.0 / 12.0, z**-2)
        got = riesz_cesaro2_energy_integrand(n, length, theta, omega_max)
        assert abs(got - float(ref)) <= 8.0 * EPS * envelope, z


def test_riesz_cesaro2_at_extreme_lengths():
    # a = 1e-200: Omega^2/12 in the series, not 0/0; a = 1e200: -cos(b)/a^2
    # underflows to 0 instead of leaking OverflowError from a**2.
    got = riesz_cesaro2_energy_integrand(1, 1e-200, 0.0, 1.0)
    assert got == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert riesz_cesaro2_energy_integrand(1, 1e200) == 0.0
    assert riesz_cesaro2_energy_integrand(1, 1e200, 0.0, 1.0) == 0.0
    assert riesz_cesaro2_energy_integrand(1, 1e-100) == pytest.approx(-1e200, rel=1e-15)
    with pytest.raises(InvalidParameter, match="float range"):
        riesz_cesaro2_energy_integrand(1, 1e-200)  # -1e400
    with pytest.raises(InvalidParameter, match="float range"):
        riesz_cesaro2_energy_integrand(10**300, 1.0, 1e10)  # the phase n theta


def test_riesz_cesaro2_rejects_zero_winding():
    with pytest.raises(InvalidParameter):
        riesz_cesaro2_energy_integrand(0, 1.0)


# ---------------------------------------------------------------------------
# Bernoulli closed forms
# ---------------------------------------------------------------------------


def test_bernoulli_sin_sum_is_the_sawtooth():
    assert bernoulli_sin_sum(1.0) == pytest.approx((PI - 1.0) / 2.0, rel=1e-15)
    # Abel value 0 exactly at the jump, any period.
    assert bernoulli_sin_sum(0.0) == 0.0
    assert bernoulli_sin_sum(4.0 * PI) == 0.0
    # Odd about the jump and 2 pi periodic.
    z = 2.2
    assert bernoulli_sin_sum(2.0 * PI - z) == pytest.approx(-bernoulli_sin_sum(z))
    assert bernoulli_sin_sum(z + 6.0 * PI) == pytest.approx(bernoulli_sin_sum(z))


def test_bernoulli_sin_sum_matches_cesaro_partial_sums():
    # Fejer (C,1) means of the raw series converge everywhere on the circle.
    z = 0.8
    n = np.arange(1, 20001, dtype=float)
    terms = np.sin(n * z) / n
    partial = np.cumsum(terms)
    fejer = partial.mean()
    assert bernoulli_sin_sum(z) == pytest.approx(fejer, abs=1e-4)


@pytest.mark.parametrize("theta", [0.0, 0.5, PI, 4.0, 2.0 * PI - 1e-3])
def test_bernoulli_cos_sum_is_pi2_b2(theta):
    u = theta / (2.0 * PI)
    assert bernoulli_cos_sum(theta) == pytest.approx(PI**2 * bernoulli_b2(u), rel=1e-14)


def test_bernoulli_cos_sum_special_values():
    assert bernoulli_cos_sum(0.0) == pytest.approx(PI**2 / 6.0, rel=1e-15)
    assert bernoulli_cos_sum(PI) == pytest.approx(-(PI**2) / 12.0, rel=1e-15)


def test_bernoulli_cos_sum_matches_brute_force():
    theta = 1.3
    n = np.arange(1, 200001, dtype=float)
    brute = float(np.sum(np.cos(n * theta) / n**2))
    # Raw tail is O(1/N): bound via the integral envelope.
    assert bernoulli_cos_sum(theta) == pytest.approx(brute, abs=1e-4)


# ---------------------------------------------------------------------------
# Tail-completed lattice sums
# ---------------------------------------------------------------------------


def lattice_reference(step, d, t, theta, k):
    """sum_m e^{i m theta} (step m + d - i t)^-k at 30 digits from the
    partial fractions sum_m e^{i m theta}/(m + b) = pi e^{i (pi - theta) b}
    / sin(pi b) (0 < theta < 2 pi; pi cot(pi b) at theta = 0, summed
    symmetrically), differentiated k - 1 times in b."""
    with mpmath.workdps(30):
        b = (mpmath.mpf(d) - 1j * mpmath.mpf(t)) / step
        th = mpmath.mpf(theta) % (2 * mpmath.pi)
        if th == 0:
            f = lambda v: mpmath.pi * mpmath.cot(mpmath.pi * v)  # noqa: E731
        else:
            f = lambda v: (  # noqa: E731
                mpmath.pi * mpmath.exp(1j * (mpmath.pi - th) * v) / mpmath.sin(mpmath.pi * v)
            )
        total = (-1) ** (k - 1) / mpmath.factorial(k - 1) * mpmath.diff(f, b, k - 1)
        return complex(total / mpmath.mpf(step) ** k)


@pytest.mark.parametrize("theta", [0.0, 1e-3, 0.09, 0.11, 2.73496, PI])
@pytest.mark.parametrize("k", [1, 2])
def test_lattice_sum_meets_its_bound_against_mpmath(k, theta):
    # the last two steps are far from 1: the sum runs on the unit lattice,
    # and a value past the float range (1e400 at step 1e-200, k = 2) raises
    for step, d, t in [
        (1.0, 0.0, 0.01), (1.0, 0.37, 1.0), (2.0, 0.3, 0.5), (2.0, -1.7, 1e-4),
        (0.7, 2.6, 3.0), (2.0, 1.1, -0.2), (1.0, 0.25, 40.0),
        (1e200, 3.7e199, 1e200), (1e-200, -1.7e-200, 3e-201),
    ]:
        want = lattice_reference(step, d, t, theta, k)
        if not cmath.isfinite(want):
            with pytest.raises(InvalidParameter):
                lattice_sum(step, d, t, theta, k)
            continue
        got = lattice_sum(step, d, t, theta, k)
        assert abs(got.value - want) <= got.truncation_bound, (step, d, t)
        assert got.truncation_bound <= 1e-12 * max(1.0, abs(want)) + 1e-11
        assert got.method_tag == (EULER_MACLAURIN if theta < 0.1 else SUMMATION_BY_PARTS)
        assert got.terms_used <= 1001


@pytest.mark.parametrize("theta", [0.0, 0.4, 1.7, PI])
@pytest.mark.parametrize("power", [2, 4])
def test_cosine_power_tail_matches_exact_remainder(theta, power):
    # sum_{m != 0} e^{i m theta} / m^p = 2 sum_{n >= 1} cos(n theta)/n^p;
    # the completed tails carry it to the Bernoulli total.
    got = lattice_sum(1.0, 0.0, 0.0, theta, power, skip_zero=True)
    assert got.terms_used < 1000
    assert abs(got.value - 2.0 * cos_power_total(theta, power)) <= got.truncation_bound
    assert got.truncation_bound <= 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.0, 3.0416, PI])
@pytest.mark.parametrize("c,a", [(0.05, 4001), (0.3, 4001), (1.0, 10001)])
def test_lorentzian_cosine_tail_error_bound_is_honest(theta, c, a):
    # Exact total from the Mittag-Leffler expansion of cosh((pi-theta)c):
    # sum_{n in Z} cos(n theta)/(n^2+c^2) = (pi/c) cosh((pi-theta)c)/sinh(pi c),
    # summed as [(n - ic)^-1 - (n + ic)^-1] / (2ic) with windings capped at a.
    with mpmath.workdps(40):
        cc = mpmath.mpf(c)
        total = float(
            (mpmath.pi / cc) * mpmath.cosh((mpmath.pi - theta) * cc) / mpmath.sinh(mpmath.pi * cc)
        )
    control = SeriesControl(max_terms=a)
    plus = lattice_sum(1.0, 0.0, c, theta, 1, control)
    minus = lattice_sum(1.0, 0.0, -c, theta, 1, control)
    value = (plus.value - minus.value) / (2j * c)
    bound = (plus.truncation_bound + minus.truncation_bound) / (2.0 * c)
    assert abs(value - total) <= bound
    assert plus.terms_used < a


def test_lattice_sum_at_a_tiny_cap_reports_a_larger_honest_bound():
    want = lattice_reference(2.0, 0.3, 0.5, PI, 1)
    full = lattice_sum(2.0, 0.3, 0.5, PI)
    capped = lattice_sum(2.0, 0.3, 0.5, PI, control=SeriesControl(max_terms=8))
    assert capped.terms_used == 17 < full.terms_used
    assert capped.truncation_bound > 1e3 * full.truncation_bound
    assert abs(capped.value - want) <= capped.truncation_bound


def test_lattice_sum_near_the_pole_stops_on_rounding_not_the_cap():
    # At t = 1e-6 the m = 0 term is 1e6 and the rounding of the direct sum
    # alone exceeds tol; W must not be doubled to chase it.
    got = lattice_sum(2.0, 0.0, 1e-6, 0.0)
    want = lattice_reference(2.0, 0.0, 1e-6, 0.0, 1)
    assert got.terms_used < 200
    assert abs(got.value - want) <= got.truncation_bound
    assert got.truncation_bound < 1e-8


def test_lattice_sum_tol_sets_the_windings():
    loose = lattice_sum(1.0, 0.3, 0.5, 2.0, control=SeriesControl(tol=1e-4))
    tight = lattice_sum(1.0, 0.3, 0.5, 2.0)
    assert loose.terms_used < tight.terms_used
    assert loose.truncation_bound <= 1e-4
    assert abs(loose.value - tight.value) <= loose.truncation_bound + tight.truncation_bound


def test_lattice_sum_reduces_far_displacements():
    # d = 40.3 steps away: the lattice is shifted and the phase restored.
    got = lattice_sum(1.0, 40.3, 0.2, 2.0)
    assert abs(got.value - lattice_reference(1.0, 40.3, 0.2, 2.0, 1)) <= got.truncation_bound


# Float lattice sums as the code of commit 23b75cc returned them, bit for
# bit: (value.real, value.imag, truncation_bound) as float.hex, terms_used
# and method_tag.  One case per branch of the algorithm.  The bits are
# those of x86-64 Linux (glibc, numpy 2.4 with OpenBLAS): the generic-theta
# bounds go through a BLAS dot product, so another BLAS or libm may move a
# last bit; re-record the pins from that commit on such a platform.
LATTICE_PINS = [
    # theta = 0, Poisson tails
    ((2.0, 0.3, 0.05, 0.0, 1), {}, False,
     ("0x1.7f1dd478eef7bp+1", "0x1.2ac53a8f5f5b3p-1", "0x1.690d01e1ead7cp-41", 33, EULER_MACLAURIN)),
    ((1.0, 0.0, 0.05, 0.0, 1), {}, False,
     ("0x0.0p+0", "0x1.42a0a8c769573p+4", "0x1.0202787b63129p-40", 35, EULER_MACLAURIN)),
    # theta = pi, summation by parts with real weights
    ((2.0, 0.3, 0.05, PI, 1), {}, False,
     ("0x1.af4eff1582c4ap+1", "0x1.09633044c6fb8p-1", "0x1.bad9f07999c3ep-42", 267,
      SUMMATION_BY_PARTS)),
    # a generic theta
    ((1.0, 0.3, 0.05, 2.1524667796969545, 1), {}, False,
     ("0x1.d63ab680abb72p+1", "0x1.98244f8907901p+0", "0x1.0997925f8c27cp-40", 301,
      SUMMATION_BY_PARTS)),
    # 0 < theta < 0.1: Poisson tails with the sigma_p(theta) weights
    ((1.0, 0.3, 0.05, 0.05, 1), {}, False,
     ("0x1.20287a5c386d2p+1", "0x1.eb20ccc24b943p+1", "0x1.f374ed2d18e91p-41", 35, EULER_MACLAURIN)),
    # k = 2 without the m = 0 term, as the twisted energy orbit sum calls it
    ((1.0, 0.0, 0.3, 1.3, 2), {}, True,
     ("-0x1.0cfeb785b360ep+0", "-0x1.4000000000000p-55", "0x1.5864b1920b040p-42", 298,
      SUMMATION_BY_PARTS)),
    # a step that is not a power of two: c = (d - i t)/step carries an error
    ((3.0, 0.7, 0.2, 2.5, 1), {}, False,
     ("0x1.7313052ab29edp+0", "0x1.243159351d161p-1", "0x1.d9020394e3194p-42", 263,
      SUMMATION_BY_PARTS)),
    # the folds cannot reach tol = 1e-300 at W = 150, so W doubles to 300
    ((1.0, 0.5, 1e9, PI, 8), {"tol": 1e-300}, False,
     ("0x1.6300000000000p-284", "-0x1.2200000000000p-304", "0x1.2de961a8f6c44p-110", 601,
      SUMMATION_BY_PARTS)),
    # W capped at max_terms = 5
    ((1.0, 0.3, 0.1, 2.0, 1), {"max_terms": 5}, False,
     ("0x1.b715a2ae98642p+1", "0x1.1349ab6d746c1p+1", "0x1.aab621f5f5ba7p-13", 11,
      SUMMATION_BY_PARTS)),
]


@pytest.mark.parametrize("args,settings,skip_zero,pinned", LATTICE_PINS)
def test_lattice_sum_returns_the_pinned_bits(args, settings, skip_zero, pinned):
    got = lattice_sum(*args, control=SeriesControl(**settings), skip_zero=skip_zero)
    value, bound = got.value, got.truncation_bound
    # hex strings also tell a signed zero from its opposite
    assert (value.real.hex(), value.imag.hex(), bound.hex(), got.terms_used, got.method_tag) == pinned


def test_lattice_sum_rejects_a_power_past_its_ceiling_before_any_work():
    lattice_sum(1.0, 0.3, 0.5, 2.0, 2)  # imports and caches warm
    assert math.isfinite(abs(lattice_sum(1.0, 0.3, 0.5, 2.0, summation.MAX_POWER).value))
    tracemalloc.start()
    try:
        for k in (summation.MAX_POWER + 1, 100_000, 10**9, math.inf):
            with pytest.raises(InvalidParameter):
                lattice_sum(1.0, 0.3, 0.5, 2.0, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_lattice_tables_are_read_only_and_bounded():
    # the (theta, W) tables are shared by every direct sum at that key
    summation._winding_table.cache_clear()
    assert lattice_sum(1.0, 0.3, 0.05, 2.0).terms_used == 2 * 150 + 1
    assert summation._winding_table.cache_info().currsize == 1
    for table in summation._winding_table(2.0, 150):  # the one that call built
        with pytest.raises(ValueError):
            table[0] = 0.0
    # a sweep of distinct angles, and one table at the max_terms cap
    for theta in np.linspace(0.01, 2.0 * PI - 0.01, 300):
        lattice_sum(1.0, 0.3, 0.05, float(theta))
        assert summation._winding_table.cache_info().currsize <= summation._TABLES
    # skip_zero at d = max_terms steps sets W to the cap of 10 000 windings
    capped = lattice_sum(1.0, 10_000.0, 0.5, 2.0, skip_zero=True)
    assert capped.terms_used == 2 * SeriesControl().max_terms
    assert summation._winding_table.cache_info().currsize <= summation._TABLES
    # the window sums of local_counting share the same caches: a sweep of
    # new phases, by parts and by Poisson summation (2 omega L near 2 pi),
    # keeps each within its size, and a repeated call finds its table
    caches = [summation._winding_table, summation._first_winding, summation._fold_ratio,
              summation._poisson_weights, summation._poisson_scale]
    for k in range(300):
        local_counting(Interval(1.0), 3.3 + k * 1e-3, 0.4)
        local_counting(Interval(1.0, DIRICHLET, NEUMANN), PI + 0.01 + k * 1e-4, 0.4)
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, cache
    local_counting(Interval(1.0), 3.3, 0.4)
    before = summation._winding_table.cache_info()
    local_counting(Interval(1.0), 3.3, 0.4)
    after = summation._winding_table.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_lattice_sum_rejects_bad_input():
    with pytest.raises(InvalidParameter):
        lattice_sum(0.0, 0.1, 0.1)
    with pytest.raises(InvalidParameter):
        lattice_sum(1.0, math.nan, 0.1)
    with pytest.raises(InvalidParameter):
        lattice_sum(1.0, 0.1, 0.1, k=0)
    with pytest.raises(InvalidParameter):
        lattice_sum(1.0, 2.0, 0.0)  # the m = -2 term is 1/0
    with pytest.raises(InvalidParameter):
        lattice_sum(1.0, 2.0, 0.0, skip_zero=True)


def test_series_control_defaults():
    control = SeriesControl()
    assert control.max_terms == 10_000
    assert control.tol == 1e-12
    assert control.damping_t == 0.0


# ---------------------------------------------------------------------------
# Double-exponential quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, a, b, cosine, exact, kind",
    [
        (lambda x: np.exp(-x * x), -3.0, 2.0, False,
         float(mpmath.sqrt(mpmath.pi) / 2 * (mpmath.erf(2) + mpmath.erf(3))), TANH_SINH),
        (lambda x: np.sqrt(x * (1.0 - x)), 0.0, 1.0, False, PI / 8.0, TANH_SINH),
        (np.sin, 0.0, PI, False, 2.0, TANH_SINH),
        (lambda x: 1.0 / x, 1.0, 1.001, False, math.log1p(1.001 - 1.0), TANH_SINH),
        (lambda x: np.exp(-x), 0.0, math.inf, False, 1.0, EXP_SINH),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, False, PI / 2.0, EXP_SINH),
        (lambda x: np.exp(-x * x), 2.0, math.inf, False,
         float(mpmath.sqrt(mpmath.pi) / 2 * mpmath.erfc(2)), EXP_SINH),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, True, PI / (2.0 * math.e), OOURA_MORI),
        (lambda x: x * np.exp(-x), 0.0, math.inf, True, 0.0, OOURA_MORI),
    ]
    + [
        (lambda v, b=b: np.exp(-v / b) / b, 0.0, math.inf, True, 1.0 / (1.0 + b * b), OOURA_MORI)
        for b in (0.25, 1.0, 30.0, 1e6)
    ],
)
def test_de_quadrature_meets_its_bound(f, a, b, cosine, exact, kind):
    got = de_quadrature(f, a, b, cosine=cosine)
    assert got.method_tag == kind
    assert abs(got.value - exact) <= got.truncation_bound
    assert got.truncation_bound <= 4e-14  # converged, not capped


def test_de_quadrature_sums_integrands_sharing_one_node_set():
    pair = de_quadrature(lambda u: np.stack([np.exp(-u), -np.exp(-2.0 * u)]))
    assert pair.value == pytest.approx(0.5, abs=pair.truncation_bound)
    alone = de_quadrature(lambda u: np.exp(-u))
    assert pair.terms_used == alone.terms_used


def test_de_quadrature_reports_an_unresolved_integral_in_its_bound():
    # Exp-sinh cannot follow thirty oscillations over the decay length of
    # e^{-u}; it gives up after its last halving with the level difference.
    got = de_quadrature(lambda u: np.exp(-u) * np.cos(30.0 * u))
    assert abs(got.value - 1.0 / 901.0) <= got.truncation_bound
    assert got.truncation_bound > 1e-12


def test_de_quadrature_rejects_bad_input():
    with pytest.raises(InvalidParameter):
        de_quadrature(np.exp, math.inf)
    with pytest.raises(InvalidParameter):
        de_quadrature(np.exp, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        de_quadrature(np.exp, 1.0, math.inf, cosine=True)
    with pytest.raises(InvalidParameter):
        de_quadrature(np.exp, 0.0, 1.0, cosine=True)
