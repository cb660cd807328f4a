"""Summation primitives against independent closed forms and quadrature.

Oracles here never reuse the implementation's own route: damped
integrals are recomputed by adaptive quadrature, lattice sums by
mpmath's double-sided summation, Bernoulli closed forms by their
polynomial definitions, and tails by subtracting explicit partial sums
from exact totals.
"""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from vacuum1d import summation
from vacuum1d.errors import InvalidParameter, NonConvergent
from vacuum1d.summation import (
    EULER_MACLAURIN,
    EXP_SINH,
    OOURA_MORI,
    RAW,
    TANH_SINH,
    SUMMATION_BY_PARTS,
    SeriesControl,
    abel_cos_integral,
    bernoulli_cos_sum,
    bernoulli_sin_sum,
    de_quadrature,
    lattice_sum,
    poisson_check,
    riesz_cesaro2_energy_integrand,
    telescoping_check,
)

PI = math.pi


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
# abel_cos_integral
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,t",
    [(2.0, 0.7, 0.3), (0.5, -1.2, 1.0), (10.0, 0.0, 0.05), (1.0, 3.0, 2.0)],
)
def test_abel_cos_integral_matches_quadrature(a, b, t):
    part_delta, part_osc = abel_cos_integral(a, b, t)
    # cos(a w - b) = cos b cos(a w) + sin b sin(a w): two Fourier quads.
    ref_cos, err_cos = quad(lambda w: math.exp(-w * t), 0.0, np.inf, weight="cos", wvar=a)
    ref_sin, err_sin = quad(lambda w: math.exp(-w * t), 0.0, np.inf, weight="sin", wvar=a)
    ref = math.cos(b) * ref_cos + math.sin(b) * ref_sin
    assert part_delta + part_osc == pytest.approx(
        ref, abs=max(1e-12, 10 * (err_cos + err_sin))
    )


def test_abel_cos_integral_zero_length_is_pure_delta_part():
    part_delta, part_osc = abel_cos_integral(0.0, 0.4, 0.25)
    assert part_delta == pytest.approx(math.cos(0.4) / 0.25, rel=1e-15)
    assert part_osc == 0.0


def test_abel_cos_integral_rejects_bad_arguments():
    with pytest.raises(InvalidParameter):
        abel_cos_integral(1.0, 0.0, 0.0)
    with pytest.raises(InvalidParameter):
        abel_cos_integral(-1.0, 0.0, 0.1)


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
# telescoping_check
# ---------------------------------------------------------------------------


def test_telescoping_check_recovers_exact_limit():
    # sum (1/n^2 - 1/(n+1)^2) telescopes to 1.
    pairs = [(1.0 / n**2, 1.0 / (n + 1) ** 2) for n in range(1, 2001)]
    out = telescoping_check(pairs, limit_hint=1.0)
    assert out.value == pytest.approx(1.0, abs=1e-11)
    assert out.terms_used == 2000
    assert out.method_tag == RAW
    assert out.truncation_bound < 1e-10


def test_telescoping_check_rejects_divergent_series():
    pairs = [(1.0 / n, 0.0) for n in range(1, 2001)]
    with pytest.raises(NonConvergent):
        telescoping_check(pairs)


def test_telescoping_check_needs_enough_pairs():
    with pytest.raises(InvalidParameter):
        telescoping_check([(1.0, 1.0)] * 8)


# ---------------------------------------------------------------------------
# poisson_check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("omega,x", [(7.3, 0.31), (20.1, 0.5), (3.0, 0.87)])
def test_poisson_identity_sides_agree(omega, x):
    lhs, rhs = poisson_check(omega, 1.0, x, n_orbit=5000)
    assert lhs == pytest.approx(rhs, abs=1e-3 * max(1.0, abs(lhs)))


def test_poisson_check_truncation_error_shrinks():
    devs = []
    for n_orbit in (100, 1000, 10000):
        lhs, rhs = poisson_check(11.0, 1.0, 0.4, n_orbit=n_orbit)
        devs.append(abs(lhs - rhs))
    assert devs[2] < devs[0]


def test_poisson_check_validates_domain():
    with pytest.raises(InvalidParameter):
        poisson_check(5.0, 1.0, 1.5)
    with pytest.raises(InvalidParameter):
        poisson_check(5.0, -1.0, 0.5)


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
