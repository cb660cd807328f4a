"""Spectra, counting functions, and the exact three-part counting split.

The eigenvalue ladders have elementary closed forms, so most oracles
here are direct lattice constructions; the decomposition tests lean on
the invariant that Weyl + periodic + boundary must reproduce an integer
staircase exactly, not approximately.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from vacuum1d.errors import (
    AtEigenvalue,
    ContinuousSpectrum,
    InvalidParameter,
)
from vacuum1d.kernels import cylinder_trace, heat_trace
from vacuum1d.orbits import local_counting
from vacuum1d.spectrum import (
    DIRICHLET,
    MAX_RUNGS,
    NEUMANN,
    BoundaryCondition,
    HalfLine,
    Interval,
    TwistedCircle,
    counting_decomposition,
    counting_function,
    eigenfunction_density,
    eigenvalues,
)

PI = math.pi


def assert_ladders_close(got, expected, rel=1e-13):
    assert len(got) == len(expected)
    for (omega_g, mult_g), (omega_e, mult_e) in zip(got, expected):
        assert omega_g == pytest.approx(omega_e, rel=rel, abs=1e-13)
        assert mult_g == mult_e


# ---------------------------------------------------------------------------
# Eigenvalue ladders
# ---------------------------------------------------------------------------


def test_dirichlet_interval_ladder():
    got = eigenvalues(Interval(1.0, DIRICHLET, DIRICHLET), 10.0)
    assert got == [(1 * PI, 1), (2 * PI, 1), (3 * PI, 1)]


def test_neumann_interval_ladder_includes_zero_mode():
    got = eigenvalues(Interval(1.0, NEUMANN, NEUMANN), 7.0)
    assert got == [(0.0, 1), (PI, 1), (2 * PI, 1)]


@pytest.mark.parametrize(
    "left,right", [(DIRICHLET, NEUMANN), (NEUMANN, DIRICHLET)]
)
def test_mixed_interval_ladder_is_half_integer(left, right):
    length = 0.8
    got = eigenvalues(Interval(length, left, right), 20.0)
    expected = []
    j = 0
    while (j + 0.5) * PI / length <= 20.0:
        expected.append(((j + 0.5) * PI / length, 1))
        j += 1
    assert_ladders_close(got, expected)


def test_interval_ladder_scales_with_length():
    for length in (0.5, 2.0, 7.3):
        got = eigenvalues(Interval(length, DIRICHLET, DIRICHLET), 30.0)
        for j, (omega, mult) in enumerate(got, start=1):
            assert omega == pytest.approx(j * PI / length, rel=1e-15)
            assert mult == 1


def test_twisted_ladder_merges_at_symmetric_angles():
    # Generic theta: all levels simple, at (2 pi j +/- theta)/L.
    got = eigenvalues(TwistedCircle(1.0, 1.0), 14.0)
    expected = sorted(
        [(1.0, 1), (2 * PI - 1.0, 1), (2 * PI + 1.0, 1), (4 * PI - 1.0, 1), (4 * PI + 1.0, 1)]
    )
    assert_ladders_close(got, expected)
    # theta = 0: the +/- lattices coincide; zero mode stays simple.
    got0 = eigenvalues(TwistedCircle(1.0, 0.0), 14.0)
    assert_ladders_close(got0, [(0.0, 1), (2 * PI, 2), (4 * PI, 2)])
    # theta = pi: everything pairs up.
    gotpi = eigenvalues(TwistedCircle(1.0, PI), 14.0)
    assert_ladders_close(gotpi, [(PI, 2), (3 * PI, 2)])


def test_twisted_theta_is_normalized_mod_2pi():
    a = eigenvalues(TwistedCircle(1.0, 0.7), 20.0)
    b = eigenvalues(TwistedCircle(1.0, 0.7 + 2.0 * PI), 20.0)
    assert_ladders_close(a, b)
    # theta and -theta give the same spectrum (complex-conjugate sections).
    c = eigenvalues(TwistedCircle(1.0, -0.7), 20.0)
    assert_ladders_close(a, c)


def test_half_line_has_no_discrete_spectrum():
    with pytest.raises(ContinuousSpectrum):
        eigenvalues(HalfLine(DIRICHLET), 5.0)


def test_eigenvalues_rejects_bad_cutoff():
    with pytest.raises(InvalidParameter):
        eigenvalues(Interval(1.0, DIRICHLET, DIRICHLET), -1.0)


@pytest.mark.parametrize("omega_max", [math.inf, math.nan])
def test_eigenvalues_rejects_non_finite_cutoff(omega_max):
    with pytest.raises(InvalidParameter):
        eigenvalues(TwistedCircle(1.0, 0.7), omega_max)


def test_eigenvalues_refuse_more_levels_than_the_cap():
    # every probe is above the cap, so nothing is allocated
    with pytest.raises(InvalidParameter, match="levels"):
        eigenvalues(Interval(1.0, DIRICHLET, DIRICHLET), 1.01 * MAX_RUNGS * PI)
    with pytest.raises(InvalidParameter, match="levels"):
        eigenvalues(Interval(1.0, DIRICHLET, DIRICHLET), 1e300)
    # two twisted ladders of 0.6 cap each
    with pytest.raises(InvalidParameter, match="levels"):
        eigenvalues(TwistedCircle(2.0 * PI, 0.7), 0.6 * MAX_RUNGS)


@pytest.mark.parametrize(
    "geometry",
    [Interval(1e300, DIRICHLET, DIRICHLET), Interval(1e300, DIRICHLET, NEUMANN),
     TwistedCircle(1e300, 1.0)],
    ids=str,
)
def test_counting_past_the_float_range_is_invalid(geometry):
    # (omega - offset) / step = omega L / pi overflows; these once leaked
    # OverflowError from floor() and round()
    for call in (eigenvalues, counting_function, counting_decomposition):
        with pytest.raises(InvalidParameter):
            call(geometry, 1e300)


@pytest.mark.parametrize(
    "geometry",
    [Interval(5e-324, left, right) for left in (DIRICHLET, NEUMANN) for right in (DIRICHLET, NEUMANN)]
    + [TwistedCircle(5e-324, theta) for theta in (0.0, PI)],
    ids=str,
)
def test_levels_past_the_float_range_at_a_subnormal_length(geometry):
    # the spacing pi/L overflows: the zero mode, formed as 0 + 0 inf, came
    # back nan; a mixed-end level inf + 0 inf sent nan into round(); and an
    # infinite distance to the nearest level counted as "at a level"
    zero_mode = int(geometry in (Interval(5e-324, NEUMANN, NEUMANN), TwistedCircle(5e-324, 0.0)))
    assert eigenvalues(geometry, 1.0) == [(0.0, 1)] * zero_mode
    assert counting_function(geometry, 3.3) == zero_mode
    assert counting_decomposition(geometry, 3.3).total == pytest.approx(zero_mode, abs=1e-15)
    if zero_mode:
        assert heat_trace(geometry, 1.0) == 1.0
        trace = cylinder_trace(geometry, 1.0, method="mode-sum")
        assert abs(trace.value - 1.0) <= trace.truncation_bound


@pytest.mark.parametrize(
    "geometry",
    [Interval(length, left, right) for length in (5e-324, 1e-310)
     for left in (DIRICHLET, NEUMANN) for right in (DIRICHLET, NEUMANN)]
    + [TwistedCircle(length, theta) for length in (5e-324, 1e-310) for theta in (0.0, 1.0, PI)],
    ids=str,
)
@pytest.mark.parametrize("omega", [1.0, 1e300, 1.7976931348623157e308])
def test_both_counts_agree_at_subnormal_lengths(geometry, omega):
    # every level but a zero mode is past the float range; at theta = 1 the
    # left movers' first rung was formed as -theta/L + 2 pi/L = -inf + inf,
    # where counting_function raised while the split summed to 0
    zero_mode = int(geometry in (Interval(geometry.length, NEUMANN, NEUMANN),
                                 TwistedCircle(geometry.length, 0.0)))
    assert counting_function(geometry, omega) == zero_mode
    assert counting_decomposition(geometry, omega).total == pytest.approx(zero_mode, abs=1e-15)


def test_a_left_mover_level_is_counted_where_theta_over_length_overflows():
    # theta/L = 6.3e310, yet the first left-mover level (2 pi - theta)/L is
    # the float 8.9e294, which -theta/L + 2 pi/L formed as -inf + inf
    geometry = TwistedCircle(1e-310, 2.0 * PI - 1e-15)
    level = (2.0 * PI - geometry.theta) / geometry.length
    assert eigenvalues(geometry, 1e300) == [(level, 1)]
    assert counting_function(geometry, 0.5 * level) == 0
    assert counting_function(geometry, 1e300) == 1
    assert counting_decomposition(geometry, 1e300).total == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "geometry,omega",
    [(Interval(1.0, DIRICHLET, DIRICHLET), 1.7e308),  # 2 omega L overflows
     (Interval(1e-300, DIRICHLET, DIRICHLET), 1e-300),  # omega L underflows to 0
     (TwistedCircle(1e-300, 0.0), 1e-300)],
    ids=str,
)
def test_counting_decomposition_outside_the_sawtooth_range_is_invalid(geometry, omega):
    # the overflow once leaked ValueError from fmod, the underflow put the
    # sawtooth on its jump and returned -1/2 against N = 0; local_counting
    # reaches the same sawtooth without counting_decomposition
    with pytest.raises(InvalidParameter):
        counting_decomposition(geometry, omega)
    with pytest.raises(InvalidParameter):
        local_counting(geometry, omega, 0.5 * geometry.length)


def test_geometry_validation():
    with pytest.raises(InvalidParameter):
        Interval(0.0, DIRICHLET, DIRICHLET)
    with pytest.raises(InvalidParameter):
        Interval(math.inf, DIRICHLET, DIRICHLET)
    with pytest.raises(InvalidParameter):
        TwistedCircle(-2.0, 0.3)


def test_parity_indices():
    assert BoundaryCondition.DIRICHLET.parity_index == 1
    assert BoundaryCondition.NEUMANN.parity_index == 0
    assert Interval(1.0, DIRICHLET, NEUMANN).l == 1
    assert Interval(1.0, DIRICHLET, NEUMANN).r == 0
    assert not Interval(1.0, DIRICHLET, NEUMANN).like_ends
    assert Interval(1.0, NEUMANN, NEUMANN).like_ends


# ---------------------------------------------------------------------------
# Counting function
# ---------------------------------------------------------------------------


def test_counting_function_is_the_staircase():
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    assert counting_function(geom, 0.5) == 0
    assert counting_function(geom, PI) == 1  # counts <= omega
    assert counting_function(geom, PI + 1e-12) == 1
    assert counting_function(geom, 10.0) == 3


def test_counting_function_counts_multiplicity():
    geom = TwistedCircle(1.0, PI)
    # Levels at pi, 3 pi, ... each double.
    assert counting_function(geom, 4.0) == 2
    assert counting_function(geom, 10.0) == 4


def test_counting_function_matches_ladder_everywhere():
    rng = np.random.default_rng(20240118)
    geoms = [
        Interval(1.0, DIRICHLET, DIRICHLET),
        Interval(0.6, NEUMANN, NEUMANN),
        Interval(1.4, DIRICHLET, NEUMANN),
        TwistedCircle(1.0, 2.1),
        TwistedCircle(0.8, 0.0),
    ]
    for geom in geoms:
        ladder = eigenvalues(geom, 60.0)
        for omega in rng.uniform(0.05, 55.0, size=50):
            expected = sum(mult for ev, mult in ladder if ev <= omega)
            assert counting_function(geom, float(omega)) == expected


END_PAIRS = [(DIRICHLET, DIRICHLET), (DIRICHLET, NEUMANN), (NEUMANN, DIRICHLET), (NEUMANN, NEUMANN)]
# Generic angles keep clear of 0 and pi, next to which the two twisted
# ladders meet within rounding and merge in float arithmetic.
GENERIC_THETA = st.floats(0.0, 2.0 * PI).filter(lambda theta: abs(math.remainder(theta, PI)) > 1e-6)
LOG_LENGTH = st.floats(-3.0, 3.0)
DISCRETE_SPECTRA = st.one_of(
    st.builds(lambda u, ends: Interval(10.0**u, *ends), LOG_LENGTH, st.sampled_from(END_PAIRS)),
    st.builds(
        lambda u, theta: TwistedCircle(10.0**u, theta),
        LOG_LENGTH,
        st.sampled_from([0.0, PI]) | GENERIC_THETA,
    ),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(DISCRETE_SPECTRA)
def test_counting_agrees_with_enumeration_at_every_level(geom):
    """N(omega_j) is the running multiplicity at every level up to 400 pi/L,
    and levels double only on the circle at theta = 0 and pi.  Twisted
    counting once formed its levels by another float expression than
    enumeration and disagreed at a quarter of them."""
    levels = eigenvalues(geom, 400.0 * PI / geom.length)
    running = 0
    for omega, mult in levels:
        running += mult
        assert counting_function(geom, omega) == running, (omega, mult)
    mults = {mult for _, mult in levels}
    degenerate = isinstance(geom, TwistedCircle) and geom.theta in (0.0, PI)
    assert mults <= {1, 2} and (2 in mults) == degenerate, mults


@settings(derandomize=True, max_examples=200, deadline=None)
@given(LOG_LENGTH, st.floats(0.0, 2.0 * PI).filter(lambda theta: theta != PI))
def test_twisted_levels_are_the_two_mover_ladders_to_the_bit(u, theta):
    """Away from theta = pi the twisted levels are the floats theta/L + j 2 pi/L
    (j >= 0) and -theta/L + j 2 pi/L (j >= 1), and N counts them at every
    level.  Left movers written from (2 pi - theta)/L once differed in the
    last bit at a quarter of the levels, so N disagreed with a count of
    these floats."""
    geom = TwistedCircle(10.0**u, theta)
    length, step = geom.length, 2.0 * PI / geom.length
    omega_max = 60.0 / length
    want = []
    for offset, j in ((geom.theta / length, 0), (-geom.theta / length, 1)):
        while offset + j * step <= omega_max:
            want.append(offset + j * step)
            j += 1
    want.sort()
    levels = eigenvalues(geom, omega_max)
    assert [omega for omega, mult in levels for _ in range(mult)] == want
    for omega, _ in levels:
        assert counting_function(geom, omega) == sum(w <= omega for w in want), omega


def test_counting_function_past_the_float_resolution_of_the_ladder():
    # Past 2^52 rungs neighbouring levels round to one float and N is the
    # floor() count; its refinement loops once spun forever there (D/D,
    # L = 1, at omega = 1e25 and 1e300).
    for omega in (1e25, 1e300):
        assert counting_function(Interval(1.0, DIRICHLET, DIRICHLET), omega) == math.floor(omega / PI)


def test_counting_function_halfline_raises():
    with pytest.raises(ContinuousSpectrum):
        counting_function(HalfLine(NEUMANN), 3.0)


# ---------------------------------------------------------------------------
# Counting decomposition
# ---------------------------------------------------------------------------


def test_decomposition_total_is_exact_integer_count():
    rng = np.random.default_rng(20240117)
    geoms = [
        Interval(1.0, DIRICHLET, DIRICHLET),
        Interval(1.0, NEUMANN, NEUMANN),
        Interval(1.0, DIRICHLET, NEUMANN),
        Interval(2.7, NEUMANN, DIRICHLET),
        TwistedCircle(1.0, 0.0),
        TwistedCircle(1.0, PI),
        TwistedCircle(1.3, 2.0),
    ]
    for geom in geoms:
        for omega in rng.uniform(0.1, 40.0, size=100):
            omega = float(omega)
            try:
                dec = counting_decomposition(geom, omega)
            except AtEigenvalue:
                continue
            n_exact = counting_function(geom, omega)
            assert dec.total == pytest.approx(n_exact, abs=1e-8)


def test_decomposition_boundary_term_is_half_integer():
    assert counting_decomposition(
        Interval(1.0, DIRICHLET, DIRICHLET), 7.0
    ).boundary == pytest.approx(-0.5)
    assert counting_decomposition(
        Interval(1.0, NEUMANN, NEUMANN), 7.0
    ).boundary == pytest.approx(+0.5)
    assert counting_decomposition(
        Interval(1.0, DIRICHLET, NEUMANN), 7.0
    ).boundary == pytest.approx(0.0)


def test_decomposition_weyl_term():
    dec = counting_decomposition(Interval(1.5, DIRICHLET, DIRICHLET), 8.0)
    assert dec.weyl == pytest.approx(1.5 * 8.0 / PI, rel=1e-15)


def test_decomposition_guards_eigenvalue_jumps():
    with pytest.raises(AtEigenvalue):
        counting_decomposition(Interval(1.0, DIRICHLET, DIRICHLET), PI)


@pytest.mark.parametrize("omega", [math.inf, math.nan])
def test_decomposition_rejects_non_finite_omega(omega):
    with pytest.raises(InvalidParameter):
        counting_decomposition(Interval(1.0, DIRICHLET, DIRICHLET), omega)


# ---------------------------------------------------------------------------
# Eigenfunction densities
# ---------------------------------------------------------------------------


def test_interval_density_closed_forms():
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    x = 0.3
    assert eigenfunction_density(geom, 1, x) == pytest.approx(
        2.0 * math.sin(PI * x) ** 2, rel=1e-14
    )
    geom_nn = Interval(1.0, NEUMANN, NEUMANN)
    assert eigenfunction_density(geom_nn, 2, x) == pytest.approx(
        2.0 * math.cos(2.0 * PI * x) ** 2, rel=1e-14
    )
    # Neumann zero mode is the constant 1/L.
    assert eigenfunction_density(geom_nn, 0, x) == pytest.approx(1.0, rel=1e-15)


def test_twisted_density_is_uniform():
    geom = TwistedCircle(2.0, 1.3)
    for j in (0, 1, 5):
        assert eigenfunction_density(geom, j, 0.77) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize(
    "geom,j",
    [
        (Interval(1.0, DIRICHLET, DIRICHLET), 3),
        (Interval(0.9, NEUMANN, NEUMANN), 0),
        (Interval(0.9, NEUMANN, NEUMANN), 2),
        (Interval(1.2, DIRICHLET, NEUMANN), 1),
        (Interval(1.2, NEUMANN, DIRICHLET), 4),
    ],
)
def test_interval_densities_are_normalized(geom, j):
    total, err = quad(lambda x: eigenfunction_density(geom, j, x), 0.0, geom.length)
    assert total == pytest.approx(1.0, abs=max(1e-10, 10 * err))


@pytest.mark.parametrize("left", [DIRICHLET, NEUMANN])
def test_a_mode_phase_past_the_float_range_is_invalid(left):
    # omega_j = j pi/L overflows: sin and cos of inf leaked a math domain error
    with pytest.raises(InvalidParameter):
        eigenfunction_density(Interval(1.0, left, left), 10**308, 0.5)


def test_mixed_density_roots_the_right_wall():
    # Dirichlet at 0: density vanishes quadratically there.
    geom = Interval(1.0, DIRICHLET, NEUMANN)
    assert eigenfunction_density(geom, 0, 1e-9) < 1e-15
    # Swapped: Dirichlet at L.
    geom_r = Interval(1.0, NEUMANN, DIRICHLET)
    assert eigenfunction_density(geom_r, 0, 1.0 - 1e-9) < 1e-15
    # Reflection maps one onto the other.  x = 0.8 is a node of the mode,
    # where both sides are rounding of a density of size 2/L.
    for x in (0.1, 0.45, 0.8):
        assert eigenfunction_density(geom, 2, x) == pytest.approx(
            eigenfunction_density(geom_r, 2, 1.0 - x), rel=1e-12, abs=1e-15
        )
