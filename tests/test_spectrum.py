"""Spectra, counting functions, and the exact three-part counting split.

The eigenvalue ladders have elementary closed forms, so most oracles
here are direct lattice constructions; the decomposition tests lean on
the invariant that Weyl + periodic + boundary must reproduce an integer
staircase exactly, not approximately.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from vacuum1d.errors import (
    AtEigenvalue,
    ContinuousSpectrum,
    InvalidParameter,
)
from vacuum1d.spectrum import (
    DIRICHLET,
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


def test_mixed_density_roots_the_right_wall():
    # Dirichlet at 0: density vanishes quadratically there.
    geom = Interval(1.0, DIRICHLET, NEUMANN)
    assert eigenfunction_density(geom, 0, 1e-9) < 1e-15
    # Swapped: Dirichlet at L.
    geom_r = Interval(1.0, NEUMANN, DIRICHLET)
    assert eigenfunction_density(geom_r, 0, 1.0 - 1e-9) < 1e-15
    # Reflection maps one onto the other.
    for x in (0.1, 0.45, 0.8):
        assert eigenfunction_density(geom, 2, x) == pytest.approx(
            eigenfunction_density(geom_r, 2, 1.0 - x), rel=1e-12
        )
