"""The cached x-free part of the regularized energy density.

``energy._density_bulk`` keeps the Weyl and periodic parts (and, on the
interval, the exponentials of z = pi t/2L) of the summation._TABLES most
recent (L, ends, t).  A cached entry must give what a fresh computation
gives, bit for bit, whatever the order of the calls; keys that only compare
equal (like_ends False and theta 0.0) must not share an entry; and a call
that raises must leave none behind.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from vacuum1d import (
    DIRICHLET,
    NEUMANN,
    Interval,
    InvalidParameter,
    TwistedCircle,
    energy_density_regularized,
    summation,
)
from vacuum1d import energy
from vacuum1d.spectrum import _phase

PI = math.pi
bulk = energy._density_bulk


@pytest.fixture(autouse=True)
def _empty_cache():
    bulk.cache_clear()
    yield
    bulk.cache_clear()


def _calls() -> list[tuple[object, float, float]]:
    """40 distinct keys, on both sides of z = 2, each at two points."""
    calls = []
    for t in np.geomspace(1e-3, 4.0, 10).tolist():
        for geometry in (
            Interval(1.0),
            Interval(2.5, DIRICHLET, NEUMANN),
            TwistedCircle(1.0, 2.0),
            TwistedCircle(1.0, 2.0 * PI - 2.0),
        ):
            calls += [(geometry, t, 0.013 * geometry.length), (geometry, t, 0.31 * geometry.length)]
    return calls


def test_the_cache_holds_at_most_tables_entries_and_every_entry_is_a_fresh_value():
    calls = _calls()
    assert len({(g, t) for g, t, _ in calls}) > summation._TABLES
    cycled = [repr(energy_density_regularized(g, t, x)) for _ in range(2) for g, t, x in calls]
    info = bulk.cache_info()
    assert info.maxsize == summation._TABLES and info.currsize == summation._TABLES
    assert info.hits > 0 and info.misses > summation._TABLES
    fresh = []
    for g, t, x in calls:
        bulk.cache_clear()
        fresh.append(repr(energy_density_regularized(g, t, x)))
    assert cycled == 2 * fresh


@pytest.mark.parametrize(
    "first, second",
    [
        (Interval(1.0), Interval(1.0, DIRICHLET, NEUMANN)),
        (Interval(1.0, NEUMANN, DIRICHLET), TwistedCircle(1.0, 0.0)),  # False == 0.0
        (Interval(1.0, NEUMANN, NEUMANN), TwistedCircle(1.0, 1.0)),  # True == 1.0
        (TwistedCircle(1.0, 2.0), TwistedCircle(1.0, 2.0 * PI - 2.0)),
    ],
    ids=["DD-DN", "ND-twisted0", "NN-twisted1", "theta-mirror"],
)
def test_geometries_at_one_length_and_t_keep_their_own_entries(first, second):
    t, x = 0.3, 0.4
    alone = repr(energy_density_regularized(second, t, x))
    bulk.cache_clear()
    energy_density_regularized(first, t, x)
    assert repr(energy_density_regularized(second, t, x)) == alone
    assert bulk.cache_info().currsize == 2


@pytest.mark.parametrize(
    "geometry", [Interval(1.0), Interval(1.0, DIRICHLET, NEUMANN), TwistedCircle(1.0, 2.0)],
    ids=["D/D", "D/N", "twisted"],
)
def test_an_overflowing_t_leaves_no_entry(geometry):
    # 1/(2 pi t^2) overflows at t = 1e-200
    for _ in range(2):
        with pytest.raises(InvalidParameter):
            energy_density_regularized(geometry, 1e-200, 0.4)
        assert bulk.cache_info().currsize == 0


def _periodic_inline(geometry: Interval, t: float) -> float:
    """The interval's periodic part as the density computed it at each point."""
    length = geometry.length
    z = _phase(0.5 * t, length)
    if z <= 2.0:
        g = energy._g_even(z) if geometry.like_ends else energy._g_odd(z)
        return 0.125 * PI * g / length / length
    half = math.exp(-0.5 * z)
    k = 0.5 * (half / (0.5 * length * -math.expm1(-2.0 * z)))
    weyl = 0.5 / PI / t / t
    if geometry.like_ends:
        r = half * k
        return 0.5 * PI * r * r - weyl
    return 0.25 * PI * (1.0 + (half * half) ** 2) * k * k - weyl


@pytest.mark.parametrize("ends", [(DIRICHLET, DIRICHLET), (NEUMANN, DIRICHLET)], ids=["like", "mixed"])
@pytest.mark.parametrize("length", [1.0, 3.7e-5, 2.5e150])
@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_periodic_is_one_value_across_a_profile_on_both_sides_of_z_2(ends, length, side):
    geometry = Interval(length, *ends)
    t = 4.0 * length / PI  # z = 2
    for _ in range(4):
        t = math.nextafter(t, side * math.inf)
    z = _phase(0.5 * t, length)
    assert (z < 2.0) if side < 0 else (z > 2.0)
    points = (np.linspace(0.0, 1.0, 33)[1:-1] * length).tolist() + [1e-300 * length]
    periodic = {energy_density_regularized(geometry, t, x).periodic for x in points}
    assert periodic == {_periodic_inline(geometry, t)}
