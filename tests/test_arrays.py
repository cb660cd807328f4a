"""The array-first kernel layer: point arrays against per-point calls.

``cylinder_kernel`` and ``lattice_sum`` take arrays of points and return
one value, term count and bound per point in one call.  Their oracle is
the scalar call of the same function, which keeps its plain-float form:
an array call must agree with the per-point calls to within the sum of
both bounds plus 16 eps of the rounding scale (a lattice sum and an image
route bit for bit), and keep every type and error contract of the scalar
API.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuum1d import cli, kernels, verify
from vacuum1d.energy import energy_density_regularized, total_energy_regularized
from vacuum1d.errors import InvalidParameter, OutOfDomain
from vacuum1d.kernels import CLOSED_FORM, IMAGE_SUM, MODE_SUM, cylinder_kernel, cylinder_trace
from vacuum1d.spectrum import (
    DIRICHLET,
    MAX_RUNGS,
    NEUMANN,
    HalfLine,
    Interval,
    TwistedCircle,
    _ladders,
    _rungs,
    counting_function,
    eigenvalues,
)
from vacuum1d.summation import (
    EULER_MACLAURIN,
    SUMMATION_BY_PARTS,
    SeriesControl,
    de_quadrature,
    lattice_sum,
)

PI = math.pi
EPS = 2.0**-52
ROUTES = (CLOSED_FORM, IMAGE_SUM, MODE_SUM)
BCS = (DIRICHLET, NEUMANN)

GEOMETRIES = st.one_of(
    st.builds(Interval, st.floats(0.3, 3.0), st.sampled_from(BCS), st.sampled_from(BCS)),
    st.builds(HalfLine, st.sampled_from(BCS)),
    st.builds(TwistedCircle, st.floats(0.3, 3.0), st.sampled_from([0.0, PI, 0.05, 2.0, 5.5])),
)


def _points(draw, geometry, n: int) -> tuple[list[float], list[float]]:
    """n points (x, y) in the closed domain; every other one on the diagonal."""
    top = geometry.length if not isinstance(geometry, HalfLine) else 2.0
    xs = [draw(st.floats(0.0, top)) for _ in range(n)]
    ys = [x if i % 2 == 0 else draw(st.floats(0.0, top)) for i, x in enumerate(xs)]
    return xs, ys


@st.composite
def kernel_calls(draw):
    geometry = draw(GEOMETRIES)
    scale = getattr(geometry, "length", 1.0)
    t = scale * 10.0 ** draw(st.floats(-2.0, 0.5))
    xs, ys = _points(draw, geometry, draw(st.integers(1, 6)))
    return geometry, t, xs, ys


def _rounding_scale(value) -> float:
    return 16.0 * EPS * (1.0 + abs(value))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(kernel_calls(), st.sampled_from(ROUTES))
def test_array_call_equals_the_per_point_calls_within_both_bounds(call, method):
    geometry, t, xs, ys = call
    got = cylinder_kernel(geometry, t, xs, ys, method=method)
    assert got.value.shape == got.terms_used.shape == got.truncation_bound.shape == (len(xs),)
    for i, (x, y) in enumerate(zip(xs, ys)):
        one = cylinder_kernel(geometry, t, x, y, method=method)
        allowed = one.truncation_bound + got.truncation_bound[i] + _rounding_scale(one.value)
        assert abs(got.value[i] - one.value) <= allowed, (x, y, got.value[i], one)
        if one.method == got.method != CLOSED_FORM:
            assert got.terms_used[i] == one.terms_used


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    st.floats(0.01, 10.0),
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)), min_size=1, max_size=8),
    st.sampled_from([0.0, PI, 1e-3, 0.05, 0.3, 2.0, -1.1]),
    st.integers(1, 3),
    st.booleans(),
)
def test_lattice_sum_array_equals_its_scalar_calls_bit_for_bit(step, pairs, theta, k, skip_zero):
    d = np.array([p[0] for p in pairs]) * step
    t = np.array([p[1] if p[1] != 0.0 else 0.5 for p in pairs]) * step
    try:
        ones = [lattice_sum(step, float(a), float(b), theta, k, skip_zero=skip_zero)
                for a, b in zip(d, t)]
    except InvalidParameter:  # one element that fails fails the whole array
        with pytest.raises(InvalidParameter):
            lattice_sum(step, d, t, theta, k, skip_zero=skip_zero)
        return
    got = lattice_sum(step, d, t, theta, k, skip_zero=skip_zero)
    for i, one in enumerate(ones):
        assert (got.value[i], got.truncation_bound[i], got.terms_used[i]) == (
            one.value, one.truncation_bound, one.terms_used)
        assert got.method_tag == one.method_tag


@settings(derandomize=True, max_examples=120, deadline=None)
@given(kernel_calls())
def test_array_image_sums_equal_their_per_point_calls_bit_for_bit(call):
    geometry, t, xs, ys = call
    got = cylinder_kernel(geometry, t, xs, ys, method=IMAGE_SUM)
    for i, (x, y) in enumerate(zip(xs, ys)):
        one = cylinder_kernel(geometry, t, x, y, method=IMAGE_SUM)
        assert (got.value[i], got.truncation_bound[i], got.terms_used[i]) == (
            one.value, one.truncation_bound, one.terms_used), (x, y)


def test_mixed_interval_image_sums_match_their_scalar_calls_bit_for_bit():
    # the CLI's D/N rows: the array form keeps the scalar order of every
    # operation on the mixed-ends lattice
    geometry = Interval(1.0, DIRICHLET, NEUMANN)
    xs = [0.136453, 0.502388, 0.9]
    for t in (0.179778, 1.0):
        got = cylinder_kernel(geometry, t, xs, method=IMAGE_SUM)
        for i, x in enumerate(xs):
            one = cylinder_kernel(geometry, t, x, method=IMAGE_SUM)
            assert (got.value[i], got.truncation_bound[i], got.terms_used[i]) == (
                one.value, one.truncation_bound, one.terms_used)


@pytest.mark.parametrize("method", ROUTES)
@pytest.mark.parametrize(
    "geometry",
    [Interval(1.0), Interval(2.0, NEUMANN, DIRICHLET), HalfLine(NEUMANN), TwistedCircle(1.0, 2.0)],
    ids=repr,
)
def test_scalar_input_keeps_scalar_types(geometry, method):
    one = cylinder_kernel(geometry, 0.3, 0.4, 0.4, method=method)
    assert type(one.value) is float
    assert type(one.terms_used) is int and type(one.truncation_bound) is float
    off = cylinder_kernel(geometry, 0.3, 0.4, 0.7, method=method)
    assert type(off.value) is (complex if isinstance(geometry, TwistedCircle) else float)
    assert type(cylinder_kernel(geometry, 0.3, 0, method=method).value) is float  # an int point


def test_twisted_array_is_complex_when_any_point_is_off_the_diagonal():
    circle = TwistedCircle(1.0, 2.0)
    assert cylinder_kernel(circle, 0.3, [0.1, 0.4], method=IMAGE_SUM).value.dtype == float
    off = cylinder_kernel(circle, 0.3, [0.1, 0.4], [0.1, 0.5], method=IMAGE_SUM)
    assert off.value.dtype == complex
    assert off.value[0].imag == 0.0 or abs(off.value[0].imag) <= off.truncation_bound[0]


def test_a_twisted_closed_form_request_with_an_off_diagonal_point_reports_the_mode_sum():
    circle = TwistedCircle(1.0, 2.0)
    diagonal = cylinder_kernel(circle, 0.3, [0.1, 0.4])
    assert diagonal.method == CLOSED_FORM
    mixed = cylinder_kernel(circle, 0.3, [0.1, 0.4], [0.1, 0.5])
    assert mixed.method == MODE_SUM
    assert mixed.value[0] == pytest.approx(diagonal.value[0], rel=1e-12)


@pytest.mark.parametrize("method", ROUTES)
@pytest.mark.parametrize(
    "geometry",
    [Interval(1.0, NEUMANN, NEUMANN), HalfLine(DIRICHLET), TwistedCircle(1.0, PI)],
    ids=repr,
)
def test_empty_one_point_and_two_dimensional_arrays(geometry, method):
    assert cylinder_kernel(geometry, 0.2, [], method=method).value.shape == (0,)
    one = cylinder_kernel(geometry, 0.2, [0.3], method=method)
    assert one.value.shape == (1,)
    scalar = cylinder_kernel(geometry, 0.2, 0.3, method=method).value
    assert one.value[0] == pytest.approx(scalar, rel=1e-13)
    grid = cylinder_kernel(geometry, 0.2, [[0.1, 0.2], [0.3, 0.4]], 0.25, method=method)
    assert grid.value.shape == grid.terms_used.shape == grid.truncation_bound.shape == (2, 2)


def test_lattice_sum_of_an_empty_array_is_empty():
    out = lattice_sum(1.0, [], 0.1, 2.0)
    assert out.value.shape == out.terms_used.shape == out.truncation_bound.shape == (0,)
    assert out.method_tag == SUMMATION_BY_PARTS
    # the tag is read from theta mod 2 pi, as a float call reads it
    assert lattice_sum(1.0, [], 0.1, 2.0 * PI + 0.05).method_tag == EULER_MACLAURIN
    with pytest.raises(InvalidParameter):
        lattice_sum(1.0, [], 0.1, math.inf)


@pytest.mark.parametrize("method", ROUTES)
@pytest.mark.parametrize(
    "geometry,bad", [(Interval(1.0), 1.5), (Interval(1.0), -0.1), (HalfLine(), -1.0)]
)
def test_one_point_outside_the_domain_fails_the_whole_call(geometry, bad, method):
    with pytest.raises(OutOfDomain, match=repr(bad)):
        cylinder_kernel(geometry, 0.2, [0.2, bad, 0.5], method=method)
    with pytest.raises(OutOfDomain):
        cylinder_kernel(geometry, 0.2, 0.3, [0.2, bad], method=method)


def test_an_array_of_heights_is_refused():
    with pytest.raises(InvalidParameter):
        cylinder_kernel(Interval(1.0), [0.1, 0.2], [0.3, 0.4])


def test_int_of_the_term_counts_is_their_total():
    out = cylinder_kernel(Interval(1.0), 0.2, [0.1, 0.5, 0.7], method=IMAGE_SUM)
    assert int(out.terms_used) == sum(out.terms_used.tolist())
    summed = lattice_sum(2.0, [0.1, 0.3], 0.2)
    assert int(summed.terms_used) == sum(summed.terms_used.tolist())


def test_de_quadrature_rows_integrate_each_row_separately():
    b = np.array([[0.3], [2.0], [7.0]])
    rows = de_quadrature(lambda u: np.exp(-u) * np.cos(b * u), rows=True)
    for i, bi in enumerate(b[:, 0]):
        one = de_quadrature(lambda u: np.exp(-u) * np.cos(bi * u))
        assert abs(rows.value[i] - one.value) <= rows.truncation_bound[i] + one.truncation_bound
        assert rows.value[i] == pytest.approx(1.0 / (1.0 + bi * bi), abs=1e-14)


def test_three_way_check_makes_one_call_per_case_height_and_route(monkeypatch):
    calls = []
    inner = kernels.cylinder_kernel

    def counted(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(kernels, "cylinder_kernel", counted)
    measured, _ = verify._check_three_way_kernel()
    assert 0 < len(calls) <= 6 * 20 * 3
    assert measured <= 1e-8


def test_kernel_command_makes_one_call_per_height_and_route(monkeypatch, capsys):
    calls = []
    inner = kernels.cylinder_kernel

    def counted(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    monkeypatch.setattr(kernels, "cylinder_kernel", counted)
    assert cli.main(["kernel", "--t", "0.1,0.5", "--x", "0.2,0.4,0.6"]) == 0
    assert len(calls) == 2 * 3
    assert len(capsys.readouterr().out.strip().splitlines()) == 3 + 1 + 6  # meta, header, rows


# ---------------------------------------------------------------------------
# Interval lengths past 8.99e307, where 2 L overflows.
# ---------------------------------------------------------------------------

HUGE_LENGTHS = (1e308, sys.float_info.max)


@pytest.mark.parametrize("length", HUGE_LENGTHS)
@pytest.mark.parametrize(
    "left,right", [(DIRICHLET, DIRICHLET), (NEUMANN, NEUMANN), (DIRICHLET, NEUMANN)]
)
def test_kernel_routes_agree_past_the_overflow_of_two_lengths(length, left, right):
    geometry = Interval(length, left, right)
    t = 0.3 * length
    xs = [0.1 * length, 0.5 * length, length]
    closed = cylinder_kernel(geometry, t, 0.5 * length, 0.3 * length)
    closed_grid = cylinder_kernel(geometry, t, xs, 0.3 * length)
    assert closed.value > 0.0 and closed_grid.value[1] == closed.value
    for method in (IMAGE_SUM, MODE_SUM):
        one = cylinder_kernel(geometry, t, 0.5 * length, 0.3 * length, method=method)
        assert math.isfinite(one.value) and math.isfinite(one.truncation_bound)
        assert abs(one.value - closed.value) <= one.truncation_bound + 1e-3 * closed.value
        grid = cylinder_kernel(geometry, t, xs, 0.3 * length, method=method)
        allowed = grid.truncation_bound + 1e-3 * closed.value
        assert np.all(np.abs(grid.value - closed_grid.value) <= allowed)
    routes = [cylinder_trace(geometry, t, method).value for method in ROUTES]
    assert max(routes) - min(routes) <= 1e-14 * max(routes)
    # from x = 0.1 L to y = 0.95 L the closed form's phase pi (x - y)/2L once
    # overflowed to -inf: a math domain error for floats, and for arrays an
    # InvalidParameter
    far = cylinder_kernel(geometry, t, xs[:2], 0.95 * length)
    assert far.value[0] == cylinder_kernel(geometry, t, xs[0], 0.95 * length).value > 0.0
    for method in (IMAGE_SUM, MODE_SUM):
        grid = cylinder_kernel(geometry, t, xs[:2], 0.95 * length, method=method)
        assert np.all(np.abs(grid.value - far.value) <= grid.truncation_bound + 1e-3 * far.value)


@pytest.mark.parametrize("length", HUGE_LENGTHS)
def test_densities_past_the_overflow_of_two_lengths(length, capsys):
    for left, right in [(DIRICHLET, DIRICHLET), (NEUMANN, DIRICHLET)]:
        geometry = Interval(length, left, right)
        density = energy_density_regularized(geometry, 1.0, 0.5 * length)
        assert math.isfinite(density.total_renormalized)
        assert abs(density.total_renormalized) <= 1e-300
        assert math.isfinite(total_energy_regularized(geometry, 0.3 * length).periodic)
    argv = ["density", "--length", repr(length), "--t", "1", "--x", repr(0.5 * length)]
    assert cli.main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("length", HUGE_LENGTHS)
def test_heat_diagonal_past_the_overflow_of_two_lengths(length):
    # every image but the n = 0 ones is e^{-L^2/t} = 0.0 away, and the
    # Gaussian spacing L (interval) or L/2 (circle) is formed without 2L;
    # at t = L, sqrt(700 t) and 4 pi t overflow: the image count once
    # raised OverflowError, and the prefactor is taken in factors
    x = 0.3
    for t in (1.0, length):
        pref = 1.0 / math.sqrt(4.0 * math.pi) / math.sqrt(t)
        for geometry, sign in ((Interval(length), -1.0), (Interval(length, NEUMANN, DIRICHLET), 1.0)):
            want = pref * (1.0 + sign * math.exp(-x * x / t))
            assert kernels.heat_kernel_diag(geometry, t, x) == pytest.approx(want, rel=4 * 2.0**-52)
        assert kernels.heat_kernel_diag(TwistedCircle(length, 2.0), t, x) == pytest.approx(
            pref, rel=4 * 2.0**-52
        )


# ---------------------------------------------------------------------------
# The level list in plain floats.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "geometry",
    [Interval(1.0), Interval(0.7, NEUMANN, NEUMANN), Interval(1.3, DIRICHLET, NEUMANN),
     TwistedCircle(1.0, 0.0), TwistedCircle(2.0, PI), TwistedCircle(0.521103, 3.710024),
     TwistedCircle(1.96255, 2.705796)],
    ids=repr,
)
def test_eigenvalues_are_numpy_unique_of_the_ladders_bit_for_bit(geometry):
    omega_max = 99.290288
    levels = np.concatenate([_rungs(ladder, omega_max) for ladder in _ladders(geometry)])
    omegas, mults = np.unique(levels, return_counts=True)
    got = eigenvalues(geometry, omega_max)
    assert got == list(zip(omegas.tolist(), mults.tolist()))
    assert all(type(w) is float and type(m) is int for w, m in got)


def test_eigenvalues_at_the_level_cap():
    geometry = TwistedCircle(1.0, 0.0)
    omega_max = (MAX_RUNGS // 2 - 1) * 2.0 * PI
    levels = eigenvalues(geometry, omega_max)
    assert sum(m for _, m in levels) == counting_function(geometry, omega_max) <= MAX_RUNGS
    assert levels[:3] == [(0.0, 1), (2.0 * PI, 2), (4.0 * PI, 2)]


def test_the_mode_sums_keep_their_control():
    control = SeriesControl(max_terms=5)
    one = cylinder_kernel(Interval(1.0), 0.01, 0.3, method=MODE_SUM, control=control)
    grid = cylinder_kernel(Interval(1.0), 0.01, [0.3, 0.6], method=MODE_SUM, control=control)
    assert grid.terms_used.tolist() == [one.terms_used] * 2
    assert grid.truncation_bound[0] == one.truncation_bound


@pytest.mark.parametrize("d,t,theta,k", [(0.0, 9.5e-214, 0.0, 2), (0.0, 3.8e-111, 1e-3, 3)])
def test_a_sum_that_overflows_next_to_the_pole_is_invalid_for_floats_and_arrays(d, t, theta, k):
    # numpy's overflow warnings used to escape the float call
    with pytest.raises(InvalidParameter):
        lattice_sum(1.0, d, t, theta, k)
    with pytest.raises(InvalidParameter):
        lattice_sum(1.0, [d, 0.3], [t, 0.1], theta, k)
