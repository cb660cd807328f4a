"""Array forms: the lattice sum at many points at once, and the term
counts of array calls.

:func:`vacuum1d.summation.lattice_sum` and
:func:`vacuum1d.kernels.cylinder_kernel` hand array input here and keep
their plain-float forms for floats, so a one-point call pays nothing for
this module, not even its import.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import InvalidParameter, NonConvergent
from .summation import (
    _EPS,
    _EULER_GAMMA,
    _MAX_FOLDS,
    _ORDER,
    _POISSON_AT_ZERO,
    _SMALL_ANGLE,
    EULER_MACLAURIN,
    SUMMATION_BY_PARTS,
    TWO_PI,
    SeriesControl,
    SeriesValue,
    _poisson_remainder,
    _poisson_weights,
    _unit,
)


class TermCounts(np.ndarray):
    """Per-element term counts of an array call (an int array).  ``int()``
    of it is their total, the terms the whole call summed, as ``int()`` of
    a one-point call's count is its own."""

    def __int__(self) -> int:
        return int(self.view(np.ndarray).sum())


def term_counts(terms, shape: tuple[int, ...]) -> TermCounts:
    """``terms`` (an int or an int array) broadcast to ``shape``."""
    return np.broadcast_to(np.asarray(terms, dtype=np.int64), shape).copy().view(TermCounts)


# ---------------------------------------------------------------------------
# The array form of lattice_sum: the same steps on numpy arrays, one element
# per (d, t).  Each element keeps the windings its scalar call would choose;
# the direct sums of the elements with equal W form one (elements x
# windings) grid, and each tail completion is one pass over the elements
# still open, the m < -W tails (c -> -c, theta -> -theta) stacked under the
# m > W ones.  Row sums are formed as an elementwise product summed along
# the row: a complex matrix-vector product takes 8 ms for (40 x 301)(301)
# on a 2-core machine, the product and row sum 21 us.
# ---------------------------------------------------------------------------

_GRID_BLOCK = 1 << 16  # most (element, winding) entries formed at once


def _unit_array(theta: float, m, sign=1.0) -> np.ndarray:
    """e^{i m sign theta} elementwise (sign +-1), exact at theta in {0, +-pi}."""
    shape = np.broadcast(m, sign).shape
    out = np.zeros(shape, dtype=complex)
    if theta == 0.0:
        out.real = 1.0
    elif abs(theta) == math.pi:
        out.real = 1.0 - 2.0 * np.fmod(np.abs(m), 2.0)  # m integral
    else:
        phase = (sign * theta) * m
        out.real, out.imag = np.cos(phase), np.sin(phase)
    return out


def _expint_scaled_array(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """summation._expint_scaled at every element of w, each series or fraction
    run until its own element converges."""
    reach = np.abs(w) + w.real
    if ((np.abs(w) > 700.0) & (reach <= 8.0)).any():
        raise NonConvergent("exponential integral out of range in a lattice-sum tail")
    value, err = np.empty_like(w), np.empty(w.shape)
    near = reach <= 8.0
    if near.any():
        wn = w[near]
        series, power = np.zeros_like(wn), np.ones_like(wn)
        size, open_, n = np.zeros(wn.shape), np.ones(wn.shape, dtype=bool), 0
        while open_.any():
            n += 1
            power = power * (-wn / n)
            piece = power / n
            series = np.where(open_, series - piece, series)
            size = np.where(open_, size + np.abs(piece), size)
            if n > 4:
                open_ &= ~(np.abs(piece) <= 1e-18 * size)
        log_w = np.log(np.abs(wn)) + 1j * np.arctan2(wn.imag, wn.real)
        scale = np.exp(wn.real) * _unit_array(1.0, wn.imag)
        value[near] = scale * (-_EULER_GAMMA - log_w + series)
        err[near] = 8.0 * _EPS * np.abs(scale) * (_EULER_GAMMA + np.abs(log_w) + size)
    if not near.all():
        wf = w[~near]
        f = wf + 1.0
        big_c, big_d, delta = f, np.zeros_like(wf), np.zeros_like(wf)
        open_ = np.ones(wf.shape, dtype=bool)
        for n in range(1, 2000):
            a_n, b_n = -float(n * n), wf + (2 * n + 1)
            big_d = b_n + a_n * big_d
            big_c = b_n + a_n / big_c
            big_d = 1.0 / np.where(big_d != 0, big_d, 1e-300)
            big_c = np.where(big_c != 0, big_c, 1e-300)
            step = big_c * big_d
            f = np.where(open_, f * step, f)
            delta = np.where(open_, step, delta)
            open_ &= ~(np.abs(step - 1.0) <= _EPS)
            if not open_.any():
                break
        value[~near] = 1.0 / f
        err[~near] = np.abs(1.0 / f) * (16.0 * _EPS + 4.0 * np.abs(delta - 1.0))
    return value, err


def _recip(u: np.ndarray) -> np.ndarray:
    """1/u elementwise by Smith's algorithm in the order Python's complex
    division uses, so that the tails match their scalar forms bit for bit
    (numpy multiplies by the reciprocal of the denominator instead)."""
    re, im = u.real, u.imag
    out = np.empty(u.shape, dtype=complex)
    wide = np.abs(re) >= np.abs(im)
    if wide.all():  # tails start a winding or more from the pole
        ratio = im / re
        denom = re + im * ratio
        out.real, out.imag = 1.0 / denom, -ratio / denom
        return out
    big, small = np.where(wide, re, im), np.where(wide, im, re)
    ratio = small / big
    denom = big + small * ratio
    out.real = np.where(wide, 1.0, ratio) / denom
    out.imag = np.where(wide, -ratio, -1.0) / denom
    return out


@functools.lru_cache(maxsize=64)
def _windings(theta: float, w: int) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """m = -w..w, and at a phase theta off 0 and +-pi, |m| and e^{i m theta}
    (read-only: shared by every call at this theta and w)."""
    m = np.arange(-w, w + 1, dtype=float)
    if theta == 0.0 or abs(theta) == math.pi:
        span = phase = None
    else:
        span, phase = np.abs(m), np.exp(1j * theta * m)
        span.flags.writeable = phase.flags.writeable = False
    m.flags.writeable = False
    return m, span, phase


@functools.cache
def _fold_binomials(k: int) -> np.ndarray:
    """C(j + k - 1, k - 1) for j = 0.._MAX_FOLDS."""
    return np.array([math.comb(j + k - 1, k - 1) for j in range(_MAX_FOLDS + 1)], dtype=float)


def _tails_poisson(
    c: np.ndarray, th: float, sign: np.ndarray, k: int, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """summation._tail_poisson at every element, at phase sign * th and start
    a; its _ORDER correction terms are one (elements x _ORDER) grid, their
    derivative factors multiplied and the terms summed in the scalar order
    by cumulative products and sums."""
    u = a + c
    y = 1.0 / u
    g = y**k
    up = np.array(_POISSON_AT_ZERO if th == 0.0 else _poisson_weights(th))
    sigma = up if th == 0.0 else np.where(sign[:, None] > 0.0, up, np.array(_poisson_weights(-th)))
    # the derivatives (k)_j u^{-(k+j)}, j < _ORDER
    factors = np.hstack([g[:, None], y[:, None] * np.arange(k, k + _ORDER - 1)])
    pieces = np.cumprod(factors, axis=1) * sigma
    corr = np.cumsum(pieces, axis=1)[:, -1]
    size = np.cumsum(np.abs(pieces), axis=1)[:, -1]
    if th == 0.0:
        integral = np.empty(u.shape, dtype=complex)
        if k == 1:
            integral.real = -np.log(np.abs(u))
            integral.imag = -np.arctan2(u.imag, u.real)
        else:
            integral = y ** (k - 1) / (k - 1)
        err = 0.0
    else:
        theta = sign * th
        integral, err = _expint_scaled_array(-1j * theta * u)
        for kk in range(2, k + 1):
            integral = y ** (kk - 1) / (kk - 1) + (1j * theta / (kk - 1)) * integral
            err = err * (abs(th) / (kk - 1))
    value = _unit_array(th, a, sign) * (0.5 * g + integral - corr)
    remainder = _poisson_remainder(th, k, a + c.real)
    rounding = 8.0 * _EPS * (np.abs(g) + np.abs(integral) + size) + err
    return value, remainder, rounding


def _tails_by_parts(
    c: np.ndarray, th: float, sign: np.ndarray, k: int, a: np.ndarray, goal: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """summation._tail_by_parts at every element, at phase sign * th, start a
    and goal.  The fold bounds are real and known in advance, so each
    element's fold count K is read off them first; the folds are then one
    (elements x max K) grid, multiplied and summed in the scalar order by
    cumulative products and sums."""
    up = sign > 0.0
    q_up, q_down = _unit(th, 1), _unit(-th, 1)
    one_q = np.where(up, 1.0 - q_up, 1.0 - q_down)
    ratio = np.where(up, -q_up / (1.0 - q_up), -q_down / (1.0 - q_down))
    inv = np.where(up, 1.0 / abs(1.0 - q_up), 1.0 / abs(1.0 - q_down))
    z = (a + c.real)[:, None]
    comb = _fold_binomials(k)
    for most in (16, _MAX_FOLDS):  # nearly every element stops within 16 folds
        folds = np.arange(1, most + 1)
        # growth before fold j (j = 0..most), and the bound after it
        growth = np.cumprod(np.hstack([z**-k, (inv[:, None] / z) * folds]), axis=1)
        nxt = growth[:, 1:] * comb[1 : most + 1] * (1.0 + z / (folds + k - 1))
        # fold j is taken unless nxt_j >= nxt_{j-1} (or nxt_0 is inf); the
        # folds stop after the first taken one whose bound meets the goal
        rise = nxt[:, 1:] >= nxt[:, :-1]
        stop = np.where(rise.any(axis=1), rise.argmax(axis=1) + 1, most)
        stop[nxt[:, 0] >= math.inf] = 0
        met = nxt <= goal[:, None]
        stop = np.minimum(stop, np.where(met.any(axis=1), met.argmax(axis=1) + 1, most))
        if (stop < most).all():
            break
    n_folds = int(stop.max())
    rows = np.arange(c.size)
    taken = np.arange(n_folds) < stop[:, None]
    sizes = np.cumsum(np.where(taken, growth[:, :n_folds] * comb[:n_folds], 0.0), axis=1)
    bound = np.where(stop > 0, nxt[rows, stop - 1], math.inf)
    total = np.zeros(c.shape, dtype=complex)
    if n_folds:
        y = _recip((a + c)[:, None] + np.arange(n_folds))
        steps = ratio[:, None] * np.arange(n_folds) * y
        steps[:, 0] = y[:, 0]
        piece = np.cumprod(steps, axis=1)
        if k > 1:
            homog = np.ones(y.shape, dtype=complex)
            for _ in range(1, k):
                homog = np.cumsum(y * homog, axis=1)
            piece = piece * homog
        total = np.cumsum(np.where(taken, piece, 0.0), axis=1)[rows, np.maximum(stop - 1, 0)]
        size = sizes[rows, np.maximum(stop - 1, 0)]
    else:
        size = np.zeros(c.shape)
    # at theta = pi, 1 - q = 2 and numpy's division is exact as Python's is
    lead = _unit_array(th, a, sign) / one_q
    return lead * total, bound, 4.0 * (_MAX_FOLDS + k) * _EPS * np.abs(lead) * size


def _direct_sums(
    c: np.ndarray, theta: float, k: int, w: np.ndarray, skip: np.ndarray | None, c_err
) -> tuple[np.ndarray, np.ndarray]:
    """summation._direct_sum at every element, with its own W: the
    elements of one W form one grid, at most _GRID_BLOCK entries at a
    time, and each row is summed as the scalar call sums it."""
    total, rounding = np.empty_like(c), np.empty(c.shape)
    for wv in sorted(set(w.tolist())):
        m, span, phase = _windings(theta, wv)
        rows_all = np.flatnonzero(w == wv)
        per_block = max(1, _GRID_BLOCK // m.size)
        for start in range(0, rows_all.size, per_block):
            rows = rows_all[start : start + per_block]
            u = m + c[rows, None]
            if skip is not None:
                at = (np.arange(rows.size), wv + skip[rows].astype(int))
                u[at] = 1.0
            g = 1.0 / u
            if k > 1:
                g **= k
            mag = np.abs(g)
            if skip is not None:
                g[at] = 0.0
                mag[at] = 0.0
            size = mag.sum(axis=1)
            rnd = _EPS * (math.log2(2 * wv + 1) + 16.0 + 4.0 * k) * size
            if span is None and theta == 0.0:
                tot = g.sum(axis=1)
            elif span is None:
                tot = g[:, wv % 2 :: 2].sum(axis=1) - g[:, 1 - wv % 2 :: 2].sum(axis=1)
            else:
                tot = (g * phase).sum(axis=1)
                rnd = rnd + _EPS * abs(theta) * (mag @ span)  # real: no slow product
            if np.ndim(c_err) or c_err:
                err = c_err[rows] if np.ndim(c_err) else c_err
                rnd = rnd + err * k * size * mag.max(axis=1) ** (1.0 / k)
            total[rows], rounding[rows] = tot, rnd
    return total, rounding


def lattice_sum_array(
    step: float, d, t, theta: float, k: int, control: SeriesControl, skip_zero: bool
) -> SeriesValue:
    """:func:`~vacuum1d.summation.lattice_sum` at every element of the
    broadcast d and t."""
    d, t = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(t, dtype=float))
    shape = d.shape
    d, t = d.ravel(), t.ravel()
    if not d.size:
        empty = np.empty(shape)
        poisson = abs(math.remainder(theta, TWO_PI)) < _SMALL_ANGLE
        tag = EULER_MACLAURIN if poisson else SUMMATION_BY_PARTS
        return SeriesValue(empty.astype(complex), term_counts(0, shape), empty, tag)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _lattice_sums(step, d, t, shape, theta, k, control, skip_zero)


def _lattice_sums(
    step: float, d: np.ndarray, t: np.ndarray, shape: tuple[int, ...], theta: float, k: int,
    control: SeriesControl, skip_zero: bool,
) -> SeriesValue:
    """lattice_sum_array with numpy's warnings off: an element whose sum
    overflows turns inf or nan, and the check at the end raises
    InvalidParameter for the whole call."""
    du, tu = d / step, t / step
    if not (np.isfinite(du).all() and np.isfinite(tu).all() and math.isfinite(theta)):
        raise InvalidParameter(
            f"d and t must be finite and within the float range in steps of {step!r}, "
            "and the phase finite"
        )
    th = math.remainder(theta, TWO_PI)
    shift = np.round(du)
    d0 = du - shift  # exact (Sterbenz)
    on_pole = (tu == 0.0) & (d0 == 0.0)
    if skip_zero:
        on_pole &= shift != 0.0
    if on_pole.any():
        raise InvalidParameter("a lattice point sits on the pole (t = 0)")
    cap = int(control.max_terms)
    skip = shift if skip_zero else None
    if skip is not None and (np.abs(skip) > cap).any():
        raise InvalidParameter("skip_zero needs |d| <= step * max_terms")
    poisson = abs(th) < _SMALL_ANGLE
    c = np.empty(d.shape, dtype=complex)
    c.real, c.imag = d0, -tu
    tol = control.tol
    for _ in range(k):
        tol *= step
    tol = np.minimum(np.maximum(tol, _EPS * (1.0 + np.abs(c)) ** -k), sys.float_info.max)
    tol = np.maximum(tol, sys.float_info.min)
    if poisson:
        first = (2.0 * _poisson_remainder(th, k, 1.0) / tol) ** (1.0 / (k + _ORDER - 1))
    else:
        gap = 2.0 * math.sin(0.5 * abs(th))
        reach = np.minimum((720.0 / tol) ** (1.0 / 6.0), 150.0 * gap)
        rho = np.maximum(np.log(1.0 / tol) + 4.0, reach)
        first = rho / gap
    first = first + np.abs(d0) - 1.0
    w = np.maximum(np.ceil(np.minimum(first, cap)), 1.0)
    if skip is not None:
        w = np.maximum(w, np.abs(skip))
    w = np.where(first >= cap, cap, w).astype(np.int64)
    c_err = 0.0 if math.frexp(step)[0] == 0.5 else _EPS * (np.abs(du) + np.abs(tu))
    total, rounding = _direct_sums(c, th, k, w, skip, c_err)
    goal = np.maximum(tol, rounding)
    # both tails of every element: rows n..2n-1 are the m < -W tails
    n = c.size
    both_c = np.concatenate([c, -c])
    sign = np.repeat([1.0, -1.0], n)
    both_goal = 0.5 * np.concatenate([goal, goal])

    def tails(rows: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a = np.concatenate([w, w])[rows] + 1.0
        if poisson:
            return _tails_poisson(both_c[rows], th, sign[rows], k, a)
        return _tails_by_parts(both_c[rows], th, sign[rows], k, a, both_goal[rows])

    tail, rem, tail_round = tails(slice(None))
    todo = np.flatnonzero(~(rem[:n] + rem[n:] <= goal) & (w < cap))
    moved = todo
    while todo.size:
        w[todo] = np.minimum(cap, 2 * w[todo])
        rows = np.concatenate([todo, todo + n])
        tail[rows], rem[rows], tail_round[rows] = tails(rows)
        todo = todo[~(rem[todo] + rem[todo + n] <= goal[todo]) & (w[todo] < cap)]
    if moved.size:
        err = c_err[moved] if np.ndim(c_err) else c_err
        total[moved], rounding[moved] = _direct_sums(
            c[moved], th, k, w[moved], None if skip is None else skip[moved], err
        )
    unshifted = total + tail[:n] + (-1) ** k * tail[n:]
    if th != 0.0 and abs(th) != math.pi:
        rounding = rounding + _EPS * np.abs(th * shift) * np.abs(unshifted)
    value = _unit_array(th, -shift) * unshifted
    bound = rem[:n] + rem[n:] + rounding + tail_round[:n] + tail_round[n:]
    if np.ndim(c_err):
        bound = bound + k * _EPS * np.abs(value)
    for _ in range(k):
        value.real, value.imag = value.real / step, value.imag / step
        bound = bound / step
    if not (np.isfinite(value).all() and np.isfinite(bound).all()):
        raise InvalidParameter(f"lattice sum overflows at step={step!r}")
    return SeriesValue(
        value=value.reshape(shape),
        terms_used=term_counts(2 * w + 1 - (skip is not None), shape),
        truncation_bound=bound.reshape(shape),
        method_tag=EULER_MACLAURIN if poisson else SUMMATION_BY_PARTS,
    )
