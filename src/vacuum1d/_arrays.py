"""Array calls of the lattice sum, and the term counts of array calls.

:func:`vacuum1d.summation.lattice_sum` hands array input here, and
:func:`vacuum1d.kernels.cylinder_kernel` builds its per-point term counts
here; a one-point float call pays nothing for this module, not even its
import.
"""

from __future__ import annotations

import math

import numpy as np

from . import summation
from .errors import InvalidParameter
from .summation import (
    _SMALL_ANGLE,
    EULER_MACLAURIN,
    SUMMATION_BY_PARTS,
    TWO_PI,
    SeriesControl,
    SeriesValue,
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


def lattice_sum_array(
    step: float, d, t, theta: float, k: int, control: SeriesControl, skip_zero: bool
) -> SeriesValue:
    """:func:`~vacuum1d.summation.lattice_sum` at every element of the
    broadcast d and t: one float call per element, made through the private
    name, so that a call tracer sees the one array call."""
    d, t = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(t, dtype=float))
    ones = [
        summation._lattice_sum(step, a, b, theta, k, control, skip_zero)
        for a, b in zip(d.ravel().tolist(), t.ravel().tolist())
    ]
    if not math.isfinite(theta):  # an empty array: no element has checked it
        raise InvalidParameter("lattice phase must be finite")
    poisson = abs(math.remainder(theta, TWO_PI)) < _SMALL_ANGLE
    terms = np.array([one.terms_used for one in ones], dtype=np.int64)
    return SeriesValue(
        value=np.array([one.value for one in ones], dtype=complex).reshape(d.shape),
        terms_used=terms.reshape(d.shape).view(TermCounts),
        truncation_bound=np.array([one.truncation_bound for one in ones]).reshape(d.shape),
        method_tag=EULER_MACLAURIN if poisson else SUMMATION_BY_PARTS,
    )
