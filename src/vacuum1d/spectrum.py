"""Model geometries, eigenvalue sequences, and eigenvalue counting.

Three one-dimensional model spaces:

* :class:`Interval` -- a segment of length L with a Dirichlet or Neumann
  condition at each end.  Frequencies are ``j pi / L`` (like conditions)
  or ``(j + 1/2) pi / L`` (mixed), with a zero mode when both ends are
  Neumann.
* :class:`HalfLine` -- the ray x > 0 with one condition at the origin and
  a purely continuous spectrum.
* :class:`TwistedCircle` -- a circle of circumference L with a U(1)
  holonomy angle theta; frequencies ``(2 pi j +/- theta)/L`` with the
  two branches merging into doubly degenerate levels at theta = 0, pi.

The counting function N(omega) = #{omega_j <= omega} (zero modes counted
with full weight) splits exactly into

    N = N_weyl + N_periodic + N_boundary,

where ``N_weyl = L omega / pi`` is the volume term, ``N_periodic`` is an
oscillating sawtooth closed form carried by the periodic orbits, and
``N_boundary`` is the constant ``(-1)^l / 2`` present only when the two
endpoint conditions match (l = r).  On the half-line the boundary term
is a delta atom at omega = 0 and the counting function itself is not
defined; those operations raise :class:`ContinuousSpectrum`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import summation
from .errors import (
    AtEigenvalue,
    ContinuousSpectrum,
    InvalidParameter,
    OutOfDomain,
)

TWO_PI = 2.0 * math.pi


class BoundaryCondition(enum.Enum):
    """Endpoint condition; ``parity_index`` is the exponent l with
    Dirichlet = 1, Neumann = 0, so reflection signs read ``(-1)**l``."""

    DIRICHLET = "D"
    NEUMANN = "N"

    @property
    def parity_index(self) -> int:
        return 1 if self is BoundaryCondition.DIRICHLET else 0


DIRICHLET = BoundaryCondition.DIRICHLET
NEUMANN = BoundaryCondition.NEUMANN


@dataclass(frozen=True)
class Interval:
    """Segment (0, L) with conditions ``left`` at 0 and ``right`` at L."""

    length: float
    left: BoundaryCondition = DIRICHLET
    right: BoundaryCondition = DIRICHLET

    def __post_init__(self) -> None:
        if not (self.length > 0.0) or not math.isfinite(self.length):
            raise InvalidParameter("interval length must be positive and finite")

    @property
    def l(self) -> int:  # noqa: E743 - established index name
        return self.left.parity_index

    @property
    def r(self) -> int:
        return self.right.parity_index

    @property
    def like_ends(self) -> bool:
        return self.left is self.right


@dataclass(frozen=True)
class HalfLine:
    """The ray x > 0 with one condition at the origin."""

    condition: BoundaryCondition = DIRICHLET

    @property
    def l(self) -> int:  # noqa: E743
        return self.condition.parity_index


@dataclass(frozen=True)
class TwistedCircle:
    """Circle of circumference L with holonomy angle theta.

    Sections obey ``u(x + L) = e^{i theta} u(x)``; theta is stored
    normalized into [0, 2 pi).
    """

    length: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not (self.length > 0.0) or not math.isfinite(self.length):
            raise InvalidParameter("circumference must be positive and finite")
        if not math.isfinite(self.theta):
            raise InvalidParameter("theta must be finite")
        tr = math.fmod(self.theta, TWO_PI)
        if tr < 0.0:
            tr += TWO_PI
        object.__setattr__(self, "theta", tr)


Geometry = Union[Interval, HalfLine, TwistedCircle]


# ---------------------------------------------------------------------------
# Eigenvalue enumeration.
#
# All index arithmetic is exact: a floor() candidate is corrected by
# direct float comparison of the candidate frequency against omega, with
# the frequency computed by the same expression the generator uses, so
# counting and enumeration can never disagree at the margins.
# ---------------------------------------------------------------------------


def _count_leq(step: float, offset: float, j_min: int, omega: float) -> int:
    """Number of j >= j_min with offset + j*step <= omega (exact)."""
    if omega < offset + j_min * step:
        return 0
    j = int(math.floor((omega - offset) / step))
    while offset + (j + 1) * step <= omega:
        j += 1
    while j >= j_min and offset + j * step > omega:
        j -= 1
    return max(0, j - j_min + 1)


def _interval_ladder(geom: Interval) -> tuple[float, float, int]:
    """(step, offset, j_min) describing omega_j = offset + j*step."""
    step = math.pi / geom.length
    if geom.left is geom.right:
        j_min = 1 if geom.left is DIRICHLET else 0
        return step, 0.0, j_min
    return step, 0.5 * step, 0


def eigenvalues(geometry: Geometry, omega_max: float) -> list[tuple[float, int]]:
    """All eigenfrequencies up to ``omega_max`` with multiplicities.

    Parameters
    ----------
    geometry : Interval or TwistedCircle
        Discrete-spectrum geometry.  :class:`HalfLine` raises
        :class:`ContinuousSpectrum`.
    omega_max : float
        Upper frequency cutoff, positive and finite; the list contains every
        omega_j <= omega_max (including a zero mode where one exists).

    Returns
    -------
    list of (omega, multiplicity)
        Sorted ascending.  Twisted-circle levels at theta = 0 or pi merge
        into multiplicity-2 entries.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line has no discrete eigenvalues")
    if not (omega_max > 0.0) or not math.isfinite(omega_max):
        raise InvalidParameter("omega_max must be positive and finite")
    if isinstance(geometry, Interval):
        step, offset, j_min = _interval_ladder(geometry)
        n = _count_leq(step, offset, j_min, omega_max)
        return [(offset + j * step, 1) for j in range(j_min, j_min + n)]
    # Twisted circle: branches (2 pi j + theta)/L, j >= 0 and
    # (2 pi j - theta)/L, j >= 1.
    length, theta = geometry.length, geometry.theta
    if theta == 0.0:
        n = _count_leq(TWO_PI / length, 0.0, 1, omega_max)
        return [(0.0, 1)] + [(j * TWO_PI / length, 2) for j in range(1, n + 1)]
    if theta == math.pi:
        n = _count_leq(TWO_PI / length, math.pi / length, 0, omega_max)
        return [((TWO_PI * j + math.pi) / length, 2) for j in range(n)]
    out: list[tuple[float, int]] = []
    n_plus = _count_leq(TWO_PI / length, theta / length, 0, omega_max)
    out.extend(((TWO_PI * j + theta) / length, 1) for j in range(n_plus))
    n_minus = _count_leq(TWO_PI / length, -theta / length, 1, omega_max)
    out.extend(((TWO_PI * j - theta) / length, 1) for j in range(1, n_minus + 1))
    out.sort(key=lambda pair: pair[0])
    return out


def counting_function(geometry: Geometry, omega: float) -> int:
    """N(omega): number of eigenvalues <= omega, with multiplicity.

    Zero modes count with full weight, so N(0) = 1 for a Neumann-Neumann
    interval and an untwisted circle.  Negative omega gives 0.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line counting function is not defined")
    if not math.isfinite(omega):
        raise InvalidParameter("omega must be finite")
    if omega < 0.0:
        return 0
    if isinstance(geometry, Interval):
        step, offset, j_min = _interval_ladder(geometry)
        return _count_leq(step, offset, j_min, omega)
    length, theta = geometry.length, geometry.theta
    n_plus = _count_leq(TWO_PI / length, theta / length, 0, omega)
    n_minus = _count_leq(TWO_PI / length, -theta / length, 1, omega)
    return n_plus + n_minus


@dataclass(frozen=True)
class CountingDecomposition:
    """Weyl / periodic-orbit / boundary split of the counting function."""

    omega: float
    weyl: float
    periodic: float
    boundary: float

    @property
    def total(self) -> float:
        return self.weyl + self.periodic + self.boundary


def _nearest_eigen_distance(geometry: Geometry, omega: float) -> float:
    """Distance from omega to the nearest eigenfrequency (closed form)."""
    if isinstance(geometry, Interval):
        ladders = [_interval_ladder(geometry)]
    else:
        step = TWO_PI / geometry.length
        ladders = [
            (step, geometry.theta / geometry.length, 0),
            (step, -geometry.theta / geometry.length, 1),
        ]
    best = math.inf
    for step, offset, j_min in ladders:
        j = max(j_min, round((omega - offset) / step))
        for jj in (j - 1, j, j + 1):
            if jj >= j_min:
                best = min(best, abs(omega - (offset + jj * step)))
    return best


def periodic_counting_term(geometry: Geometry, omega: float) -> float:
    """The oscillatory (periodic-orbit) part of the counting function.

    Closed sawtooth forms::

        interval, like ends:   saw(2 omega L) / (2 pi)            via sum sin(2 omega L n)/n
        interval, mixed ends:  alternating variant, = saw(2 omega L + pi)/(2 pi) - ...
        twisted circle:        [saw(omega L + theta) + saw(omega L - theta)] / (2 pi)

    where saw is the sawtooth summed by :func:`summation.bernoulli_sin_sum`.
    """
    if isinstance(geometry, HalfLine):
        return 0.0
    if isinstance(geometry, Interval):
        z = 2.0 * omega * geometry.length
        if geometry.like_ends:
            return summation.bernoulli_sin_sum(z) / math.pi
        # (-1)^n sin(n z) = sin(n (z + pi)).
        return summation.bernoulli_sin_sum(z + math.pi) / math.pi
    zl = omega * geometry.length
    return (
        summation.bernoulli_sin_sum(zl + geometry.theta)
        + summation.bernoulli_sin_sum(zl - geometry.theta)
    ) / math.pi


def boundary_counting_term(geometry: Geometry) -> float:
    """The constant boundary part: (-1)^l / 2 for like-ended intervals,
    zero for mixed ends and circles."""
    if isinstance(geometry, Interval) and geometry.like_ends:
        return 0.5 * (-1.0) ** geometry.l
    return 0.0


def counting_decomposition(
    geometry: Geometry, omega: float, tol_eigen: float | None = None
) -> CountingDecomposition:
    """Exact Weyl + periodic + boundary split of N(omega).

    Parameters
    ----------
    geometry : Interval or TwistedCircle
    omega : float
        Frequency, > 0, finite, and not within ``tol_eigen`` of an eigenvalue
        (where the sawtooth sits on a jump and the split is ambiguous);
        raises :class:`AtEigenvalue` there.
    tol_eigen : float, optional
        Guard distance; default ``1e-9 * pi / L``.

    Returns
    -------
    CountingDecomposition
        Satisfies ``total == counting_function(geometry, omega)`` exactly
        (to rounding) away from eigenvalues.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line counting function is not defined")
    if not (omega > 0.0) or not math.isfinite(omega):
        raise InvalidParameter("omega must be positive and finite")
    if tol_eigen is None:
        tol_eigen = 1e-9 * math.pi / geometry.length
    dist = _nearest_eigen_distance(geometry, omega)
    if dist <= tol_eigen:
        raise AtEigenvalue(
            f"omega={omega!r} is within {tol_eigen:.2e} of an eigenvalue "
            f"(distance {dist:.2e})"
        )
    weyl = geometry.length * omega / math.pi
    return CountingDecomposition(
        omega=omega,
        weyl=weyl,
        periodic=periodic_counting_term(geometry, omega),
        boundary=boundary_counting_term(geometry),
    )


def eigenfunction_density(geometry: Geometry, j: int, x: float) -> float:
    """|phi_j(x)|^2 for the normalized j-th eigenfunction.

    Interval modes: ``(2/L) sin^2(omega_j x)`` rooted Dirichlet at 0,
    ``(2/L) cos^2(omega_j x)`` rooted Neumann at 0, except the Neumann-
    Neumann zero mode which is flat 1/L.  Twisted-circle sections have
    constant density 1/L for every j.  Indices follow the enumeration of
    :func:`eigenvalues`: j >= 1 for Dirichlet-Dirichlet, j >= 0 otherwise.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line modes are not normalizable")
    if isinstance(geometry, TwistedCircle):
        return 1.0 / geometry.length
    length = geometry.length
    if not (0.0 < x < length):
        raise OutOfDomain(f"x={x!r} not in (0, {length})")
    step, offset, j_min = _interval_ladder(geometry)
    if j < j_min:
        raise InvalidParameter(f"mode index {j} below first index {j_min}")
    omega = offset + j * step
    if geometry.left is NEUMANN and geometry.right is NEUMANN and j == 0:
        return 1.0 / length
    if geometry.left is DIRICHLET:
        return 2.0 / length * math.sin(omega * x) ** 2
    return 2.0 / length * math.cos(omega * x) ** 2


def _mode_arrays(
    geometry: Geometry, omega_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """(omega, multiplicity) arrays up to omega_max, vectorized."""
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line has no discrete eigenvalues")
    if isinstance(geometry, Interval):
        step, offset, j_min = _interval_ladder(geometry)
        n = _count_leq(step, offset, j_min, omega_max)
        j = np.arange(j_min, j_min + n, dtype=float)
        return offset + j * step, np.ones_like(j)
    length, theta = geometry.length, geometry.theta
    step = TWO_PI / length
    n_plus = _count_leq(step, theta / length, 0, omega_max)
    n_minus = _count_leq(step, -theta / length, 1, omega_max)
    jp = np.arange(0, n_plus, dtype=float)
    jm = np.arange(1, n_minus + 1, dtype=float)
    om = np.concatenate([(TWO_PI * jp + theta) / length, (TWO_PI * jm - theta) / length])
    order = np.argsort(om, kind="stable")
    return om[order], np.ones_like(om)
