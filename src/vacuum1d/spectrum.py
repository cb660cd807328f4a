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

import collections
import enum
import math
from typing import TYPE_CHECKING, Union

from .errors import AtEigenvalue, ContinuousSpectrum, InvalidParameter, OutOfDomain, Record
from .errors import as_count, as_float, as_real
from .series import bernoulli_sin_sum

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi
# The geometries store their fields through object.__setattr__, not
# __dict__: an object whose __dict__ was never asked for keeps its
# attributes inline, and the hot loops read them faster.
_set = object.__setattr__


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


class Interval(Record):
    """Segment (0, L) with conditions ``left`` at 0 and ``right`` at L."""

    length: float
    left: BoundaryCondition = DIRICHLET
    right: BoundaryCondition = DIRICHLET

    def __init__(
        self,
        length: float,
        left: BoundaryCondition = DIRICHLET,
        right: BoundaryCondition = DIRICHLET,
    ) -> None:
        length = as_real(length, "interval length", positive=True)
        _set(self, "length", length)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_domain", (0.0, length))

    @property
    def l(self) -> int:  # noqa: E743 - established index name
        return self.left.parity_index

    @property
    def r(self) -> int:
        return self.right.parity_index

    @property
    def like_ends(self) -> bool:
        return self.left is self.right


class HalfLine(Record):
    """The ray x > 0 with one condition at the origin."""

    condition: BoundaryCondition = DIRICHLET
    _domain = (0.0, math.inf)

    def __init__(self, condition: BoundaryCondition = DIRICHLET) -> None:
        _set(self, "condition", condition)

    @property
    def l(self) -> int:  # noqa: E743
        return self.condition.parity_index


class TwistedCircle(Record):
    """Circle of circumference L with holonomy angle theta.

    Sections obey ``u(x + L) = e^{i theta} u(x)``; theta is stored
    normalized into [0, 2 pi).
    """

    length: float
    theta: float = 0.0
    _domain = (-math.inf, math.inf)

    def __init__(self, length: float, theta: float = 0.0) -> None:
        _set(self, "length", as_real(length, "circumference", positive=True))
        theta = math.fmod(as_real(theta, "theta"), TWO_PI)
        _set(self, "theta", theta + TWO_PI if theta < 0.0 else theta)


Geometry = Union[Interval, HalfLine, TwistedCircle]
# (sign, reflected, turns, theta): one image family of _images
Family = tuple[float, bool, int, float]


def as_point(geometry: Geometry, x: object, closed: bool = False) -> float:
    """The point rule: :func:`~vacuum1d.errors.as_float` of x inside
    ``geometry._domain`` (0, L), (0, inf) or (-inf, inf), with its finite
    ends where ``closed`` is set; a point outside raises :class:`OutOfDomain`.

    >>> as_point(Interval(1.0), 1, closed=True)
    1.0
    >>> as_point(Interval(1.0), 1)
    Traceback (most recent call last):
    vacuum1d.errors.OutOfDomain: x=1.0 not in (0, 1.0)
    """
    if type(x) is not float:
        x = as_float(x, "x")
    lo, hi = geometry._domain
    if lo < x < hi or closed and (x == lo or x == hi) and -math.inf < x < math.inf:
        return x
    left = ("[" if closed else "(") + "0" if lo == 0.0 else "(-inf"
    raise OutOfDomain(f"x={x!r} not in {left}, {hi}{']' if closed and hi < math.inf else ')'}")


def _phase(v: float, length: float) -> float:
    """pi v/L, formed as pi (v/L) where pi v overflows (|v| above about
    5.7e307).  pi v/2L is _phase(v/2, L): halved first, so that no 2 L or
    2 x is formed, and equal to pi v/(2 L) bit for bit wherever that is
    finite and normal."""
    p = math.pi * v / length
    return p if abs(p) < math.inf else math.pi * (v / length)


# ---------------------------------------------------------------------------
# Eigenvalue ladders.
#
# Every discrete spectrum here is a union of arithmetic ladders
# omega_j = offset + j*step, j >= j_min, and _ladders is the one place
# that writes them down.  Enumeration, counting and the mode sums of
# :mod:`vacuum1d.kernels` all read that table and form each frequency by
# the same expression offset + j*step (_rung), and a floor() count is
# corrected by direct float comparison against that expression, so
# counting and enumeration can never disagree at the margins.
# ---------------------------------------------------------------------------

# The most levels eigenvalues() lists, and images heat_kernel_diag sums per
# array; past it they raise InvalidParameter instead of asking numpy for it.
MAX_RUNGS = 1_000_000


def _ladders(geometry: Interval | TwistedCircle) -> tuple[tuple[float, float, int], ...]:
    """(step, offset, j_min) of each ladder omega_j = offset + j*step.

    One ladder on the interval.  Two on the twisted circle: right movers
    theta/L + j 2 pi/L from j = 0, then left movers -theta/L + j 2 pi/L
    from j = 1.  At theta = pi the left movers are written as the right
    movers' ladder, so there, as at theta = 0, the common levels of the two
    ladders are equal floats and merge into multiplicity 2.  Where theta/L
    overflows (L below about 1e-308), -theta/L + 2 pi/L would be -inf + inf,
    so the left movers are written from their first level (2 pi - theta)/L
    at j = 0; every later rung is inf either way."""
    if isinstance(geometry, Interval):
        step = math.pi / geometry.length
        if geometry.like_ends:
            return ((step, 0.0, 1 if geometry.left is DIRICHLET else 0),)
        return ((step, 0.5 * step, 0),)
    length, theta = geometry.length, geometry.theta
    step = TWO_PI / length
    offset = theta / length
    right = (step, offset, 0)
    if theta == math.pi:
        return (right, right)
    if math.isinf(offset):
        return (right, (step, (TWO_PI - theta) / length, 0))
    return (right, (step, -offset, 1))


def _images(geometry: Geometry) -> tuple[Family, ...]:
    """(sign, reflected, turns, theta) of each image family, direct first:
    the one table of them that every image and orbit route reads, as
    :func:`_ladders` is of the ladders.

    The images of y seen from x sit at d + m turns L, m in Z, with d = x - y
    (direct) or x + y (reflected), and weigh sign e^{i m theta}.  The
    interval has two families, 2L apart, theta = 0 for like ends and pi for
    mixed ends, the reflected one signed (-1)^l.  The circle has one, L
    apart: its winding n sits at x - y - nL with phase n theta, so m = -n
    carries -theta.  The half-line has one image of each kind (turns 0).
    The kernel image sums, the heat diagonal, the half-line mode legs, the
    orbit series of :mod:`vacuum1d.orbits` and both counting terms read it.

    Examples
    --------
    >>> _images(Interval(1.0, DIRICHLET, NEUMANN))
    ((1.0, False, 2, 3.141592653589793), (-1.0, True, 2, 3.141592653589793))
    >>> _images(TwistedCircle(1.0, 0.5))
    ((1.0, False, 1, -0.5),)
    >>> _images(HalfLine(NEUMANN))
    ((1.0, False, 0, 0.0), (1.0, True, 0, 0.0))
    """
    if isinstance(geometry, TwistedCircle):
        return ((1.0, False, 1, -geometry.theta),)
    if isinstance(geometry, HalfLine):
        sign = -1.0 if geometry.condition is DIRICHLET else 1.0
        return ((1.0, False, 0, 0.0), (sign, True, 0, 0.0))
    sign = -1.0 if geometry.left is DIRICHLET else 1.0
    theta = 0.0 if geometry.like_ends else math.pi
    return ((1.0, False, 2, theta), (sign, True, 2, theta))


def _walls(rows: tuple[Family, ...]) -> bool:
    """Whether a table of :func:`_images` (direct family first) ends in a
    reflected family; there theta is 0 or pi, a sign, not a holonomy."""
    return rows[-1][1]


def _rung(step: float, offset: float, j: int) -> float:
    """offset + j*step.  Rung 0 is offset + 0.0, which is offset + 0*step at
    every finite step, and stays the offset (the zero mode 0.0) where the
    step overflows, at lengths below about 1.8e-308."""
    return offset + j * step if j else offset + 0.0


def _count_leq(step: float, offset: float, j_min: int, omega: float) -> int:
    """Number of j >= j_min with offset + j*step <= omega (exact below
    2^52 rungs; past that, neighbouring rungs round to one float, the
    comparisons cannot tell them apart, and the floor() count stands)."""
    if omega < _rung(step, offset, j_min):
        return 0
    position = (omega - offset) / step
    if not math.isfinite(position):
        raise InvalidParameter(f"omega = {omega!r} is past the float range of its ladder")
    j = int(math.floor(position))
    if j < 2**52:
        while offset + (j + 1) * step <= omega:
            j += 1
        while j >= j_min and _rung(step, offset, j) > omega:
            j -= 1
    return max(0, j - j_min + 1)


def _rungs(
    ladder: tuple[float, float, int], omega_max: float, cap: float = math.inf
) -> np.ndarray:
    """The frequencies offset + j*step <= omega_max of one ladder, at most
    ``cap`` of them, rung 0 as :func:`_rung` forms it; omega_max may be
    inf when a cap is given.  A rung past the float range is inf, as
    :func:`_rung` forms it, and raises no numpy warning."""
    import numpy as np

    step, offset, j_min = ladder
    above = (omega_max - offset) / step - j_min  # rungs past the first
    n = cap if above >= cap else min(cap, _count_leq(step, offset, j_min, omega_max))
    j = np.arange(j_min, j_min + n, dtype=float)
    if offset + (j_min + n - 1) * step < math.inf:
        return offset + np.multiply(j, step, out=j, where=j != 0.0)
    with np.errstate(over="ignore"):
        return offset + np.multiply(j, step, out=j, where=j != 0.0)


def eigenvalues(geometry: Geometry, omega_max: float) -> list[tuple[float, int]]:
    """All eigenfrequencies up to ``omega_max`` with multiplicities.

    Parameters
    ----------
    geometry : Interval or TwistedCircle
        Discrete-spectrum geometry.  :class:`HalfLine` raises
        :class:`ContinuousSpectrum`.
    omega_max : float
        Upper frequency cutoff, a positive finite scalar; the list contains every
        omega_j <= omega_max (including a zero mode where one exists).  Past
        :data:`MAX_RUNGS` levels it raises :class:`InvalidParameter`.

    Returns
    -------
    list of (omega, multiplicity)
        Sorted ascending.  Twisted-circle levels at theta = 0 or pi merge
        into multiplicity-2 entries.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line has no discrete eigenvalues")
    omega_max = as_real(omega_max, "omega_max", positive=True)
    if counting_function(geometry, omega_max) > MAX_RUNGS:
        raise InvalidParameter(f"more than {MAX_RUNGS} levels up to omega_max = {omega_max!r}")
    # each rung as _rungs forms it, with j converted to a float exactly, in
    # plain floats; equal floats merge in sorted order
    levels = sorted(
        _rung(step, offset, j)
        for step, offset, j_min in _ladders(geometry)
        for j in range(j_min, j_min + _count_leq(step, offset, j_min, omega_max))
    )
    return list(collections.Counter(levels).items())


def counting_function(geometry: Geometry, omega: float) -> int:
    """N(omega): number of eigenvalues <= omega, with multiplicity.

    Zero modes count with full weight, so N(0) = 1 for a Neumann-Neumann
    interval and an untwisted circle.  Negative omega gives 0.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line counting function is not defined")
    omega = as_real(omega, "omega")
    if omega < 0.0:
        return 0
    return sum(_count_leq(*ladder, omega) for ladder in _ladders(geometry))


class CountingDecomposition(Record):
    """Weyl / periodic-orbit / boundary split of the counting function."""

    omega: float
    weyl: float
    periodic: float
    boundary: float

    def __init__(self, omega: float, weyl: float, periodic: float, boundary: float) -> None:
        self.__dict__.update(omega=omega, weyl=weyl, periodic=periodic, boundary=boundary)

    @property
    def total(self) -> float:
        return self.weyl + self.periodic + self.boundary


def _nearest_eigen_distance(geometry: Geometry, omega: float) -> float:
    """Distance from omega to the nearest eigenfrequency (closed form)."""
    best = math.inf
    for step, offset, j_min in _ladders(geometry):
        if math.isnan(position := (omega - offset) / step):  # no level is finite
            continue
        j = max(j_min, round(position))
        for jj in (j - 1, j, j + 1):
            if jj >= j_min:
                best = min(best, abs(omega - (offset + jj * step)))
    return best


def periodic_counting_term(geometry: Geometry, omega: float) -> float:
    """The oscillatory (periodic-orbit) part of the counting function.

    Closed sawtooth forms, with z = turns omega L and theta of the direct
    family of :func:`_images` and saw the sawtooth sum sin(n z)/n of
    :func:`~vacuum1d.series.bernoulli_sin_sum`: ``saw(z + theta) / pi`` with
    walls, where theta = 0 or pi is the sign (-1)^n, and ``[saw(z - theta)
    + saw(z + theta)] / pi`` on the circle; 0 on the half-line.  Raises
    :class:`InvalidParameter` where the phase z overflows, or underflows to
    0 onto the sawtooth's jump.
    """
    rows = _images(geometry)
    _, _, turns, theta = rows[0]
    if not turns:
        return 0.0
    z = turns * (omega * geometry.length)
    if not 0.0 < z < math.inf:
        raise InvalidParameter(f"the sawtooth phase is past the float range at omega = {omega!r}")
    saw = bernoulli_sin_sum
    if _walls(rows):
        return saw(z + theta) / math.pi
    return (saw(z - theta) + saw(z + theta)) / math.pi


def boundary_counting_term(geometry: Geometry) -> float:
    """The constant boundary part: each reflected image family of
    :func:`_images` telescopes to sign/2 at theta = 0 and cancels pairwise
    at theta = pi, so it is (-1)^l / 2 for like-ended intervals and zero
    for mixed ends and circles.  The half-line's lone reflected image (no
    turns) is a delta atom at omega = 0 instead, and adds zero here."""
    rows = _images(geometry)
    return sum((0.5 * sign for sign, reflected, turns, theta in rows
                if reflected and turns and theta == 0.0), 0.0)


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
        raises :class:`AtEigenvalue` there, and :class:`InvalidParameter`
        where :func:`periodic_counting_term` does; a level past the float
        range (L below about 1.8e-308) is never near omega.
    tol_eigen : float, optional
        Guard distance, >= 0; default ``1e-9 * pi / L``.  At 0 only an
        exact level raises.

    Returns
    -------
    CountingDecomposition
        Satisfies ``total == counting_function(geometry, omega)`` exactly
        (to rounding) away from eigenvalues.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line counting function is not defined")
    omega = as_real(omega, "omega", positive=True)
    # first: past the float range, an eigenvalue lies within an ulp of omega
    periodic = periodic_counting_term(geometry, omega)
    if tol_eigen is None:
        tol_eigen = 1e-9 * math.pi / geometry.length
    else:
        tol_eigen = as_real(tol_eigen, "tol_eigen")
        if tol_eigen < 0.0:
            raise InvalidParameter(f"tol_eigen must be >= 0, not {tol_eigen!r}")
    dist = _nearest_eigen_distance(geometry, omega)
    if dist <= tol_eigen and dist < math.inf:
        raise AtEigenvalue(
            f"omega={omega!r} is within {tol_eigen:.2e} of an eigenvalue "
            f"(distance {dist:.2e})"
        )
    weyl = geometry.length * omega / math.pi
    return CountingDecomposition(
        omega=omega,
        weyl=weyl,
        periodic=periodic,
        boundary=boundary_counting_term(geometry),
    )


def eigenfunction_density(geometry: Geometry, j: int, x: float) -> float:
    """|phi_j(x)|^2 for the normalized j-th eigenfunction.

    Interval modes: ``(2/L) sin^2(omega_j x)`` rooted Dirichlet at 0,
    ``(2/L) cos^2(omega_j x)`` rooted Neumann at 0, except the Neumann-
    Neumann zero mode which is flat 1/L.  Twisted-circle sections have
    constant density 1/L for every j.  Indices follow the enumeration of
    :func:`eigenvalues`: j >= 1 for Dirichlet-Dirichlet, j >= 0 otherwise.
    A phase omega_j x past the float range raises :class:`InvalidParameter`.
    """
    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line modes are not normalizable")
    j, x = as_count(j, "mode index j"), as_point(geometry, x)
    # the first ladder holds the first index: the circle's right movers from 0
    step, offset, j_min = _ladders(geometry)[0]
    if j < j_min:
        raise InvalidParameter(f"mode index {j} below first index {j_min}")
    if isinstance(geometry, TwistedCircle):
        return 1.0 / geometry.length
    length = geometry.length
    omega = offset + j * step
    if geometry.left is NEUMANN and geometry.right is NEUMANN and j == 0:
        return 1.0 / length
    if not math.isfinite(omega * x):
        raise InvalidParameter(f"the phase omega_j x leaves the float range at j = {j:.3g}")
    if geometry.left is DIRICHLET:
        return 2.0 / length * math.sin(omega * x) ** 2
    return 2.0 / length * math.cos(omega * x) ** 2
