"""Energy's report half: the coefficient fit, the Theorem-1 comparison and
the approximation hierarchy, with their records.

:func:`vacuum1d.energy.extract_cylinder_coefficients`,
:func:`~vacuum1d.energy.theorem1_check` and
:func:`~vacuum1d.energy.approximation_report` stay defined in
:mod:`vacuum1d.energy`, and so do their docstrings; each hands its work to
this module on its first call, so the energy and density commands never
compile it.  The four records (:class:`CylinderExpansion`,
:class:`Theorem1Report`, :class:`ApproximationRow`,
:class:`ApproximationReport`) are importable from :mod:`vacuum1d.energy`
too.  The energies, densities and coefficients these reports read are
called through the :mod:`vacuum1d.energy` module, so that whatever is
bound there runs (a tracer's wrapper, say), as when they lived in it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from . import energy
from .errors import ContinuousSpectrum, InvalidParameter, UnsupportedGeometry
from .series import SeriesControl
from .spectrum import NEUMANN, Geometry, HalfLine, Interval, TwistedCircle

if TYPE_CHECKING:
    import numpy as np

PI = math.pi

# ---------------------------------------------------------------------------
# Cylinder / heat coefficient extraction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderExpansion:
    """Small-t expansion ``t Tr T(t) = sum_k e_k t^k``, k = 0..4, read off
    the closed-form trace by a Cauchy integral.

    In one dimension the expansion has no logarithmic terms, which is
    what makes the e_2 energy coefficient well-defined.
    ``truncation_bound`` is keyed like ``e`` and bounds each coefficient's
    error (see :func:`~vacuum1d.energy.extract_cylinder_coefficients`).
    """

    e: dict[int, float]
    d: int
    truncation_bound: dict[int, float]

    @property
    def energy(self) -> float:
        """The vacuum energy read off the expansion: -e_2 / 2."""
        return -0.5 * self.e[2]


# N nodes on |u| = r = R/2, aliasing bounded on |u| = rho = 0.95 R, so
# q = (r/rho)^N = 1.9^-64.  Against 40-digit Taylor coefficients of every
# interval and six twists the rounding reaches 0.92 eps max|h| r^-k; the
# bound allows _CAUCHY_ROUNDING of these.
_CAUCHY_NODES = 64
_ALIASING = 1.9**-_CAUCHY_NODES / (1.0 - 1.9**-_CAUCHY_NODES)
_CAUCHY_ROUNDING = 4.0


@functools.cache
def _cauchy_rule(r: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_m = r e^{2 pi i m/N}, m = 0..N/2, and the matrix taking h(u_m)
    to h_0..h_4 (real part), built once per radius.  h is real on the real
    axis, so the lower half circle adds the conjugate of the upper: weights
    1/N at u = +-r and 2/N between."""
    import numpy as np

    m = np.arange(_CAUCHY_NODES // 2 + 1)
    k = np.arange(5)[:, None]
    nodes = r * np.exp(2j * PI / _CAUCHY_NODES * m)
    weight = np.where((m == 0) | (m == _CAUCHY_NODES // 2), 1.0, 2.0) / _CAUCHY_NODES
    rule = weight * np.exp(-2j * PI / _CAUCHY_NODES * k * m) / r**k
    nodes.setflags(write=False)
    rule.setflags(write=False)
    return nodes, rule


def _trace_envelope(unit: Interval | TwistedCircle, rho: float) -> float:
    """A bound of |Tr T(u)| on |u| = rho < R for the unit-length geometry.

    The traces are e^{-pi u/2} / 2 sinh(pi u/2) (+1 for Neumann ends),
    1 / 2 sinh(pi u/2) (mixed ends) and cosh((pi - theta) u) / sinh(pi u);
    |e^{-a u}| <= e^{a rho}, |cosh(a u)| <= cosh(a rho), and |sinh z| >= sin|z|
    for |z| < pi, factor by factor in sinh z = z prod_n (1 + z^2/(n pi)^2)."""
    if isinstance(unit, TwistedCircle):
        return math.cosh((PI - unit.theta) * rho) / math.sin(PI * rho)
    half = 0.5 * PI * rho
    if not unit.like_ends:
        return 0.5 / math.sin(half)
    return 0.5 * math.exp(half) / math.sin(half) + (1.0 if unit.left is NEUMANN else 0.0)


def cylinder_coefficients(geometry: Geometry) -> CylinderExpansion:
    """The work of :func:`vacuum1d.energy.extract_cylinder_coefficients`."""
    from . import kernels

    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line cylinder trace diverges")
    unit = replace(geometry, length=1.0)
    pole = 1.0 if isinstance(geometry, TwistedCircle) else 2.0
    r, rho = 0.5 * pole, 0.95 * pole
    nodes, rule = _cauchy_rule(r)
    coef = (rule @ (nodes * kernels._closed_trace(unit, nodes))).real.tolist()
    aliasing = rho * _trace_envelope(unit, rho) * _ALIASING
    rounding = _CAUCHY_ROUNDING * sys.float_info.epsilon * r * _trace_envelope(unit, r)
    length = geometry.length
    e, bound = {}, {}
    for k, value in enumerate(coef):
        err = aliasing / rho**k + rounding / r**k
        if k == 0:
            value, err = value * length, err * length
        for _ in range(k - 1):
            value, err = value / length, err / length
        if not (math.isfinite(value) and math.isfinite(err)):
            raise InvalidParameter(f"e_{k} leaves the float range at L = {length!r}")
        e[k], bound[k] = value, err
    return CylinderExpansion(e=e, d=1, truncation_bound=bound)


@dataclass(frozen=True)
class Theorem1Report:
    """Heat-kernel vs cylinder-kernel coefficient comparison (d = 1).

    The heat coefficients determine e_0 and e_1 through

        e_0 = (2 / sqrt(pi)) b_0,        e_1 = b_1,

    but say nothing about e_2: that coefficient (the energy) lives in the
    exponentially small part of the heat trace, as ``note`` states.
    """

    b0: float
    b1: float
    e0: float
    e1: float
    e2: float
    defect_e0: float
    defect_e1: float
    note: str


def theorem1(geometry: Geometry) -> Theorem1Report:
    """The work of :func:`vacuum1d.energy.theorem1_check`."""
    from . import kernels

    if isinstance(geometry, HalfLine):
        raise ContinuousSpectrum("half-line traces diverge")
    unit = replace(geometry, length=1.0)
    t1, t2 = 1e-3, 2e-3
    tr1, tr2 = kernels._heat_trace(unit, (t1, t2), SeriesControl()).tolist()
    b0 = (tr1 - tr2) / (t1**-0.5 - t2**-0.5)
    b1 = tr1 - b0 * t1**-0.5
    b0 *= geometry.length
    cyl = energy.extract_cylinder_coefficients(geometry)
    e0, e1, e2 = cyl.e[0], cyl.e[1], cyl.e[2]
    return Theorem1Report(
        b0, b1, e0, e1, e2, abs(e0 - 2.0 / math.sqrt(PI) * b0), abs(e1 - b1),
        "e2 (hence the vacuum energy -e2/2) is invisible to the heat expansion: it "
        "sits in a remainder of terms like e^(-L^2/t), exponentially small in 1/t "
        "and with no power series at t = 0",
    )


# ---------------------------------------------------------------------------
# Approximation hierarchy.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproximationRow:
    quantity: str
    exact: float
    stationary_phase: float
    short_orbit: float


@dataclass(frozen=True)
class ApproximationReport:
    """Exact vs truncated-orbit answers for an interval.

    ``stationary_phase`` drops the boundary family entirely (it carries
    no stationary point of the phase at omega > 0): total energies are
    exact, densities lose their wall profile.  ``short_orbit`` truncates
    the boundary family at the two single-reflection paths while keeping
    the periodic family resummed -- the tempting shortcut that leaves a
    spurious wall energy behind.
    """

    geometry: Interval
    xi: float
    rows: tuple[ApproximationRow, ...] = field(default_factory=tuple)


def approximation(
    geometry: Interval, x_points: tuple[float, ...] | None, xi: float
) -> ApproximationReport:
    """The work of :func:`vacuum1d.energy.approximation_report`."""
    if not isinstance(geometry, Interval):
        raise UnsupportedGeometry("approximation report is defined for intervals")
    length, l, r = geometry.length, geometry.l, geometry.r
    if x_points is None:
        x_points = (0.25 * length, 0.5 * length)
    exact_total = energy.total_energy_renormalized(geometry).total_renormalized
    short_bdry = ((-1.0) ** l + (-1.0) ** r) / (8.0 * PI * length)
    rows = [
        ApproximationRow(
            "total_energy", exact_total, exact_total, exact_total + short_bdry
        ),
        ApproximationRow("boundary_energy", 0.0, 0.0, short_bdry),
    ]
    density = energy.energy_density_renormalized
    for x in x_points:
        full = density(geometry, x, xi)
        bulk_exact = full.periodic
        wall = (
            density(HalfLine(geometry.left), x, xi).boundary
            + density(HalfLine(geometry.right), length - x, xi).boundary
        )
        rows.append(
            ApproximationRow(
                f"density@{x:g}",
                full.total_renormalized,
                bulk_exact,
                bulk_exact + wall,
            )
        )
    return ApproximationReport(geometry=geometry, xi=xi, rows=tuple(rows))
