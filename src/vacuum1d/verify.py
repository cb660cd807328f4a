"""Self-contained verification suite.

Every check pins a measured defect against a tolerance chosen when the
expected value was derived, so the suite doubles as a regression record:
``run_checks()`` re-derives each number from scratch and reports how far
it moved.  Checks are pure and independent; the whole registry runs in
well under a minute on one core.

Sub-criteria with their own tolerances (a root position inside a curve
check, an integral inside a vanishing check) are folded into the parent
``measured`` after scaling by the ratio of tolerances, so the single
``measured <= tolerance`` comparison preserves every individual bound.
The ``detail`` string reports the raw sub-values.  The folded bounds:

* ``interval_dd_energy``: closed-form relative deviation <= 1e-15
  (scaled by 1e9); over its 1 s budget the check reports ``inf``.
* ``twisted_energy_curve``: zero crossing ``root/pi`` within 1e-6
  (scaled by 10), end and extremum values within 1e-12 (scaled by 1e7),
  cusp chord slopes within 1e-3 (scaled by 1e-2).
* ``three_way_kernel_agreement``: over its 10 s budget it reports ``inf``.
* ``boundary_energy_vanishing``: half-line integral within 1e-6 (scaled
  by 1e-4).
* ``density_noncommuting_limits``: the x << t leg within 2e-3 (scaled
  by 1/2).
* ``poisson_orbit_identity``: each x within its allowance, the lattice
  sum's bound plus rounding (the ratio scaled by 1e-3).
* ``approximation_hierarchy``: short-orbit boundary energy within 1e-8
  (scaled by 1e-2).

Each check is the only place its claim is coded; the test suite runs
the registry rather than restating it.
"""

from __future__ import annotations

import math
import random
import sys
import time
from typing import Callable

import numpy as np

from . import energy, kernels, spectrum, summation
from .errors import AtEigenvalue, Record
from .kernels import CLOSED_FORM, IMAGE_SUM, MODE_SUM
from .series import ABEL, RIESZ_CESARO_2, SeriesControl
from .spectrum import DIRICHLET, NEUMANN, HalfLine, Interval, TwistedCircle

PI = math.pi
_EPS = sys.float_info.epsilon

__all__ = ["CheckResult", "run_checks", "CHECKS"]


class CheckResult(Record):
    """Outcome of one verification check and the seconds it took."""

    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str
    elapsed_s: float

    def __init__(
        self, name: str, measured: float, tolerance: float, passed: bool, detail: str,
        elapsed_s: float,
    ) -> None:
        self.__dict__.update(
            name=name, measured=measured, tolerance=tolerance, passed=passed, detail=detail,
            elapsed_s=elapsed_s,
        )

    @property
    def margin(self) -> float:
        """measured / tolerance: at most 1 for a pass, and how close to
        failing the check runs (a zero tolerance gives inf unless the
        measurement is zero too)."""
        if self.tolerance > 0.0:
            return self.measured / self.tolerance
        return 0.0 if self.measured <= 0.0 else math.inf


def _interval(length: float = 1.0, left=DIRICHLET, right=DIRICHLET) -> Interval:
    return Interval(length, left, right)


def _integral(func: Callable[[float], float], a: float, b: float) -> float:
    """int_a^b of a scalar function by :func:`summation.de_quadrature`."""
    return summation.de_quadrature(lambda xs: [func(float(x)) for x in xs], a, b).value


# ---------------------------------------------------------------------------
# acceptance checks
# ---------------------------------------------------------------------------


def _check_interval_dd_energy() -> tuple[float, str]:
    t0 = time.perf_counter()
    target = -PI / 24.0
    closed = energy.total_energy_renormalized(_interval()).total_renormalized
    cauchy = energy.extract_cylinder_coefficients(_interval()).energy
    closed_dev = abs(closed - target) / abs(target)
    cauchy_dev = abs(cauchy - target) / abs(target)
    dev = max(1e9 * closed_dev, cauchy_dev)
    dt = time.perf_counter() - t0
    detail = (
        f"closed={closed:.12g} (rel {closed_dev:.1e}) -e2/2={cauchy:.12g} "
        f"(rel {cauchy_dev:.1e}) target=-pi/24={target:.12g} elapsed={dt:.2f}s"
    )
    if dt >= 1.0:
        return math.inf, detail + " (over 1 s budget)"
    return dev, detail


def _check_interval_dn_energy() -> tuple[float, str]:
    geom = _interval(1.0, DIRICHLET, NEUMANN)
    target = PI / 48.0
    closed = energy.total_energy_renormalized(geom).total_renormalized
    cauchy = energy.extract_cylinder_coefficients(geom).energy
    dev = max(abs(closed - target), abs(cauchy - target)) / abs(target)
    return dev, f"closed={closed:.12g} -e2/2={cauchy:.12g} target=+pi/48={target:.12g}"


def _check_twisted_energy_curve() -> tuple[float, str]:
    ctrl = SeriesControl(max_terms=10_000, damping_t=1e-4)
    thetas = np.linspace(0.0, 2.0 * PI, 101)
    curve_dev = 0.0
    vals = []
    for th in thetas:
        got = energy.twisted_energy_orbit_sum(float(th), 1.0, ctrl).value
        vals.append(got)
        curve_dev = max(curve_dev, abs(got - energy.twisted_energy(float(th), 1.0)))
    # endpoints and extrema of the closed form
    end_dev = max(
        abs(energy.twisted_energy(0.0, 1.0) + PI / 6.0),
        abs(energy.twisted_energy(2.0 * PI, 1.0) + PI / 6.0),
        abs(energy.twisted_energy(PI, 1.0) - PI / 12.0),
    )
    # cusp at theta = 0 (mod 2pi): one-sided chord slopes are +-(1/2 - h/4pi)
    h = float(thetas[1])
    slope_dev = max(
        abs((vals[1] - vals[0]) / h - (0.5 - h / (4.0 * PI))),
        abs((vals[100] - vals[99]) / h + (0.5 - h / (4.0 * PI))),
    )
    # zero crossing of the orbit-summed curve, by bisection on its sign
    # change in [1, 1.5] (negative at 1, positive at 1.5)
    lo, hi = 1.0, 1.5
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if energy.twisted_energy_orbit_sum(mid, 1.0, ctrl).value < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    root_dev = abs(root / PI - (1.0 - 1.0 / math.sqrt(3.0)))
    measured = max(curve_dev, 10.0 * root_dev, 1e7 * end_dev, 1e-2 * slope_dev)
    detail = (
        f"curve_dev={curve_dev:.2e} root/pi={root / PI:.9f} "
        f"root_dev={root_dev:.2e} end_dev={end_dev:.2e} "
        f"cusp_slope_dev={slope_dev:.2e}"
    )
    return measured, detail


def _check_three_way_kernel() -> tuple[float, str]:
    # Diagonal points by all three routes.  The circle also at y = 0.37 L,
    # twisted and untwisted: there the closed-form request falls back to the
    # mode sum, so the image sum is held to the mode sum.  One call per
    # (case, t, route) takes all 20 points.  They go in as lists: a call
    # tracer that names a call by y == x (the benchmark's does) then gets
    # one bool.
    t0 = time.perf_counter()
    tg = np.geomspace(1e-2, 1.0, 20).tolist()
    cases: list[tuple[str, object, list[float], float | None]] = [
        ("D/D", _interval(), np.linspace(0.05, 0.95, 20).tolist(), None),
        ("D/N", _interval(1.0, DIRICHLET, NEUMANN), np.linspace(0.05, 0.95, 20).tolist(), None),
        ("half-line", HalfLine(DIRICHLET), np.linspace(0.05, 2.0, 20).tolist(), None),
        ("twisted", TwistedCircle(1.0, 2.0), np.linspace(0.0, 0.95, 20).tolist(), None),
        ("twisted y=0.37", TwistedCircle(1.0, 2.0), np.linspace(0.0, 0.95, 20).tolist(), 0.37),
        ("circle y=0.37", TwistedCircle(1.0, 0.0), np.linspace(0.0, 0.95, 20).tolist(), 0.37),
    ]
    worst = 0.0
    worst_at = ""
    for tag, geom, xs, y in cases:
        for t in tg:
            ref = kernels.cylinder_kernel(geom, t, xs, y, method=CLOSED_FORM)
            scale = 1.0 + np.abs(ref.value)
            routes = (MODE_SUM, IMAGE_SUM) if ref.method == CLOSED_FORM else (IMAGE_SUM,)
            for route in routes:
                got = kernels.cylinder_kernel(geom, t, xs, y, method=route).value
                dev = np.abs(got - ref.value) / scale
                at = int(dev.argmax())
                if dev[at] > worst:
                    worst, worst_at = float(dev[at]), f"{tag} {route} t={t:.3g} x={xs[at]:.3g}"
    dt = time.perf_counter() - t0
    detail = f"worst={worst:.2e} at {worst_at}; elapsed={dt:.2f}s"
    if dt >= 10.0:
        return math.inf, detail + " (over 10 s budget)"
    return worst, detail


def _check_boundary_energy_vanishing() -> tuple[float, str]:
    # The wall profile, integrated over the interval, against the boundary
    # part of the total energy (0 for like and mixed ends alike); on the
    # half-line the profile integrates to zero over (0, inf).
    dev = 0.0
    for ends in ((DIRICHLET, DIRICHLET), (NEUMANN, NEUMANN), (DIRICHLET, NEUMANN)):
        geom = _interval(1.0, *ends)
        for t in (0.1, 0.5, 1.0):
            integral = _integral(
                lambda x: energy.energy_density_regularized(geom, t, x).boundary, 0.0, 1.0
            )
            dev = max(dev, abs(integral - energy.total_energy_regularized(geom, t).boundary))
    t = 0.5
    integral = _integral(
        lambda x: energy.energy_density_regularized(HalfLine(DIRICHLET), t, x).boundary,
        0.0,
        math.inf,
    )
    measured = max(dev, 1e-4 * abs(integral))
    return measured, f"interval_max={dev:.2e} halfline_integral={integral:.2e}"


def _check_density_noncommuting_limits() -> tuple[float, str]:
    geom = HalfLine(DIRICHLET)
    r1 = energy.energy_density_regularized(geom, 1e-3, 1e-1).boundary
    want1 = 1.0 / (8.0 * PI * 1e-2)
    r2 = energy.energy_density_regularized(geom, 1e-1, 1e-3).boundary
    want2 = -1.0 / (2.0 * PI * 1e-2)
    dev1 = abs(r1 - want1) / abs(want1)
    dev2 = abs(r2 - want2) / abs(want2)
    # The exact profile sits 12 x^2/t^2 = 1.2e-3 away from the pure-spike
    # limit at the second point, so that leg gets a 2e-3 budget (folded
    # as dev2/2 into the 1e-3 headline tolerance).
    dev = max(dev1, 0.5 * dev2)
    return dev, (
        f"t<<x: {r1:.6g} vs +1/(8 pi x^2)={want1:.6g} (rel {dev1:.2e}); "
        f"x<<t: {r2:.6g} vs -1/(2 pi t^2)={want2:.6g} (rel {dev2:.2e})"
    )


def _check_counting_decomposition() -> tuple[float, str]:
    # the standard library's generator: numpy.random would load secrets,
    # hashlib and OpenSSL, 6 MB of this command's peak memory
    rng = random.Random(20240117)
    geoms = [
        _interval(),
        _interval(1.0, NEUMANN, NEUMANN),
        _interval(2.0, DIRICHLET, NEUMANN),
        _interval(1.3, NEUMANN, DIRICHLET),
        TwistedCircle(1.0, 0.7),
        TwistedCircle(2.0, PI),
        TwistedCircle(1.0, 0.0),
        _interval(0.7, NEUMANN, NEUMANN),
    ]
    dev = 0.0
    n_done = 0
    while n_done < 1000:
        geom = geoms[n_done % len(geoms)]
        omega = rng.uniform(0.3, 200.0)
        try:
            dec = spectrum.counting_decomposition(geom, omega)
        except AtEigenvalue:
            continue  # landed on an eigenvalue; draw again
        exact = spectrum.counting_function(geom, omega)
        dev = max(dev, abs(dec.total - exact))
        if isinstance(geom, Interval):
            want_b = 0.5 * (-1.0) ** geom.l if geom.like_ends else 0.0
            dev = max(dev, abs(dec.boundary - want_b))
        n_done += 1
    return dev, f"1000 random omegas over 8 geometries, worst |total - count|={dev:.2e}"


def _check_poisson_orbit_identity() -> tuple[float, str]:
    # At omega' = (M + 1/2) pi each image sin(2 omega' (x + n))/(x + n) is
    # (-1)^n sin((2M + 1) pi x)/(x + n), and the Dirichlet kernel is
    # pi sin((2M + 1) pi x)/sin(pi x).  The common sine cancels exactly,
    # so the Poisson step reduces to the alternating lattice sum, with its
    # bound, against pi/sin(pi x).  The phase is exactly pi: the float
    # (2M + 1) pi leaves an imaginary part.  The sine is taken at the
    # nearer wall, since sin(pi x) loses digits near x = 1.
    rng = random.Random(7121)
    xs = [rng.uniform(0.05, 0.95) for _ in range(50)]
    images = summation.lattice_sum(1.0, xs, 0.0, PI)
    dev = ratio = 0.0
    for x, lhs, bound in zip(xs, images.value.real.tolist(), images.truncation_bound.tolist()):
        rhs = PI / math.sin(PI * min(x, 1.0 - x))
        allowance = bound + 4.0 * _EPS * (abs(lhs) + abs(rhs))
        dev = max(dev, abs(lhs - rhs))
        ratio = max(ratio, abs(lhs - rhs) / allowance)
    measured = max(dev, 1e-3 * ratio)
    return measured, (
        f"50 seeded x, worst |lhs-rhs|={dev:.2e}, "
        f"worst |lhs-rhs|/allowance={ratio:.2e}"
    )


def _check_heat_cylinder_relations() -> tuple[float, str]:
    rep = energy.theorem1_check(_interval())
    measured = max(rep.defect_e0, rep.defect_e1)
    detail = (
        f"b0={rep.b0:.9g} b1={rep.b1:.9g} read off two heights against Cauchy e0, e1: "
        f"defect_e0={rep.defect_e0:.2e} defect_e1={rep.defect_e1:.2e}"
    )
    return measured, detail


def _check_per_orbit_energy_routes() -> tuple[float, str]:
    dev = 0.0
    for n in range(1, 101):
        for theta in (0.0, PI / 2.0, PI):
            via_abel = energy.orbit_energy_contribution(n, 1.0, theta, ABEL)
            via_rc2 = energy.orbit_energy_contribution(n, 1.0, theta, RIESZ_CESARO_2)
            closed = -math.cos(n * theta) / (2.0 * PI * n * n)
            dev = max(dev, abs(via_abel - via_rc2), abs(via_abel - closed))
    return dev, "n <= 100, theta in {0, pi/2, pi}; both routes vs -cos(n theta)/2 pi n^2"


def _check_approximation_hierarchy() -> tuple[float, str]:
    rep = energy.approximation_report(_interval())
    rows = {r.quantity: r for r in rep.rows}
    total = rows["total_energy"]
    sp_dev = abs(total.stationary_phase - total.exact)
    so_bdry = rows["boundary_energy"].short_orbit
    so_dev = abs(so_bdry - (-1.0 / (4.0 * PI)))
    measured = max(sp_dev, 1e-2 * so_dev)
    return measured, (
        f"stationary-phase total dev={sp_dev:.2e}; "
        f"short-orbit boundary={so_bdry:.9g} vs -1/(4 pi)={-1 / (4 * PI):.9g}"
    )


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------


def _check_regularized_limit_slope() -> tuple[float, str]:
    # Passes exactly when slope >= 1.9, as measured 1.9/slope <= 1; a slope
    # at or below zero is inf, and one a rounding short of 1.9 whose
    # quotient rounds to 1 is held just above it.
    geom = _interval()
    e_ren = energy.total_energy_renormalized(geom).total_renormalized
    ts = 10.0 ** np.arange(-1.0, -3.2, -0.2)
    gaps = np.array(
        [abs(energy.total_energy_regularized(geom, float(t)).total_renormalized - e_ren)
         for t in ts]
    )
    # the least-squares line in closed form (np.polyfit runs an SVD)
    log_t, log_gap = np.log(ts), np.log(gaps)
    dx, dy = log_t - log_t.mean(), log_gap - log_gap.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    measured = 1.9 / slope if slope > 0.0 else math.inf
    if slope < 1.9 and measured <= 1.0:
        measured = math.nextafter(1.0, 2.0)
    return measured, f"log-log slope of |E(t) - E| = {slope:.3f} (need >= 1.9)"


def _check_xi_independence() -> tuple[float, str]:
    geom = _interval()
    t = 0.3
    totals = []
    for xi in (0.0, 0.125, 0.25):
        totals.append(_integral(
            lambda x: energy.energy_density_regularized(geom, t, x, xi=xi).total_renormalized,
            0.0,
            1.0,
        ))
    dev = max(totals) - min(totals)
    return dev, f"integrated density at xi=0, 1/8, 1/4: spread={dev:.2e}"


def _check_density_antisymmetry() -> tuple[float, str]:
    dev = 0.0
    for t in (0.05, 0.4):
        for x in (0.1, 0.37):
            d_part = energy.energy_density_regularized(HalfLine(DIRICHLET), t, x).boundary
            n_part = energy.energy_density_regularized(HalfLine(NEUMANN), t, x).boundary
            dev = max(dev, abs(d_part + n_part))
            dd = energy.energy_density_regularized(_interval(), t, x).boundary
            nn = energy.energy_density_regularized(
                _interval(1.0, NEUMANN, NEUMANN), t, x
            ).boundary
            dev = max(dev, abs(dd + nn))
    return dev, "boundary density flips sign under D <-> N"


def _check_reflection_symmetry() -> tuple[float, str]:
    dev = 0.0
    like = _interval()
    mixed = _interval(1.0, DIRICHLET, NEUMANN)
    for t in (0.07, 0.5):
        for x in (0.11, 0.29, 0.46):
            a = energy.energy_density_regularized(like, t, x).boundary
            b = energy.energy_density_regularized(like, t, 1.0 - x).boundary
            dev = max(dev, abs(a - b))
            a = energy.energy_density_regularized(mixed, t, x).boundary
            b = energy.energy_density_regularized(mixed, t, 1.0 - x).boundary
            dev = max(dev, abs(a + b))
    return dev, "even about L/2 for like ends, odd for mixed ends"


def _check_twisted_curve_shape() -> tuple[float, str]:
    dev = 0.0
    for th in (0.3, 1.1, 2.9, 4.4):
        dev = max(dev, abs(energy.twisted_energy(th, 1.0)
                           - energy.twisted_energy(th + 2.0 * PI, 1.0)))
        dev = max(dev, abs(energy.twisted_energy(th, 1.0)
                           - energy.twisted_energy(2.0 * PI - th, 1.0)))
    grid = np.linspace(0.0, 2.0 * PI, 201)
    vals = [energy.twisted_energy(float(th), 1.0) for th in grid]
    dev = max(dev, abs(min(vals) + PI / 6.0), abs(max(vals) - PI / 12.0))
    return dev, "2pi-periodic, symmetric about pi, min -pi/6 at 0, max +pi/12 at pi"


def _hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta(s, a), a > 0, continued to all s != 1 by Hermite's formula.

    zeta(s, a) = a^-s / 2 + a^(1-s) / (s - 1)
                 + 2 int_0^inf sin(s atan(y/a)) (a^2 + y^2)^(-s/2) / (e^(2 pi y) - 1) dy
    """

    def integrand(y: np.ndarray) -> np.ndarray:
        bose = np.exp(-2.0 * PI * y) / -np.expm1(-2.0 * PI * y)
        return np.sin(s * np.arctan(y / a)) * (a * a + y * y) ** (-s / 2.0) * bose

    integral = summation.de_quadrature(integrand).value
    return a**-s / 2.0 + a ** (1.0 - s) / (s - 1.0) + 2.0 * integral


def _check_zeta_route_consistency() -> tuple[float, str]:
    # E = (1/2) sum omega_j with omega_j = (pi/L)(j + a) on the interval
    # and (2 pi/L)(j + a) on each twisted-circle branch, j >= 0.
    dev = 0.0
    worst_at = ""
    for length in (1.0, 2.0):
        cases = [
            ("D/D", _interval(length), PI / (2.0 * length) * _hurwitz_zeta(-1.0, 1.0)),
            ("D/N", _interval(length, DIRICHLET, NEUMANN),
             PI / (2.0 * length) * _hurwitz_zeta(-1.0, 0.5)),
        ]
        for theta in (0.7, 2.0, PI, 4.4):
            a = theta / (2.0 * PI)
            zeta = PI / length * (_hurwitz_zeta(-1.0, a) + _hurwitz_zeta(-1.0, 1.0 - a))
            cases.append((f"twisted theta={theta:.3g}", TwistedCircle(length, theta), zeta))
        for tag, geom, zeta in cases:
            closed = energy.total_energy_renormalized(geom).total_renormalized
            if abs(zeta - closed) >= dev:
                dev, worst_at = abs(zeta - closed), f"{tag} L={length:g}"
    return dev, f"Hermite-formula zeta(-1, a) vs closed form, worst {dev:.2e} at {worst_at}"


#: name -> (tolerance, callable giving (measured, detail))
CHECKS: tuple[tuple[str, float, Callable[[], tuple[float, str]]], ...] = (
    ("interval_dd_energy", 1e-6, _check_interval_dd_energy),
    ("interval_dn_energy", 1e-6, _check_interval_dn_energy),
    ("twisted_energy_curve", 1e-5, _check_twisted_energy_curve),
    ("three_way_kernel_agreement", 1e-8, _check_three_way_kernel),
    ("boundary_energy_vanishing", 1e-10, _check_boundary_energy_vanishing),
    ("density_noncommuting_limits", 1e-3, _check_density_noncommuting_limits),
    ("counting_decomposition", 1e-8, _check_counting_decomposition),
    ("poisson_orbit_identity", 1e-3, _check_poisson_orbit_identity),
    ("heat_cylinder_relations", 1e-6, _check_heat_cylinder_relations),
    ("per_orbit_energy_routes", 1e-12, _check_per_orbit_energy_routes),
    ("approximation_hierarchy", 1e-10, _check_approximation_hierarchy),
    ("regularized_limit_slope", 1.0, _check_regularized_limit_slope),
    ("xi_independence", 1e-8, _check_xi_independence),
    ("density_antisymmetry", 1e-13, _check_density_antisymmetry),
    ("reflection_symmetry", 1e-13, _check_reflection_symmetry),
    ("twisted_curve_shape", 1e-13, _check_twisted_curve_shape),
    ("zeta_route_consistency", 1e-15, _check_zeta_route_consistency),
)


def run_checks(tolerance_override: float | None = None) -> list[CheckResult]:
    """Run the whole registry and report per-check results.

    Parameters
    ----------
    tolerance_override : float, optional
        Replace every pinned tolerance with this value.  Useful for
        probing margins (a tiny override should produce failures).
    """
    results = []
    for name, tol, func in CHECKS:
        if tolerance_override is not None:
            tol = tolerance_override
        t0 = time.perf_counter()
        try:
            measured, detail = func()
            passed = measured <= tol
        except Exception as exc:  # a crash is a failure, not an abort
            measured, passed = math.inf, False
            detail = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        results.append(CheckResult(name, measured, tol, passed, detail, elapsed))
    return results
