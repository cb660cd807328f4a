"""Reference values the benchmark computes without calling vacuum1d.

Geometries are plain tuples (see :class:`Geo`) so nothing here depends on
the package under test.  Closed forms are the formulas stated in the
package's docstrings and README; the twisted off-diagonal kernel, the
Lorentzian-smoothed mode sums and the mode counts are built from the
eigenvalue ladders alone.  Where a formula cancels (E(t) minus its Weyl
part, derivatives of the kernel) the value is taken in mpmath at 30
digits, so reference error never shows up as program disagreement.
mpmath is imported on first use, so the checks that need it, which run
after the timed phase, keep it out of a worker's set-up time.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

PI = math.pi
D, N = 1, 0  # parity index l: Dirichlet = 1, Neumann = 0


@functools.cache
def _mpmath():
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


class Geo(NamedTuple):
    """``kind`` is interval, twisted or halfline; ``l``/``r`` parity indices."""

    kind: str
    length: float = 1.0
    l: int = D  # noqa: E741
    r: int = D
    theta: float = 0.0

    @property
    def like(self) -> bool:
        return self.l == self.r

    @property
    def label(self) -> str:
        bc = "DN"[1 - self.l] if self.kind != "twisted" else ""
        if self.kind == "interval":
            return f"interval L={self.length:g} {bc}/{'DN'[1 - self.r]}"
        if self.kind == "halfline":
            return f"halfline {bc}"
        return f"twisted L={self.length:g} theta={self.theta:.6g}"


def b2(u: float) -> float:
    return u * u - u + 1.0 / 6.0


def norm_theta(theta: float) -> float:
    tr = math.fmod(theta, 2.0 * PI)
    return tr + 2.0 * PI if tr < 0.0 else tr


# ---------------------------------------------------------------------------
# Cylinder kernel and trace.
# ---------------------------------------------------------------------------


def kernel(g: Geo, t: float, x: float, y: float) -> float | complex:
    """T(t; x, y) from the closed forms in the ``cylinder_kernel`` docstring.

    ``cosh a - cos b`` is written ``2 sinh^2(a/2) + 2 sin^2(b/2)``, as that
    docstring advises.  The twisted off-diagonal kernel sums the two
    geometric series of the mode sum exactly:

        (1/L) [e^{u(1/2 - a)} / (2 sinh(u/2)) + e^{v(a - 1/2)} / (2 sinh(v/2))]

    with ``u = 2 pi (t - i d)/L``, ``v = 2 pi (t + i d)/L``, ``a = theta/2pi``.
    """
    if g.kind == "halfline":
        sign = (-1.0) ** g.l
        return (t / PI) / ((x - y) ** 2 + t * t) + sign * (t / PI) / ((x + y) ** 2 + t * t)
    length = g.length
    if g.kind == "twisted":
        a = norm_theta(g.theta) / (2.0 * PI)
        if x == y:
            return math.cosh((PI - 2.0 * PI * a) * t / length) / (length * math.sinh(PI * t / length))
        d = x - y
        u = 2.0 * PI * complex(t, -d) / length
        v = 2.0 * PI * complex(t, d) / length
        val = cmath.exp(u * (0.5 - a)) / (2.0 * cmath.sinh(0.5 * u)) + cmath.exp(
            v * (a - 0.5)
        ) / (2.0 * cmath.sinh(0.5 * v))
        return val / length
    z = PI * t / (2.0 * length)
    sh2 = math.sinh(z) ** 2

    def denom(d: float) -> float:
        return 2.0 * sh2 + 2.0 * math.sin(PI * d / (2.0 * length)) ** 2

    sign = (-1.0) ** g.l
    if g.like:
        s = math.sinh(2.0 * z)
        return (s / denom(x - y) + sign * s / denom(x + y)) / (2.0 * length)
    c = lambda d: math.cos(PI * d / (2.0 * length)) / denom(d)  # noqa: E731
    return math.sinh(z) * (c(x - y) + sign * c(x + y)) / length


def trace(g: Geo, t: float) -> float:
    """Tr T(t): ``1/expm1(pi t/L)`` (+1 for N/N), ``1/(2 sinh(pi t/2L))``,
    or ``cosh((pi - theta) t/L) / sinh(pi t/L)`` on the twisted circle."""
    length = g.length
    if g.kind == "twisted":
        return length * kernel(g, t, 0.0, 0.0)
    if g.like:
        return 1.0 / math.expm1(PI * t / length) + (1.0 if g.l == N else 0.0)
    return 0.5 / math.sinh(PI * t / (2.0 * length))


# ---------------------------------------------------------------------------
# Energies and densities.
# ---------------------------------------------------------------------------


def energy(g: Geo) -> float:
    """Renormalized total: -pi/24L, +pi/48L, or -(pi/L) B_2(theta/2pi)."""
    if g.kind == "twisted":
        return -(PI / g.length) * b2(norm_theta(g.theta) / (2.0 * PI))
    return -PI / (24.0 * g.length) if g.like else PI / (48.0 * g.length)


def _mp_trace(g: Geo, t):
    """Tr T(t) in mpmath (for derivatives of the trace)."""
    mpmath = _mpmath()
    length = mpmath.mpf(g.length)
    if g.kind == "twisted":
        th = mpmath.mpf(norm_theta(g.theta))
        return mpmath.cosh((mpmath.pi - th) * t / length) / mpmath.sinh(mpmath.pi * t / length)
    if g.like:
        return 1 / mpmath.expm1(mpmath.pi * t / length) + (1 if g.l == N else 0)
    return 1 / (2 * mpmath.sinh(mpmath.pi * t / (2 * length)))


def energy_regularized(g: Geo, t: float) -> float:
    """E(t) minus its Weyl part ``L/(2 pi t^2)``, from -1/2 d/dt Tr T."""
    mpmath = _mpmath()
    tm = mpmath.mpf(t)
    e = -mpmath.diff(lambda s: _mp_trace(g, s), tm) / 2
    weyl = mpmath.mpf(g.length) / (2 * mpmath.pi * tm * tm)
    return float(e - weyl)


def _mp_diag_parts(g: Geo, t, x):
    """(periodic, boundary) families of the interval kernel diagonal."""
    mpmath = _mpmath()
    length = mpmath.mpf(g.length)
    z = mpmath.pi * t / (2 * length)
    sign = (-1) ** g.l
    denom = lambda d: 2 * mpmath.sinh(z) ** 2 + 2 * mpmath.sin(mpmath.pi * d / (2 * length)) ** 2  # noqa: E731
    if g.like:
        s = mpmath.sinh(2 * z)
        return s / denom(0) / (2 * length), sign * s / denom(2 * x) / (2 * length)
    c = lambda d: mpmath.cos(mpmath.pi * d / (2 * length)) / denom(d)  # noqa: E731
    return mpmath.sinh(z) * c(0) / length, mpmath.sinh(z) * sign * c(2 * x) / length


def density_regularized(g: Geo, t: float, x: float, xi: float) -> tuple[float, float]:
    """(periodic, boundary) energy density at regulator t and coupling xi.

    Each part is -1/2 d/dt of its orbit family on the kernel diagonal; the
    boundary part carries the weight 4 xi, the periodic part loses the
    Weyl term ``1/(2 pi t^2)``.
    """
    mpmath = _mpmath()
    tm, xm = mpmath.mpf(t), mpmath.mpf(x)
    if g.kind == "halfline":
        b = (-1.0) ** g.l * (t * t - 4.0 * x * x) / (2.0 * PI * (t * t + 4.0 * x * x) ** 2)
        return 0.0, 4.0 * xi * b
    if g.kind == "twisted":
        return energy_regularized(g, t) / g.length, 0.0
    per = -mpmath.diff(lambda s: _mp_diag_parts(g, s, xm)[0], tm) / 2 - 1 / (2 * mpmath.pi * tm * tm)
    bdry = -mpmath.diff(lambda s: _mp_diag_parts(g, s, xm)[1], tm) / 2
    return float(per), float(4 * xi * bdry)


def density_renormalized(g: Geo, x: float, xi: float) -> tuple[float, float]:
    """(periodic, boundary) of the t -> 0 profile (energy module docstring)."""
    if g.kind == "halfline":
        return 0.0, -4.0 * xi * (-1.0) ** g.l / (8.0 * PI * x * x)
    length = g.length
    if g.kind == "twisted":
        return energy(g) / length, 0.0
    p = PI * x / length
    wall = -4.0 * xi * (-1.0) ** g.l * PI / (8.0 * length**2)
    if g.like:
        return -PI / (24.0 * length**2), wall / math.sin(p) ** 2
    return PI / (48.0 * length**2), wall * math.cos(p) / math.sin(p) ** 2


def heat_b1(g: Geo) -> float:
    """Constant heat-trace coefficient: -1/2 (D/D), +1/2 (N/N), else 0."""
    if g.kind == "interval" and g.like:
        return -0.5 if g.l == D else 0.5
    return 0.0


# ---------------------------------------------------------------------------
# Spectra.
# ---------------------------------------------------------------------------


def ladders(g: Geo) -> list[tuple[float, float, int]]:
    """(offset, step, first index) of each arithmetic frequency ladder."""
    length = g.length
    if g.kind == "interval":
        step = PI / length
        if g.like:
            return [(0.0, step, 1 if g.l == D else 0)]
        return [(0.5 * step, step, 0)]
    th = norm_theta(g.theta)
    step = 2.0 * PI / length
    return [(th / length, step, 0), (-th / length, step, 1)]


def eigenvalues(g: Geo, omega_max: float) -> list[float]:
    """Every omega_j <= omega_max with multiplicity, ascending."""
    out = []
    for off, step, j in ladders(g):
        while off + j * step <= omega_max:
            out.append(off + j * step)
            j += 1
    return sorted(out)


def count(g: Geo, omega: float) -> int:
    return len(eigenvalues(g, omega))


def mode_density(g: Geo, k: np.ndarray, x: float) -> np.ndarray:
    """|phi(x)|^2 for the mode of signed wavenumber k (interval: k on the
    full lattice offset + Z step, folding the mirror image in)."""
    if g.kind == "twisted":
        return np.full(k.shape, 1.0 / g.length)
    sign = 1.0 if g.l == N else -1.0
    return (1.0 + sign * np.cos(2.0 * k * x)) / g.length


def local_counting(g: Geo, omega: float, x: float) -> float:
    """sum over omega_j <= omega of |phi_j(x)|^2, summed mode by mode."""
    total = 0.0
    for w in eigenvalues(g, omega):
        if g.kind == "twisted":
            total += 1.0 / g.length
        elif g.l == N and g.r == N and w == 0.0:
            total += 1.0 / g.length
        else:
            phi = math.sin(w * x) if g.l == D else math.cos(w * x)
            total += 2.0 / g.length * phi * phi
    return total


def _geometric_tail(z: complex, f: np.ndarray) -> complex:
    """sum_{m >= 0} z^m f_m for smooth f given by its first samples.

    Summation by parts: z^0/(1-z) [f_0 + q Df_0 + q^2 D^2 f_0 + ...] with
    q = z/(1-z) and D the forward difference."""
    q = z / (1.0 - z)
    total, coef, diff = 0.0, 1.0, f.astype(complex)
    for _ in range(len(f) - 1):
        total += coef * diff[0]
        coef *= q
        diff = np.diff(diff)
    return total / (1.0 - z)


def lsd_mode_sum(g: Geo, omega: float, x: float, s: float, j_max: int = 20_000) -> float:
    """Local spectral density smoothed by a Lorentzian of width s.

    ``sigma_s(omega, x) = sum_k |phi_k(x)|^2 (s/pi) / ((omega - k)^2 + s^2)``
    over the signed wavenumbers of every ladder (k and -k both appear).
    Terms |j| <= j_max are summed directly.  The tail is completed in two
    parts: the mean part 1/L by the midpoint integral of the Lorentzian
    (an arctan), the oscillating part cos(2 k x) by summation by parts.
    The half-line has a continuum of modes; the same integral is then
    ``1/pi -/+ cos(2 omega x) e^{-2 s x} / pi``.
    """
    if g.kind == "halfline":
        return (1.0 + (-1.0) ** g.l * math.cos(2.0 * omega * x) * math.exp(-2.0 * s * x)) / PI
    if g.kind == "twisted":
        lat = ladders(g)
        lat = [(lat[0][0], lat[0][1]), (-lat[0][0], lat[0][1])]
    else:
        off, step, _ = ladders(g)[0]
        lat = [(off, step)]
    total = 0.0
    for off, step in lat:
        j = np.arange(-j_max, j_max + 1, dtype=float)
        k = off + j * step
        lor = (s / PI) / ((omega - k) ** 2 + s * s)
        total += float(np.sum(mode_density(g, k, x) * lor))
        # Mean part of both tails, midpoint rule from j_max + 1/2 outward.
        edge = step * (j_max + 0.5)
        mean_tail = (
            (0.5 * PI - math.atan((off + edge - omega) / s))
            + (0.5 * PI - math.atan((omega - off + edge) / s))
        ) / (PI * step)
        total += mean_tail / g.length
        if g.kind == "interval":
            sign = 1.0 if g.l == N else -1.0
            m = np.arange(1, 8, dtype=float)
            for direction in (1.0, -1.0):
                kk = off + direction * (j_max + m) * step
                f = (s / PI) / ((omega - kk) ** 2 + s * s)
                z = cmath.exp(2j * direction * step * x)
                tail = _geometric_tail(z, f) * cmath.exp(2j * kk[0] * x)
                total += sign * tail.real / g.length
    return total
