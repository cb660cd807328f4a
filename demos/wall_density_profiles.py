"""
Where the vacuum energy sits
============================

The renormalized energy density of the Dirichlet interval is not
uniform: at curvature coupling xi = 1/4 it rises like 1/(8 pi d^2)
toward each wall while integrating to the (negative) total.  Near a
single wall the profile depends on the order of limits -- send the
cutoff away first and the density is positive and integrable; sit at
the wall first and it plunges to -1/(2 pi t^2).
"""

import math

from vacuum1d import (
    DIRICHLET,
    HalfLine,
    Interval,
    energy_density_regularized,
    energy_density_renormalized,
    total_energy_regularized,
    total_energy_renormalized,
)
from vacuum1d.summation import de_quadrature

PI = math.pi


def integral(func, a, b):
    """int_a^b func by double-exponential quadrature (func takes a float)."""
    return de_quadrature(lambda xs: [func(float(x)) for x in xs], a, b).value


geom = Interval(1.0, DIRICHLET, DIRICHLET)

print("renormalized D/D density  -pi/24 + (pi/8) csc^2(pi x):")
print(f"{'x':>6} {'density':>12} {'closed form':>12}")
for x in (0.05, 0.1, 0.25, 0.5):
    got = energy_density_renormalized(geom, x).total_renormalized
    closed = -PI / 24.0 + (PI / 8.0) / math.sin(PI * x) ** 2
    print(f"{x:6.2f} {got:12.6f} {closed:12.6f}")

# The 1/d^2 spikes are not integrable on their own; keep the cutoff in
# place and the smooth density integrates to the energy at the same t.
t = 0.3
total = integral(lambda x: energy_density_regularized(geom, t, x).total_renormalized, 0.0, 1.0)
print(f"\nintegral of the t = {t} density: {total:.9f}")
print(f"E(t = {t}) renormalized:         "
      f"{total_energy_regularized(geom, t).total_renormalized:.9f}")

# The wall spikes carry no net energy: at xi = 0 the renormalized
# profile is already flat, the same total spread uniformly.
flat = energy_density_renormalized(geom, 0.3, xi=0.0).total_renormalized
print(f"xi = 0 density (any x):          {flat:.9f}   (E = "
      f"{total_energy_renormalized(geom).total_renormalized:.9f})")

# Half-line wall, cutoff in place: the Ford-Svaiter profile
# -(t^2 - 4x^2) / (2 pi (t^2 + 4x^2)^2) at t = 0.001.
hl = HalfLine(DIRICHLET)
t = 1e-3
print(f"\nhalf-line density at t = {t}:")
print(f"{'x':>8} {'density':>13}")
for x in (1e-4, 3e-4, 5e-4, 1e-3, 1e-2, 1e-1):
    rho = energy_density_regularized(hl, t, x).boundary
    print(f"{x:8.4f} {rho:13.4f}")

# Inside x < t/2 the density is large and negative; outside it settles
# onto +1/(8 pi x^2).  The two limits do not commute:
inner = energy_density_regularized(hl, 1e-1, 1e-3).boundary
outer = energy_density_regularized(hl, 1e-3, 1e-1).boundary
print(f"\nx -> 0 first: {inner:12.4f}   vs -1/(2 pi t^2) = {-1 / (2 * PI * 1e-2):.4f}")
print(f"t -> 0 first: {outer:12.4f}   vs +1/(8 pi x^2) = {1 / (8 * PI * 1e-2):.4f}")

# Yet the spike and the tail cancel exactly: the profile integrates to
# zero at every t (exp-sinh quadrature over (0, inf)).
t = 0.5
flux = integral(lambda x: energy_density_regularized(hl, t, x).boundary, 0.0, math.inf)
print(f"\nintegral of the t = {t} profile: {flux:.2e}")
