"""
Energy of a twisted circle
==========================

A field on a circle picking up a phase e^{i theta} per loop has vacuum
energy -pi B_2(theta/2pi)/L: a downward parabola in theta with a cusp
at every multiple of 2pi.  The same curve emerges from the periodic
orbits -- one term per winding number, Abel-summed -- and crosses zero
at theta/pi = 1 - 1/sqrt(3).
"""

import math

import numpy as np

from vacuum1d import SeriesControl, twisted_energy, twisted_energy_orbit_sum

PI = math.pi
CTRL = SeriesControl(max_terms=10_000, damping_t=1e-4)

print(f"{'theta/pi':>9} {'closed form':>13} {'orbit sum':>13} {'diff':>9}")
for frac in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
    theta = frac * PI
    exact = twisted_energy(theta, 1.0)
    orbit = twisted_energy_orbit_sum(theta, 1.0, CTRL).value
    print(f"{frac:9.2f} {exact:13.8f} {orbit:13.8f} {exact - orbit:9.1e}")

# Endpoints pin the familiar constants: the untwisted circle gives
# -pi/6 (twice the Dirichlet interval), antiperiodicity gives +pi/12.
print(f"\nE(0)    = {twisted_energy(0.0, 1.0):.8f}   (-pi/6  = {-PI / 6:.8f})")
print(f"E(pi)   = {twisted_energy(PI, 1.0):.8f}   (+pi/12 = {PI / 12:.8f})")

# The energy changes sign once on (0, pi).  Root-find on the orbit sum
# itself to show the resummed series, not just the closed form, knows
# where the parabola crosses.
lo, hi = 1.0, 1.5  # negative at 1, positive at 1.5: bisect the sign change
while hi - lo > 1e-12:
    mid = 0.5 * (lo + hi)
    lo, hi = (mid, hi) if twisted_energy_orbit_sum(mid, 1.0, CTRL).value < 0.0 else (lo, mid)
root = 0.5 * (lo + hi)
print(f"\nzero of the orbit-summed curve: theta/pi = {root / PI:.9f}")
print(f"1 - 1/sqrt(3)                            = {1 - 1 / math.sqrt(3):.9f}")

# Cusp at theta = 0: one-sided slopes +-1/2 from the winding orbits.
h = 1e-6
left = (twisted_energy(2 * PI - h, 1.0) - twisted_energy(2 * PI, 1.0)) / -h
right = (twisted_energy(h, 1.0) - twisted_energy(0.0, 1.0)) / h
print(f"\none-sided slopes at the cusp: {left:+.6f} / {right:+.6f}")

# Mean over the holonomy circle vanishes: averaging the phase kills
# every orbit term.
grid = np.linspace(0.0, 2.0 * PI, 10_001)
mean = np.trapezoid([twisted_energy(float(t), 1.0) for t in grid], grid) / (2.0 * PI)
print(f"mean energy over all twists: {mean:.2e}")
