"""
What the heat kernel cannot hear
================================

Both small-t traces expand in the same geometric data -- until they
don't.  The heat trace's b_0 and b_1 fix the cylinder trace's e_0 and
e_1 outright, but e_2, the coefficient carrying the vacuum energy,
is invisible to the heat expansion: geometries with identical heat
coefficients can disagree about E = -e_2/2.

The cylinder coefficients are exact (a Cauchy integral of the analytic
t Tr T(t)).  The heat coefficients are read off two heights: past
b_0 s^{-1/2} + b_1 the heat trace holds only corrections e^{-L^2/s},
below 1e-50 at s = 1e-3 L^2 and 2e-3 L^2, and with no power series
at s = 0 -- which is where e_2 would have to be.
"""

import math

from vacuum1d import (
    DIRICHLET,
    NEUMANN,
    Interval,
    extract_cylinder_coefficients,
    heat_trace,
    theorem1_check,
)

PI = math.pi
geom = Interval(1.0, DIRICHLET, DIRICHLET)

rep = theorem1_check(geom)
print("interval D/D, L = 1")
print(f"  heat trace:      b0 = {rep.b0:.10f}   (L/(2 sqrt(pi)) = "
      f"{1 / (2 * math.sqrt(PI)):.10f})")
print(f"  heat trace:      b1 = {rep.b1:+.10f}")
print(f"  cylinder trace:  e0 = {rep.e0:.10f}   e1 = {rep.e1:+.10f}")
print(f"  relations:       |e0 - (2/sqrt(pi)) b0| = {rep.defect_e0:.2e}")
print(f"                   |e1 - b1|              = {rep.defect_e1:.2e}")
print(f"  note: {rep.note}")

# Same b_0 and b_1, different e_2: D/D and N/N share every heat
# coefficient magnitude pattern the relations see, yet mixed ends
# show the decoupling directly -- b_1 = 0 while e_2 flips sign
# relative to the like-ended value.
print(f"\n{'ends':>4} {'b1':>6} {'e2':>12} {'E = -e2/2':>12}")
for tag, g in (
    ("D/D", geom),
    ("N/N", Interval(1.0, NEUMANN, NEUMANN)),
    ("D/N", Interval(1.0, DIRICHLET, NEUMANN)),
):
    r = theorem1_check(g)
    co = extract_cylinder_coefficients(g)
    print(f"{tag:>4} {r.b1:6.2f} {co.e[2]:12.8f} {co.energy:12.8f}")

# The traces themselves: below t ~ L/5 the heat trace is already
# indistinguishable from its two-term expansion (corrections are
# e^{-L^2/s}-small), which is exactly why e2 cannot be read off it.
t = 0.2
print(f"\nTr H(s = t^2 = {t * t:g}) = {heat_trace(geom, t * t):.12f}")
print(f"b0/t + b1            = {rep.b0 / t + rep.b1:.12f}")
