"""
Smoothing the eigenvalue staircase
==================================

The counting function N(omega) jumps by one at every eigenvalue.  Its
Weyl part is the straight line omega L/pi; the boundary part is the
constant +-1/2 (or 0 for mixed ends); the periodic-orbit part supplies
the oscillation that squares the corners -- and the three together
reproduce the exact integer count away from the jumps.
"""

import math

import numpy as np

from vacuum1d import (
    DIRICHLET,
    NEUMANN,
    Interval,
    counting_decomposition,
    counting_function,
    eigenvalues,
    lattice_sum,
)

PI = math.pi
geom = Interval(1.0, DIRICHLET, DIRICHLET)

print("first Dirichlet levels (omega = j pi):")
print("  " + "  ".join(f"{w:.4f}" for w, _ in eigenvalues(geom, 16.0)))

print(f"\n{'omega':>7} {'N exact':>8} {'weyl':>8} {'boundary':>9} {'periodic':>9} {'sum':>8}")
for omega in (2.0, 5.0, 10.0, 31.7, 100.3):
    dec = counting_decomposition(geom, omega)
    exact = counting_function(geom, omega)
    print(
        f"{omega:7.1f} {exact:8d} {dec.weyl:8.4f} {dec.boundary:9.4f} "
        f"{dec.periodic:9.4f} {dec.total:8.4f}"
    )

# The boundary constant tracks the end conditions: -1/2 for D/D, +1/2
# for N/N, 0 when the ends disagree and the half-integer shifts cancel.
for tag, g in (
    ("D/D", geom),
    ("N/N", Interval(1.0, NEUMANN, NEUMANN)),
    ("D/N", Interval(1.0, DIRICHLET, NEUMANN)),
):
    print(f"boundary term {tag}: {counting_decomposition(g, 17.3).boundary:+.1f}")

# Under the hood this is Poisson summation: the image sum over
# reflections equals the mode sum over the ladder.  Halfway between two
# levels, omega' = (M + 1/2) pi, each image sin(2 omega' (x + n))/(x + n)
# is (-1)^n sin((2M + 1) pi x)/(x + n) and the Dirichlet kernel is
# pi sin((2M + 1) pi x)/sin(pi x).  The common sine cancels, so the
# identity is an alternating lattice sum, which comes with a bound,
# against pi/sin(pi x), its sine taken at the nearer wall.  Spot-check
# it at random points.
rng = np.random.default_rng(11)
worst = worst_bound = 0.0
for _ in range(20):
    x = float(rng.uniform(0.05, 0.95))
    images = lattice_sum(1.0, x, 0.0, PI)
    lhs = images.value.real
    rhs = PI / math.sin(PI * min(x, 1.0 - x))
    worst = max(worst, abs(lhs - rhs))
    worst_bound = max(worst_bound, images.truncation_bound)
print(
    f"\nPoisson identity, 20 random x: worst |lhs - rhs| = {worst:.2e} "
    f"(image-sum bound {worst_bound:.2e})"
)
