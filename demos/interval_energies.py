"""
Interval vacuum energies three ways
===================================

The renormalized energy of a string pinned (D) or free (N) at each end,
computed by the closed form, by reading the t^1 coefficient of the
cylinder trace off a Cauchy integral (E = -e_2/2), and by watching the
regularized energy converge as the cutoff comes off.
"""

import math

import numpy as np

from vacuum1d import (
    DIRICHLET,
    NEUMANN,
    Interval,
    extract_cylinder_coefficients,
    total_energy_regularized,
    total_energy_renormalized,
)

PI = math.pi

GEOMETRIES = {
    "D/D": Interval(1.0, DIRICHLET, DIRICHLET),
    "N/N": Interval(1.0, NEUMANN, NEUMANN),
    "D/N": Interval(1.0, DIRICHLET, NEUMANN),
}

print(f"{'ends':>4} {'closed form':>14} {'-e2/2':>14} {'target':>12}")
for tag, geom in GEOMETRIES.items():
    closed = total_energy_renormalized(geom).total_renormalized
    cauchy = extract_cylinder_coefficients(geom).energy
    target = PI / 48.0 if tag == "D/N" else -PI / 24.0
    print(f"{tag:>4} {closed:14.10f} {cauchy:14.10f} {target:12.8f}")

# Like ends agree (-pi/24); the mixed pair flips sign and quarters:
# repulsive +pi/48.  Now watch the regulator come off for D/D.  The
# divergent Weyl part is the same for every interval of the same
# length, so the renormalized column settles quadratically in t.
print("\nregularized D/D energy, Weyl part split off:")
geom = GEOMETRIES["D/D"]
print(f"{'t':>8} {'total_regularized':>18} {'renormalized':>14}")
for t in np.geomspace(1.0, 1e-3, 7):
    br = total_energy_regularized(geom, float(t))
    total = br.weyl + br.periodic + br.boundary
    print(f"{t:8.4f} {total:18.6f} {br.total_renormalized:14.10f}")
print(f"{'limit':>8} {'':>18} {-PI / 24.0:14.10f}")
