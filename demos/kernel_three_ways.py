"""
One cylinder kernel, three constructions
========================================

The equal-point cylinder kernel T(t, x, x) -- the e^{-t omega}-damped
mode density -- built from the eigenmode sum, from the method of
images, and from the closed form, for each geometry.  Three routes,
one number, per point.
"""

import math

import numpy as np

from vacuum1d import (
    CLOSED_FORM,
    DIRICHLET,
    IMAGE_SUM,
    MODE_SUM,
    NEUMANN,
    HalfLine,
    Interval,
    TwistedCircle,
    cylinder_kernel,
    cylinder_trace,
)

CASES = [
    ("interval D/D", Interval(1.0, DIRICHLET, DIRICHLET), 0.5),
    ("interval D/N", Interval(1.0, DIRICHLET, NEUMANN), 0.3),
    ("half-line D", HalfLine(DIRICHLET), 0.7),
    ("twisted th=2", TwistedCircle(1.0, 2.0), 0.2),
]

print(f"{'geometry':>14} {'t':>5} {'mode sum':>13} {'image sum':>13} {'closed':>13}")
for tag, geom, x in CASES:
    for t in (0.1, 1.0):
        vals = [
            cylinder_kernel(geom, t, x, method=m).value
            for m in (MODE_SUM, IMAGE_SUM, CLOSED_FORM)
        ]
        print(f"{tag:>14} {t:5.2f} {vals[0]:13.9f} {vals[1]:13.9f} {vals[2]:13.9f}")

# The worst three-way spread over a t-sweep stays at rounding level.  Each
# call takes the whole array of points; t stays one number per call.
geom = Interval(1.0, DIRICHLET, DIRICHLET)
xs = np.linspace(0.05, 0.95, 19)
worst = 0.0
for t in np.geomspace(1e-2, 1.0, 30).tolist():
    ref = cylinder_kernel(geom, t, xs, method=CLOSED_FORM).value
    for m in (MODE_SUM, IMAGE_SUM):
        got = cylinder_kernel(geom, t, xs, method=m).value
        worst = max(worst, float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref)))))
print(f"\nworst D/D three-way deviation over t in [0.01, 1], 19 points: {worst:.2e}")

# The trace pulls the same comparison through the whole spectrum:
# sum of e^{-t omega_n} against 1/(e^{pi t} - 1) for D/D at L=1.
t = 1.0
tr = cylinder_trace(geom, t, method=MODE_SUM).value
print(f"\nTr T(t=1) mode sum     = {tr:.10f}")
print(f"1/(e^pi - 1)           = {1.0 / (math.expm1(math.pi)):.10f}")
