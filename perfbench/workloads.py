"""The three workloads: inputs from a seed, operations, and output checks.

Each workload builds a fixed list of operations from ``--seed`` (the
program sees only the generated numbers), runs one operation at a time,
and checks every output against :mod:`reference` or against a property
of the method.  ``kernel-routes`` and ``observables`` run in the
benchmark's own interpreter; ``cli-cold`` starts a new interpreter per
operation.

A check records a deviation ``|got - ref| / (1 + |ref|)`` under a quantity
family; the worst deviation of a family gives its agreement digits.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from reference import D, N, Geo

PI = math.pi
EPS = 2.0**-52
# Rounding allowance on top of a series route's own truncation bound.
ALLOW_EPS = 16.0
ROUTE_TOL = 1e-8  # the verify registry's three-way tolerance
DIGITS_FLOOR = 2.0**-53
# Families checked on failed operations; they stay out of agreement_digits.
FAILED_PREFIX = "failed_"
# local_counting reports no truncation bound, and its fixed-winding error
# (about 1e-4) would hold agreement_digits at 4 whatever the other families
# did; its digits are a per-layer metric only.
LAYER_ONLY = ("local_counting",)

WORKLOADS = ("kernel-routes", "observables", "cli-cold")


# ---------------------------------------------------------------------------
# Checking.
# ---------------------------------------------------------------------------


def digits(dev: float) -> float:
    return -math.log10(max(dev, DIGITS_FLOOR))


class Checker:
    """Collects deviations per family and the checks that failed."""

    def __init__(self) -> None:
        self.worst: dict[str, float] = {}
        self.failures: list[str] = []
        self.checked = 0

    def _note(self, family: str, dev: float, ok: bool, what: str) -> None:
        self.checked += 1
        if not (dev <= self.worst.get(family, -1.0)):
            self.worst[family] = dev
        if not ok:
            self.failures.append(f"{family}: {what} (deviation {dev:.3e})")

    def close(self, family: str, got, want, tol: float, what: str) -> None:
        """|got - want| / (1 + |want|) <= tol."""
        dev = abs(got - want) / (1.0 + abs(want))
        self._note(family, dev, dev <= tol, f"{what}: got {got!r}, want {want!r}")

    def bounded(self, family: str, got, want, bound: float, scale: float, what: str,
                tol: float | None = ROUTE_TOL) -> None:
        """|got - want| within the route's bound plus a rounding allowance of
        ALLOW_EPS eps * ``scale`` (the size of the summed terms), and, unless
        ``tol`` is None, within ``tol`` relative to 1 + |want|."""
        err = abs(got - want)
        dev = err / (1.0 + abs(want))
        ok = err <= bound + ALLOW_EPS * EPS * scale and (tol is None or dev <= tol)
        self._note(family, dev, ok, f"{what}: got {got!r}, want {want!r}, bound {bound:.3e}")

    def require(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(what)

    def digits(self) -> dict[str, float]:
        return {family: digits(dev) for family, dev in sorted(self.worst.items())}

    def agreement(self) -> float:
        """Worst digits over the families of operations that did not fail,
        leaving out the LAYER_ONLY families."""
        return min(d for family, d in self.digits().items()
                   if not family.startswith(FAILED_PREFIX) and family not in LAYER_ONLY)


# ---------------------------------------------------------------------------
# Program objects.
# ---------------------------------------------------------------------------


def to_program(v, g: Geo):
    """vacuum1d geometry for a reference tuple."""
    bc = {D: v.DIRICHLET, N: v.NEUMANN}
    if g.kind == "interval":
        return v.Interval(g.length, bc[g.l], bc[g.r])
    if g.kind == "twisted":
        return v.TwistedCircle(g.length, g.theta)
    return v.HalfLine(bc[g.l])


def _intervals(lengths) -> list[Geo]:
    return [Geo("interval", length, l, r) for length in lengths for l, r in ((D, D), (N, N), (D, N), (N, D))]


def _between_levels(rng, g: Geo, first: int, last: int) -> float:
    """A frequency strictly between two neighbouring distinct levels,
    at least a tenth of their gap away from both."""
    levels: list[float] = []
    for w in ref.eigenvalues(g, (last + 2) * 2.0 * PI / g.length):
        if not levels or w - levels[-1] > 1e-9 / g.length:
            levels.append(w)
    j = int(rng.integers(first, last))
    lo, hi = levels[j], levels[j + 1]
    return float(lo + rng.uniform(0.1, 0.9) * (hi - lo))


@dataclass
class Op:
    label: str
    geo: Geo
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# kernel-routes
# ---------------------------------------------------------------------------


class KernelRoutes:
    """One operation is one (geometry, t) row: every (x, y) point of the row
    by closed form, image sum and mode sum, plus the trace by all three."""

    name = "kernel-routes"
    in_process = True
    ROUTES = ("closed-form", "image-sum", "mode-sum")

    def __init__(self, seed: int, size: str = "full") -> None:
        import vacuum1d

        self.v = vacuum1d
        rng = np.random.default_rng([seed, 1])
        tiny = size == "tiny"
        n_t = 2 if tiny else 4
        n_pts = 2 if tiny else 4
        theta_s = float(rng.uniform(0.2, 2.0 * PI - 0.2))
        geos = _intervals((1.0,) if tiny else (1.0, 2.5))
        twisted = [Geo("twisted", 1.0, theta=th) for th in (0.0, PI, theta_s)]
        halflines = [Geo("halfline", l=D), Geo("halfline", l=N)]
        self.ops: list[Op] = []
        for g in geos + twisted + halflines:
            for frac in np.geomspace(1e-2, 1.0, n_t):
                t = float(frac) * (g.length if g.kind != "halfline" else 1.0)
                variants = ("diag", "offdiag") if g.kind == "twisted" else ("mixed",)
                for variant in variants:
                    pts = []
                    for i in range(n_pts):
                        if g.kind == "interval":
                            x = float(rng.uniform(0.02, 0.98)) * g.length
                            y = x if i % 2 == 0 else float(rng.uniform(0.02, 0.98)) * g.length
                        elif g.kind == "halfline":
                            x = float(rng.uniform(0.02, 2.0))
                            y = x if i % 2 == 0 else float(rng.uniform(0.02, 2.0))
                        else:
                            x = float(rng.uniform(0.0, g.length))
                            y = x if variant == "diag" else float(rng.uniform(0.0, g.length))
                        pts.append((x, y))
                    self.ops.append(Op(f"{g.label} t={t:.4g} {variant}", g, {"t": t, "points": pts}))
        self.geoms = {op.geo: to_program(vacuum1d, op.geo) for op in self.ops}

    def run(self, op: Op):
        v, geom, t = self.v, self.geoms[op.geo], op.params["t"]
        kernel = v.cylinder_kernel
        points = [
            tuple(kernel(geom, t, x, y, method=m) for m in self.ROUTES)
            for x, y in op.params["points"]
        ]
        traces = ()
        if op.geo.kind != "halfline":
            traces = tuple(v.cylinder_trace(geom, t, method=m) for m in self.ROUTES)
        # Known fault: the twisted off-diagonal closed form is the mode sum.
        failed = any(closed.method != "closed-form" for closed, _, _ in points)
        return (points, traces), failed

    @staticmethod
    def rounding_scale(g: Geo, t: float, want) -> float:
        """1 + |T| + the size of the summed terms: (2/L)(Tr T + 1) for the
        mode and image sums of a compact geometry, 2/(pi t) on the half-line."""
        if g.kind == "halfline":
            return 1.0 + abs(want) + 2.0 / (PI * t)
        return 1.0 + abs(want) + 2.0 / g.length * (ref.trace(g, t) + 1.0)

    def check(self, op: Op, out, c: Checker) -> None:
        points, traces = out
        g, t = op.geo, op.params["t"]
        for (x, y), (closed, image, mode) in zip(op.params["points"], points):
            want = ref.kernel(g, t, x, y)
            scale = self.rounding_scale(g, t, want)
            at = f"{op.label} x={x:.6g} y={y:.6g}"
            c.require(image.method == "image-sum" and mode.method == "mode-sum",
                      f"{at}: series routes report {image.method}/{mode.method}")
            if closed.method == "closed-form":
                c.close("kernel_closed_form", closed.value, want, 1e-12, f"{at} closed form")
                c.bounded("kernel_image_sum", image.value, closed.value, image.truncation_bound, scale,
                          f"{at} image sum")
                c.bounded("kernel_mode_sum", mode.value, closed.value, mode.truncation_bound, scale,
                          f"{at} mode sum")
                continue
            # Failed row (closed form fell back to the mode sum): the series
            # routes must still lie within their own bounds of the
            # benchmark's closed form, and of each other.
            c.bounded(FAILED_PREFIX + "kernel_image_sum", image.value, want, image.truncation_bound, scale,
                      f"{at} image sum", tol=None)
            c.bounded(FAILED_PREFIX + "kernel_mode_sum", mode.value, want, mode.truncation_bound, scale,
                      f"{at} mode sum", tol=None)
            c.bounded(FAILED_PREFIX + "kernel_image_vs_mode", image.value, mode.value,
                      image.truncation_bound + mode.truncation_bound, 2.0 * scale,
                      f"{at} image sum against mode sum", tol=None)
        if traces:
            closed, image, mode = traces
            want = ref.trace(g, t)
            scale = 1.0 + abs(want)
            c.close("trace_closed_form", closed.value, want, 1e-12, f"{op.label} trace closed form")
            c.bounded("trace_image_sum", image.value, closed.value, image.truncation_bound, scale,
                      f"{op.label} trace image sum")
            c.bounded("trace_mode_sum", mode.value, closed.value, mode.truncation_bound, scale,
                      f"{op.label} trace mode sum")


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


class Observables:
    """One operation is one (geometry, parameter) study of energies,
    densities, fits, counting functions and local spectral densities."""

    name = "observables"
    in_process = True
    T_LADDER = np.geomspace(1e-3, 1e-1, 6)
    XIS = (0.0, 0.25)
    N_NODES = 64
    SPOT_NODES = (0, 21, 42, 63)

    def __init__(self, seed: int, size: str = "full") -> None:
        import vacuum1d

        self.v = vacuum1d
        rng = np.random.default_rng([seed, 2])
        tiny = size == "tiny"
        length_s = float(rng.uniform(0.5, 2.0))
        theta_s = float(rng.uniform(0.2, 2.0 * PI - 0.2))
        geos = _intervals((1.0,) if tiny else (1.0, length_s))
        geos += [Geo("twisted", 1.0, theta=th) for th in ((0.0, theta_s) if tiny else (0.0, PI, theta_s))]
        geos += [Geo("halfline", l=D)] if tiny else [Geo("halfline", l=D), Geo("halfline", l=N)]
        nodes, weights = np.polynomial.legendre.leggauss(self.N_NODES)
        self.ops: list[Op] = []
        for g in geos:
            scale = g.length if g.kind != "halfline" else 1.0
            t_d = float(rng.uniform(0.1, 0.3)) * scale
            if g.kind == "halfline":
                # x = (t/2) tan(phi) maps (0, inf) onto phi in (0, pi/2).
                phi = 0.25 * PI * (nodes + 1.0)
                xs = 0.5 * t_d * np.tan(phi)
                ws = 0.25 * PI * weights * 0.5 * t_d / np.cos(phi) ** 2
            else:
                xs = 0.5 * g.length * (nodes + 1.0)
                ws = 0.5 * g.length * weights
            params = {
                "t_ladder": [float(t) * scale for t in self.T_LADDER],
                "t_density": t_d,
                "xs": [float(x) for x in xs],
                "ws": [float(w) for w in ws],
                "omegas": [],
                "spectral": [],
            }
            if g.kind != "halfline":
                params["omegas"] = [_between_levels(rng, g, 0, 30) for _ in range(4)]
                params["omega_max"] = 50.0 / g.length
            # (omega, x, damping) points, omega at least a tenth of the way
            # between multiples of pi/2L, near which local_counting's
            # truncated boundary-image sum resonates.  Interval studies take
            # three points; at L = 1 the first is fixed where that
            # truncation error peaks.
            n_points = 3 if g.kind == "interval" else 2
            if g.kind == "interval" and g.length == 1.0:
                frac, xf = (0.9, 0.5) if g.like else (0.1, 0.05 if g.l == D else 0.95)
                params["spectral"].append(((1.0 + frac) * PI / (2.0 * scale), xf * scale, 0.1 / scale))
            while len(params["spectral"]) < n_points:
                m = int(rng.integers(1, 40))
                omega = (m + float(rng.uniform(0.1, 0.9))) * PI / (2.0 * scale)
                x = float(rng.uniform(0.05, 0.95)) * scale
                s = float(rng.uniform(0.05, 0.5)) / scale
                params["spectral"].append((omega, x, s))
            self.ops.append(Op(f"{g.label} study", g, params))
        self.geoms = {op.geo: to_program(vacuum1d, op.geo) for op in self.ops}

    def run(self, op: Op):
        v, geom, p, g = self.v, self.geoms[op.geo], op.params, op.geo
        out: dict = {}
        if g.kind != "halfline":
            out["renormalized"] = v.total_energy_renormalized(geom)
            out["ladder"] = [v.total_energy_regularized(geom, t) for t in p["t_ladder"]]
        t_d = p["t_density"]
        out["density"] = {
            xi: [v.energy_density_regularized(geom, t_d, x, xi) for x in p["xs"]] for xi in self.XIS
        }
        out["profile"] = {
            xi: [v.energy_density_renormalized(geom, x, xi) for x in p["xs"]] for xi in self.XIS
        }
        if g.kind == "twisted":
            out["orbit_sum"] = v.twisted_energy_orbit_sum(g.theta, g.length)
        if g.kind != "halfline":
            out["fit"] = v.extract_cylinder_coefficients(geom)
            out["theorem1"] = v.theorem1_check(geom)
            out["counting"] = [
                (v.counting_decomposition(geom, w), v.counting_function(geom, w)) for w in p["omegas"]
            ]
            out["eigenvalues"] = v.eigenvalues(geom, p["omega_max"])
        spectral = []
        for omega, x, s in p["spectral"]:
            control = v.SeriesControl(damping_t=s)
            spectral.append((
                v.local_spectral_density(geom, omega, x, control),
                v.green_im_diag(geom, omega, x, control),
                v.local_counting(geom, omega, x),
            ))
        out["spectral"] = spectral
        return out, False

    def check(self, op: Op, out: dict, c: Checker) -> None:
        g, p, where = op.geo, op.params, op.label
        if g.kind != "halfline":
            e_ref = ref.energy(g)
            c.close("energy_total", out["renormalized"].total_renormalized, e_ref, 1e-13,
                    f"{where} renormalized total")
            gaps = []
            for t, br in zip(p["t_ladder"], out["ladder"]):
                c.close("energy_boundary", br.boundary, 0.0, 1e-10, f"{where} boundary part of E(t={t:.3g})")
                # 1e-6 is the registry's energy tolerance; the deviation
                # itself is reported in the family's digits.
                c.close("energy_regularized", br.periodic, ref.energy_regularized(g, t), 1e-6,
                        f"{where} periodic part of E(t={t:.3g})")
                c.close("energy_regularized", br.weyl, g.length / (2 * PI * t * t), 1e-13,
                        f"{where} Weyl part of E(t={t:.3g})")
                gaps.append(abs(br.total_renormalized - e_ref))
            # E(t) -> E like t^2: every local slope of log |E(t) - E| against
            # log t is at least 1.9 (2 up to the next order, as in the
            # registry), unless the gap is already at rounding level.
            ts, floor = p["t_ladder"], 1e-12 * (1.0 + abs(e_ref))
            for i in range(len(ts) - 1):
                if gaps[i] <= floor:
                    continue
                slope = math.log(gaps[i + 1] / gaps[i]) / math.log(ts[i + 1] / ts[i])
                c.require(slope >= 1.9, f"{where}: slope of |E(t) - E| is {slope:.3f} on t in "
                                        f"[{ts[i]:.3g}, {ts[i + 1]:.3g}], want >= 1.9")
        t_d = p["t_density"]
        want_integral = 0.0 if g.kind == "halfline" else ref.energy_regularized(g, t_d)
        for xi in self.XIS:
            rows = out["density"][xi]
            integral = math.fsum(w * br.total_renormalized for w, br in zip(p["ws"], rows))
            c.close("density_integral", integral, want_integral, 1e-10,
                    f"{where} density integrated at xi={xi} t={t_d:.4g}")
            for i in self.SPOT_NODES:
                x = p["xs"][i]
                per, bdry = ref.density_regularized(g, t_d, x, xi)
                c.close("density_regularized", rows[i].total_renormalized, per + bdry, 1e-10,
                        f"{where} density at t={t_d:.4g} x={x:.4g} xi={xi}")
            for x, br in zip(p["xs"], out["profile"][xi]):
                per, bdry = ref.density_renormalized(g, x, xi)
                c.close("density_renormalized", br.total_renormalized, per + bdry, 1e-12,
                        f"{where} renormalized density x={x:.4g} xi={xi}")
        if g.kind == "twisted":
            sv = out["orbit_sum"]
            # Held to the registry's 1e-5 curve tolerance, not to its own
            # truncation bound, which it exceeds at some angles.
            c.close("orbit_sum", sv.value, ref.energy(g), 1e-5, f"{where} orbit-sum energy")
        if g.kind != "halfline":
            fit, th1 = out["fit"], out["theorem1"]
            b1 = ref.heat_b1(g)
            c.close("coefficients", fit.energy, ref.energy(g), 1e-6, f"{where} fitted energy -e2/2")
            c.close("coefficients", fit.e[0], g.length / PI, 1e-6, f"{where} fitted e0")
            c.close("coefficients", fit.e[1], b1, 1e-6, f"{where} fitted e1")
            c.close("coefficients", th1.b0, g.length / (2.0 * math.sqrt(PI)), 1e-6, f"{where} heat b0")
            c.close("coefficients", th1.b1, b1, 1e-6, f"{where} heat b1")
            c.close("coefficients", th1.defect_e0, 0.0, 1e-6, f"{where} e0 - (2/sqrt pi) b0")
            c.close("coefficients", th1.defect_e1, 0.0, 1e-6, f"{where} e1 - b1")
            for omega, (dec, n_prog) in zip(p["omegas"], out["counting"]):
                n_ref = ref.count(g, omega)
                c.close("counting", dec.total, n_ref, 1e-9, f"{where} Weyl+periodic+boundary at omega={omega:.6g}")
                c.require(n_prog == n_ref, f"{where} counting_function({omega:.6g}) = {n_prog}, want {n_ref}")
            levels = [w for w, mult in out["eigenvalues"] for _ in range(mult)]
            want = ref.eigenvalues(g, p["omega_max"])
            c.require(len(levels) == len(want), f"{where} eigenvalues: {len(levels)} levels, want {len(want)}")
            for got, w in zip(levels, want):
                c.close("counting", got, w, 1e-14, f"{where} eigenvalue {w:.6g}")
        for (omega, x, s), (lsd, gim, lc) in zip(p["spectral"], out["spectral"]):
            at = f"{where} omega={omega:.6g} x={x:.6g} s={s:.3g}"
            sigma = ref.lsd_mode_sum(g, omega, x, s)
            bound = lsd.periodic.truncation_bound + lsd.boundary.truncation_bound
            c.close("spectral_density", lsd.total, sigma, bound + 1e-12, f"{at} local spectral density")
            c.close("spectral_density", gim.value, PI / (2.0 * omega) * sigma, gim.truncation_bound + 1e-12,
                    f"{at} Im G")
            if g.kind == "halfline":
                want = omega / PI + (-1.0) ** g.l * math.sin(2.0 * omega * x) / (2.0 * PI * x)
                c.close("local_counting", lc, want, 1e-12, f"{at} local counting")
            else:
                # The interval's boundary-image series is truncated at 10^4
                # windings and reports no bound; its error peaks near 1e-4
                # on the sampled range, so 1e-3 catches anything grosser.
                tol = 1e-3 if g.kind == "interval" else 1e-12
                c.close("local_counting", lc, ref.local_counting(g, omega, x), tol, f"{at} local counting")


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def _csv_rows(text: str) -> tuple[dict, list[dict]]:
    """Parse the CLI's CSV: ``# key: value`` lines, a header, data rows."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line.strip():
            body.append(line)
    rows = list(csv.DictReader(body))
    return meta, rows


class CliCold:
    """One operation is one ``vacuum`` invocation in a new interpreter."""

    name = "cli-cold"
    in_process = False
    ENTRY = "import sys; from vacuum1d.cli import main; sys.exit(main())"

    def __init__(self, seed: int, size: str = "full", src: str = "src") -> None:
        rng = np.random.default_rng([seed, 3])
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.env.pop("VACUUM_TOL", None)
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        length = round(u(0.5, 2.0), 6)
        ts = sorted(round(length * u(0.05, 1.0), 6) for _ in range(3))
        xs = sorted(round(length * u(0.05, 0.95), 6) for _ in range(3))
        theta = round(u(0.2, 2.0 * PI - 0.2), 6)
        xi = round(u(0.0, 0.5), 6)
        t_fig2 = round(10 ** u(-3.5, -2.5), 9)
        L = f"{length!r}"
        join = lambda vals: ",".join(repr(v) for v in vals)  # noqa: E731
        ops = [
            ("energy", ["energy", "--length", L]),
            ("energy-t", ["energy", "--length", L, "--bc-left", "N", "--bc-right", "N", "--t", join(ts)]),
            ("energy-twisted", ["energy", "--geometry", "twisted", "--length", L]),
            ("density", ["density", "--length", L, "--bc-right", "N", "--xi", repr(xi)]),
            ("density-t", ["density", "--length", L, "--bc-left", "N", "--bc-right", "N",
                           "--t", join(ts[:2]), "--x", join(xs), "--xi", repr(xi)]),
            # Unit length, so the D/N image sum's error at t = L, which
            # sets this workload's agreement, does not move with the seed.
            ("kernel", ["kernel", "--bc-right", "N", "--t", join([round(ts[0] / length, 6), 1.0]),
                        "--x", join([round(x / length, 6) for x in xs[:2]])]),
            ("spectrum", ["spectrum", "--geometry", "twisted", "--length", L, "--theta", repr(theta),
                          "--omega-max", repr(round(u(20.0, 60.0) / length, 6))]),
            ("compare", ["compare", "--length", L, "--bc-left", "N", "--bc-right", "N", "--x", join(xs[:2])]),
            ("figure-fig1", ["figure", "--which", "fig1", "--xi", repr(xi)]),
            ("figure-fig2", ["figure", "--which", "fig2", "--t", repr(t_fig2)]),
            ("verify", ["verify"]),
        ]
        if size == "tiny":
            ops = [op for op in ops if op[0] in ("energy", "kernel")]
        self.ops = [Op(name, Geo("interval", length), {"argv": argv}) for name, argv in ops]

    def argv(self, op: Op) -> list[str]:
        return [sys.executable, "-c", self.ENTRY, *op.params["argv"]]

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-c", self.ENTRY, "--version"], env=self.env,
                       stdout=subprocess.DEVNULL, check=True, timeout=120)

    def run(self, op: Op):
        proc = subprocess.run(self.argv(op), env=self.env, capture_output=True, text=True, timeout=120)
        return (proc.returncode, proc.stdout, proc.stderr), False

    def check(self, op: Op, out, c: Checker) -> None:
        code, stdout, stderr = out
        where = f"vacuum {' '.join(op.params['argv'])}"
        c.require(code == 0, f"{where}: exit code {code}: {stderr.strip()[-300:]}")
        if code != 0:
            return
        argv = op.params["argv"]
        opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
        length = float(opt.get("--length", 1.0))
        bc = {"D": D, "N": N}
        g = Geo("interval", length, bc[opt.get("--bc-left", "D")], bc[opt.get("--bc-right", "D")])
        xi = float(opt.get("--xi", 0.25))
        fam = "cli_" + op.label.split("-")[0]
        if op.label == "verify":
            doc = json.loads(stdout)
            meta = doc["meta"]
            c.require(meta["checks"] == 17 and meta["passed"] == 17,
                      f"{where}: {meta['passed']}/{meta['checks']} checks passed")
            c.require(all(row["passed"] for row in doc["rows"]), f"{where}: a check failed")
            return
        meta, rows = _csv_rows(stdout)
        c.require(len(rows) > 0, f"{where}: no rows")
        f = lambda row, key: float(row[key])  # noqa: E731
        if op.label == "energy":
            c.close(fam, f(rows[0], "total_renormalized"), ref.energy(g), 1e-13, f"{where} total")
        elif op.label == "energy-t":
            for row in rows:
                t = f(row, "t")
                c.close(fam, f(row, "periodic"), ref.energy_regularized(g, t), 1e-10, f"{where} periodic t={t}")
                c.close(fam, f(row, "boundary"), 0.0, 1e-10, f"{where} boundary t={t}")
                c.close(fam, f(row, "weyl"), length / (2 * PI * t * t), 1e-13, f"{where} weyl t={t}")
            c.require(len(rows) == 3, f"{where}: {len(rows)} rows, want 3")
        elif op.label == "energy-twisted":
            c.require(len(rows) == 101, f"{where}: {len(rows)} rows, want 101")
            for row in rows:
                th = f(row, "theta")
                c.close(fam, f(row, "total_renormalized"), ref.energy(Geo("twisted", length, theta=th)), 1e-13,
                        f"{where} theta={th}")
        elif op.label == "density":
            c.require(len(rows) == 101, f"{where}: {len(rows)} rows, want 101")
            for row in rows:
                x = f(row, "x")
                per, bdry = ref.density_renormalized(g, x, xi)
                c.close(fam, f(row, "total_renormalized"), per + bdry, 1e-12, f"{where} x={x}")
        elif op.label == "density-t":
            c.require(len(rows) == 6, f"{where}: {len(rows)} rows, want 6")
            for row in rows:
                t, x = f(row, "t"), f(row, "x")
                per, bdry = ref.density_regularized(g, t, x, xi)
                c.close(fam, f(row, "total_renormalized"), per + bdry, 1e-10, f"{where} t={t} x={x}")
        elif op.label == "kernel":
            c.require(len(rows) == 4, f"{where}: {len(rows)} rows, want 4")
            for row in rows:
                t, x = f(row, "t"), f(row, "x")
                closed = f(row, "closed_form")
                c.close(fam, closed, ref.kernel(g, t, x, x), 1e-12, f"{where} closed form t={t} x={x}")
                dev = max(abs(f(row, "mode_sum") - closed), abs(f(row, "image_sum") - closed))
                c.close(fam, f(row, "image_sum"), closed, ROUTE_TOL, f"{where} image sum t={t} x={x}")
                c.close(fam, f(row, "mode_sum"), closed, ROUTE_TOL, f"{where} mode sum t={t} x={x}")
                c.require(f(row, "max_deviation") == dev, f"{where}: max_deviation column t={t} x={x}")
        elif op.label == "spectrum":
            tw = Geo("twisted", length, theta=float(opt["--theta"]))
            want = ref.eigenvalues(tw, float(opt["--omega-max"]))
            got = [f(row, "omega") for row in rows for _ in range(int(row["mult"]))]
            c.require(len(got) == len(want), f"{where}: {len(got)} levels, want {len(want)}")
            for a, b in zip(got, want):
                c.close(fam, a, b, 1e-14, f"{where} omega={b}")
            for row in rows:
                w = f(row, "omega")
                c.require(int(row["N"]) == ref.count(tw, w), f"{where}: N({w}) = {row['N']}")
        elif op.label == "compare":
            by = {row["quantity"]: row for row in rows}
            e = ref.energy(g)
            short = ((-1.0) ** g.l + (-1.0) ** g.r) / (8.0 * PI * length)
            c.close(fam, f(by["total_energy"], "exact"), e, 1e-13, f"{where} exact total")
            c.close(fam, f(by["total_energy"], "stationary_phase"), e, 1e-13, f"{where} stationary-phase total")
            c.close(fam, f(by["total_energy"], "short_orbit"), e + short, 1e-13, f"{where} short-orbit total")
            c.close(fam, f(by["boundary_energy"], "short_orbit"), short, 1e-13, f"{where} short-orbit boundary")
            dens = [row for q, row in by.items() if q.startswith("density@")]
            xs = [float(x) for x in opt["--x"].split(",")]
            c.require(len(dens) == len(xs), f"{where}: {len(dens)} density rows, want {len(xs)}")
            for x, row in zip(xs, dens):
                per, bdry = ref.density_renormalized(g, x, 0.25)
                c.close(fam, f(row, "exact"), per + bdry, 1e-12, f"{where} density at x={x}")
                c.close(fam, f(row, "stationary_phase"), per, 1e-12, f"{where} bulk density at x={x}")
        elif op.label == "figure-fig1":
            c.require(len(rows) == 500, f"{where}: {len(rows)} rows, want 500")
            dd = Geo("interval", 1.0, D, D)
            for row in rows:
                x = f(row, "x")
                per, bdry = ref.density_renormalized(dd, x, xi)
                c.close(fam, f(row, "energy_density"), per + bdry, 1e-12, f"{where} x={x}")
        elif op.label == "figure-fig2":
            c.require(len(rows) == 1000, f"{where}: {len(rows)} rows, want 1000")
            t = float(opt["--t"])
            for row in rows:
                x = f(row, "x")
                _, bdry = ref.density_regularized(Geo("halfline", l=D), t, x, 0.25)
                c.close(fam, f(row, "energy_density"), bdry, 1e-12, f"{where} x={x}")


def make(name: str, seed: int, size: str = "full", src: str = "src"):
    if name == "kernel-routes":
        return KernelRoutes(seed, size)
    if name == "observables":
        return Observables(seed, size)
    if name == "cli-cold":
        return CliCold(seed, size, src)
    raise ValueError(f"unknown workload {name!r}")
