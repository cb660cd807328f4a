"""Command-line surface: tables, figure data, reports, verification.

Every subcommand runs the same small pipeline: build a geometry from
flags, call the corresponding library operation, emit one table as CSV
(default) or JSON.  CSV carries ``#``-prefixed metadata lines (geometry,
tolerances, build) above the header so a data file re-read months later
still says what produced it, and floats are printed with 17 significant
digits so :func:`parse_table` reproduces the binary values exactly.

Exit codes are a stable contract::

    0   success
    1   verification failure (``vacuum verify``)
    2   usage or configuration error (including ``InvalidParameter``)
    3   any other library error: continuous spectrum, point outside the
        domain, a series or fit that did not converge, ...

The environment variable ``VACUUM_TOL`` supplies a default for ``--tol``
wherever a tolerance is consulted (notably ``vacuum verify``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .energy import (
    approximation_report,
    energy_density_regularized,
    energy_density_renormalized,
    total_energy_regularized,
    total_energy_renormalized,
)
from .errors import ContinuousSpectrum, InvalidParameter, VacuumError
from .kernels import CLOSED_FORM, IMAGE_SUM, MODE_SUM, cylinder_kernel
from .spectrum import (
    DIRICHLET,
    NEUMANN,
    Geometry,
    HalfLine,
    Interval,
    TwistedCircle,
    counting_function,
    eigenvalues,
)
from .summation import SeriesControl
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_FLOAT_FMT = "%.17g"
_BC = {"D": DIRICHLET, "N": NEUMANN}


# ---------------------------------------------------------------------------
# Tables and their serializations.
# ---------------------------------------------------------------------------


@dataclass
class Table:
    """One emitted result set: metadata, column names, homogeneous rows."""

    meta: dict
    columns: tuple[str, ...]
    rows: list[tuple]


def _py(value):
    """Collapse numpy scalars so emitters see plain Python types."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _fmt_cell(value) -> str:
    value = _py(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def emit_csv(table: Table) -> str:
    """CSV text: ``# key: value`` metadata lines, header row, data rows."""
    buf = io.StringIO()
    for key, value in table.meta.items():
        buf.write(f"# {key}: {_fmt_cell(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_fmt_cell(value) for value in row])
    return buf.getvalue()


def emit_json(table: Table) -> str:
    """JSON text: ``{"meta": {...}, "rows": [{column: value, ...}, ...]}``."""
    rows = [
        {key: _py(value) for key, value in zip(table.columns, row)}
        for row in table.rows
    ]
    doc = {"meta": {key: _py(value) for key, value in table.meta.items()}, "rows": rows}
    return json.dumps(doc, indent=2) + "\n"


def _parse_cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(text: str) -> Table:
    """Inverse of :func:`emit_csv`; round-trips every emitted value."""
    meta: dict = {}
    body: list[str] = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = _parse_cell(value.strip())
        elif line.strip():
            body.append(line)
    reader = csv.reader(body)
    columns = tuple(next(reader))
    rows = [tuple(_parse_cell(cell) for cell in row) for row in reader]
    return Table(meta=meta, columns=columns, rows=rows)


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------


def _grid(text: str) -> list[float]:
    """Comma-separated float grid; must be nonempty, strictly increasing."""
    try:
        values = [float(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid value in {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty grid")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("grid values must be strictly increasing")
    return values


def build_geometry(args: argparse.Namespace) -> Geometry:
    if args.geometry == "interval":
        return Interval(args.length, _BC[args.bc_left], _BC[args.bc_right])
    if args.geometry == "halfline":
        return HalfLine(_BC[args.bc_left])
    theta = 0.0 if args.theta is None else args.theta
    return TwistedCircle(args.length, theta)


def describe(geometry: Geometry) -> str:
    if isinstance(geometry, Interval):
        return (
            f"interval L={geometry.length:g} "
            f"{geometry.left.value}/{geometry.right.value}"
        )
    if isinstance(geometry, HalfLine):
        return f"halfline {geometry.condition.value}"
    return f"twisted L={geometry.length:g} theta={geometry.theta:.17g}"


def _meta(args: argparse.Namespace, geometry: Geometry | None = None) -> dict:
    meta = {"build": f"vacuum1d {__version__}", "command": args.command}
    if geometry is not None:
        meta["geometry"] = describe(geometry)
    if args.tol is not None:
        meta["tol"] = args.tol
    if args.max_terms is not None:
        meta["max_terms"] = args.max_terms
    return meta


def _control(args: argparse.Namespace) -> SeriesControl:
    kwargs = {}
    if args.max_terms is not None:
        kwargs["max_terms"] = args.max_terms
    if args.tol is not None:
        kwargs["tol"] = args.tol
    return SeriesControl(**kwargs)


def _grid_points(args: argparse.Namespace, default: int) -> int:
    n = args.grid_points
    if n is None:
        return default
    if n < 1:
        raise InvalidParameter("--grid-points must be at least 1")
    return n


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (table, exit code); emission is shared.
# ---------------------------------------------------------------------------


def cmd_spectrum(args: argparse.Namespace) -> tuple[Table, int]:
    geometry = build_geometry(args)
    if args.omega_max is None and not isinstance(geometry, HalfLine):
        raise InvalidParameter("spectrum requires --omega-max")
    # The half-line raises ContinuousSpectrum at any cutoff; the placeholder
    # only keeps the call well-formed when --omega-max was omitted.
    omega_max = 1.0 if args.omega_max is None else args.omega_max
    rows = [
        (omega, mult, counting_function(geometry, omega))
        for omega, mult in eigenvalues(geometry, omega_max)
    ]
    meta = _meta(args, geometry)
    meta["omega_max"] = omega_max
    return Table(meta, ("omega", "mult", "N"), rows), EXIT_OK


def cmd_energy(args: argparse.Namespace) -> tuple[Table, int]:
    if args.geometry == "twisted" and args.theta is None:
        # No angle given: sweep the full holonomy circle instead.
        n = _grid_points(args, 101)
        rows = []
        for theta in np.linspace(0.0, 2.0 * math.pi, n):
            br = total_energy_renormalized(TwistedCircle(args.length, float(theta)))
            rows.append((float(theta), br.weyl, br.periodic, br.boundary, br.total_renormalized))
        meta = _meta(args)
        meta["geometry"] = f"twisted L={args.length:g} theta in [0, 2pi]"
        columns = ("theta", "weyl", "periodic", "boundary", "total_renormalized")
        return Table(meta, columns, rows), EXIT_OK
    geometry = build_geometry(args)
    if args.t:
        rows = []
        for t in args.t:
            br = total_energy_regularized(geometry, t)
            rows.append(
                (t, br.weyl, br.periodic, br.boundary,
                 br.weyl + br.periodic + br.boundary, br.total_renormalized)
            )
        columns = ("t", "weyl", "periodic", "boundary",
                   "total_regularized", "total_renormalized")
        return Table(_meta(args, geometry), columns, rows), EXIT_OK
    br = total_energy_renormalized(geometry)
    meta = _meta(args, geometry)
    if br.note:
        meta["note"] = br.note
    columns = ("weyl", "periodic", "boundary", "total_renormalized")
    rows = [(br.weyl, br.periodic, br.boundary, br.total_renormalized)]
    return Table(meta, columns, rows), EXIT_OK


def _default_x_grid(geometry: Geometry, n: int) -> list[float]:
    if isinstance(geometry, Interval):
        # Clip away the walls: the renormalized profile is csc^2-divergent.
        return [float(x) for x in np.linspace(0.02, 0.98, n) * geometry.length]
    if isinstance(geometry, HalfLine):
        return [float(x) for x in np.geomspace(1e-2, 2.0, n)]
    return [float(x) for x in np.linspace(0.0, geometry.length, n, endpoint=False)]


def cmd_density(args: argparse.Namespace) -> tuple[Table, int]:
    geometry = build_geometry(args)
    xs = args.x if args.x else _default_x_grid(geometry, _grid_points(args, 101))
    meta = _meta(args, geometry)
    meta["xi"] = args.xi
    if args.t:
        rows = []
        for t in args.t:
            for x in xs:
                br = energy_density_regularized(geometry, t, x, args.xi)
                rows.append((t, x, br.weyl, br.periodic, br.boundary,
                             br.total_renormalized))
        columns = ("t", "x", "weyl", "periodic", "boundary", "total_renormalized")
        return Table(meta, columns, rows), EXIT_OK
    rows = []
    for x in xs:
        br = energy_density_renormalized(geometry, x, args.xi)
        rows.append((x, br.periodic, br.boundary, br.total_renormalized))
    columns = ("x", "periodic", "boundary", "total_renormalized")
    return Table(meta, columns, rows), EXIT_OK


def _default_kernel_point(geometry: Geometry) -> float:
    if isinstance(geometry, Interval):
        return 0.5 * geometry.length
    if isinstance(geometry, HalfLine):
        return 0.5
    return 0.0


def cmd_kernel(args: argparse.Namespace) -> tuple[Table, int]:
    geometry = build_geometry(args)
    ts = args.t or [0.05, 0.1, 0.5, 1.0]
    xs = args.x or [_default_kernel_point(geometry)]
    control = _control(args)
    rows = []
    for t in ts:
        for x in xs:
            by_method = {
                method: cylinder_kernel(geometry, t, x, method=method,
                                        control=control).value
                for method in (MODE_SUM, IMAGE_SUM, CLOSED_FORM)
            }
            closed = by_method[CLOSED_FORM]
            spread = max(abs(by_method[MODE_SUM] - closed),
                         abs(by_method[IMAGE_SUM] - closed))
            rows.append((t, x, by_method[MODE_SUM], by_method[IMAGE_SUM],
                         closed, spread))
    columns = ("t", "x", "mode_sum", "image_sum", "closed_form", "max_deviation")
    return Table(_meta(args, geometry), columns, rows), EXIT_OK


def cmd_figure(args: argparse.Namespace) -> tuple[Table, int]:
    if args.which == "fig1":
        # Renormalized interval D/D density on a wall-clipped linear grid.
        n = _grid_points(args, 500)
        geometry = Interval(1.0, DIRICHLET, DIRICHLET)
        rows = [
            (float(x),
             energy_density_renormalized(geometry, float(x), args.xi).total_renormalized)
            for x in np.linspace(0.02, 0.98, n)
        ]
        meta = _meta(args, geometry)
        meta["which"] = "fig1"
        meta["xi"] = args.xi
        return Table(meta, ("x", "energy_density"), rows), EXIT_OK
    # Half-line Dirichlet wall profile at fixed small t, log-spaced x:
    # the negative spike inside x < t/2 and the 1/(8 pi x^2) tail beyond.
    n = _grid_points(args, 1000)
    t = args.t[0] if args.t else 1e-3
    geometry = HalfLine(DIRICHLET)
    rows = [
        (float(x),
         energy_density_regularized(geometry, t, float(x), args.xi).boundary)
        for x in np.geomspace(1e-4, 1.0, n)
    ]
    meta = _meta(args, geometry)
    meta["which"] = "fig2"
    meta["t"] = t
    meta["xi"] = args.xi
    return Table(meta, ("x", "energy_density"), rows), EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[Table, int]:
    results = run_checks(tolerance_override=args.tol)
    rows = [(r.name, r.measured, r.tolerance, r.passed, r.detail) for r in results]
    n_pass = sum(1 for r in results if r.passed)
    meta = {"build": f"vacuum1d {__version__}", "command": "verify",
            "checks": len(results), "passed": n_pass}
    if args.tol is not None:
        meta["tolerance_override"] = args.tol
    print(f"{n_pass}/{len(results)} checks passed", file=sys.stderr)
    table = Table(meta, ("name", "measured", "tolerance", "passed", "detail"), rows)
    return table, EXIT_OK if n_pass == len(results) else EXIT_VERIFY


def cmd_compare(args: argparse.Namespace) -> tuple[Table, int]:
    if args.geometry != "interval":
        raise InvalidParameter("compare is defined for interval geometry")
    geometry = build_geometry(args)
    report = approximation_report(
        geometry,
        x_points=tuple(args.x) if args.x else None,
        xi=args.xi,
    )
    rows = [
        (row.quantity, row.exact, row.stationary_phase, row.short_orbit)
        for row in report.rows
    ]
    meta = _meta(args, geometry)
    meta["xi"] = args.xi
    columns = ("quantity", "exact", "stationary_phase", "short_orbit")
    return Table(meta, columns, rows), EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--geometry", choices=("interval", "halfline", "twisted"),
                     default="interval", help="domain (default: interval)")
    sub.add_argument("--length", type=float, default=1.0,
                     help="interval length or circle circumference (default: 1)")
    sub.add_argument("--bc-left", dest="bc_left", choices=("D", "N"), default="D",
                     help="condition at x=0 (also the half-line wall)")
    sub.add_argument("--bc-right", dest="bc_right", choices=("D", "N"), default="D",
                     help="condition at x=L")
    sub.add_argument("--theta", type=float, default=None,
                     help="twist angle; omit with 'energy' to sweep [0, 2pi]")
    sub.add_argument("--t", type=_grid, default=None, metavar="T[,T...]",
                     help="regulator grid (comma-separated, increasing)")
    sub.add_argument("--x", type=_grid, default=None, metavar="X[,X...]",
                     help="position grid (comma-separated, increasing)")
    sub.add_argument("--omega-max", dest="omega_max", type=float, default=None,
                     help="frequency cutoff for the spectrum table")
    sub.add_argument("--xi", type=float, default=0.25,
                     help="curvature coupling weighting the wall profile (default: 1/4)")
    sub.add_argument("--grid-points", dest="grid_points", type=int, default=None,
                     help="number of points for default grids")
    sub.add_argument("--tol", type=float, default=None,
                     help="tolerance override (default: env VACUUM_TOL, else per-check)")
    sub.add_argument("--max-terms", dest="max_terms", type=int, default=None,
                     help="series truncation cap for the summed routes")
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None,
                     help="output format (default: csv; verify defaults to json)")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacuum",
        description="One-dimensional vacuum energies, densities, and cylinder "
                    "kernels by mode sums, image sums, and closed forms.",
    )
    parser.add_argument("--version", action="version",
                        version=f"vacuum1d {__version__}")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="command")
    for name, help_text, func in (
        ("spectrum", "eigenfrequencies, multiplicities, counting function",
         cmd_spectrum),
        ("energy", "vacuum energy breakdown (renormalized, or regularized on a t grid)",
         cmd_energy),
        ("density", "local energy density profile", cmd_density),
        ("kernel", "cylinder kernel diagonal by all three routes", cmd_kernel),
        ("figure", "figure data: interval density profile or half-line spike",
         cmd_figure),
        ("verify", "run the full verification suite", cmd_verify),
        ("compare", "exact vs stationary-phase vs short-orbit report", cmd_compare),
    ):
        sub = commands.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "figure":
            sub.add_argument("--which", choices=("fig1", "fig2"), required=True,
                             help="fig1: interval D/D renormalized density; "
                                  "fig2: half-line Dirichlet wall profile at small t")
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.tol is None:
        env_tol = os.environ.get("VACUUM_TOL")
        if env_tol is not None:
            try:
                args.tol = float(env_tol)
            except ValueError:
                print(f"vacuum: VACUUM_TOL={env_tol!r} is not a number",
                      file=sys.stderr)
                return EXIT_USAGE
    try:
        table, code = args.func(args)
    except InvalidParameter as exc:
        print(f"vacuum: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VacuumError as exc:
        kind = "continuous spectrum: " if isinstance(exc, ContinuousSpectrum) else ""
        print(f"vacuum: {kind}{exc}", file=sys.stderr)
        return EXIT_DOMAIN
    fmt = args.fmt or ("json" if args.command == "verify" else "csv")
    text = emit_json(table) if fmt == "json" else emit_csv(table)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
