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
        domain, a series that did not converge, ...

Each subcommand takes only the flags it reads, unabbreviated; any other
flag exits 2.  ``--tol`` sets the series target of ``vacuum kernel`` (the
image sums stop once their truncation bound is below it; the table
reports each series route's term count and bound) and overrides every
check's tolerance in ``vacuum verify``; ``--max-terms`` caps the series
of ``vacuum kernel``.  ``VACUUM_TOL`` supplies the default of ``--tol``
wherever that flag exists.

Cold start: the closed forms, the level list and the default grids
(linear and log-spaced) run on plain floats, so ``--version``, ``--help``,
``energy``, ``density``, ``spectrum``, ``compare`` and ``figure`` (both
figures) never import numpy, which is most of the start-up time.  numpy
loads only in ``kernel``, whose series take one array call per height
and route over every ``--x``, and in ``verify``.  Each ``cmd_*`` imports
the modules it runs when it runs: this module loads only ``spectrum``
(and the ``series`` closed forms it reads) for the geometry flags, the
energy and density commands add ``energy``, ``compare`` also its report
half ``_reports``, and ``json`` loads in :func:`emit_json` alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys

from . import __version__
from .errors import ContinuousSpectrum, InvalidParameter, Record, VacuumError
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

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_FLOAT_FMT = "%.17g"
_BC = {"D": DIRICHLET, "N": NEUMANN}


# ---------------------------------------------------------------------------
# Tables and their serializations.
# ---------------------------------------------------------------------------


class Table(Record, frozen=False):
    """One emitted result set: metadata, column names, homogeneous rows."""

    meta: dict
    columns: tuple[str, ...]
    rows: list[tuple]

    def __init__(self, meta: dict, columns: tuple[str, ...], rows: list[tuple]) -> None:
        self.meta, self.columns, self.rows = meta, columns, rows


def _py(value):
    """Collapse numpy scalars so emitters see plain Python types; known by
    their type's module, so nothing here imports numpy."""
    return value.item() if type(value).__module__ == "numpy" else value


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
    import json

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


def _meta(args: argparse.Namespace, geometry: Geometry | None = None, **extra) -> dict:
    meta = {"build": f"vacuum1d {__version__}", "command": args.command}
    if geometry is not None:
        meta["geometry"] = describe(geometry)
    return meta | extra


def _linspace(start: float, stop: float, n: int, endpoint: bool = True) -> list[float]:
    """``numpy.linspace(start, stop, n, endpoint)`` in plain floats, bit for
    bit: point i is i * step + start, and the last one stop itself."""
    div = n - 1 if endpoint else n
    step = (stop - start) / div if div else 0.0
    if step:
        points = [i * step + start for i in range(n)]
    else:  # numpy's form for a step that underflows to 0
        points = [i / max(div, 1) * (stop - start) + start for i in range(n)]
    if endpoint and n > 1:
        points[-1] = stop
    return points


def _geomspace(start: float, stop: float, n: int) -> list[float]:
    """``numpy.geomspace(start, stop, n)`` for 0 < start < stop in plain
    floats: 10.0 ** y over the :func:`_linspace` of the exponents, with the
    first and last points start and stop themselves.  Python's ``**`` is
    libm's pow, as numpy's power is wherever it does not dispatch to its
    AVX-512 pow; that one differs from libm in the last bit at about one
    point in twenty."""
    points = [10.0**y for y in _linspace(math.log10(start), math.log10(stop), n)]
    points[0] = start
    if n > 1:
        points[-1] = stop
    return points


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
    rows = [
        (omega, mult, counting_function(geometry, omega))
        for omega, mult in eigenvalues(geometry, args.omega_max)
    ]
    meta = _meta(args, geometry, omega_max=args.omega_max)
    return Table(meta, ("omega", "mult", "N"), rows), EXIT_OK


def cmd_energy(args: argparse.Namespace) -> tuple[Table, int]:
    from .energy import total_energy_regularized, total_energy_renormalized

    if args.geometry == "twisted" and args.theta is None:
        # No angle given: sweep the full holonomy circle instead.
        n = _grid_points(args, 101)
        rows = []
        for theta in _linspace(0.0, 2.0 * math.pi, n):
            br = total_energy_renormalized(TwistedCircle(args.length, theta))
            rows.append((theta, br.weyl, br.periodic, br.boundary, br.total_renormalized))
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
        return [x * geometry.length for x in _linspace(0.02, 0.98, n)]
    if isinstance(geometry, HalfLine):
        return _geomspace(1e-2, 2.0, n)
    return _linspace(0.0, geometry.length, n, endpoint=False)


def cmd_density(args: argparse.Namespace) -> tuple[Table, int]:
    from .energy import energy_density_regularized, energy_density_renormalized

    geometry = build_geometry(args)
    xs = args.x if args.x else _default_x_grid(geometry, _grid_points(args, 101))
    meta = _meta(args, geometry, xi=args.xi)
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
    import numpy as np

    from .kernels import CLOSED_FORM, IMAGE_SUM, MODE_SUM, cylinder_kernel
    from .series import SeriesControl

    geometry = build_geometry(args)
    ts = args.t or [0.05, 0.1, 0.5, 1.0]
    xs = args.x or [_default_kernel_point(geometry)]
    meta = _meta(args, geometry)
    pairs = (("tol", args.tol), ("max_terms", args.max_terms))
    settings = {key: value for key, value in pairs if value is not None}
    meta.update(settings)
    control = SeriesControl(**settings)
    rows = []
    for t in ts:  # one call per route at each t, over every x
        mode, image, closed = (
            cylinder_kernel(geometry, t, xs, method=method, control=control)
            for method in (MODE_SUM, IMAGE_SUM, CLOSED_FORM)
        )
        spread = np.maximum(abs(mode.value - closed.value), abs(image.value - closed.value))
        columns = (mode.value, image.value, closed.value, spread, mode.terms_used,
                   mode.truncation_bound, image.terms_used, image.truncation_bound)
        rows += [(t, *row) for row in zip(xs, *(column.tolist() for column in columns))]
    columns = ("t", "x", "mode_sum", "image_sum", "closed_form", "max_deviation",
               "mode_sum_terms", "mode_sum_bound", "image_sum_terms", "image_sum_bound")
    return Table(meta, columns, rows), EXIT_OK


def cmd_figure(args: argparse.Namespace) -> tuple[Table, int]:
    from .energy import energy_density_regularized, energy_density_renormalized

    if args.which == "fig1":
        if args.t:
            raise InvalidParameter("fig1 is the t -> 0 profile and takes no --t")
        # Renormalized interval D/D density on a wall-clipped linear grid.
        n = _grid_points(args, 500)
        geometry = Interval(1.0, DIRICHLET, DIRICHLET)
        rows = [
            (x, energy_density_renormalized(geometry, x, args.xi).total_renormalized)
            for x in _linspace(0.02, 0.98, n)
        ]
        meta = _meta(args, geometry, which="fig1", xi=args.xi)
        return Table(meta, ("x", "energy_density"), rows), EXIT_OK
    # Half-line Dirichlet wall profile at fixed small t, log-spaced x:
    # the negative spike inside x < t/2 and the 1/(8 pi x^2) tail beyond.
    if args.t and len(args.t) > 1:
        raise InvalidParameter("fig2 takes one --t")
    n = _grid_points(args, 1000)
    t = args.t[0] if args.t else 1e-3
    geometry = HalfLine(DIRICHLET)
    rows = [
        (x, energy_density_regularized(geometry, t, x, args.xi).boundary)
        for x in _geomspace(1e-4, 1.0, n)
    ]
    meta = _meta(args, geometry, which="fig2", t=t, xi=args.xi)
    return Table(meta, ("x", "energy_density"), rows), EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[Table, int]:
    from .verify import run_checks

    results = run_checks(tolerance_override=args.tol)
    rows = [(r.name, r.measured, r.tolerance, r.margin, r.passed, r.elapsed_s, r.detail)
            for r in results]
    n_pass = sum(1 for r in results if r.passed)
    meta = _meta(args, checks=len(results), passed=n_pass)
    if args.tol is not None:
        meta["tolerance_override"] = args.tol
    print(f"{n_pass}/{len(results)} checks passed", file=sys.stderr)
    columns = ("name", "measured", "tolerance", "margin", "passed", "elapsed_s", "detail")
    table = Table(meta, columns, rows)
    return table, EXIT_OK if n_pass == len(results) else EXIT_VERIFY


def cmd_compare(args: argparse.Namespace) -> tuple[Table, int]:
    from .energy import approximation_report

    geometry = Interval(args.length, _BC[args.bc_left], _BC[args.bc_right])
    report = approximation_report(
        geometry,
        x_points=tuple(args.x) if args.x else None,
        xi=args.xi,
    )
    rows = [
        (row.quantity, row.exact, row.stationary_phase, row.short_orbit)
        for row in report.rows
    ]
    meta = _meta(args, geometry, xi=args.xi)
    columns = ("quantity", "exact", "stationary_phase", "short_orbit")
    return Table(meta, columns, rows), EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------


_FLAGS = {
    "--geometry": dict(choices=("interval", "halfline", "twisted"), default="interval",
                       help="domain (default: interval)"),
    "--length": dict(type=float, default=1.0,
                     help="interval length or circle circumference (default: 1)"),
    "--bc-left": dict(choices=("D", "N"), default="D",
                      help="condition at x=0 (also the half-line wall)"),
    "--bc-right": dict(choices=("D", "N"), default="D", help="condition at x=L"),
    "--theta": dict(type=float, help="twist angle; omit with 'energy' to sweep [0, 2pi]"),
    "--t": dict(type=_grid, metavar="T[,T...]",
                help="regulator grid (comma-separated, increasing)"),
    "--x": dict(type=_grid, metavar="X[,X...]",
                help="position grid (comma-separated, increasing)"),
    "--omega-max": dict(type=float, help="frequency cutoff for the spectrum table"),
    "--xi": dict(type=float, default=0.25,
                 help="curvature coupling weighting the wall profile (default: 1/4)"),
    "--grid-points": dict(type=int, help="number of points for default grids"),
    "--tol": dict(type=float, help="series target for 'kernel', tolerance override for 'verify' "
                                   "(default: env VACUUM_TOL, else 1e-12 / per check)"),
    "--max-terms": dict(type=int, help="series truncation cap for the summed routes"),
    "--which": dict(choices=("fig1", "fig2"), required=True,
                    help="fig1: interval D/D renormalized density; "
                         "fig2: half-line Dirichlet wall profile at small t"),
    "--format": dict(dest="fmt", choices=("csv", "json"),
                     help="output format (default: csv; verify defaults to json)"),
    "--output": dict(metavar="PATH", help="write to PATH instead of stdout"),
}
_GEOMETRY_FLAGS = ("--geometry", "--length", "--bc-left", "--bc-right", "--theta")


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
    # each subcommand with the flags it reads besides --format and --output
    for name, help_text, func, flags in (
        ("spectrum", "eigenfrequencies, multiplicities, counting function", cmd_spectrum,
         _GEOMETRY_FLAGS + ("--omega-max",)),
        ("energy", "vacuum energy breakdown (renormalized, or regularized on a t grid)",
         cmd_energy, _GEOMETRY_FLAGS + ("--t", "--grid-points")),
        ("density", "local energy density profile", cmd_density,
         _GEOMETRY_FLAGS + ("--t", "--x", "--xi", "--grid-points")),
        ("kernel", "cylinder kernel diagonal by all three routes", cmd_kernel,
         _GEOMETRY_FLAGS + ("--t", "--x", "--tol", "--max-terms")),
        ("figure", "figure data: interval density profile or half-line spike", cmd_figure,
         ("--which", "--t", "--xi", "--grid-points")),
        ("verify", "run the full verification suite", cmd_verify, ("--tol",)),
        ("compare", "exact vs stationary-phase vs short-orbit report (interval only)",
         cmd_compare, ("--length", "--bc-left", "--bc-right", "--x", "--xi")),
    ):
        # no prefix matching: --t on verify would set --tol, --x on figure --xi
        sub = commands.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags + ("--format", "--output"):
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "tol" in vars(args) and args.tol is None:
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
