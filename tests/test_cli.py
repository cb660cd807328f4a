"""End-to-end tests of the command-line surface.

Each test drives :func:`vacuum1d.cli.main` in-process and inspects the
emitted CSV/JSON, the exit code, and stderr.  Values are cross-checked
against the library or against independently derived numbers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vacuum1d import AtEigenvalue, NonConvergent, cli
from vacuum1d.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    Table,
    emit_csv,
    emit_json,
    parse_table,
)

PI = math.pi


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return parse_table(text).rows


def column(table: Table, name: str):
    idx = table.columns.index(name)
    return [row[idx] for row in table.rows]


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_dirichlet_interval(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--geometry", "interval", "--length", "1",
        "--bc-left", "D", "--bc-right", "D", "--omega-max", "10",
    )
    assert code == EXIT_OK
    table = parse_table(out)
    assert table.columns == ("omega", "mult", "N")
    assert column(table, "omega") == pytest.approx([PI, 2 * PI, 3 * PI], rel=1e-15)
    assert column(table, "mult") == [1, 1, 1]
    assert column(table, "N") == [1, 2, 3]
    assert table.meta["geometry"] == "interval L=1 D/D"


def test_spectrum_json_objects(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--omega-max", "7", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"meta", "rows"}
    assert [set(row) for row in doc["rows"]] == [{"omega", "mult", "N"}] * 2
    assert doc["rows"][0]["omega"] == pytest.approx(PI, rel=1e-15)
    assert doc["rows"][0]["N"] == 1


def test_spectrum_twisted_merged_multiplicities(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--geometry", "twisted", "--theta", "0", "--omega-max", "13",
    )
    assert code == EXIT_OK
    table = parse_table(out)
    assert column(table, "omega") == pytest.approx([0.0, 2 * PI, 4 * PI], abs=1e-14)
    assert column(table, "mult") == [1, 2, 2]


def test_spectrum_counts_every_listed_level(capsys):
    # N is the running sum of mult; at this length the twisted counting
    # function once read 37 on the last two rows, below the 39 levels listed
    code, out, _ = run(
        capsys,
        "spectrum", "--geometry", "twisted", "--length", "0.006400080914317202",
        "--theta", "0", "--omega-max", "19000",
    )
    assert code == EXIT_OK
    table = parse_table(out)
    assert column(table, "N") == list(itertools.accumulate(column(table, "mult")))
    assert column(table, "N")[-1] == 39


def test_spectrum_halfline_is_a_domain_error(capsys):
    code, out, err = run(capsys, "spectrum", "--geometry", "halfline")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "continuous spectrum" in err


def test_spectrum_requires_a_cutoff(capsys):
    code, _, err = run(capsys, "spectrum")
    assert code == EXIT_USAGE
    assert "omega-max" in err


@pytest.mark.parametrize(
    "argv", [("--omega-max", "1e300"), ("--length", "1e300", "--omega-max", "1e300")]
)
def test_spectrum_past_the_level_cap_is_a_usage_error(capsys, argv):
    # these once exited 1 with numpy's "Maximum allowed size exceeded"
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_dirichlet_total(capsys):
    code, out, _ = run(capsys, "energy")
    assert code == EXIT_OK
    table = parse_table(out)
    assert table.columns == ("weyl", "periodic", "boundary", "total_renormalized")
    (row,) = table.rows
    assert row[3] == pytest.approx(-0.1308997, abs=1e-7)
    assert row[3] == pytest.approx(-PI / 24.0, rel=1e-15)


def test_energy_mixed_total(capsys):
    code, out, _ = run(capsys, "energy", "--bc-right", "N")
    assert code == EXIT_OK
    (row,) = parse_table(out).rows
    assert row[3] == pytest.approx(0.0654498, abs=1e-7)


def test_energy_twisted_sweep(capsys):
    from vacuum1d import twisted_energy

    code, out, _ = run(capsys, "energy", "--geometry", "twisted")
    assert code == EXIT_OK
    table = parse_table(out)
    assert table.columns == ("theta", "weyl", "periodic", "boundary", "total_renormalized")
    assert len(table.rows) == 101
    thetas = column(table, "theta")
    totals = column(table, "total_renormalized")
    assert thetas[0] == 0.0
    assert thetas[-1] == pytest.approx(2.0 * PI, rel=1e-15)
    assert totals[0] == pytest.approx(-PI / 6.0, rel=1e-13)
    assert totals[50] == pytest.approx(PI / 12.0, rel=1e-13)
    for theta, total in zip(thetas, totals):
        assert total == pytest.approx(twisted_energy(theta, 1.0), rel=1e-12)


def test_energy_regularized_grid(capsys):
    code, out, _ = run(capsys, "energy", "--t", "0.1,0.5,1")
    assert code == EXIT_OK
    table = parse_table(out)
    assert table.columns == (
        "t", "weyl", "periodic", "boundary", "total_regularized", "total_renormalized",
    )
    assert column(table, "t") == [0.1, 0.5, 1.0]
    for row in table.rows:
        t, weyl, periodic, boundary, total_reg, total_ren = row
        assert weyl == pytest.approx(1.0 / (2.0 * PI * t * t), rel=1e-14)
        assert abs(boundary) < 1e-12
        assert total_reg == pytest.approx(weyl + periodic + boundary, rel=1e-14)
        assert total_ren == pytest.approx(periodic + boundary, rel=1e-14)


def test_energy_zero_mode_note_in_meta(capsys):
    code, out, _ = run(capsys, "energy", "--bc-left", "N", "--bc-right", "N")
    assert code == EXIT_OK
    assert "zero mode" in parse_table(out).meta["note"]


def test_energy_halfline_is_a_domain_error(capsys):
    code, _, err = run(capsys, "energy", "--geometry", "halfline")
    assert code == EXIT_DOMAIN
    assert "continuous spectrum" in err


def test_energy_far_past_the_length_scale(capsys):
    code, out, _ = run(capsys, "energy", "--t", "300")
    assert code == EXIT_OK
    ((t, weyl, periodic, boundary, total_reg, total_ren),) = parse_table(out).rows
    assert boundary == 0.0
    assert math.isfinite(total_reg) and math.isfinite(total_ren)


def test_density_far_past_the_length_scale(capsys):
    code, out, _ = run(capsys, "density", "--t", "200", "--grid-points", "5")
    assert code == EXIT_OK
    for row in parse_table(out).rows:
        assert all(math.isfinite(v) for v in row)


@pytest.mark.parametrize("error", [NonConvergent, AtEigenvalue])
def test_numerical_errors_are_domain_errors(capsys, monkeypatch, error):
    def failing(args):
        raise error("did not settle")

    monkeypatch.setattr(cli, "cmd_energy", failing)
    code, _, err = run(capsys, "energy")
    assert code == EXIT_DOMAIN
    assert "did not settle" in err


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_default_grid_is_wall_clipped(capsys):
    code, out, _ = run(capsys, "density", "--grid-points", "25")
    assert code == EXIT_OK
    table = parse_table(out)
    assert table.columns == ("x", "periodic", "boundary", "total_renormalized")
    xs = column(table, "x")
    assert len(xs) == 25
    assert xs[0] == pytest.approx(0.02)
    assert xs[-1] == pytest.approx(0.98)
    assert table.meta["xi"] == 0.25


def test_density_explicit_points_match_library(capsys):
    from vacuum1d import DIRICHLET, Interval, energy_density_renormalized

    code, out, _ = run(capsys, "density", "--x", "0.25,0.5")
    assert code == EXIT_OK
    table = parse_table(out)
    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    for row in table.rows:
        expected = energy_density_renormalized(geom, row[0])
        assert row[3] == expected.total_renormalized


def test_density_regularized_grid_shape(capsys):
    code, out, _ = run(capsys, "density", "--t", "0.1,0.2", "--x", "0.3,0.5,0.7")
    assert code == EXIT_OK
    table = parse_table(out)
    assert table.columns == ("t", "x", "weyl", "periodic", "boundary", "total_renormalized")
    assert len(table.rows) == 6
    assert column(table, "t")[:3] == [0.1, 0.1, 0.1]


def test_density_xi_zero_silences_the_walls(capsys):
    code, out, _ = run(capsys, "density", "--xi", "0", "--x", "0.1,0.5")
    assert code == EXIT_OK
    table = parse_table(out)
    assert column(table, "boundary") == [0.0, 0.0]
    totals = column(table, "total_renormalized")
    assert totals[0] == pytest.approx(-PI / 24.0, rel=1e-13)
    assert totals[0] == totals[1]


def test_density_out_of_domain_point(capsys):
    code, _, err = run(capsys, "density", "--x", "1.5")
    assert code == EXIT_DOMAIN
    assert "not in" in err


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_three_routes_and_spread(capsys):
    code, out, _ = run(capsys, "kernel", "--t", "1")
    assert code == EXIT_OK
    table = parse_table(out)
    assert table.columns == (
        "t", "x", "mode_sum", "image_sum", "closed_form", "max_deviation",
        "mode_sum_terms", "mode_sum_bound", "image_sum_terms", "image_sum_bound",
    )
    (row,) = table.rows
    assert row[1] == 0.5
    assert row[4] == pytest.approx(1.0 / math.sinh(PI), rel=1e-14)
    assert row[5] <= 1e-8 * (1.0 + abs(row[4]))
    assert row[5] >= max(abs(row[2] - row[4]), abs(row[3] - row[4]))


def test_kernel_tol_sets_the_image_sum_target(capsys):
    _, out, _ = run(capsys, "kernel", "--t", "0.1,1", "--format", "json")
    default = json.loads(out)["rows"]
    code, out, _ = run(capsys, "kernel", "--t", "0.1,1", "--tol", "1e-3", "--format", "json")
    assert code == EXIT_OK
    loose = json.loads(out)["rows"]
    for a, b in zip(loose, default):
        assert a["image_sum_bound"] <= 1e-3
        assert b["image_sum_bound"] <= 1e-11
        assert a["image_sum_terms"] < b["image_sum_terms"]
        assert abs(a["image_sum"] - a["closed_form"]) <= a["image_sum_bound"]
        # the mode sums stop on their own term floor
        assert (a["mode_sum_terms"], a["mode_sum_bound"]) == (b["mode_sum_terms"], b["mode_sum_bound"])


def test_kernel_default_grid(capsys):
    code, out, _ = run(capsys, "kernel")
    assert code == EXIT_OK
    table = parse_table(out)
    assert column(table, "t") == [0.05, 0.1, 0.5, 1.0]
    assert all(x == 0.5 for x in column(table, "x"))


def test_kernel_rejects_nonpositive_t(capsys):
    code, _, err = run(capsys, "kernel", "--t", "0")
    assert code == EXIT_USAGE
    assert "t" in err


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def test_figure_one_midpoint_value(capsys):
    code, out, _ = run(capsys, "figure", "--which", "fig1", "--grid-points", "49")
    assert code == EXIT_OK
    table = parse_table(out)
    assert table.columns == ("x", "energy_density")
    assert len(table.rows) == 49
    assert table.meta["which"] == "fig1"
    by_x = dict(table.rows)
    assert by_x[0.5] == pytest.approx(0.2617994, abs=1e-7)
    assert by_x[0.5] == pytest.approx(PI / 12.0, rel=1e-13)
    # symmetric, decreasing toward the middle, csc^2-divergent at walls
    assert by_x[0.02] == pytest.approx(by_x[0.98], rel=1e-12)
    assert by_x[0.02] > by_x[0.26] > by_x[0.5]


def test_figure_one_default_grid_size(capsys):
    code, out, _ = run(capsys, "figure", "--which", "fig1")
    assert code == EXIT_OK
    assert len(parse_table(out).rows) == 500


def test_figure_two_spike_and_tail(capsys):
    code, out, _ = run(capsys, "figure", "--which", "fig2", "--grid-points", "9")
    assert code == EXIT_OK
    table = parse_table(out)
    assert table.meta["which"] == "fig2"
    assert table.meta["t"] == 0.001
    xs = column(table, "x")
    vals = column(table, "energy_density")
    assert xs[0] == pytest.approx(1e-4, rel=1e-12)
    assert xs[-1] == pytest.approx(1.0, rel=1e-12)
    # Inside the spike (4x^2 < t^2) the Dirichlet profile is negative and
    # large: -(1/2pi)(t^2-4x^2)/(t^2+4x^2)^2 = -1.41262e5 at x = 1e-4.
    assert vals[0] == pytest.approx(-1.41262e5, rel=1e-5)
    # Far tail 1/(8 pi x^2):
    assert vals[-1] == pytest.approx(1.0 / (8.0 * PI), rel=1e-5)
    assert min(vals) < 0.0 < max(vals)


def test_figure_two_tail_value_at_tenth(capsys):
    code, out, _ = run(capsys, "figure", "--which", "fig2", "--t", "0.001")
    assert code == EXIT_OK
    table = parse_table(out)
    by_x = dict(table.rows)
    nearest = min(by_x, key=lambda x: abs(x - 0.1))
    assert by_x[nearest] == pytest.approx(1.0 / (8.0 * PI * nearest**2), rel=1e-3)


def test_figure_requires_which(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_all_checks_pass(capsys):
    code, out, err = run(capsys, "verify")
    assert code == EXIT_OK
    doc = json.loads(out)  # json is the verify default format
    names = [row["name"] for row in doc["rows"]]
    assert "three_way_kernel_agreement" in names
    assert all(row["passed"] for row in doc["rows"])
    assert all(
        set(row) == {"name", "measured", "tolerance", "margin", "passed", "elapsed_s", "detail"}
        for row in doc["rows"]
    )
    for row in doc["rows"]:
        assert row["margin"] == pytest.approx(row["measured"] / row["tolerance"])
        assert row["margin"] <= 1.0
        assert 0.0 <= row["elapsed_s"] < 60.0
    assert doc["meta"]["passed"] == doc["meta"]["checks"] == len(names)
    assert "checks passed" in err


def test_verify_impossible_tolerance_fails_controlled(capsys):
    code, out, _ = run(capsys, "verify", "--tol", "1e-20")
    assert code == EXIT_VERIFY
    doc = json.loads(out)
    failed = [row for row in doc["rows"] if not row["passed"]]
    assert failed
    assert doc["meta"]["tolerance_override"] == 1e-20
    assert doc["meta"]["passed"] < doc["meta"]["checks"]


def test_verify_reads_tolerance_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("VACUUM_TOL", "1e-20")
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_VERIFY
    monkeypatch.setenv("VACUUM_TOL", "not-a-number")
    code, _, err = run(capsys, "verify")
    assert code == EXIT_USAGE
    assert "VACUUM_TOL" in err


def exit_code(argv) -> int:
    """main's exit code, whether it returns it or argparse exits with it."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


UNREAD = "unrecognized arguments"


@pytest.mark.parametrize(
    "argv,message",
    [(("energy", "--tol", "1e-3"), UNREAD), (("density", "--tol", "1e-3"), UNREAD),
     (("spectrum", "--omega-max", "5", "--tol", "1e-3"), UNREAD),
     (("figure", "--which", "fig1", "--tol", "1e-3"), UNREAD),
     (("compare", "--tol", "1e-3"), UNREAD),
     (("energy", "--max-terms", "50"), UNREAD), (("verify", "--max-terms", "50"), UNREAD),
     (("spectrum", "--omega-max", "5", "--max-terms", "50"), UNREAD),
     # one flag of the former shared set per subcommand
     (("spectrum", "--omega-max", "5", "--t", "0.1"), UNREAD),
     (("energy", "--x", "0.5"), UNREAD),
     (("density", "--omega-max", "5"), UNREAD),
     (("kernel", "--xi", "0"), UNREAD),
     (("figure", "--which", "fig1", "--length", "5"), UNREAD),
     (("verify", "--geometry", "twisted"), UNREAD),
     (("compare", "--geometry", "twisted"), UNREAD),
     # prefixes of flags the subcommand has: --tol, --xi
     (("verify", "--t", "1"), UNREAD),
     (("figure", "--which", "fig1", "--x", "0.5"), UNREAD),
     # figure reads one t, and only for fig2
     (("figure", "--which", "fig1", "--t", "0.1"), "fig1"),
     (("figure", "--which", "fig2", "--t", "0.001,0.5", "--grid-points", "2"), "one --t")],
)
def test_flags_exist_only_where_a_subcommand_reads_them(capsys, argv, message):
    # every subcommand once took all twelve shared flags, and most of them
    # were ignored: verify --length 5 --geometry twisted ran the default
    # registry
    assert exit_code(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def subcommand_actions() -> dict[str, list]:
    """Each subcommand's settable actions, -h excluded, by walking the parser."""
    (commands,) = (
        action for action in cli.build_parser()._actions
        if action.choices and action.dest == "command"
    )
    return {
        name: [action for action in sub._actions if action.dest != "help"]
        for name, sub in commands.choices.items()
    }


def test_each_subcommand_offers_the_flags_it_reads():
    geometry = {"--geometry", "--length", "--bc-left", "--bc-right", "--theta"}
    expected = {
        "spectrum": geometry | {"--omega-max"},
        "energy": geometry | {"--t", "--grid-points"},
        "density": geometry | {"--t", "--x", "--xi", "--grid-points"},
        "kernel": geometry | {"--t", "--x", "--tol", "--max-terms"},
        "figure": {"--which", "--t", "--xi", "--grid-points"},
        "verify": {"--tol"},
        "compare": {"--length", "--bc-left", "--bc-right", "--x", "--xi"},
    }
    offered = {
        name: {action.option_strings[0] for action in actions}
        for name, actions in subcommand_actions().items()
    }
    assert offered == {name: flags | {"--format", "--output"} for name, flags in expected.items()}
    assert sum(map(len, offered.values())) == 55


_VALUES = ("0", "-1", "nan", "inf", "1e-300", "1e300", "0.5", "2")


def _flag_value(action) -> st.SearchStrategy[str]:
    if action.choices:
        return st.sampled_from(action.choices)
    if action.type is int:
        return st.sampled_from(("-1", "0", "1", "3"))
    if action.type is cli._grid:
        return st.lists(st.sampled_from(_VALUES), min_size=1, max_size=2).map(",".join)
    return st.sampled_from(_VALUES)


@st.composite
def invocations(draw) -> list[str]:
    actions = subcommand_actions()
    name = draw(st.sampled_from(sorted(set(actions) - {"verify"})))
    argv = [name]
    for action in actions[name]:
        if action.dest != "output" and draw(st.booleans()):
            argv.append(f"{action.option_strings[0]}={draw(_flag_value(action))}")
    return argv


@settings(derandomize=True, max_examples=150, deadline=None)
@given(invocations())
# these once raised ZeroDivisionError, OverflowError, and a numpy overflow
# on the way to a nan mode-sum bound
@example(["compare", "--x=1e-200", "--xi=0"])
@example(["compare", "--length=1e300", "--x=0.5"])
@example(["kernel", "--length=1e-300", "--t=1e300"])
# and this one a ValueError from math.sin(inf), pi x having overflowed
@example(["density", "--length=1e308", "--x=0.99e308"])
# and these a -inf energy, and an OverflowError from math.ldexp
@example(["energy", "--length=5e-324"])
@example(["density", "--geometry=halfline", "--t=1.7e308"])
def test_every_flag_grid_keeps_the_exit_code_contract(argv):
    # each subcommand on edge values of its own flags: a finite table, a
    # usage error or a domain error, never an escaped exception or a
    # traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK and "--format=json" not in argv:
        for row in parse_table(out.getvalue()).rows:
            assert all(math.isfinite(v) for v in row if isinstance(v, float)), (argv, row)


def test_environment_tolerance_is_ignored_where_there_is_no_tol(capsys, monkeypatch):
    monkeypatch.setenv("VACUUM_TOL", "not-a-number")
    code, out, _ = run(capsys, "energy")
    assert code == EXIT_OK
    assert "tol" not in parse_table(out).meta


def test_kernel_records_its_series_settings(capsys):
    code, out, _ = run(capsys, "kernel", "--t", "0.5", "--tol", "1e-6", "--max-terms", "500")
    assert code == EXIT_OK
    meta = parse_table(out).meta
    assert (meta["tol"], meta["max_terms"]) == (1e-6, 500)


def test_verify_explicit_tol_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("VACUUM_TOL", "not-a-number")
    code, out, _ = run(capsys, "verify", "--tol", "1.0")
    assert code == EXIT_OK


def test_verify_csv_format_round_trips(capsys):
    code, out, _ = run(capsys, "verify", "--format", "csv")
    assert code == EXIT_OK
    table = parse_table(out)
    assert all(isinstance(passed, bool) for passed in column(table, "passed"))
    assert parse_table(emit_csv(table)) == table


def test_halfline_kernel_at_the_smallest_t_is_a_usage_error(capsys):
    # 1/(pi t) overflows at t = 5e-324: every route raises InvalidParameter
    code, out, err = run(capsys, "kernel", "--geometry", "halfline", "--t", "5e-324")
    assert code == EXIT_USAGE
    assert out == ""
    assert "overflows" in err or "too small" in err


@pytest.mark.parametrize("argv", [("--t", "1e-200"), ("--geometry", "twisted", "--t", "5e-324")])
def test_kernel_below_the_mode_sum_float_range_is_a_usage_error(capsys, argv):
    # the mode sums' rounding bound is not finite there; they once exited 1
    # with a ZeroDivisionError traceback
    code, out, err = run(capsys, "kernel", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "too small for a mode sum" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_dirichlet_rows(capsys):
    code, out, _ = run(capsys, "compare", "--x", "0.05,0.5")
    assert code == EXIT_OK
    table = parse_table(out)
    assert table.columns == ("quantity", "exact", "stationary_phase", "short_orbit")
    rows = {row[0]: row for row in table.rows}
    total = rows["total_energy"]
    assert total[1] == pytest.approx(-PI / 24.0, rel=1e-13)
    assert total[2] == total[1]
    assert total[3] == pytest.approx(-PI / 24.0 - 1.0 / (4.0 * PI), rel=1e-13)
    assert rows["boundary_energy"][3] == pytest.approx(-1.0 / (4.0 * PI), rel=1e-13)
    # Near the wall the exact density follows the half-line form 1/(8 pi x^2).
    near = rows["density@0.05"]
    assert near[1] == pytest.approx(15.916, abs=2e-3)
    assert near[1] == pytest.approx(1.0 / (8.0 * PI * 0.05**2), rel=1e-3)


def test_compare_mixed_boundary_columns_vanish(capsys):
    code, out, _ = run(capsys, "compare", "--bc-right", "N")
    assert code == EXIT_OK
    rows = {row[0]: row for row in parse_table(out).rows}
    assert rows["boundary_energy"][1:] == (0.0, 0.0, 0.0)
    total = rows["total_energy"]
    assert total[1] == total[2] == total[3]


# ---------------------------------------------------------------------------
# Output plumbing: formats, files, round trips.
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact(capsys):
    code, out, _ = run(capsys, "energy", "--t", "0.001,0.31,1")
    assert code == EXIT_OK
    table = parse_table(out)
    assert parse_table(emit_csv(table)) == table
    # 17 significant digits reproduce the binary doubles exactly:
    from vacuum1d import DIRICHLET, Interval, total_energy_regularized

    geom = Interval(1.0, DIRICHLET, DIRICHLET)
    for row in table.rows:
        assert row[1] == total_energy_regularized(geom, row[0]).weyl


def test_json_matches_csv_values(capsys):
    code_csv, out_csv, _ = run(capsys, "energy")
    code_json, out_json, _ = run(capsys, "energy", "--format", "json")
    table = parse_table(out_csv)
    doc = json.loads(out_json)
    assert [row["total_renormalized"] for row in doc["rows"]] == [
        row[3] for row in table.rows
    ]
    assert doc["meta"]["geometry"] == table.meta["geometry"]


def test_numpy_scalars_emit_as_plain_python_types():
    import numpy as np

    table = Table({"passed": np.bool_(True)}, ("x", "n", "ok"),
                  [(np.float64(0.1), np.int64(3), np.bool_(False))])
    doc = json.loads(emit_json(table))
    row = doc["rows"][0]
    assert doc["meta"]["passed"] is True and row["ok"] is False
    assert type(row["x"]) is float and row["x"] == 0.1
    assert type(row["n"]) is int and row["n"] == 3
    assert [type(cli._py(v)) for v in table.rows[0]] == [float, int, bool]
    assert emit_csv(table).splitlines()[-1] == "0.10000000000000001,3,false"


@pytest.mark.parametrize("n", [1, 2, 101, 500])
@pytest.mark.parametrize("endpoint", [True, False])
@pytest.mark.parametrize(
    "start, stop",
    # the default grids of energy, density and figure, and a step that
    # underflows to zero
    [(0.0, 2.0 * PI), (0.02, 0.98), (0.0, 0.521103), (0.0, 5e-324)],
)
def test_linear_grid_is_numpy_linspace_bit_for_bit(n, endpoint, start, stop):
    import numpy as np

    want = np.linspace(start, stop, n, endpoint=endpoint).tolist()
    got = cli._linspace(start, stop, n, endpoint)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("n", [1, 2, 9, 101, 1000])
@pytest.mark.parametrize("start, stop", [(1e-4, 1.0), (1e-2, 2.0)])  # fig2, half-line density
def test_log_grid_is_numpy_geomspace_within_an_ulp(n, start, stop):
    # not bit for bit: numpy's AVX-512 power and libm's pow, which Python's
    # ** calls, differ in the last bit at a few points in a hundred, and
    # neither is correctly rounded everywhere
    import mpmath
    import numpy as np

    got = cli._geomspace(start, stop, n)
    assert len(got) == n and got[0] == start and (n == 1 or got[-1] == stop)
    exponents = cli._linspace(math.log10(start), math.log10(stop), n)
    with mpmath.workdps(40):
        exact = [float(mpmath.power(10, mpmath.mpf(y))) for y in exponents]
    for ref in (np.geomspace(start, stop, n).tolist(), exact):
        assert all(abs(x - r) <= math.ulp(r) for x, r in zip(got, ref))


def test_output_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "energy.csv"
    code, out, _ = run(capsys, "energy", "--output", str(target))
    assert code == EXIT_OK
    assert out == ""
    table = parse_table(target.read_text())
    assert table.rows[0][3] == pytest.approx(-PI / 24.0, rel=1e-15)


def test_metadata_lines_describe_the_run(capsys):
    code, out, _ = run(capsys, "energy", "--length", "2", "--bc-right", "N")
    assert code == EXIT_OK
    header = [line for line in out.splitlines() if line.startswith("#")]
    assert any("geometry" in line and "D/N" in line for line in header)
    assert any("build" in line and "vacuum1d" in line for line in header)
    assert parse_table(out).meta["geometry"] == "interval L=2 D/N"


def test_version_flag(capsys):
    from vacuum1d import __version__

    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_command_and_bad_grid_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["melt"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy", "--t", "0.5,0.2"])
    assert exc.value.code == 2
    assert "increasing" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["energy", "--t", ","])
    assert exc.value.code == 2


def test_twisted_geometry_flags(capsys):
    code, out, _ = run(capsys, "energy", "--geometry", "twisted", "--theta", "2")
    assert code == EXIT_OK
    table = parse_table(out)
    assert table.meta["geometry"] == "twisted L=1 theta=2"
    from vacuum1d import twisted_energy

    assert table.rows[0][3] == pytest.approx(twisted_energy(2.0, 1.0), rel=1e-14)


def test_module_entry_point_matches_console_script():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "vacuum1d.cli", "energy"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert parse_table(proc.stdout).rows[0][3] == pytest.approx(-PI / 24.0, rel=1e-15)
