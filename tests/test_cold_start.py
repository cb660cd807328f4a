"""Cold start: the package and the closed-form commands load no numpy and
none of the series engine, only the modules they run; no command loads
scipy.

Each case runs in a fresh interpreter, since this process has long since
imported numpy and scipy for other tests' oracles.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

NO_SCIPY = "assert not [m for m in sys.modules if m.startswith('scipy')], sorted(sys.modules)"
NO_NUMPY = "assert 'numpy' not in sys.modules, sorted(sys.modules)"
# the lattice sums and quadrature, the series routes, the registry and numpy
ENGINE = ("vacuum1d.summation", "vacuum1d.kernels", "vacuum1d.orbits", "vacuum1d.verify",
          "vacuum1d._arrays", "numpy")
NO_ENGINE = f"assert not set(sys.modules) & {set(ENGINE)!r}, sorted(sys.modules)"
NO_JSON = "assert 'json' not in sys.modules, sorted(sys.modules)"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("VACUUM_TOL", None)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_numpy_and_no_submodule():
    proc = run_fresh(
        "import sys, vacuum1d\n"
        f"{NO_NUMPY}\n"
        "assert [m for m in sys.modules if m.startswith('vacuum1d')] == ['vacuum1d']\n"
    )
    assert proc.returncode == 0, proc.stderr


def run_command(argv: list[str], check: str) -> subprocess.CompletedProcess:
    """``main(argv)`` in a fresh interpreter, then the ``check`` statement."""
    return run_fresh(
        "import sys, io, contextlib\n"
        "from vacuum1d.cli import main\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "    try:\n"
        f"        code = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "assert code == 0, (code, sink.getvalue())\n"
        f"{check}\n"
    )


CLOSED_FORM_COMMANDS = [
    ["energy"], ["energy", "--t", "0.1,0.5"], ["energy", "--geometry", "twisted"],
    ["density"], ["density", "--t", "0.1"], ["density", "--geometry", "halfline"],
    ["density", "--geometry", "halfline", "--t", "0.1"], ["density", "--geometry", "twisted"],
    ["compare"], ["figure", "--which", "fig1"], ["figure", "--which", "fig2"],
    ["figure", "--which", "fig2", "--t", "0.01"], ["spectrum", "--omega-max", "30"],
    ["spectrum", "--geometry", "twisted", "--theta", "2.0", "--omega-max", "30"],
]


@pytest.mark.parametrize(
    "argv", [["--version"], ["--help"], *CLOSED_FORM_COMMANDS], ids=lambda argv: " ".join(argv)
)
def test_closed_form_commands_load_no_numpy(argv):
    # nor the lattice sums, the series routes or the registry, and json
    # only for JSON output
    proc = run_command(argv, f"{NO_ENGINE}\n{NO_JSON}")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS, ids=lambda argv: " ".join(argv))
def test_closed_form_commands_load_json_for_json_output_alone(argv):
    proc = run_command([*argv, "--format", "json"], f"assert 'json' in sys.modules\n{NO_ENGINE}")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv,module",
    [(["--version"], "vacuum1d.energy"), (["spectrum", "--omega-max", "30"], "vacuum1d.energy"),
     (["kernel", "--geometry", "twisted"], "vacuum1d.energy"), (["verify"], "vacuum1d.orbits")],
    ids=lambda value: " ".join(value) if isinstance(value, list) else value,
)
def test_commands_load_no_module_they_do_not_run(argv, module):
    proc = run_command(argv, f"assert {module!r} not in sys.modules, sorted(sys.modules)")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["kernel", "--geometry", "halfline"], ["verify"]],
    ids=lambda argv: " ".join(argv),
)
def test_commands_load_no_scipy(argv):
    proc = run_command(argv, NO_SCIPY)
    assert proc.returncode == 0, proc.stderr


def test_lazy_namespace_lists_and_resolves_its_names():
    proc = run_fresh(
        "import vacuum1d\n"
        "assert set(vacuum1d.__all__) <= set(dir(vacuum1d))\n"
        "assert {'kernels', 'energy', 'verify', 'cli'} <= set(dir(vacuum1d))\n"
        "kernel = vacuum1d.kernels.cylinder_kernel\n"
        "from vacuum1d.kernels import cylinder_kernel\n"
        "assert kernel is cylinder_kernel and vacuum1d.cylinder_kernel is cylinder_kernel\n"
        "assert 'cylinder_kernel' in vars(vacuum1d)\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves_from_its_module():
    # the plain-float half of summation moved to series, and energy's
    # report records to _reports: each still imports from its old home
    proc = run_fresh(
        "import sys, vacuum1d\n"
        "for name in vacuum1d.__all__:\n"
        "    getattr(vacuum1d, name)\n"
        "from vacuum1d.summation import SeriesControl, SeriesValue, bernoulli_cos_sum\n"
        "from vacuum1d import series\n"
        "assert SeriesControl is series.SeriesControl is vacuum1d.SeriesControl\n"
        "assert SeriesValue is series.SeriesValue and bernoulli_cos_sum is series.bernoulli_cos_sum\n"
        "from vacuum1d.energy import ApproximationReport, ApproximationRow\n"
        "from vacuum1d.energy import CylinderExpansion, Theorem1Report\n"
        "assert vacuum1d.CylinderExpansion is CylinderExpansion\n"
        "from vacuum1d import energy\n"
        "assert energy.extract_cylinder_coefficients.__module__ == 'vacuum1d.energy'\n"
        "try:\n"
        "    energy.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('missing attribute did not raise')\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_registry_names_still_import_from_the_package():
    proc = run_fresh(
        "from vacuum1d import run_checks, CheckResult\n"
        "from vacuum1d import verify\n"
        "assert run_checks is verify.run_checks and CheckResult is verify.CheckResult\n"
        "import vacuum1d\n"
        "namespace = {}\n"
        "exec('from vacuum1d import *', namespace)\n"
        "assert set(vacuum1d.__all__) <= set(namespace), set(vacuum1d.__all__) - set(namespace)\n"
        "assert namespace['run_checks'] is verify.run_checks\n"
        "try:\n"
        "    vacuum1d.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('missing attribute did not raise')\n"
    )
    assert proc.returncode == 0, proc.stderr
