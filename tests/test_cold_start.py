"""Cold start: the package and the closed-form commands load no numpy, and
no command loads scipy.

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


@pytest.mark.parametrize(
    "argv",
    [["--version"], ["--help"], ["energy"], ["energy", "--t", "0.1,0.5"],
     ["energy", "--geometry", "twisted"], ["density"], ["density", "--t", "0.1"],
     ["compare"], ["figure", "--which", "fig1"], ["spectrum", "--omega-max", "30"],
     ["spectrum", "--geometry", "twisted", "--theta", "2.0", "--omega-max", "30"]],
    ids=lambda argv: " ".join(argv),
)
def test_closed_form_commands_load_no_numpy(argv):
    proc = run_command(argv, NO_NUMPY)
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
