"""Cold start: the package and its commands load numpy and nothing heavier.

Each case runs in a fresh interpreter, since this process has long since
imported scipy for other tests' oracles.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

NO_SCIPY = "assert not [m for m in sys.modules if m.startswith('scipy')], sorted(sys.modules)"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("VACUUM_TOL", None)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_scipy_and_defers_the_registry():
    proc = run_fresh(
        "import sys, vacuum1d\n"
        f"{NO_SCIPY}\n"
        "assert 'vacuum1d.verify' not in sys.modules\n"
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["energy"], ["kernel", "--geometry", "halfline"], ["verify"]],
    ids=lambda argv: " ".join(argv),
)
def test_commands_load_no_scipy(argv):
    proc = run_fresh(
        "import sys, io, contextlib\n"
        "from vacuum1d.cli import main\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        f"    code = main({argv!r})\n"
        "assert code == 0, code\n"
        f"{NO_SCIPY}\n"
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
