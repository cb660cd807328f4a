"""Quick test of the benchmark itself: ``python3 -m pytest perfbench -q``.

Each workload runs once on a tiny input and must check out; a single
output shifted by 1e-6 must then fail its check.  The metric names of
BENCHMARK.json must match what run.py reports, and run.py must refuse a
tree without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _check_all(wl, outputs) -> workloads.Checker:
    checker = workloads.Checker()
    for op, (out, _) in zip(wl.ops, outputs):
        wl.check(op, out, checker)
    return checker


def _shift(kv, by=1e-6):
    return dataclasses.replace(kv, value=kv.value + by)


def test_kernel_routes_tiny_checks_out_and_catches_a_shifted_value():
    wl = workloads.make("kernel-routes", seed=5, size="tiny")
    outputs = [wl.run(op) for op in wl.ops]
    checker = _check_all(wl, outputs)
    assert checker.failures == []
    assert set(checker.worst) == set(run.FAMILIES["kernel-routes"])
    # Only the twisted off-diagonal rows fail (closed form falls back).
    failed = {op.label for op, (_, bad) in zip(wl.ops, outputs) if bad}
    assert failed and all("twisted" in label and "offdiag" in label for label in failed)
    assert 8.5 < checker.agreement() < 16

    (points, traces), bad = outputs[0]
    closed, image, mode = points[0]
    outputs[0] = (([(closed, _shift(image), mode)] + points[1:], traces), bad)
    checker = _check_all(wl, outputs)
    assert any("image sum" in f for f in checker.failures)


def test_observables_tiny_checks_out_and_catches_a_shifted_value():
    wl = workloads.make("observables", seed=5, size="tiny")
    outputs = [wl.run(op) for op in wl.ops]
    checker = _check_all(wl, outputs)
    assert checker.failures == []
    assert set(checker.worst) == set(run.FAMILIES["observables"])
    # local_counting (no bound, about 4 digits) stays out of agreement_digits.
    assert checker.digits()["local_counting"] < 5 < checker.agreement() < 16

    out, bad = outputs[0]
    rows = out["density"][0.25]
    rows[21] = dataclasses.replace(rows[21], total_renormalized=rows[21].total_renormalized + 1e-6)
    failures = _check_all(wl, outputs).failures
    assert any(f.startswith("density_") for f in failures)


def test_cli_cold_tiny_checks_out_and_catches_a_shifted_value():
    wl = workloads.make("cli-cold", seed=5, size="tiny", src=str(ROOT / "src"))
    outputs = [wl.run(op) for op in wl.ops]
    assert _check_all(wl, outputs).failures == []

    i = next(k for k, op in enumerate(wl.ops) if op.label == "kernel")
    (code, stdout, stderr), bad = outputs[i]
    lines = stdout.splitlines()
    row = lines[-1].split(",")
    row[4] = repr(float(row[4]) + 1e-6)  # closed_form column
    lines[-1] = ",".join(row)
    outputs[i] = ((code, "\n".join(lines) + "\n", stderr), bad)
    failures = _check_all(wl, outputs).failures
    assert any("closed form" in f for f in failures)


def test_run_py_names_match_the_workloads_and_registry():
    from vacuum1d.verify import CHECKS

    assert run.CHECK_NAMES == tuple(name for name, _, _ in CHECKS)
    assert run.CLI_OPS == tuple(op.label for op in workloads.make("cli-cold", seed=5).ops)


def test_benchmark_json_names_match_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_call_counts_are_per_pass():
    result = {
        "workload": "observables", "traced_passes": 3, "fallback_calls": 36, "ops_per_s": 1.0,
        "extra_layers": {}, "families": {},
        "spans": {"summation.telescoping_check": {"calls": 30, "total_s": 3.0, "self_s": 3.0, "terms": 60}},
    }
    values = run.per_layer(result, (1.0, 5))
    assert values["summation.telescoping_check.calls"] == 10
    assert values["kernels.closed_form.fallback_calls"] == 12
    assert values["summation.telescoping_check.us_per_call"] == 1e5
    assert values["summation.telescoping_check.terms_per_call"] == 2


def test_tail_needs_forty_samples():
    assert worker.tail([0.001] * 39) is None
    t = worker.tail([i / 1000 for i in range(1, 41)])
    assert t["ms"] == 30.0 and t["percentile"] == 75.0


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-routes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
