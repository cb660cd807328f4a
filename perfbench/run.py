"""vacuum1d benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload kernel-routes --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from
``src/``.  Each run starts fresh interpreters (``worker.py``): one that
sets up and then runs the timed phase, and three before and three after
it that only set up, so ``setup_s`` is the median of seven set-ups spread
over the whole run.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is 0 when every output checked
out, 1 when one did not, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("kernel-routes", "observables", "cli-cold")
SETUP_EACH_SIDE = 3  # set-up-only workers before and after the timed one
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("agreement_digits", "digits"),
)

CHECK_NAMES = (
    "interval_dd_energy", "interval_dn_energy", "twisted_energy_curve",
    "three_way_kernel_agreement", "boundary_energy_vanishing",
    "density_noncommuting_limits", "counting_decomposition",
    "poisson_orbit_identity", "heat_cylinder_relations",
    "per_orbit_energy_routes", "approximation_hierarchy",
    "regularized_limit_slope", "xi_independence", "density_antisymmetry",
    "reflection_symmetry", "twisted_curve_shape", "zeta_route_consistency",
)
CLI_OPS = (
    "energy", "energy-t", "energy-twisted", "density", "density-t", "kernel",
    "spectrum", "compare", "figure-fig1", "figure-fig2", "verify",
)
FAMILIES = {
    "kernel-routes": (
        "kernel_closed_form", "kernel_image_sum", "kernel_mode_sum",
        "trace_closed_form", "trace_image_sum", "trace_mode_sum",
        "failed_kernel_image_sum", "failed_kernel_mode_sum", "failed_kernel_image_vs_mode",
    ),
    "observables": (
        "energy_total", "energy_boundary", "energy_regularized", "density_integral",
        "density_regularized", "density_renormalized", "orbit_sum", "coefficients",
        "counting", "spectral_density", "local_counting",
    ),
    "cli-cold": (
        "cli_energy", "cli_density", "cli_kernel", "cli_spectrum", "cli_compare", "cli_figure",
    ),
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("import.vacuum1d_s", "s", "lower"), ("import.scipy_submodules", "count", "lower")]
    us, terms = ("us", "lower"), ("count", "lower")
    for kind in ("interval_like", "interval_mixed", "twisted_diag", "twisted_offdiag"):
        spec += [(f"kernels.image_sum.{kind}.us_per_call", *us),
                 (f"kernels.image_sum.{kind}.terms_per_call", *terms)]
    for kind in ("interval", "twisted", "halfline"):
        spec += [(f"kernels.mode_sum.{kind}.us_per_call", *us),
                 (f"kernels.mode_sum.{kind}.terms_per_call", *terms)]
    spec += [("kernels.closed_form.us_per_call", *us), ("kernels.closed_form.fallback_calls", *terms)]
    spec += [(f"kernels.cylinder_trace.{r}.us_per_call", *us) for r in ("closed_form", "image_sum", "mode_sum")]
    spec += [("kernels.heat_trace.us_per_call", *us),
             ("summation.lorentzian_cosine_tail.us_per_call", *us),
             ("summation.mittag_leffler_sum.calls", *terms),
             ("summation.telescoping_check.calls", *terms),
             ("summation.telescoping_check.us_per_call", *us),
             ("summation.telescoping_check.terms_per_call", *terms)]
    spec += [(f"energy.total_energy_regularized.{k}.us_per_call", *us) for k in ("like", "mixed", "twisted")]
    spec += [(f"energy.{f}.us_per_call", *us) for f in (
        "energy_density_regularized", "energy_density_renormalized", "twisted_energy_orbit_sum",
        "extract_cylinder_coefficients", "theorem1_check")]
    spec += [("orbits.local_spectral_density.us_per_call", *us),
             ("orbits.local_spectral_density.terms_per_call", *terms),
             ("orbits.green_im_diag.us_per_call", *us),
             ("orbits.green_im_diag.terms_per_call", *terms),
             ("orbits.local_counting.us_per_call", *us)]
    spec += [(f"spectrum.{f}.us_per_call", *us) for f in ("counting_decomposition", "counting_function", "eigenvalues")]
    spec += [("verify.run_checks_s", "s", "lower")]
    spec += [(f"verify.{name}_s", "s", "lower") for name in CHECK_NAMES]
    for op in CLI_OPS:
        spec += [(f"cli.{op}.wall_ms", "ms", "lower"), (f"cli.{op}.command_ms", "ms", "lower")]
    for workload, families in FAMILIES.items():
        spec += [(f"accuracy.{workload}.{family}.digits", "digits", "higher") for family in families]
    spec += [("trace.ops_per_s", "1/s", "higher")]
    return spec


def environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until READY, parsed RESULT or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=environment(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = None
        result = None
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or (result is None and not setup_only):
        raise WorkerFailed(f"worker {' '.join(cmd[2:])} exited with code {code}")
    return ready, result


def import_probe(deadline: float) -> tuple[float, int]:
    """Median over three fresh interpreters of the ``import vacuum1d`` time,
    and the number of scipy submodules it loads."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "import vacuum1d\n"
        "dt = time.perf_counter() - t0\n"
        "print(dt, sum(1 for m in sys.modules if m.startswith('scipy.')))\n"
    )
    times, counts = [], []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=environment(), check=True,
                             capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic())).stdout.split()
        times.append(float(out[0]))
        counts.append(int(out[1]))
    return median(times), max(counts)


def per_layer(result: dict, probe: tuple[float, int]) -> dict[str, float]:
    """Times per call; call counts per pass of the operation list, so they
    do not grow with the number of rounds a run completes."""
    spans = result["spans"]
    passes = result["traced_passes"]

    def per_call(name: str, key: str) -> float:
        rec = spans.get(name)
        return rec[key] / rec["calls"] if rec else 0.0

    values: dict[str, float] = {
        "import.vacuum1d_s": probe[0],
        "import.scipy_submodules": probe[1],
        "kernels.closed_form.fallback_calls": result["fallback_calls"] / passes,
        "verify.run_checks_s": per_call("verify.run_checks", "total_s"),
        "trace.ops_per_s": result["ops_per_s"],
    }
    values.update(result["extra_layers"])
    for family, d in result["families"].items():
        values[f"accuracy.{result['workload']}.{family}.digits"] = d
    out = {}
    for name, _, _ in per_layer_spec():
        if name in values:
            out[name] = values[name]
        elif name.startswith("verify."):
            out[name] = per_call(name[: -len("_s")], "total_s")
        elif name.endswith(".us_per_call"):
            out[name] = per_call(name[: -len(".us_per_call")], "self_s") * 1e6
        elif name.endswith(".terms_per_call"):
            out[name] = per_call(name[: -len(".terms_per_call")], "terms")
        elif name.endswith(".calls"):
            out[name] = spans.get(name[: -len(".calls")], {"calls": 0})["calls"] / passes
        else:
            out[name] = 0.0
    return out


def run_one(args) -> tuple[dict, dict]:
    """Returns (the JSON line, the worker's full result)."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [run_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_EACH_SIDE)]
    ready, result = run_worker(args, deadline, setup_only=False)
    setups.append(ready)
    setups += [run_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_EACH_SIDE)]
    line = {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"]}
    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_spec()}
        values = per_layer(result, import_probe(deadline))
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": median(setups),
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": result["op_p50_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
            "agreement_digits": result["agreement_digits"],
        }
    line["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    result["setup_samples_s"] = setups
    return line, result


def summary(workload: str, line: dict, result: dict) -> str:
    lines = [f"{workload} seed={result['seed']}: attempted={line['attempted']} failed={line['failed']} "
             f"correct={line['correct']} checked={result['checked']}"]
    for name, m in line["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"  {result['rounds']} rounds; over all of them {result['wall_ops_per_s']:.6g} ops/s, "
                 f"median latency {result['all_ops_p50_ms']:.6g} ms")
    tail = result["op_tail"]
    if tail:
        lines.append(f"  op_tail_ms = {tail['ms']:.6g} ms (p{tail['percentile']:.2f} of {tail['samples']} ops)")
    for failure in result["failures"]:
        lines.append(f"  FAILED CHECK {failure}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vacuum1d" / "__init__.py").is_file():
        print(f"run.py: no vacuum1d sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            line, result = run_one(one)
        except (WorkerFailed, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 2
        print(summary(name, line, result), flush=True)
        lines[name] = line
    final = lines[names[0]] if len(names) == 1 else lines
    print(json.dumps(final), flush=True)
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
