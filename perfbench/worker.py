"""One benchmark run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up (import, input generation, warm-up) ends with a ``READY`` line on
stdout, which the parent times.  The timed phase runs whole rounds of the
workload's operation list, one operation at a time, starting a new round
while fewer than S seconds have passed.  ``attempted`` and ``failed``
count one pass of the list; every round must fail the same number.  ``ops_per_s`` and ``op_p50_ms``
take each operation at its fastest round: the machine's speed drifts by
tens of percent over seconds, and the fastest of many executions of the
same operation does not.  The outputs are then checked and
a ``RESULT {json}`` line ends the output.

In-process workloads warm up by running one full round; its outputs are
checked against the references and every timed output must reproduce
them.  With ``--trace 1`` a :class:`tracer.Tracer` wraps the package's
public functions before the timed phase; the spans are written to
``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"


def tail(latencies: list[float]) -> dict | None:
    """The highest percentile with 10 operations beyond it: the 11th
    slowest latency.  None below 40 operations."""
    n = len(latencies)
    if n < 40:
        return None
    ordered = sorted(latencies)
    return {"percentile": 100.0 * (n - 10) / n, "ms": ordered[n - 11] * 1e3, "samples": n}


def same(a, b) -> bool:
    """Outputs equal, or equal to 1e-13 where the numbers differ."""
    if a == b:
        return True
    fa, fb = _floats(a), _floats(b)
    return len(fa) == len(fb) and all(
        x == y or abs(x - y) <= 1e-13 * (1.0 + abs(y)) for x, y in zip(fa, fb)
    )


def _floats(obj) -> list:
    if isinstance(obj, (int, float, complex)):
        return [obj]
    if isinstance(obj, dict):
        return [v for key in sorted(obj, key=repr) for v in _floats(obj[key])]
    if isinstance(obj, (list, tuple)):
        return [v for item in obj for v in _floats(item)]
    if hasattr(obj, "__dataclass_fields__"):
        return [v for name in obj.__dataclass_fields__ for v in _floats(getattr(obj, name))]
    return [obj]


def timed_phase(wl, seconds: float, warm: list | None):
    """Whole rounds of the operation list until ``seconds`` have passed.
    Returns each operation's latencies (one per round), the outputs to
    check, the failed count of each round and the number of outputs that
    differ from ``warm``."""
    latencies: list[list[float]] = [[] for _ in wl.ops]
    outputs: list = []
    failed: list[int] = []
    mismatched = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        failed.append(0)
        for i, op in enumerate(wl.ops):
            t0 = time.perf_counter()
            out, bad = wl.run(op)
            latencies[i].append(time.perf_counter() - t0)
            failed[-1] += bad
            if warm is None:
                outputs.append((op, out))
            elif not same(out, warm[i][0]):
                mismatched += 1
    return latencies, outputs, failed, mismatched


def cli_layers(wl) -> dict[str, float]:
    """cli.<op>.command_ms: ``cli.main`` on each operation in this (warm,
    traced) process; verify's checks are timed by their spans."""
    import vacuum1d.cli as cli

    layers = {}
    for op in wl.ops:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            cli.main(list(op.params["argv"]))
            layers[f"cli.{op.label}.command_ms"] = (time.perf_counter() - t0) * 1e3
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = str(Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, src)
    wl = workloads.make(args.workload, args.seed, src=src)
    warm = None
    if wl.in_process:
        warm = [wl.run(op) for op in wl.ops]
    else:
        wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    per_op, outputs, failed, mismatched = timed_phase(wl, args.seconds, warm)
    latencies = [lat for lats in per_op for lat in lats]
    fastest = [min(lats) for lats in per_op]
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    checker = workloads.Checker()
    checker.require(len(set(failed)) == 1, f"failed operations differ between rounds: {failed}")
    if warm is not None:
        outputs = [(op, out) for op, (out, _) in zip(wl.ops, warm)]
        checker.require(mismatched == 0, f"{mismatched} timed outputs differ from the warm-up round")
    for op, out in outputs:
        wl.check(op, out, checker)

    families = checker.digits()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "correct": not checker.failures,
        "failures": checker.failures[:20],
        "checked": checker.checked,
        # One pass of the operation list; every round repeats it.
        "attempted": len(wl.ops),
        "failed": failed[0],
        "rounds": len(failed),
        "ops_per_s": len(fastest) / sum(fastest),
        "op_p50_ms": median(fastest) * 1e3,
        "wall_ops_per_s": len(latencies) / sum(latencies),
        "all_ops_p50_ms": median(latencies) * 1e3,
        "op_tail": tail(latencies),
        "peak_rss_mb": peak_rss_mb,
        "agreement_digits": checker.agreement(),
        "families": families,
    }
    if tracer is not None:
        extra_layers: dict[str, float] = {}
        if wl.name == "cli-cold":
            extra_layers = cli_layers(wl)
            extra_layers.update({f"cli.{op.label}.wall_ms": t * 1e3 for op, t in zip(wl.ops, fastest)})
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(path)
        result["trace_file"] = str(path)
        result["spans"] = tracer.summary()
        # Spans cover every timed round in process; on cli-cold, the one
        # pass of cli_layers.
        result["traced_passes"] = len(failed) if wl.in_process else 1
        result["fallback_calls"] = tracer.fallbacks
        result["extra_layers"] = extra_layers
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
