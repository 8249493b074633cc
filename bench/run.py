"""Run one benchmark workload of the stdroute package and print its metrics.

    python3 bench/run.py --workload rec-fit --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up SETUP_REPEATS times (the median is
``setup_s``), then repeats its operation in a closed loop with one caller
until ``--seconds`` have passed (at least MIN_OPS times) and reports
end-to-end metrics. ``--trace 1`` does one set-up, one operation and the
final step with the package's public functions wrapped, reports
per-layer metrics and writes the spans to ``bench/out/``; it then times
the operation untraced and traced OVERHEAD_PAIRS times for the overhead.
``--workload all`` runs every workload, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The package is
imported from ``src/`` next to this directory; without it the run exits
with status 2.
"""

import os

# Single-threaded numerics: pinned before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NAMES = ("rec-fit", "rec-predict", "nr-fit", "small-nets")
SETUP_REPEATS = 3
MIN_OPS = 3
OVERHEAD_PAIRS = 5
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workloads, name, seed, seconds, import_s):
    checks = workloads.Checks()
    wl = workloads.WORKLOADS[name]()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        inputs, dt = wl.clock(wl.setup, seed)
        setup_times.append(dt)
    parts = []
    start = time.perf_counter()
    while len(parts) < MIN_OPS or time.perf_counter() - start < seconds:
        op_parts, output = wl.op(inputs, len(parts))
        wl.check(inputs, output, checks)
        parts.append(op_parts)
    named = dict(wl.final(inputs))
    wl.check_final(inputs, checks)

    medians = {k: statistics.median(p[k] for p in parts) for k in parts[0]}
    task = [sum(p.values()) for p in parts]
    setup_s = import_s + statistics.median(setup_times)
    print(f"setup: import {import_s:.4f} s + median of {[round(t, 4) for t in setup_times]} s")
    print(f"operations: {len(task)}, task_s quartiles: "
          f"{[round(q, 4) for q in statistics.quantiles(task, n=4)]}")
    named.update(wl.named_metrics(inputs, medians))
    named["setup_s"] = (setup_s, "s")
    named["peak_rss_mb"] = (peak_rss_mb(), "MB")
    named["error_rate"] = (checks.failed / checks.attempted, f"{checks.failed}/{checks.attempted}")
    for key, (value, unit) in named.items():
        print(f"  {key}: {value:.6g} {unit}")
    if isinstance(inputs, list):
        print(f"  sizes: {[g.size for g in inputs]}")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "task_s": metric(statistics.median(task), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return checks, metrics


def run_traced(workloads, clock, tracing, layers, name, seed):
    """One traced pass (set-up, first operation, final step), then the tracing overhead."""
    checks = workloads.Checks()
    plain = clock.Clock(corrected=False)
    tracer = tracing.Tracer()
    wl = workloads.WORKLOADS[name](plain, tracer)
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inputs = wl.setup(seed)
        with tracer.span("bench.op"):
            _, output = wl.op(inputs, 0)
        with tracer.span("bench.final"):
            wl.final(inputs)
    finally:
        tracer.uninstall()
    wl.check(inputs, output, checks)
    wl.check_final(inputs, checks)

    # Adjacent untraced and traced runs of the first operation, timed part
    # by part with the host-corrected clock; the median ratio is the overhead.
    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        parts, _ = workloads.WORKLOADS[name]().op(inputs, 0)
        extra = tracing.Tracer()
        extra.install()
        try:
            traced_parts, _ = workloads.WORKLOADS[name](tracer=extra).op(inputs, 0)
        finally:
            extra.uninstall()
        ratios.append(sum(traced_parts.values()) / sum(parts.values()))

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    units = {m["name"]: m["unit"] for m in per_layer}
    metrics = layers.layer_metrics(
        tracer, wl, inputs, checks, statistics.median(ratios) - 1.0, units
    )
    print(f"traced / untraced operation time: {[round(r, 3) for r in ratios]}")
    print(f"{'layer':32s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
    for key, (calls, busy, own) in sorted(tracer.stats.items()):
        print(f"{key:32s} {calls:9d} {busy:10.4f} {own:10.4f}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    tracer.dump(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    return checks, metrics


def run_all(args) -> int:
    """Each workload in its own fresh process, then one summary line per workload."""
    status = 0
    summary = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}: {' '.join(cmd[1:])}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            status = 1
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in summary.items():
        values = ", ".join(
            f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
        )
        print(f"{name}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stdroute" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(BENCH)]
    import clock

    stdroute, import_s = clock.Clock()(importlib.import_module, "stdroute")
    if not Path(stdroute.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported stdroute from {stdroute.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import tracing
    import workloads

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        checks, metrics = run_traced(workloads, clock, tracing, layers, args.workload, args.seed)
    else:
        checks, metrics = run_untraced(workloads, args.workload, args.seed, args.seconds, import_s)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
