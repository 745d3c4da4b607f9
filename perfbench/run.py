#!/usr/bin/env python3
"""Benchmark of platoonshare: three closed-loop workloads and a traced run.

Run from the repository root, for example:

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

Workloads (see README.md beside this file): sweep-grid, core-audit and
cli-cold. The run alternates set-up (import, input generation, warm-up),
timed apart, with whole passes until ``--seconds`` are spent, and checks
every output outside the timed region. Every operation of a pass repeats
with the same input in each later pass. Each wall time is scaled to a
fixed host speed by the probes run around it (calibrate.py),
and each timing reported is the median of its repeats.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off. With ``--trace 1`` the run alternates untraced and traced
passes and reports the per-layer metrics. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the machine context, sample counts and error rate.
Exits 1 when an output is wrong and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from calibrate import start_up_probe
from tracer import COMPUTED_COUNTS, SPAN_NAMES, Tracer
from workloads import WORKLOADS, PassResult, SweepGrid

SETUP_ROUNDS = 5
STARTUP_RUNS = 7


def machine_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def run_passes(workload, seconds: float, tracer) -> tuple[list, list, list]:
    """Set-up rounds and whole passes until the time is spent.

    SETUP_ROUNDS set-up rounds come first and one more precedes each later
    pass, so set-up is sampled across the whole run. A set-up round and a
    pass start only if they fit in the time left, judged by the longest
    round and pass so far. At least one pass runs; with a tracer, traced
    and untraced passes alternate and at least one of each runs.
    The reference outputs that need computing are built first, before the
    clock starts. Returns the set-up times and the untraced and traced
    passes.
    """
    workload.setup()
    workload.build_references()
    setup_times: list[float] = []
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    deadline = perf_counter() + seconds
    longest = 0.0
    use_tracer = False
    rounds = SETUP_ROUNDS
    while True:
        start = perf_counter()
        for _ in range(rounds):
            clock = workload.clock()
            round_start = perf_counter()
            workload.setup()
            setup_times.append(clock.calibrated(perf_counter() - round_start))
        rounds = 1
        result = workload.run_pass(tracer if use_tracer else None)
        if use_tracer:
            result.layers = tracer.summary()
            traced.append(result)
        else:
            plain.append(result)
        workload.check(result)
        result.outputs.clear()  # outputs of an earlier import would keep its modules alive
        longest = max(longest, perf_counter() - start)
        done = plain and (traced or tracer is None)
        if done and perf_counter() + longest > deadline:
            return setup_times, plain, traced
        use_tracer = tracer is not None and not use_tracer


def typical_pass(passes: list) -> tuple[float, list, int]:
    """One pass rebuilt from each operation's median time over its repeats.

    Operations with equal keys have equal inputs and count as repeats.
    Returns the pass time in seconds, one latency in ms per operation and
    the smallest repeat count of any operation; a timing that covers
    several operations (a sweep call and its rows) is split evenly among
    them.
    """
    repeats: dict = {}
    for p in passes:
        for key, ms in p.ops:
            repeats.setdefault(key, []).append(ms)
    typical = {key: statistics.median(samples) for key, samples in repeats.items()}
    first = passes[0]
    latencies = []
    for key, _ in first.ops:
        weight = first.weights.get(key, 1)
        latencies += [typical[key] / weight] * weight
    wall = sum(typical[key] for key, _ in first.ops) / 1e3
    return wall, latencies, min(len(samples) for samples in repeats.values())


def end_to_end_metrics(workload, setup_times: list, passes: list) -> tuple[dict, dict]:
    wall, latencies, min_repeats = typical_pass(passes)
    values = {
        "wall_s": wall,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(workload.rusage_who).ru_maxrss / 1024,
    }
    timings = sum(len(p.ops) for p in passes)
    samples = {"wall_s": timings, "op_p50_ms": timings, "op_p90_ms": timings,
               "setup_s": len(setup_times), "peak_rss_mb": 1,
               "passes": len(passes), "operations_per_pass": len(latencies),
               "min_repeats_per_operation": min_repeats}
    return values, samples


def _time_child(argv: list, env: dict) -> float:
    start = perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def startup_costs(root: Path) -> dict:
    """Interpreter start-up, package import time and module count, from fresh processes.

    The times are raw wall-time medians: calibrating start-up by the
    start-up probe would turn the interpreter time into a constant.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    imp = [sys.executable, "-c", "import platoonshare.cli"]
    interpreter = statistics.median([start_up_probe(env) for _ in range(STARTUP_RUNS)])
    imported = statistics.median([_time_child(imp, env) for _ in range(STARTUP_RUNS)])
    count = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import platoonshare.cli; "
         "print(len(set(sys.modules) - before))"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return {
        "cli.interpreter_ms": interpreter * 1e3,
        "cli.import_ms": (imported - interpreter) * 1e3,
        "cli.import_modules": int(count),
    }


def per_layer_metrics(root: Path, plain: list, traced: list) -> tuple[dict, dict]:
    n = len(traced)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    for p in traced:
        c, s, k = p.layers
        calls.update(c)
        self_s.update(s)
        counts.update(k)
    values = startup_costs(root)
    rows = traced[0].rows
    values.update({"cli.rows": rows, "cli.bytes": traced[0].bytes})
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = calls[name] / n
        values[f"{name}.self_s"] = self_s[name] / n
    for name in COMPUTED_COUNTS:
        values[name] = counts[name] / n
    values["stability.in_core.calls"] = (
        values["stability.in_core.fast.calls"] + values["stability.in_core.labeled.calls"])
    values["stability.classes_per_row"] = values["stability.fast_classes"] / rows if rows else 0.0
    plain_wall = typical_pass(plain)[0]
    values["trace.overhead_share"] = (typical_pass(traced)[0] - plain_wall) / plain_wall
    for kind in SweepGrid.KINDS:
        times = [ms for p in plain for key, ms in p.ops if key == kind]
        values[f"{kind}_s"] = statistics.median(times) / 1e3 if times else 0.0
    detail = {
        "traced_passes": n,
        "untraced_passes": len(plain),
        "traced_wall_s": sum(p.wall_s for p in traced) / n,
        "self_s_sum": sum(self_s.values()) / n,
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "platoonshare" / "cli.py").is_file():
        print(f"error: no platoonshare sources under {root / 'src'}", file=sys.stderr)
        return 2
    context = machine_context(args)
    sys.path.insert(0, str(root / "src"))
    references = json.loads((here / "references.json").read_text())
    spec = json.loads((root / "BENCHMARK.json").read_text())

    workload = WORKLOADS[args.workload](root, args.seed, args.scale == "tiny", references)
    tracer = Tracer(workload.in_core_path) if args.trace else None
    setup_times, plain, traced = run_passes(workload, args.seconds, tracer)
    detail = {"context": context}
    if tracer is None:
        values, detail["samples"] = end_to_end_metrics(workload, setup_times, plain)
        declared = spec["end_to_end"]
    else:
        values, detail["trace"] = per_layer_metrics(root, plain, traced)
        declared = spec["per_layer"]
        out = root / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / f"spans-{args.workload}.csv")

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    detail["error_rate"] = len(failures) / attempted
    detail["failures"] = failures[:10]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
