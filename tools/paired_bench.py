"""Paired benchmark runs of two checkouts, and the verdict per end-to-end metric.

Runs the unchanged ``python3 perfbench/run.py --workload W --seed S
--seconds T`` in a base checkout and a changed one, one run at a time, for
``--pairs`` pairs, the base going first in pairs 1, 3, 5, ... and the change
in the others. For each end-to-end metric of the base's ``BENCHMARK.json`` it
prints each side's median and quartiles, how far the median moved, the pairs
the change wins (ties count for neither), and two verdicts:

- gain: the change wins at least nine tenths of the pairs and the medians
  differ, its way, by more than the base's interquartile range;
- bound: ``held`` if the change's median is no worse than the base's by more
  than the bound, ``worse`` if it is, and ``unresolved`` if it held but the
  base's interquartile range, relative to its median, is wider than the bound
  and not every run of the change reads better than every run of the base.

Standard library only; it edits nothing in either checkout::

    python3 tools/paired_bench.py PARENT CHANGE --workload core-audit --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its last stdout line, the result object."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: run.py exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdicts(base: list, change: list, better: str, bound: float) -> dict:
    """The summary of one metric over paired runs ``base[i]``, ``change[i]``."""
    sign = 1 if better == "lower" else -1  # sign * (change - base) < 0 is better
    (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    moved = (cm - bm) / bm if bm else 0.0
    iqr = b3 - b1
    gain = wins >= 0.9 * len(base) and sign * (bm - cm) > iqr
    every_run_better = max(sign * c for c in change) < min(sign * b for b in base)
    if sign * moved > bound:
        held = "worse"
    elif bm and iqr / abs(bm) > bound and not every_run_better:
        held = "unresolved"
    else:
        held = "held"
    return {"base": (b1, bm, b3), "change": (c1, cm, c3), "moved": moved, "wins": wins,
            "gain": gain, "bound": held}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    declared = json.loads((args.base / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            result = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(result)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s per run, {args.pairs} pairs")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {failed} of {attempted} operations failed")
    print("| metric | base median [q1, q3] | change median [q1, q3] | median moved | bound "
          "| wins | gain | within bound |")
    print("|---|---|---|---|---|---|---|---|")
    for metric in declared:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        v = verdicts(values["base"], values["change"], metric["better"], metric["bound"])
        b1, bm, b3 = v["base"]
        c1, cm, c3 = v["change"]
        print(f"| {name} ({metric['unit']}, {metric['better']}) | {bm:.4g} [{b1:.4g}, {b3:.4g}] "
              f"| {cm:.4g} [{c1:.4g}, {c3:.4g}] | {v['moved']:+.1%} "
              f"| {metric['bound']:.0%} | {v['wins']}/{args.pairs} "
              f"| {'yes' if v['gain'] else 'no'} | {v['bound']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
