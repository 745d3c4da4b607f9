"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps the public functions named in ``TRACED`` in every
``platoonshare`` module namespace that binds them (``fairness`` holds its
own ``in_core``, ``allocate`` its own ``coalition_value``, and so on).
Each wrapped call records a span ``[name, start, end, parent]``, where
``parent`` is the index of the enclosing span or -1. Spans stay in memory
until the run writes them out.

Per-subset primitives such as ``rate_for_counts`` are not wrapped, because
a wrapper would cost more than the work. Their work is computed from each
call's inputs instead and reported in ``counts``.
"""

from __future__ import annotations

import csv
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED = (
    "cli.main",
    "game.coalition_value",
    "game.enumerate_type_structures",
    "allocate.stable_allocation",
    "allocate.shapley_allocation",
    "allocate.shapley_bruteforce",
    "stability.in_core",
    "fairness.deviation_curve",
    "fairness.mean_relative_deviation",
)
# Span names: in_core spans are named after the scan they take.
SPAN_NAMES = tuple(
    name
    for target in TRACED
    for name in ((f"{target}.fast", f"{target}.labeled") if target == "stability.in_core"
                 else (target,))
)
COMPUTED_COUNTS = ("game.structures", "allocate.bruteforce_subsets",
                   "stability.fast_classes", "stability.labeled_subsets")


def _count_in_core(counts: Counter, path: str, args: tuple, result) -> None:
    alloc, fleet = args[0], args[1]
    if path == "labeled":
        counts["stability.labeled_subsets"] += (1 << fleet.size) - 2
        return
    # The class scan visits (leader in or out) x (electric followers a)
    # x (fuel followers b), minus the empty set and the grand coalition.
    comp = fleet.composition()
    leader_e = int(fleet.types[alloc.leader_id].value == "ET")
    free_e, free_f = comp.n_e - leader_e, comp.n_f - (1 - leader_e)
    counts["stability.fast_classes"] += 2 * (free_e + 1) * (free_f + 1) - 2


def _count_bruteforce(counts: Counter, path: str, args: tuple, result) -> None:
    # Each truck's marginal contribution over every subset of the others.
    n = args[0].size
    counts["allocate.bruteforce_subsets"] += n << (n - 1)


def _count_structures(counts: Counter, path: str, args: tuple, result) -> None:
    counts["game.structures"] += len(result)


_COUNTERS = {
    "stability.in_core": _count_in_core,
    "allocate.shapley_bruteforce": _count_bruteforce,
    "game.enumerate_type_structures": _count_structures,
}


def _platoonshare_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "platoonshare" or name.startswith("platoonshare.")
    ]


class Tracer:
    """Records spans of the wrapped functions while installed.

    ``in_core_path`` ("fast" or "labeled") names the subset scan that
    ``in_core`` takes; the benchmark knows it because it built the inputs.
    """

    def __init__(self, in_core_path: str):
        self.in_core_path = in_core_path
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = _platoonshare_modules()
        for target in TRACED:
            module_name, _, attr = target.rpartition(".")
            original = getattr(sys.modules["platoonshare." + module_name], attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, target: str, fn):
        path = self.in_core_path
        name = f"{target}.{path}" if target == "stability.in_core" else target
        count = _COUNTERS.get(target)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, path, args, result)
            return result

        return traced

    def merge(self, spans: list, counts: dict) -> None:
        """Append spans and counts recorded by another process."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        self.counts.update(counts)

    def summary(self) -> tuple[Counter, dict, Counter]:
        """Calls and self time per span name, and the computed counts.

        Self time is a span's length minus the time its direct children
        cover; children never overlap, since one call runs at a time.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - child
        return calls, dict(self_s), Counter(self.counts)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "start", "end", "parent"])
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), parent])
