"""The three benchmark workloads: sweep-grid, core-audit and cli-cold.

Each workload is a closed loop: one operation runs at a time, and the next
starts only after the previous one has returned. A workload has four
steps:

- ``setup()`` imports the package, builds the inputs from the seed and
  warms up. The benchmark times it apart from the passes and repeats it.
- ``build_references()`` computes, once and untimed before the first
  pass, any reference outputs that are not stored in references.json.
- ``run_pass(tracer)`` times one pass of operations, each calibrated
  against the host's speed by the workload's ``clock()`` (see
  calibrate.py), and keeps their raw outputs. With a tracer it records
  spans while the pass runs.
- ``check(result)`` verifies those outputs against references, outside
  the timed region, and fills in the failures and output sizes.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from calibrate import START_UP_REFERENCE_S, Clock, start_up_probe
from tracer import Tracer

CHILD_TIMEOUT_S = 120


@dataclass
class PassResult:
    """Timings, outputs and verification outcome of one pass.

    ``ops`` holds ``(key, ms)`` for each operation in pass order, its wall
    time scaled by ``calibrate.Clock``; operations with equal keys have
    equal inputs. ``weights`` maps a key to the number of operations that
    one timing covers (the CSV rows of a sweep call); keys not in it count
    once. ``wall_s`` is the pass's own wall time, probes included.
    """

    wall_s: float = 0.0
    ops: list = field(default_factory=list)
    weights: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    rows: int = 0
    bytes: int = 0
    layers: Optional[tuple] = None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_rows(data: bytes) -> int:
    """Data rows of a CSV output: lines that are neither comment nor header."""
    lines = [line for line in data.splitlines() if not line.startswith(b"#")]
    return max(len(lines) - 1, 0)


def import_package():
    """Import platoonshare.cli afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "platoonshare" or n.startswith("platoonshare.")]:
        del sys.modules[name]
    gc.collect()  # free the dropped copy now, so copies do not pile up in peak RSS
    return importlib.import_module("platoonshare.cli")


class _Traced:
    """Installs the tracer's wrappers for the duration of a timed loop."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.reset()
            self.tracer.install()

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.uninstall()


class SweepGrid:
    """In-process ``cli.main(["sweep", kind, ...])`` for each paper figure.

    Inputs are the paper's fixed grids at the default rates; fig6 relies on
    the silent ``epsilon_f=0.72`` preset that ``cmd_sweep`` applies when
    ``--epsilon-f`` is not given. The seed does not change them. One
    operation is one CSV row, whose latency is its sweep call's time
    divided by that sweep's row count.
    """

    name = "sweep-grid"
    in_core_path = "fast"
    rusage_who = resource.RUSAGE_SELF
    KINDS = ("fig2", "fig3", "fig5", "fig6")
    WARMUP_SIZE = 6

    def __init__(self, root: Path, seed: int, tiny: bool, references: dict):
        self.size = 8 if tiny else 40
        self.out = root / "perfbench" / "out"
        self.expected = references[self.name][str(self.size)]
        self.cli = None

    def _argv(self, kind: str, size: int, path: Path) -> list:
        return ["sweep", kind, "--max-platoon-size", str(size), "--out", str(path)]

    def _csv(self, kind: str) -> Path:
        return self.out / f"{kind}.csv"

    def clock(self) -> Clock:
        return Clock()

    def setup(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.cli = import_package()
        for kind in self.KINDS:
            self.cli.main(self._argv(kind, self.WARMUP_SIZE, self.out / "warmup.csv"))

    def build_references(self) -> None:
        pass  # stored in references.json

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        for kind in self.KINDS:
            self._csv(kind).unlink(missing_ok=True)
        result = PassResult()
        with _Traced(tracer):
            clock = self.clock()
            start = perf_counter()
            for kind in self.KINDS:
                t0 = perf_counter()
                try:
                    outcome = self.cli.main(self._argv(kind, self.size, self._csv(kind)))
                except Exception as exc:  # a failed operation, counted by check()
                    outcome = exc
                result.ops.append((kind, clock.calibrated(perf_counter() - t0) * 1e3))
                result.outputs.append(outcome)
            result.wall_s = perf_counter() - start
        return result

    def check(self, result: PassResult) -> None:
        for kind, outcome in zip(self.KINDS, result.outputs):
            result.attempted += 1
            path = self._csv(kind)
            data = path.read_bytes() if path.exists() else b""
            if outcome != 0:
                result.failures.append(f"{kind}: returned {outcome!r}")
            elif sha256(data) != self.expected[kind]:
                result.failures.append(f"{kind}: CSV sha256 differs from the reference")
            rows = csv_rows(data)
            result.rows += rows
            result.bytes += len(data)
            if rows:
                result.weights[kind] = rows


class CoreAudit:
    """Labeled core verdicts and brute-force Shapley checks, in-process.

    Each verdict certifies an efficient allocation of a mixed fleet that is
    not type-symmetric, so ``in_core(method="auto")`` takes the labeled
    ``2^N`` scan. Each brute-force check runs ``shapley_bruteforce`` on one
    mixed composition at the oracle's size cap.
    """

    name = "core-audit"
    in_core_path = "labeled"
    rusage_who = resource.RUSAGE_SELF
    # (fleet size, verdicts per pass). With the 9 brute-force checks, which
    # each cost between an N=16 and an N=17 verdict, a pass holds 100
    # operations: p50 falls in the middle of the N=14 verdicts and p90 in
    # the middle of the brute-force checks, away from the jumps between
    # groups. Cheap groups are large so that a pass stays short and each
    # operation gets many repeats in a run.
    SCHEDULE = ((12, 22), (13, 20), (14, 16), (15, 16), (16, 12), (17, 4), (18, 1))
    TINY_SCHEDULE = ((6, 4), (7, 3), (8, 3))
    BRUTE_FORCE_SIZE, TINY_BRUTE_FORCE_SIZE = 10, 6

    def __init__(self, root: Path, seed: int, tiny: bool, references: dict):
        self.seed = seed
        self.schedule = self.TINY_SCHEDULE if tiny else self.SCHEDULE
        self.bf_size = self.TINY_BRUTE_FORCE_SIZE if tiny else self.BRUTE_FORCE_SIZE
        self.expected: Optional[list] = None

    def clock(self) -> Clock:
        return Clock()

    def setup(self) -> None:
        import_package()
        self.game = sys.modules["platoonshare.game"]
        self.allocate = sys.modules["platoonshare.allocate"]
        self.stability = sys.modules["platoonshare.stability"]
        self.params = self.game.SavingsParams(
            epsilon_f=0.07, epsilon_e=0.048, distance=300.0,
            max_platoon_size=max(n for n, _ in self.schedule),
        )
        rng = random.Random(self.seed)
        self.verdicts = [
            self._perturbed(rng, n) for n, count in self.schedule for _ in range(count)
        ]
        self.fleets = [
            self.game.Fleet.from_composition(self.game.Composition(n_e, self.bf_size - n_e))
            for n_e in range(1, self.bf_size)
        ]
        self.ops = [("verdict", i) for i in range(len(self.verdicts))]
        self.ops += [("bruteforce", i) for i in range(len(self.fleets))]
        rng.shuffle(self.ops)
        fleet, alloc = self.verdicts[0]
        self.stability.in_core(alloc, fleet, self.params)
        self.allocate.shapley_bruteforce(self.fleets[0], self.params)

    def _perturbed(self, rng: random.Random, n: int) -> tuple:
        """A scheme-built allocation with money moved between two followers."""
        game, allocate = self.game, self.allocate
        n_e = rng.randint(1, n - 1)
        types = [game.TruckType.ELECTRIC] * n_e + [game.TruckType.FUEL] * (n - n_e)
        rng.shuffle(types)
        fleet = game.Fleet(tuple(types))
        comp, params = fleet.composition(), self.params
        schemes = ["stable", "shapley", "even-split"]
        if not self.stability.shapley_core_condition_ratio(comp, params):
            schemes.append("deviation-min")
        scheme = rng.choice(schemes)
        if scheme == "stable":
            xi = min(1.0, allocate.xi_upper_bound(comp, params) * rng.uniform(0.5, 1.5))
            base = allocate.stable_allocation(fleet, params, xi)
        elif scheme == "shapley":
            base = allocate.shapley_allocation(fleet, params)
        elif scheme == "even-split":
            base = allocate.even_split(fleet, params)
        else:
            base, _ = allocate.deviation_minimizing_allocation(fleet, params)
        followers = {}
        for i in fleet.ids():
            if i != base.leader_id:
                followers.setdefault(fleet.types[i], []).append(i)
        pool = rng.choice([ids for ids in followers.values() if len(ids) >= 2])
        giver, taker = rng.sample(pool, 2)
        payoffs = list(base.payoffs)
        amount = payoffs[giver] * rng.uniform(0.01, 0.5)
        payoffs[giver] -= amount
        payoffs[taker] += amount
        return fleet, allocate.Allocation(tuple(payoffs), base.leader_id, base.scheme)

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        result = PassResult()
        stability, allocate, params = self.stability, self.allocate, self.params
        with _Traced(tracer):
            clock = self.clock()
            start = perf_counter()
            for kind, index in self.ops:
                t0 = perf_counter()
                try:
                    if kind == "verdict":
                        fleet, alloc = self.verdicts[index]
                        outcome = stability.in_core(alloc, fleet, params)
                    else:
                        outcome = allocate.shapley_bruteforce(self.fleets[index], params)
                except Exception as exc:  # a failed operation, counted by check()
                    outcome = exc
                ms = clock.calibrated(perf_counter() - t0) * 1e3
                result.ops.append(((kind, index), ms))
                result.outputs.append(outcome)
            result.wall_s = perf_counter() - start
        return result

    @staticmethod
    def _verdict(report) -> tuple:
        # Plain values, so that references outlive a fresh import of the package.
        blocking = tuple((comp.n_e, comp.n_f, count) for comp, count in report.blocking_coalitions)
        return report.is_member, blocking, report.stability_probability

    def _relabeled_verdict(self, fleet, alloc) -> tuple:
        """Labeled-scan verdict of the same allocation with truck ids reversed."""
        last = fleet.size - 1
        return self._verdict(self.stability.in_core(
            self.allocate.Allocation(alloc.payoffs[::-1], last - alloc.leader_id, alloc.scheme),
            self.game.Fleet(fleet.types[::-1]),
            self.params,
            method="slow",
        ))

    def build_references(self) -> None:
        self.expected = [self._relabeled_verdict(f, a) for f, a in self.verdicts]

    def check(self, result: PassResult) -> None:
        tol = 1e-9 * self.params.distance
        for (kind, index), outcome in zip(self.ops, result.outputs):
            result.attempted += 1
            if isinstance(outcome, Exception):
                result.failures.append(f"{kind} {index}: {type(outcome).__name__}: {outcome}")
            elif kind == "verdict":
                if self._verdict(outcome) != self.expected[index]:
                    result.failures.append(f"verdict {index}: differs from the relabeled scan")
            else:
                fleet = self.fleets[index]
                phi_e, phi_f = self.allocate.shapley_closed_form(fleet.composition(), self.params)
                want = [phi_e if t is self.game.TruckType.ELECTRIC else phi_f for t in fleet.types]
                if any(abs(g - w) > tol for g, w in zip(outcome.payoffs, want)):
                    result.failures.append(f"bruteforce {index}: differs from the closed form")


class CliCold:
    """One-shot CLI commands, each a fresh ``python -m platoonshare.cli``.

    The command mix is fixed; the seed shuffles its order. Only one child
    process runs at a time.
    """

    name = "cli-cold"
    in_core_path = "fast"
    rusage_who = resource.RUSAGE_CHILDREN
    COMMANDS = (
        ("value",),
        ("allocate", "--scheme", "stable"),
        ("allocate", "--scheme", "shapley"),
        ("allocate", "--scheme", "even-split"),
        ("allocate", "--scheme", "deviation-min", "--epsilon-f", "0.72", "--ne", "1", "--nf", "14"),
        # exits 3: the ratio core condition holds at the default rates
        ("allocate", "--scheme", "deviation-min"),
        ("table1",),
        ("table1", "--ne", "4", "--nf", "6"),
        ("sweep", "fig3"),
    )
    # 12 rounds of 9 commands: at least 100 operations per pass.
    ROUNDS, TINY_ROUNDS = 12, 1

    def __init__(self, root: Path, seed: int, tiny: bool, references: dict):
        self.root = root
        self.seed = seed
        self.rounds = self.TINY_ROUNDS if tiny else self.ROUNDS
        self.expected = references[self.name]
        self.spans_dir = root / "perfbench" / "out" / "cli-spans"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def clock(self) -> Clock:
        return Clock(lambda: start_up_probe(self.env), START_UP_REFERENCE_S)

    def setup(self) -> None:
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self.ops = list(self.COMMANDS) * self.rounds
        random.Random(self.seed).shuffle(self.ops)
        self._child([sys.executable, "-m", "platoonshare.cli", "value"])

    def build_references(self) -> None:
        pass  # stored in references.json

    def _child(self, argv: list) -> tuple:
        try:
            proc = subprocess.run(
                argv, cwd=self.root, env=self.env, capture_output=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, b""
        return proc.returncode, proc.stdout

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        result = PassResult()
        traced_cli = str(self.root / "perfbench" / "traced_cli.py")
        clock = self.clock()
        start = perf_counter()
        for index, command in enumerate(self.ops):
            if tracer is None:
                argv = [sys.executable, "-m", "platoonshare.cli", *command]
            else:
                argv = [sys.executable, traced_cli, str(self.spans_dir / f"{index}.json"), *command]
            t0 = perf_counter()
            outcome = self._child(argv)
            ms = clock.calibrated(perf_counter() - t0) * 1e3
            result.ops.append((" ".join(command), ms))
            result.outputs.append(outcome)
        result.wall_s = perf_counter() - start
        if tracer is not None:
            tracer.reset()
            for index in range(len(self.ops)):
                path = self.spans_dir / f"{index}.json"
                if path.exists():
                    recorded = json.loads(path.read_text(encoding="utf-8"))
                    tracer.merge(recorded["spans"], recorded["counts"])
                    path.unlink()
        return result

    def check(self, result: PassResult) -> None:
        for command, (code, stdout) in zip(self.ops, result.outputs):
            result.attempted += 1
            want = self.expected[" ".join(command)]
            if code != want["exit"]:
                result.failures.append(f"{' '.join(command)}: exit {code}, want {want['exit']}")
            elif sha256(stdout) != want["stdout_sha256"]:
                result.failures.append(f"{' '.join(command)}: stdout differs from the reference")
            if command[0] in ("table1", "sweep"):
                result.rows += csv_rows(stdout)
            result.bytes += len(stdout)


WORKLOADS = {w.name: w for w in (SweepGrid, CoreAudit, CliCold)}
