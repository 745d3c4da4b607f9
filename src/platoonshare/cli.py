"""Command-line front end: one-shot queries and CSV experiment sweeps.

Subcommands: ``value``, ``allocate``, ``table1``, ``sweep``. Options may
come from a flat ``key = value`` config file; command-line flags win.
All CSV output is deterministic: same config, same bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

from . import allocate as alloc_mod
from . import fairness, game, stability
from .errors import GameError, TooManyStructures

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

TABLE_MAX_TRUCKS = 10

ALLOCATE_SCHEMES = ("stable", "shapley", "even-split", "deviation-min")


class ConfigError(Exception):
    """Bad config file or invalid field value; maps to exit code 2."""


@dataclass
class RunConfig:
    epsilon_f: float = 0.07
    epsilon_e: float = 0.048
    distance: float = 300.0
    n_e: int = 2
    n_f: int = 3
    max_platoon_size: int = 15
    xi: Optional[float] = None
    output_path: Optional[str] = None

    def validate(self) -> None:
        """Reject values the domain types reject, as a config error."""
        try:
            self.params()
            self.composition()
        except (ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc

    def params(self) -> game.SavingsParams:
        return game.SavingsParams(
            epsilon_f=self.epsilon_f,
            epsilon_e=self.epsilon_e,
            distance=self.distance,
            max_platoon_size=self.max_platoon_size,
        )

    def composition(self) -> game.Composition:
        return game.Composition(self.n_e, self.n_f)

    def fleet(self) -> game.Fleet:
        return game.Fleet.from_composition(self.composition())


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_INT_KEYS = {"n_e", "n_f", "max_platoon_size"}
_FLOAT_KEYS = {"epsilon_f", "epsilon_e", "distance", "xi"}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; full-line '#' comments; unknown keys rejected."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def build_config(args: argparse.Namespace) -> tuple[RunConfig, set]:
    """Apply precedence defaults < config file < flags; report explicit keys."""
    cfg = RunConfig()
    explicit: set = set()
    if args.config:
        for key, value in parse_config_file(args.config).items():
            setattr(cfg, key, value)
            explicit.add(key)
    for field in fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, value)
            explicit.add(field.name)
    cfg.validate()
    return cfg, explicit


def money(v: float) -> str:
    return f"{v:.2f}"


def ratio6(v: float) -> str:
    return f"{v:.6f}"


class _Output:
    """Writes to output_path when set, stdout otherwise."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self.buffer = io.StringIO()

    def write(self, text: str) -> None:
        self.buffer.write(text)

    def line(self, text: str = "") -> None:
        self.buffer.write(text + "\n")

    def flush(self) -> None:
        if self.path:
            with open(self.path, "w", encoding="utf-8", newline="") as fh:
                fh.write(self.buffer.getvalue())
        else:
            sys.stdout.write(self.buffer.getvalue())


def cmd_value(cfg: RunConfig) -> int:
    params = cfg.params()
    comp = cfg.composition()
    params.check_fleet_size(comp.total())
    value = game.coalition_value(comp, params)
    leader = game.optimal_leader_type(comp)
    out = _Output(cfg.output_path)
    out.line(
        f"coalition of {comp.n_e} ET + {comp.n_f} FPT over {params.distance:g} km "
        f"is worth {money(value)} EUR"
    )
    if leader is None:
        out.line(f"value={money(value)}")
    else:
        out.line(f"value={money(value)} leader={leader.value}")
    out.flush()
    return EXIT_OK


def _build_allocation(cfg: RunConfig, scheme: str):
    params = cfg.params()
    fleet = cfg.fleet()
    if scheme == "stable":
        xi = cfg.xi
        if xi is None:
            xi = alloc_mod.xi_upper_bound(fleet.composition(), params)
        return fleet, params, alloc_mod.stable_allocation(fleet, params, xi)
    if scheme == "shapley":
        return fleet, params, alloc_mod.shapley_allocation(fleet, params)
    if scheme == "even-split":
        return fleet, params, alloc_mod.even_split(fleet, params)
    if scheme == "deviation-min":
        allocation, _ = alloc_mod.deviation_minimizing_allocation(fleet, params)
        return fleet, params, allocation
    raise ConfigError(f"unknown scheme {scheme!r}")


def cmd_allocate(cfg: RunConfig, scheme: str) -> int:
    fleet, params, allocation = _build_allocation(cfg, scheme)
    report = stability.in_core(allocation, fleet, params)
    out = _Output(cfg.output_path)
    head = f"scheme={allocation.scheme}"
    if allocation.xi is not None:
        head += f" xi={ratio6(allocation.xi)}"
    if allocation.within_bound is not None:
        head += f" within_bound={str(allocation.within_bound).lower()}"
    out.line(head)
    for i in fleet.ids():
        out.line(
            f"truck_id={i} type={fleet.types[i].code} payoff={money(allocation.payoffs[i])}"
            f" leader={str(i == allocation.leader_id).lower()}"
        )
    out.line(f"total={money(allocation.total())}")
    out.line(
        f"core={str(report.is_member).lower()}"
        f" stability_probability={ratio6(report.stability_probability)}"
    )
    if report.blocking_coalitions:
        parts = [
            f"{game.block_notation(comp)}x{count}"
            for comp, count in report.blocking_coalitions
        ]
        out.line("blocking=" + ";".join(parts))
    if scheme == "shapley":
        comp = fleet.composition()
        if comp.n_e >= 1 and comp.n_f >= 1:
            out.line(
                "core_ratio_condition="
                + str(stability.shapley_core_condition_ratio(comp, params)).lower()
                + " core_exact_condition="
                + str(stability.shapley_core_condition_exact(comp, params)).lower()
            )
    out.flush()
    return EXIT_OK


def cmd_table1(cfg: RunConfig) -> int:
    params = cfg.params()
    comp = cfg.composition()
    if comp.total() > TABLE_MAX_TRUCKS:
        raise TooManyStructures(
            f"structure table capped at {TABLE_MAX_TRUCKS} trucks, got {comp.total()}"
        )
    structures = game.enumerate_type_structures(comp)
    out = _Output(cfg.output_path)
    out.line("# columns: case_index, structure (platoon blocks), total_benefit [EUR]")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["case_index", "structure", "total_benefit"])
    for idx, blocks in enumerate(structures, start=1):
        total = sum(game.coalition_value(b, params) for b in blocks)
        writer.writerow([idx, game.structure_notation(blocks), money(total)])
    out.flush()
    return EXIT_OK


_XI_GRID = [i * 0.005 for i in range(1, 31)]
_RATIO_GRID = [i * 0.05 for i in range(1, 20)]


def _mixed_compositions(n: int):
    return (game.Composition(n_e, n - n_e) for n_e in range(1, n))


def _fuel_compositions(n: int):
    return (game.Composition(0, m) for m in range(2, n + 1))


def _leader_share_rows(compositions, key):
    """Stability probability of x(xi) per (composition, xi), plus the bound."""

    def rows(cfg: RunConfig):
        params = cfg.params()
        for comp in compositions(cfg.max_platoon_size):
            fleet = game.Fleet.from_composition(comp)
            bound = ratio6(alloc_mod.xi_upper_bound(comp, params))
            for xi in _XI_GRID:
                allocation = alloc_mod.stable_allocation(fleet, params, xi)
                prob = stability.stability_probability(allocation, fleet, params)
                yield [*key(comp), ratio6(xi), ratio6(prob), bound]

    return rows


def _type_fair_rows(cfg: RunConfig):
    base = cfg.params()
    for comp in _mixed_compositions(cfg.max_platoon_size):
        fleet = game.Fleet.from_composition(comp)
        threshold = ratio6(comp.n_f / comp.total())
        for ratio in _RATIO_GRID:
            params = replace(base, epsilon_e=ratio * cfg.epsilon_f)
            allocation = alloc_mod.shapley_allocation(fleet, params)
            prob = stability.stability_probability(allocation, fleet, params)
            yield [comp.n_e, comp.n_f, ratio6(ratio), ratio6(prob), threshold]


def _deviation_rows(cfg: RunConfig):
    params = cfg.params()
    for comp in _mixed_compositions(cfg.max_platoon_size):
        fleet = game.Fleet.from_composition(comp)
        xi_star = ratio6(alloc_mod.xi_upper_bound(comp, params))
        grid = fairness.default_xi_grid(fleet, params)
        curve = fairness.deviation_curve(fleet, params, grid)
        delta_star = ratio6(curve.points[-1].delta)
        for point in curve.points:
            yield [comp.n_e, comp.n_f, ratio6(point.xi), ratio6(point.delta),
                   str(point.in_core).lower(), xi_star, delta_star]


# kind -> (comment line, header, row generator); {n} is the fleet size.
SWEEPS = {
    "fig2": (
        "# leader-share allocation in mixed fleets of size {n}: stability "
        "probability per (n_e, xi); xi_upper_bound is the certified threshold",
        ["n_e", "n_f", "xi", "stability_probability", "xi_upper_bound"],
        _leader_share_rows(_mixed_compositions, lambda c: (c.n_e, c.n_f)),
    ),
    "fig3": (
        "# leader-share allocation in all-FPT fleets: stability probability "
        "per (fleet size n, xi); xi_upper_bound = 1/(n-1)",
        ["n", "xi", "stability_probability", "xi_upper_bound"],
        _leader_share_rows(_fuel_compositions, lambda c: (c.total(),)),
    ),
    "fig5": (
        "# type-fair allocation in mixed fleets of size {n}: stability "
        "probability per (n_e, rate ratio); certified when ratio >= "
        "ratio_threshold = n_f/n",
        ["n_e", "n_f", "ratio", "stability_probability", "ratio_threshold"],
        _type_fair_rows,
    ),
    "fig6": (
        "# deviation from the type-fair payoff along xi in mixed fleets of size "
        "{n}: delta per (n_e, xi); xi_star is the certified bound where delta "
        "is smallest",
        ["n_e", "n_f", "xi", "delta", "in_core", "xi_star", "delta_at_xi_star"],
        _deviation_rows,
    ),
}


def cmd_sweep(cfg: RunConfig, kind: str, epsilon_f_given: bool) -> int:
    if kind == "fig6" and not epsilon_f_given:
        # preset: the deviation sweep is about a failing ratio condition
        cfg.epsilon_f = 0.72
    comment, columns, rows = SWEEPS[kind]
    out = _Output(cfg.output_path)
    out.line(comment.format(n=cfg.max_platoon_size))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows(cfg))
    out.flush()
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, with_xi: bool = True) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--epsilon-f", dest="epsilon_f", type=float,
                        help="fuel-powered follower saving rate [EUR/km]")
    parser.add_argument("--epsilon-e", dest="epsilon_e", type=float,
                        help="electric follower saving rate [EUR/km]")
    parser.add_argument("--distance", type=float, help="trip distance [km]")
    parser.add_argument("--ne", dest="n_e", type=int,
                        help="number of electric trucks")
    parser.add_argument("--nf", dest="n_f", type=int,
                        help="number of fuel-powered trucks")
    parser.add_argument("--max-platoon-size", dest="max_platoon_size", type=int,
                        help="platoon size cap (also the sweep fleet size)")
    parser.add_argument("--out", dest="output_path",
                        help="write output to this file instead of stdout")
    if with_xi:
        parser.add_argument("--xi", type=float, help="leader share in (0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonshare",
        description="Benefit allocation for mixed-energy truck platoons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="coalition value and leader type")
    _add_common(p_value, with_xi=False)

    p_alloc = sub.add_parser("allocate", help="payoffs plus core certification")
    _add_common(p_alloc)
    p_alloc.add_argument("--scheme", choices=ALLOCATE_SCHEMES, default="shapley")

    p_table = sub.add_parser("table1", help="CSV of all platoon structures")
    _add_common(p_table, with_xi=False)

    p_sweep = sub.add_parser("sweep", help="CSV experiment sweeps")
    p_sweep.add_argument("kind", choices=SWEEPS)
    _add_common(p_sweep, with_xi=False)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, explicit = build_config(args)
        if args.command == "value":
            return cmd_value(cfg)
        if args.command == "allocate":
            return cmd_allocate(cfg, args.scheme)
        if args.command == "table1":
            return cmd_table1(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.kind, epsilon_f_given="epsilon_f" in explicit)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GameError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
