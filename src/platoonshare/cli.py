"""Command-line front end: one-shot queries and CSV experiment sweeps.

Subcommands: ``value``, ``allocate``, ``table1``, ``sweep``. Options may
come from a flat ``key = value`` config file; command-line flags win.
All CSV output is deterministic: same config, same bytes. Each decision is
declared once: options in the ``RunConfig`` fields, and subcommands,
schemes and sweeps in the ``COMMANDS``, ``SCHEMES`` and ``SWEEPS`` tables.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from . import allocate as alloc_mod
from . import fairness, game, stability
from .errors import FleetTooLarge, GameError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

TABLE_MAX_TRUCKS = 10
FLEET_CMDS = ("value", "allocate", "table1")  # sweeps size fleets by max_platoon_size


class ConfigError(Exception):
    """Bad config file or invalid field value; maps to exit code 2."""


def _option(default, flag: str, convert, help: str, only: Optional[tuple] = None):
    """A RunConfig field plus its flag, converter, help and ``only`` commands."""
    return field(default=default, metadata=dict(flag=flag, convert=convert, help=help,
                                                only=only))


@dataclass
class RunConfig:
    """One field per option: its config key, flag, converter and help text."""

    epsilon_f: float = _option(0.07, "--epsilon-f", float,
                               "fuel-powered follower saving rate [EUR/km]")
    epsilon_e: float = _option(0.048, "--epsilon-e", float,
                               "electric follower saving rate [EUR/km]")
    distance: float = _option(300.0, "--distance", float, "trip distance [km]")
    n_e: int = _option(2, "--ne", int, "number of electric trucks", only=FLEET_CMDS)
    n_f: int = _option(3, "--nf", int, "number of fuel-powered trucks", only=FLEET_CMDS)
    max_platoon_size: int = _option(15, "--max-platoon-size", int,
                                    "platoon size cap (also the sweep fleet size)")
    output_path: Optional[str] = _option(None, "--out", str,
                                         "write output to this file instead of stdout")
    xi: Optional[float] = _option(None, "--xi", float, "leader share in (0, 1]",
                                  only=("allocate",))

    def __post_init__(self) -> None:
        """Reject values the domain types reject, as a config error."""
        try:
            self.params()
            self.composition()
        except ValueError as exc:
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


def _options(cmd: str) -> list:
    """The RunConfig fields ``cmd`` takes; an ``only`` of None admits every command."""
    return [f for f in fields(RunConfig) if cmd in (f.metadata["only"] or (cmd,))]


def parse_config_file(path: str, command: str) -> dict:
    """Flat ``key = value`` lines, ``command``'s options only; full-line '#' comments."""
    converters = {f.name: f.metadata["convert"] for f in _options(command)}
    values: dict = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:  # -sig skips a byte-order mark
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in converters:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = converters[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Apply precedence defaults < sweep preset < config file < flags."""
    preset, swept = SWEEPS[args.kind][3:] if "kind" in args else ({}, None)
    values = parse_config_file(args.config, args.command) if args.config else {}
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    if swept in values:
        raise ConfigError(f"sweep {args.kind} sets {swept} itself")
    return RunConfig(**{**preset, **values})


def money(v: float) -> str:
    return f"{v:.2f}"


def ratio6(v: float) -> str:
    return f"{v:.6f}"


def _csv_text(comment: str, columns: list, rows) -> str:
    buffer = io.StringIO()
    buffer.write(comment + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def cmd_value(cfg: RunConfig, args: argparse.Namespace) -> str:
    params = cfg.params()
    comp = cfg.composition()
    params.check_fleet_size(comp.total())
    value = game.coalition_value(comp, params)
    leader = game.optimal_leader_type(comp)
    text = (
        f"coalition of {comp.n_e} ET + {comp.n_f} FPT over {params.distance:g} km "
        f"is worth {money(value)} EUR\nvalue={money(value)}"
    )
    if leader is not None:
        text += f" leader={leader.value}"
    return text + "\n"


# --scheme choice -> allocation of (fleet, params, xi). Each entry looks its
# function up on the module at call time, so patched attributes (the
# benchmark's tracer) see every call.
SCHEMES = {
    "stable": lambda fleet, params, xi: alloc_mod.stable_allocation(
        fleet, params,
        alloc_mod.xi_upper_bound(fleet.composition(), params) if xi is None else xi,
    ),
    "shapley": lambda fleet, params, xi: alloc_mod.shapley_allocation(fleet, params),
    "even-split": lambda fleet, params, xi: alloc_mod.even_split(fleet, params),
    "deviation-min": lambda fleet, params, xi: (
        alloc_mod.deviation_minimizing_allocation(fleet, params)[0]
    ),
}


def cmd_allocate(cfg: RunConfig, args: argparse.Namespace) -> str:
    if cfg.xi is not None and args.scheme != "stable":
        raise ConfigError(f"xi applies to scheme stable only, not {args.scheme}")
    params = cfg.params()
    comp = cfg.composition()
    params.check_fleet_size(comp.total())  # before a roster of that size is built
    fleet = game.Fleet.from_composition(comp)
    allocation = SCHEMES[args.scheme](fleet, params, cfg.xi)
    report = stability.in_core(allocation, fleet, params)
    head = f"scheme={allocation.scheme}"
    if allocation.xi is not None:
        head += f" xi={ratio6(allocation.xi)}"
    if allocation.within_bound is not None:
        head += f" within_bound={str(allocation.within_bound).lower()}"
    lines = [head]
    for i in fleet.ids():
        lines.append(
            f"truck_id={i} type={fleet.types[i].code} payoff={money(allocation.payoffs[i])}"
            f" leader={str(i == allocation.leader_id).lower()}"
        )
    lines.append(f"total={money(allocation.total())}")
    lines.append(
        f"core={str(report.is_member).lower()}"
        f" stability_probability={ratio6(report.stability_probability)}"
    )
    if report.blocking_coalitions:
        parts = [
            f"{game.block_notation(comp)}x{count}"
            for comp, count in report.blocking_coalitions
        ]
        lines.append("blocking=" + ";".join(parts))
    if args.scheme == "shapley":
        if comp.n_e >= 1 and comp.n_f >= 1:
            lines.append(
                "core_ratio_condition="
                + str(stability.shapley_core_condition_ratio(comp, params)).lower()
                + " core_exact_condition="
                + str(stability.shapley_core_condition_exact(comp, params)).lower()
            )
    return "\n".join(lines) + "\n"


def cmd_table1(cfg: RunConfig, args: argparse.Namespace) -> str:
    params = cfg.params()
    comp = cfg.composition()
    params.check_fleet_size(comp.total())
    if comp.total() > TABLE_MAX_TRUCKS:
        raise FleetTooLarge(
            f"structure table capped at {TABLE_MAX_TRUCKS} trucks, got {comp.total()}"
        )
    structures = game.enumerate_type_structures(comp)
    return _csv_text(
        "# columns: case_index, structure (platoon blocks), total_benefit [EUR]",
        ["case_index", "structure", "total_benefit"],
        (
            [idx, game.structure_notation(blocks),
             money(sum(game.coalition_value(b, params) for b in blocks))]
            for idx, blocks in enumerate(structures, start=1)
        ),
    )


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
        tables = alloc_mod.stable_tables(params)  # one per sweep, shared by its fleets
        labels = [ratio6(xi) for xi in _XI_GRID]
        for comp in compositions(cfg.max_platoon_size):
            bound = ratio6(alloc_mod.xi_upper_bound(comp, params))
            scan = tables(comp)
            for xi, label in zip(_XI_GRID, labels):
                yield [*key(comp), label, ratio6(scan.probability(xi)), bound]

    return rows


def _type_fair_rows(cfg: RunConfig):
    labels = [ratio6(ratio) for ratio in _RATIO_GRID]
    tables = alloc_mod.shapley_tables(cfg.params())
    for comp in _mixed_compositions(cfg.max_platoon_size):
        threshold = ratio6(comp.n_f / comp.total())
        scan = tables(comp)
        for ratio, label in zip(_RATIO_GRID, labels):
            prob = scan.probability(ratio * cfg.epsilon_f)
            yield [comp.n_e, comp.n_f, label, ratio6(prob), threshold]


def _deviation_rows(cfg: RunConfig):
    params = cfg.params()
    tables = alloc_mod.stable_tables(params)  # one per sweep, shared by its fleets
    for comp in _mixed_compositions(cfg.max_platoon_size):
        fleet = game.Fleet.from_composition(comp)
        xi_star = ratio6(alloc_mod.xi_upper_bound(comp, params))
        grid = fairness.default_xi_grid(fleet, params)
        curve = fairness.deviation_curve(fleet, params, grid, tables)
        delta_star = ratio6(curve[-1].delta)
        for point in curve:
            yield [comp.n_e, comp.n_f, ratio6(point.xi), ratio6(point.delta),
                   str(point.in_core).lower(), xi_star, delta_star]


# kind -> (comment line, header, row generator, preset, swept field); {n}
# is the fleet size. A preset holds starting RunConfig values: the config
# file and the flags override it. The swept field, if any, they may not set.
SWEEPS = {
    "fig2": (
        "# leader-share allocation in mixed fleets of size {n}: stability "
        "probability per (n_e, xi); xi_upper_bound is the certified threshold",
        ["n_e", "n_f", "xi", "stability_probability", "xi_upper_bound"],
        _leader_share_rows(_mixed_compositions, lambda c: (c.n_e, c.n_f)),
        {}, None,
    ),
    "fig3": (
        "# leader-share allocation in all-FPT fleets: stability probability "
        "per (fleet size n, xi); xi_upper_bound = 1/(n-1)",
        ["n", "xi", "stability_probability", "xi_upper_bound"],
        _leader_share_rows(_fuel_compositions, lambda c: (c.total(),)),
        {}, None,
    ),
    "fig5": (
        "# type-fair allocation in mixed fleets of size {n}: stability "
        "probability per (n_e, rate ratio); certified when ratio >= "
        "ratio_threshold = n_f/n",
        ["n_e", "n_f", "ratio", "stability_probability", "ratio_threshold"],
        _type_fair_rows,
        {}, "epsilon_e",  # the rate ratio times epsilon_f
    ),
    "fig6": (
        "# deviation from the type-fair payoff along xi in mixed fleets of size "
        "{n}: delta per (n_e, xi); xi_star is the certified bound where delta "
        "is smallest",
        ["n_e", "n_f", "xi", "delta", "in_core", "xi_star", "delta_at_xi_star"],
        _deviation_rows,
        # the deviation sweep is about a failing ratio condition
        {"epsilon_f": 0.72}, None,
    ),
}


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> str:
    comment, columns, rows = SWEEPS[args.kind][:3]
    return _csv_text(comment.format(n=cfg.max_platoon_size), columns, rows(cfg))


# command -> (run, help, extra arguments); run returns the command's output.
COMMANDS = {
    "value": (cmd_value, "coalition value and leader type", {}),
    "allocate": (cmd_allocate, "payoffs plus core certification",
                 {"--scheme": dict(choices=SCHEMES, default="shapley")}),
    "table1": (cmd_table1, "CSV of all platoon structures", {}),
    "sweep": (cmd_sweep, "CSV experiment sweeps", {"kind": dict(choices=SWEEPS)}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonshare",
        description="Benefit allocation for mixed-energy truck platoons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, extra) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(run=run)
        command.add_argument("--config", help="flat key = value config file")
        for f in _options(name):
            command.add_argument(f.metadata["flag"], dest=f.name,
                                 type=f.metadata["convert"], help=f.metadata["help"])
        for flag, kwargs in extra.items():
            command.add_argument(flag, **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        text = args.run(cfg, args)
        if cfg.output_path:
            try:
                with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output file: {exc}") from exc
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GameError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
