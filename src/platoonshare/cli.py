"""Command-line front end: one-shot queries and CSV experiment sweeps.

Subcommands: ``value``, ``allocate``, ``table1``, ``sweep``. Options may
come from a flat ``key = value`` config file; command-line flags win.
All CSV output is deterministic: same config, same bytes. Each decision is
declared once, in a table: options in ``OPTIONS``, and subcommands, schemes
and sweeps in ``COMMANDS``, ``SCHEMES`` and ``SWEEPS``. ``build_config``
resolves and checks a run's inputs once; each runner takes its checked
params and composition. ``cmd_sweep``, the one sweep driver, checks a sweep's
class budget, builds its table factory once and joins its compositions' rows.
``parse_args`` and ``usage`` read the command line and write the help from
``OPTIONS`` and ``COMMANDS`` alone, without argparse, whose import a one-shot
command would pay; each usage error is one ``error:`` line, exit code 2.
"""

from __future__ import annotations

import csv
import io
import sys
from collections import namedtuple
from itertools import chain
from typing import Optional, Sequence

from . import allocate as alloc_mod
from . import fairness, game, stability
from .errors import FleetTooLarge, GameError, InvalidInput

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

FLEET_CMDS = ("value", "allocate", "table1")  # sweeps size fleets by max_platoon_size


class ConfigError(Exception):
    """Bad config file or invalid field value; maps to exit code 2."""


class UsageError(Exception):
    """Malformed command line; maps to exit code 2."""


# One option: its name (the config key and ``args`` key), default, flag,
# converter, help text and the commands it belongs to (None: every command).
Option = namedtuple("Option", "name default flag convert help only", defaults=[None])

OPTIONS = (
    Option("epsilon_f", 0.07, "--epsilon-f", float,
           "fuel-powered follower saving rate [EUR/km]"),
    Option("epsilon_e", 0.048, "--epsilon-e", float, "electric follower saving rate [EUR/km]"),
    Option("distance", 300.0, "--distance", float, "trip distance [km]"),
    Option("n_e", 2, "--ne", int, "number of electric trucks", FLEET_CMDS),
    Option("n_f", 3, "--nf", int, "number of fuel-powered trucks", FLEET_CMDS),
    Option("max_platoon_size", 15, "--max-platoon-size", int,
           "platoon size cap (also the sweep fleet size)"),
    Option("output_path", None, "--out", str, "write output to this file instead of stdout"),
    Option("xi", None, "--xi", float, "leader share in (0, 1]", ("allocate",)),
)
CONFIG = Option("config", None, "--config", str, "flat key = value config file")


def _options(cmd: str) -> list:
    """The options ``cmd`` takes; an ``only`` of None admits every command."""
    return [o for o in OPTIONS if cmd in (o.only or (cmd,))]


def parse_config_file(path: str, command: str) -> dict:
    """Flat ``key = value`` lines, ``command``'s options only; full-line '#' comments."""
    converters = {o.name: o.convert for o in _options(command)}
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


def build_config(args: dict) -> tuple[game.SavingsParams, game.Composition]:
    """Resolve every option into ``args``, by precedence defaults < sweep
    preset < config file < flags, and return the checked ``(params, comp)``."""
    preset, swept = SWEEPS[args["kind"]][5:] if "kind" in args else ({}, None)
    values = parse_config_file(args["config"], args["command"]) if "config" in args else {}
    values.update((o.name, args[o.name]) for o in OPTIONS if args.get(o.name) is not None)
    if swept in values:
        raise ConfigError(f"sweep {args['kind']} sets {swept} itself")
    args.update({**{o.name: o.default for o in OPTIONS}, **preset, **values})
    if swept == "epsilon_e":  # fig5's rate ratio 1, whose tolerance its tables read
        args["epsilon_e"] = args["epsilon_f"]
    try:  # values the domain types reject are config errors
        params = game.SavingsParams(args["epsilon_f"], args["epsilon_e"], args["distance"],
                                    args["max_platoon_size"])
        comp = game.Composition(args["n_e"], args["n_f"])
    except InvalidInput as exc:
        raise ConfigError(str(exc)) from exc
    if args["xi"] is not None and args["scheme"] != "stable":
        raise ConfigError(f"xi applies to scheme stable only, not {args['scheme']}")
    if args["command"] in FLEET_CMDS:  # before a roster of that size is built
        params.check_fleet_size(comp.total())
    return params, comp


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


def cmd_value(params: game.SavingsParams, comp: game.Composition, args: dict) -> str:
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


def cmd_allocate(params: game.SavingsParams, comp: game.Composition, args: dict) -> str:
    scheme = args["scheme"]
    stability._check_class_cap(comp)  # before the roster: no scheme pays in fewer classes
    fleet = game.Fleet.from_composition(comp)
    allocation = SCHEMES[scheme](fleet, params, args["xi"])
    report = stability.in_core(allocation, fleet, params)
    head = f"scheme={allocation.scheme}"
    if allocation.xi is not None:
        head += f" xi={ratio6(allocation.xi)}"
    if allocation.within_bound is not None:
        head += f" within_bound={str(allocation.within_bound).lower()}"
    lines = [head] + [
        f"truck_id={i} type={fleet.types[i].code} payoff={money(allocation.payoffs[i])}"
        f" leader={str(i == allocation.leader_id).lower()}" for i in fleet.ids()
    ]
    lines += [f"total={money(allocation.total())}",
              f"core={str(report.is_member).lower()}"
              f" stability_probability={ratio6(report.stability_probability)}"]
    if report.blocking_coalitions:  # the parts live only until their join
        lines.append("blocking=" + ";".join([f"{game.block_notation(block)}x{count}"
                                             for block, count in report.blocking_coalitions]))
    if scheme == "shapley" and comp.n_e >= 1 and comp.n_f >= 1:
        lines.append(
            "core_ratio_condition="
            + str(stability.shapley_core_condition_ratio(comp, params)).lower()
            + " core_exact_condition="
            + str(stability.shapley_core_condition_exact(comp, params)).lower()
        )
    lines.append("")  # the trailing newline, with no second copy of the text
    return "\n".join(lines)


def cmd_table1(params: game.SavingsParams, comp: game.Composition, args: dict) -> str:
    structures = game.enumerate_type_structures(comp)
    # each distinct block once: its rank in notation order (small blocks
    # first, then more ETs first) with its notation, and its value
    blocks = sorted(set(chain.from_iterable(structures)), key=lambda b: (b.total(), -b.n_e))
    notation = {b: (i, game.block_notation(b)) for i, b in enumerate(blocks)}
    value = {b: game.coalition_value(b, params) for b in blocks}
    return _csv_text(
        "# columns: case_index, structure (platoon blocks), total_benefit [EUR]",
        ["case_index", "structure", "total_benefit"],
        (
            [idx, ",".join([text for _, text in sorted(map(notation.__getitem__, structure))]),
             money(sum(map(value.__getitem__, structure)))]
            for idx, structure in enumerate(structures, start=1)
        ),
    )


_XI_GRID = [i * 0.005 for i in range(1, 31)]
_RATIO_GRID = [i * 0.05 for i in range(1, 20)]
_XI_LABELS = [(ratio6(xi), xi) for xi in _XI_GRID]  # (label, value) per grid point
_RATIO_LABELS = [(ratio6(r), r) for r in _RATIO_GRID]
SWEEP_CLASS_BUDGET = 1 << 22  # 3x the classes of mixed fleets of 200, the largest pinned sweep


def _mixed_compositions(n: int):
    return (game.Composition(n_e, n - n_e) for n_e in range(1, n))


def _fuel_compositions(n: int):
    return (game.Composition(0, m) for m in range(2, n + 1))


def _probability_rows(key, points, tail):
    """One composition's rows: ``key(comp)``, then the stability probability at
    each (label, table parameter) of the list ``points``, then ``tail(comp, params)``."""

    def rows(comp: game.Composition, params: game.SavingsParams, tables) -> list:
        head, last = key(comp), ratio6(tail(comp, params))
        scan = tables(comp)
        return [[*head, label, ratio6(scan.probability(t)), last] for label, t in points]
    return rows


def _deviation_rows(comp: game.Composition, params: game.SavingsParams, tables) -> list:
    """One composition's rows: delta and the core verdict along its xi grid."""
    grid = fairness.default_xi_grid(comp, params)  # ends at xi*
    curve = fairness.deviation_curve(tables(comp), grid)
    xi_star, delta_star = ratio6(curve[-1].xi), ratio6(curve[-1].delta)
    return [[*comp, ratio6(xi), ratio6(delta), str(in_core).lower(), xi_star, delta_star]
            for xi, delta, in_core in curve]


# kind -> (comment line, header, table factory, compositions of size {n},
# rows of one composition, preset, swept field). A preset holds starting option
# values: the config file and the flags override it. The swept field, if any,
# they may not set.
SWEEPS = {
    "fig2": (
        "# leader-share allocation in mixed fleets of size {n}: stability "
        "probability per (n_e, xi); xi_upper_bound is the certified threshold",
        ["n_e", "n_f", "xi", "stability_probability", "xi_upper_bound"],
        alloc_mod.stable_tables, _mixed_compositions,
        _probability_rows(tuple, _XI_LABELS, alloc_mod.xi_upper_bound),
        {}, None,
    ),
    "fig3": (
        "# leader-share allocation in all-FPT fleets: stability probability "
        "per (fleet size n, xi); xi_upper_bound = 1/(n-1)",
        ["n", "xi", "stability_probability", "xi_upper_bound"],
        alloc_mod.stable_tables, _fuel_compositions,
        _probability_rows(lambda c: (c.total(),), _XI_LABELS, alloc_mod.xi_upper_bound),
        {}, None,
    ),
    "fig5": (
        "# type-fair allocation in mixed fleets of size {n}: stability "
        "probability per (n_e, rate ratio); certified when ratio >= "
        "ratio_threshold = n_f/n",
        ["n_e", "n_f", "ratio", "stability_probability", "ratio_threshold"],
        alloc_mod.shapley_tables, _mixed_compositions,
        _probability_rows(tuple, _RATIO_LABELS, lambda c, p: c.n_f / c.total()),
        {}, "epsilon_e",  # the rate ratio times epsilon_f
    ),
    "fig6": (
        "# deviation from the type-fair payoff along xi in mixed fleets of size "
        "{n}: delta per (n_e, xi); xi_star is the certified bound where delta "
        "is smallest",
        ["n_e", "n_f", "xi", "delta", "in_core", "xi_star", "delta_at_xi_star"],
        alloc_mod.stable_tables, _mixed_compositions, _deviation_rows,
        # the deviation sweep is about a failing ratio condition
        {"epsilon_f": 0.72}, None,
    ),
}


def cmd_sweep(params: game.SavingsParams, comp: game.Composition, args: dict) -> str:
    """The one sweep driver: check the class budget before any table is built,
    then build the factory once and join each composition's rows."""
    comment, columns, tables, compositions, rows = SWEEPS[args["kind"]][:5]
    n, classes = params.max_platoon_size, 0
    for c in compositions(n):  # each table's (n_e + 1)(n_f + 1) subset classes
        classes += (c.n_e + 1) * (c.n_f + 1)
        if classes > SWEEP_CLASS_BUDGET:
            raise FleetTooLarge(f"sweep capped at {SWEEP_CLASS_BUDGET} subset classes in all")
    scans = tables(params)  # one per sweep, shared by its fleets
    return _csv_text(comment.format(n=n), columns,
                     chain.from_iterable(rows(c, params, scans) for c in compositions(n)))


# command -> (run, help, extra arguments); run(params, comp, args) returns the
# command's output.
# An extra argument maps to its choices and default; one without a default
# is a required positional, one with a default is the flag --<name>.
COMMANDS = {
    "value": (cmd_value, "coalition value and leader type", {}),
    "allocate": (cmd_allocate, "payoffs plus core certification",
                 {"scheme": (SCHEMES, "shapley")}),
    "table1": (cmd_table1, "CSV of all platoon structures", {}),
    "sweep": (cmd_sweep, "CSV experiment sweeps", {"kind": (SWEEPS, None)}),
}


def usage(command: str) -> str:
    """One command's help, built from ``COMMANDS`` and ``OPTIONS``."""
    _, help_text, extra = COMMANDS[command]
    line = [f"[--{k} {{{','.join(c)}}}, default {d}]" if d else f"{{{','.join(c)}}}"
            for k, (c, d) in extra.items()]
    rows = "".join(f"  {o.flag + ' ' + o.convert.__name__.upper():26}{o.help}\n"
                   for o in (CONFIG, *_options(command)))
    return f"usage: {' '.join(['platoonshare', command, *line])} [options]\n  {help_text}\n{rows}"


def parse_args(argv: Sequence[str]) -> Optional[dict]:
    """Read ``argv`` by ``COMMANDS`` and ``OPTIONS``; None once help is printed.

    A flag's value follows its '=' or is the next token, whatever it looks
    like, and a repeated flag's last value wins. Raises ``UsageError``.
    """
    command = argv[0] if argv else ""
    if command in ("-h", "--help"):
        sys.stdout.write("".join(map(usage, COMMANDS)))
        return None
    if command not in COMMANDS:
        raise UsageError(f"invalid command {command!r} (choose from {', '.join(COMMANDS)})")
    run, _, extra = COMMANDS[command]
    flags = {o.flag: (o.name, o.convert) for o in (CONFIG, *_options(command))}
    flags.update((f"--{k}", (k, str)) for k, (_, d) in extra.items() if d)
    positional = [k for k, (_, d) in extra.items() if not d]
    args = {"command": command, "run": run, **{k: d for k, (_, d) in extra.items()}}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(usage(command))
            return None
        flag, eq, value = token.partition("=")
        if flag in flags:
            name, convert = flags[flag]
            value = value if eq else next(tokens, None)
            if value is None:
                raise UsageError(f"argument {flag}: expected one argument")
            try:
                args[name] = convert(value)
            except ValueError:
                raise UsageError(f"argument {flag}: invalid value: {value!r}") from None
        elif positional and token[:1] != "-":
            args[positional.pop(0)] = token
        else:
            raise UsageError(f"unrecognized arguments: {token}")
    if positional:
        raise UsageError(f"the following arguments are required: {positional[0]}")
    for k, (choices, d) in extra.items():
        if args[k] not in choices:
            raise UsageError(f"argument {'--' * bool(d)}{k}: invalid choice: {args[k]!r}"
                             f" (choose from {', '.join(choices)})")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return EXIT_OK  # help printed
        params, comp = build_config(args)
        text = args["run"](params, comp, args)
        if args["output_path"] is not None:
            try:
                with open(args["output_path"], "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output file: {exc}") from exc
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except (ConfigError, UsageError) as exc:
        label = "" if isinstance(exc, UsageError) else "config: "
        print(f"error: {label}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except GameError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
