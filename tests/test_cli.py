import contextlib
import csv
import hashlib
import io
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonshare import allocate, cli, game, stability
from platoonshare.cli import _RATIO_GRID, _XI_GRID, COMMANDS, OPTIONS, SCHEMES, SWEEPS, main, ratio6

GOLDEN = Path(__file__).parent / "golden"

TABLE_TOTALS = ["77.40", "56.40", "63.00", "56.40", "63.00", "56.40", "42.00", "42.00",
                "35.40", "42.00", "42.00", "35.40", "21.00", "21.00", "14.40", "0.00"]


def assert_usage_error(capsys, message):
    """Exit 2 already seen: nothing on stdout, one ``error:`` line naming ``message``."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    return rows[0], rows[1:]


class TestValue:
    def test_default(self, capsys):
        assert main(["value"]) == 0
        out = capsys.readouterr().out
        assert "value=77.40 leader=ET" in out

    def test_lone_fuel_truck(self, capsys):
        assert main(["value", "--ne", "0", "--nf", "1"]) == 0
        assert "value=0.00 leader=FPT" in capsys.readouterr().out

    def test_lone_electric_truck(self, capsys):
        assert main(["value", "--ne", "1", "--nf", "0"]) == 0
        assert "value=0.00 leader=ET" in capsys.readouterr().out

    def test_empty_composition(self, capsys):
        assert main(["value", "--ne", "0", "--nf", "0"]) == 0
        out = capsys.readouterr().out
        assert "value=0.00" in out
        assert "leader=" not in out

    def test_fleet_above_platoon_cap(self, capsys):
        assert main(["value", "--ne", "100", "--nf", "100"]) == 3
        captured = capsys.readouterr()
        assert "FleetTooLarge" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["value"], ["allocate", "--scheme", "shapley"]])
    def test_overflowing_worth_rejected(self, command, capsys):
        assert main([*command, "--distance", "1e308", "--epsilon-f", "10"]) == 2
        captured = capsys.readouterr()
        assert "error: config:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["value", "--epsilon-e", "1.7e308", "--distance", "1e-12", "--ne", "3"],
        ["table1", "--epsilon-e", "1e308", "--epsilon-f", "0.048",
         "--distance", "0.0699999999", "--ne", "10", "--nf", "0"],
        ["allocate", "--scheme", "even-split", "--epsilon-e", "1.7e308",
         "--epsilon-f", "1e308", "--distance", "1e-12", "--ne", "0", "--nf", "3"],
    ])
    def test_overflowing_rate_sum_rejected(self, argv, capsys):
        # below a distance of 1 the rate sums overflow first: these printed
        # inf or failed as NotEfficient
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config: max rate x")
        assert captured.out == ""

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.txt"
        assert main(["value", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config: cannot write output file:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not target.exists()


class TestAllocate:
    def test_shapley_default(self, capsys):
        assert main(["allocate", "--scheme", "shapley"]) == 0
        out = capsys.readouterr().out
        assert out.count("payoff=13.50") == 2
        assert out.count("payoff=16.80") == 3
        assert "core=true" in out
        assert "core_ratio_condition=true core_exact_condition=true" in out

    def test_stable_beyond_bound_reports_blocking(self, capsys):
        assert main(["allocate", "--scheme", "stable", "--xi", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "within_bound=false" in out
        assert "core=false" in out
        assert "blocking=" in out

    def test_stable_without_ordered_rates_has_no_bound(self, capsys):
        assert main(["allocate", "--scheme", "stable", "--xi", "0.1",
                     "--epsilon-e", "0.08"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scheme=stable xi=0.100000\n")
        assert "within_bound=" not in out

    def test_roster_beyond_the_index_range(self, capsys):
        # fails before any roster is built; sizes that fit would really allocate
        huge = ["--ne", str(10**20), "--nf", "1", "--max-platoon-size", str(10**21)]
        assert main(["allocate", *huge]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: FleetTooLarge:")
        assert captured.out == ""
        assert main(["value", *huge]) == 0

    def test_platoon_cap_checked_before_the_roster(self, monkeypatch, capsys):
        def no_roster(comp):
            raise AssertionError("roster built for a fleet above the cap")

        monkeypatch.setattr(game.Fleet, "from_composition", no_roster)
        assert main(["allocate", "--ne", "16", "--nf", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: FleetTooLarge: fleet of 17 exceeds max platoon size 15\n"
        assert captured.out == ""

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_class_cap_checked_before_the_roster(self, scheme, monkeypatch, capsys):
        # (1023 + 1)(1024 + 1) subset classes pass 2^20, and no scheme pays in fewer
        def no_roster(comp):
            raise AssertionError("roster built for a fleet above the class cap")

        monkeypatch.setattr(game.Fleet, "from_composition", no_roster)
        assert main(["allocate", "--scheme", scheme, "--ne", "1023", "--nf", "1024",
                     "--max-platoon-size", "5000"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: FleetTooLarge: scan capped at 2^20 subset classes\n"
        assert captured.out == ""

    @pytest.mark.parametrize("extra", [[], ["--xi", "0.1"]])
    def test_stable_on_one_truck_names_the_grand_coalition(self, extra, capsys):
        # the bound and the allocation refuse the fleet with one message
        assert main(["allocate", "--scheme", "stable", "--ne", "1", "--nf", "0", *extra]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: FleetTooSmall: grand coalition needs at least two trucks\n")
        assert captured.out == ""

    def test_stable_defaults_to_the_bound(self, capsys):
        assert main(["allocate", "--scheme", "stable"]) == 0
        out = capsys.readouterr().out
        assert "xi=0.186047" in out
        assert "core=true" in out
        assert "payoff=14.40" in out

    def test_shapley_on_a_fuel_only_fleet(self, capsys):
        # the ratio core conditions are defined for mixed fleets only: no line names them
        assert main(["allocate", "--scheme", "shapley", "--ne", "0", "--nf", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("payoff=14.00") == 3
        assert "core=true" in out
        assert "core_ratio_condition" not in out

    def test_deviation_min_rejected_when_condition_holds(self, capsys):
        assert main(["allocate", "--scheme", "deviation-min"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "use shapley" in err

    def test_deviation_min_in_its_regime(self, capsys):
        rc = main(["allocate", "--scheme", "deviation-min",
                   "--epsilon-f", "0.72", "--ne", "1", "--nf", "14"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheme=deviation-min" in out
        assert "core=true" in out

    def test_xi_out_of_range_is_precondition_error(self, capsys):
        assert main(["allocate", "--scheme", "stable", "--xi", "1.5"]) == 3
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("scheme", [
        [], ["--scheme", "shapley"], ["--scheme", "even-split"],
        ["--scheme", "deviation-min", "--epsilon-f", "0.72", "--ne", "1", "--nf", "14"],
    ])
    @pytest.mark.parametrize("xi", ["0.05", "0.9"])
    def test_xi_only_with_the_stable_scheme(self, scheme, xi, capsys):
        # no other scheme reads xi, so it is refused rather than dropped
        assert main(["allocate", *scheme, "--xi", xi]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config: xi applies to scheme stable only")
        assert captured.out == ""

    def test_invalid_scheme_is_usage_error(self, capsys):
        assert main(["allocate", "--scheme", "nucleolus"]) == 2
        assert_usage_error(capsys, "argument --scheme: invalid choice: 'nucleolus'")

    @pytest.mark.skipif(sys.platform != "linux", reason="max RSS read in KiB, as Linux gives it")
    def test_long_blocking_line_keeps_its_bytes_in_less_memory(self):
        # 90,295 blocking compositions: their parts are freed before the text is
        # joined, and the text is not copied again for its trailing newline. A
        # fresh process peaked at 189 MB of max RSS before, and at 139 MB since
        code = ("import resource, sys\n"
                "from platoonshare.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "sys.stdout.flush()\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
                "sys.exit(code)\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        argv = ["allocate", "--scheme", "stable", "--xi", "0.5", "--ne", "300", "--nf", "300",
                "--max-platoon-size", "600"]
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr
        assert len(done.stdout) == 38_967_634
        assert hashlib.sha256(done.stdout).hexdigest() == (
            "d79fda7a36482ca7cb41e7493eee0e2df4f359c37f1eca85f0f7b64d15cb43a1")
        assert int(done.stderr) < 150 * 1024


class TestTable:
    def test_default_matches_expected_totals(self, tmp_path):
        out_path = tmp_path / "table.csv"
        assert main(["table1", "--out", str(out_path)]) == 0
        header, rows = read_csv(out_path)
        assert header == ["case_index", "structure", "total_benefit"]
        assert len(rows) == 16
        assert [r[2] for r in rows] == TABLE_TOTALS
        assert rows[0][1] == "(EEDDD)"

    def test_pair_fleet(self, tmp_path):
        out_path = tmp_path / "pair.csv"
        assert main(["table1", "--ne", "1", "--nf", "1", "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        assert [(r[1], r[2]) for r in rows] == [("(ED)", "21.00"), ("(E),(D)", "0.00")]

    def test_two_two_fleet_row_count(self, tmp_path):
        # 9 = labeled set partitions of 4 trucks deduplicated to type level
        out_path = tmp_path / "four.csv"
        assert main(["table1", "--ne", "2", "--nf", "2", "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        assert len(rows) == 9

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["table1", "--out", str(a)]) == 0
        assert main(["table1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_values_each_distinct_block_once(self, monkeypatch, tmp_path):
        # 323 structures of 4 ET + 6 FPT hold 1,501 blocks, 34 of them distinct
        calls = []
        value = game.coalition_value
        monkeypatch.setattr(game, "coalition_value",
                            lambda comp, params: calls.append(comp) or value(comp, params))
        assert main(["table1", "--ne", "4", "--nf", "6", "--out", str(tmp_path / "t.csv")]) == 0
        assert len(calls) == len(set(calls)) == 34

    def test_structure_guard(self, capsys):
        assert main(["table1", "--ne", "6", "--nf", "6"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: FleetTooLarge: structure table capped at 10 trucks, got 12\n"

    def test_empty_composition_is_precondition_error(self, capsys):
        # a domain error, as the type-fair payoff of an empty fleet is
        assert main(["table1", "--ne", "0", "--nf", "0"]) == 3
        assert capsys.readouterr().err == "error: FleetTooSmall: need at least one truck\n"

    def test_fleet_above_platoon_cap(self, capsys):
        # 10 trucks pass the structure guard but not a platoon cap of 5
        assert main(["table1", "--ne", "4", "--nf", "6", "--max-platoon-size", "5"]) == 3
        captured = capsys.readouterr()
        assert "FleetTooLarge" in captured.err
        assert captured.out == ""


class TestSweeps:
    def test_unknown_kind_is_usage_error(self, capsys):
        assert main(["sweep", "fig9"]) == 2
        assert_usage_error(capsys, "argument kind: invalid choice: 'fig9'")

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "fig2", "--out", str(a)]) == 0
        assert main(["sweep", "fig2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("before", [["fig6"], ["fig2", "--distance", "1.7"]])
    def test_no_state_outlives_a_sweep(self, before, capsys):
        # after a sweep at other rates or another distance, in one process,
        # fig2 prints the bytes of a fresh run: its golden file
        assert main(["sweep", *before]) == 0
        capsys.readouterr()
        assert main(["sweep", "fig2"]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / "sweep_fig2.csv").read_bytes()

    def test_fig2_columns_and_certified_side(self, tmp_path):
        out_path = tmp_path / "fig2.csv"
        assert main(["sweep", "fig2", "--out", str(out_path)]) == 0
        header, rows = read_csv(out_path)
        assert header == ["n_e", "n_f", "xi", "stability_probability", "xi_upper_bound"]
        assert len(rows) == 14 * 30
        for n_e, n_f, xi, prob, bound in rows:
            assert int(n_e) + int(n_f) == 15
            if float(xi) <= float(bound):
                assert prob == "1.000000"

    def test_fig3_homogeneous(self, tmp_path):
        out_path = tmp_path / "fig3.csv"
        assert main(["sweep", "fig3", "--out", str(out_path)]) == 0
        header, rows = read_csv(out_path)
        assert header == ["n", "xi", "stability_probability", "xi_upper_bound"]
        assert len(rows) == 14 * 30
        for n, xi, prob, bound in rows:
            assert float(bound) == pytest.approx(1.0 / (int(n) - 1), abs=1e-6)
            if float(xi) <= float(bound):
                assert prob == "1.000000"

    def test_fig5_threshold(self, tmp_path):
        out_path = tmp_path / "fig5.csv"
        assert main(["sweep", "fig5", "--out", str(out_path)]) == 0
        header, rows = read_csv(out_path)
        assert header == ["n_e", "n_f", "ratio", "stability_probability", "ratio_threshold"]
        below_one = 0
        for n_e, n_f, ratio, prob, threshold in rows:
            if float(ratio) >= float(threshold):
                assert prob == "1.000000"
            if prob != "1.000000":
                below_one += 1
        assert below_one > 0

    def test_fig6_deviation(self, tmp_path):
        out_path = tmp_path / "fig6.csv"
        assert main(["sweep", "fig6", "--out", str(out_path)]) == 0
        header, rows = read_csv(out_path)
        assert header == ["n_e", "n_f", "xi", "delta", "in_core", "xi_star",
                          "delta_at_xi_star"]
        assert len(rows) == 14 * 60
        for row in rows:
            assert row[4] == "true"
            assert float(row[6]) < 1.0

    def test_fig6_preset_overridable(self, tmp_path):
        # explicit epsilon-f wins over the preset
        out_path = tmp_path / "fig6b.csv"
        assert main(["sweep", "fig6", "--epsilon-f", "0.8", "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        # xi_star for n_e=1 under eps_f=0.8: 0.048 / (0.8*14)
        assert float(rows[59][5]) == pytest.approx(0.048 / (0.8 * 14), abs=1e-6)

    def test_fig6_preset_overridden_by_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon_f = 0.8\n")
        out_path = tmp_path / "fig6c.csv"
        assert main(["sweep", "fig6", "--config", str(cfg), "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        assert float(rows[59][5]) == pytest.approx(0.048 / (0.8 * 14), abs=1e-6)
        # the flag still wins over the file
        assert main(["sweep", "fig6", "--config", str(cfg), "--epsilon-f", "0.9",
                     "--out", str(out_path)]) == 0
        _, rows = read_csv(out_path)
        assert float(rows[59][5]) == pytest.approx(0.048 / (0.9 * 14), abs=1e-6)

    def test_fig6_preset_is_validated(self, capsys):
        # 0.72 EUR/km x 1.7e307 km x 15 trucks overflows; 0.07 EUR/km does not
        assert main(["sweep", "fig6", "--distance", "1.7e307"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config:")
        assert captured.out == ""

    def test_fig6_bound_too_small_for_its_grid(self, capsys):
        # 2 ET + 13 FPT have a subnormal xi* whose 60 grid points collide; the
        # error names xi*, where it used to be about a grid never given
        assert main(["sweep", "fig6", "--epsilon-e", "1e-320"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("error: XiOutOfRange: xi* = 1.07e-321 of 2 ET + 13 FPT is too "
                                "small for 60 distinct grid points\n")
        assert captured.out == ""

    def test_fig5_at_the_same_distance_runs(self, tmp_path):
        out_path = tmp_path / "fig5.csv"
        assert main(["sweep", "fig5", "--distance", "1.7e307", "--out", str(out_path)]) == 0

    @pytest.mark.parametrize("cap", [10**6, sys.maxsize + 1])
    @pytest.mark.parametrize("kind", list(SWEEPS))
    def test_sweep_past_the_class_budget_fails_at_once(self, kind, cap, monkeypatch, capsys):
        # the class sum is checked before the first row, so no table is built
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(stability.SweepTable, "__init__", no_table)
        assert main(["sweep", kind, "--max-platoon-size", str(cap)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: FleetTooLarge: sweep capped at 4194304 subset classes in all\n")

    @pytest.mark.parametrize("kind, budget, largest", [
        *[pytest.param(k, 4194304, 2894 if k == "fig3" else 291, id=k) for k in SWEEPS],
        # 3 + 4 + 5 classes at size 4: a sum equal to the budget is admitted
        pytest.param("fig3", 12, 4, id="fig3-sum-at-the-budget"),
    ])
    def test_class_budget_admits_the_pinned_sizes(self, kind, budget, largest, monkeypatch,
                                                  capsys):
        # the sum grows with the size, so mixed fleets of 200 and fig3 at 400,
        # the largest pinned sweeps, reach their first table; the budget
        # refuses from 292 and 2,895
        class FirstTable(Exception):
            pass

        def first_table(*args, **kwargs):
            raise FirstTable

        monkeypatch.setattr(stability.SweepTable, "__init__", first_table)
        monkeypatch.setattr(cli, "SWEEP_CLASS_BUDGET", budget)
        with pytest.raises(FirstTable):
            main(["sweep", kind, "--max-platoon-size", str(largest)])
        assert main(["sweep", kind, "--max-platoon-size", str(largest + 1)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: FleetTooLarge: sweep capped at {budget} subset classes in all\n")

    @pytest.mark.parametrize("epsilon_f", ["1e-303", "7e-302"])
    def test_fig5_checks_the_rates_its_tables_read(self, epsilon_f, capsys):
        # fig5's tables hold params at epsilon_e = epsilon_f, whose money
        # tolerance underflows here, though the default epsilon_e's does not
        assert main(["sweep", "fig5", "--epsilon-f", epsilon_f]) == 2
        assert_usage_error(capsys, "config: max rate x distance is too small for a money tolerance")

    @pytest.mark.parametrize("value", ["0.01", "5"])
    def test_fig5_rejects_epsilon_e(self, value, tmp_path, capsys):
        # fig5 sets epsilon_e itself, to the rate ratio times epsilon_f
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epsilon_e = {value}\n")
        for extra in (["--epsilon-e", value], ["--config", str(cfg)]):
            assert main(["sweep", "fig5", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: config:")
            assert "epsilon_e" in captured.err
            assert captured.out == ""
        out_path = tmp_path / "fig2.csv"
        assert main(["sweep", "fig2", "--epsilon-e", "0.01", "--max-platoon-size", "4",
                     "--out", str(out_path)]) == 0


class TestParser:
    @pytest.mark.parametrize("command", [["value"], ["table1"], ["sweep", "fig2"]])
    def test_xi_only_on_allocate(self, command, capsys):
        assert main([*command, "--xi", "0.1"]) == 2
        assert_usage_error(capsys, "unrecognized arguments: --xi")

    @pytest.mark.parametrize("flag", ["--ne", "--nf"])
    def test_fleet_counts_not_on_sweep(self, flag, capsys):
        # every sweep derives its fleets from max_platoon_size alone
        assert main(["sweep", "fig3", flag, "7"]) == 2
        assert_usage_error(capsys, f"unrecognized arguments: {flag}")

    @pytest.mark.parametrize("command", ["value", "allocate", "table1", "sweep"])
    def test_help_lists_every_option(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        flags = [o.flag for o in OPTIONS if o.only is None or command in o.only]
        assert len(flags) == {"allocate": 8, "sweep": 5}.get(command, 7)
        for flag in ["--config", *flags]:
            assert flag in out.split()
        assert ("--xi" in out) == (command == "allocate")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_every_command(self, flag, capsys):
        assert main([flag]) == 0
        out = capsys.readouterr().out
        for command, (_, help_text, _) in COMMANDS.items():
            assert f"usage: platoonshare {command}" in out
            assert help_text in out
        assert all(kind in out for kind in SWEEPS) and all(s in out for s in SCHEMES)

    @pytest.mark.parametrize("value", ["-1e-05", "-inf"])
    def test_negative_looking_value_reaches_validation(self, value, capsys):
        # the token after a flag is its value, however it looks
        assert main(["value", "--distance", value]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: config: saving rates and distance must be positive\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, same", [
        (["value", "--ne", "4"], ["value", "--ne=4"]),
        (["value", "--ne", "1", "--ne", "4"], ["value", "--ne=4"]),
        (["allocate", "--scheme=stable", "--scheme", "shapley"], ["allocate"]),
        (["sweep", "--max-platoon-size", "4", "fig3"], ["sweep", "fig3", "--max-platoon-size=4"]),
        (["value", "--distance=3e2"], ["value", "--distance", "300"]),
    ])
    def test_flag_forms(self, argv, same, capsys):
        # '=' or the next token, before or after the positional; the last value wins
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(same) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("argv, message", [
        ([], "invalid command ''"),
        (["frob"], "invalid command 'frob'"),
        (["--ne", "3", "value"], "invalid command '--ne'"),
        (["value", "--dist", "300"], "unrecognized arguments: --dist"),  # no abbreviations
        (["value", "--bogus=1"], "unrecognized arguments: --bogus=1"),
        (["value", "extra"], "unrecognized arguments: extra"),
        (["sweep", "fig2", "fig3"], "unrecognized arguments: fig3"),
        (["sweep", "--", "fig2"], "unrecognized arguments: --"),
        (["allocate", "--scheme"], "argument --scheme: expected one argument"),
        (["value", "--ne"], "argument --ne: expected one argument"),
        (["value", "--ne", "x"], "argument --ne: invalid value: 'x'"),
        (["value", "--ne=1.5"], "argument --ne: invalid value: '1.5'"),
        (["value", "--distance="], "argument --distance: invalid value: ''"),
        (["sweep"], "the following arguments are required: kind"),
        (["sweep", "--max-platoon-size", "4"], "the following arguments are required: kind"),
    ])
    def test_usage_error_is_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        assert_usage_error(capsys, message)


class TestConfig:
    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# desk-scale defaults\n"
            "epsilon_f = 0.07\n"
            "epsilon_e = 0.048\n"
            "distance = 300\n"
            "n_e = 0\n"
            "n_f = 3\n"
        )
        assert main(["value", "--config", str(cfg)]) == 0
        assert "value=42.00 leader=FPT" in capsys.readouterr().out
        # flag wins over the file
        assert main(["value", "--config", str(cfg), "--ne", "2"]) == 0
        assert "value=77.40 leader=ET" in capsys.readouterr().out

    def test_byte_order_mark_skipped(self, tmp_path, capsys):
        # a config saved with a UTF-8 byte-order mark reads as without it
        text = "epsilon_f = 0.08\nn_f = 4\n".encode()
        outputs = []
        for name, data in (("plain.cfg", text), ("bom.cfg", b"\xef\xbb\xbf" + text)):
            cfg = tmp_path / name
            cfg.write_bytes(data)
            assert main(["value", "--config", str(cfg)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert main(["value"]) == 0
        assert capsys.readouterr().out != outputs[0]  # the first key was read

    def test_file_not_in_utf8_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"distance = 300\xff\n")
        assert main(["value", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config: cannot read config file:")
        assert captured.out == ""

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epsilon_g = 0.07\n")
        assert main(["value", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("distance 300\n")
        assert main(["value", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config: {cfg}:1: expected 'key = value'\n"
        assert captured.out == ""

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("distance = 300\ndistance = 600\n")
        assert main(["value", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config: {cfg}:2: duplicate key 'distance'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command, code", [
        (["value"], 2), (["table1"], 2), (["sweep", "fig2"], 2),
        (["allocate", "--scheme", "stable"], 0), (["allocate"], 2),
        (["allocate", "--scheme", "shapley"], 2), (["allocate", "--scheme", "even-split"], 2),
        (["allocate", "--scheme", "deviation-min"], 2),
    ])
    def test_xi_key_only_on_allocate(self, command, code, tmp_path, capsys):
        # like the --xi flag, the xi key belongs to allocate's stable scheme alone
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi = 0.1\n")
        assert main([*command, "--config", str(cfg)]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert "xi=0.100000" in captured.out
        else:
            assert captured.err.startswith("error: config:")
            assert captured.out == ""

    @pytest.mark.parametrize("key", ["n_e", "n_f"])
    def test_fleet_count_keys_not_on_sweep(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 7\n")
        assert main(["sweep", "fig3", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config:")
        assert f"unknown key {key!r}" in captured.err
        assert captured.out == ""
        # the fleet commands still take the key
        assert main(["value", "--config", str(cfg)]) == 0

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("distance = fast\n")
        assert main(["value", "--config", str(cfg)]) == 2

    def test_invalid_field_rejected(self, capsys):
        assert main(["value", "--distance", "-5"]) == 2
        assert "error: config:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["allocate", "--distance", "1e-315"], ["sweep", "fig2", "--distance", "1e-315"],
        ["allocate", "--distance", "1e-313", "--ne", "5", "--nf", "9"],
    ])
    def test_distance_too_small_for_a_tolerance(self, argv, capsys):
        # these used to exit 3, the library failing its own payoffs as inefficient
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config:")
        assert captured.out == ""

    @pytest.mark.parametrize("flag, value", [
        ("--epsilon-f", "nan"), ("--epsilon-e", "inf"), ("--distance", "inf"),
    ])
    def test_non_finite_flag_rejected(self, flag, value, capsys):
        assert main(["value", flag, value]) == 2
        captured = capsys.readouterr()
        assert "error: config:" in captured.err
        assert captured.out == ""

    def test_non_finite_config_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("epsilon_f = nan\n")
        assert main(["value", "--config", str(cfg)]) == 2
        assert "error: config:" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["value", "--config", "/nonexistent.cfg"]) == 2

    def test_output_path_from_config(self, tmp_path):
        target = tmp_path / "out.txt"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output_path = {target}\n")
        assert main(["value", "--config", str(cfg)]) == 0
        assert "value=77.40" in target.read_text()

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        target = tmp_path / "out#1.txt"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"  # indented comment\noutput_path = {target}\n")
        assert main(["value", "--config", str(cfg)]) == 0
        assert "value=77.40" in target.read_text()
        assert not (tmp_path / "out").exists()

    def test_trailing_comment_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("distance = 300  # km\n")
        assert main(["value", "--config", str(cfg)]) == 2
        assert "error: config:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--config="], "cannot read config file:"),
        (["--out="], "cannot write output file:"),
        (["--config", "{cfg}"], "cannot write output file:"),  # output_path =
    ])
    def test_empty_path_is_bad_input(self, argv, message, tmp_path, capsys):
        # an empty path names no file; it is neither "no config" nor stdout
        cfg = tmp_path / "run.cfg"
        cfg.write_text("output_path =\n")
        assert main(["value", *(token.format(cfg=cfg) for token in argv)]) == 2
        assert_usage_error(capsys, "error: config: " + message)

    @pytest.mark.parametrize("argv", [["value"], ["allocate"], ["table1"], ["sweep", "fig2"]])
    def test_each_run_builds_its_params_once(self, argv, monkeypatch):
        built = []
        check = game.SavingsParams._check
        monkeypatch.setattr(game.SavingsParams, "_check",
                            lambda self: built.append(self) or check(self))
        assert main(argv) == 0
        assert len(built) == 1


# Rates, distances and leader shares at and beyond the edges of float range.
EXTREME_FLOATS = ["5e-324", "1e-12", "-0.0", "0.048", "0.07", "300", "1e308", "1.7e308",
                  "nan", "inf", "-inf", "-1e-05"]


def run(argv):
    """``main(argv)`` in-process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def cli_values(draw, command, big=10):
    """Option values for ``command``, by option name: small fleets, extreme floats."""
    floats = st.one_of(st.sampled_from(EXTREME_FLOATS), st.floats().map(repr))
    values = {}
    if command != "sweep":
        values.update(n_e=str(draw(st.integers(0, 5))), n_f=str(draw(st.integers(0, 5))))
    for name in ("epsilon_f", "epsilon_e", "distance") + ("xi",) * (command == "allocate"):
        if draw(st.booleans()):
            values[name] = draw(floats)
    if draw(st.booleans()):
        values["max_platoon_size"] = str(draw(st.integers(0, big)))
    return values


@st.composite
def cli_argv(draw, big=10):
    """An argv that parses: each value as ``--flag value`` or ``--flag=value``."""
    command = draw(st.sampled_from(list(COMMANDS)))
    flags = {o.name: o.flag for o in OPTIONS}
    groups = [[f"{flags[name]}={value}"] if draw(st.booleans()) else [flags[name], value]
              for name, value in draw(cli_values(command, big)).items()]
    if command == "allocate":
        groups.append(["--scheme", draw(st.sampled_from(list(SCHEMES)))])
    if command == "sweep":  # the positional may come before, between or after the flags
        groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(list(SWEEPS)))])
    return [command, *(token for group in groups for token in group)]


@st.composite
def malformed_argv(draw):
    """A parsing argv spoiled by one usage error, and the error's text."""
    argv = draw(cli_argv())
    command = argv[0]
    others = [o.flag for o in OPTIONS if o.only and command not in o.only]
    faults = [
        ([draw(st.sampled_from(["", "frob", "Value", "fig2", "-h1", "--ne"]))] + argv[1:],
         "invalid command"),
        (argv + [draw(st.sampled_from(["--bogus", "--dist", "--e", "-x", "--out2=a"]))],
         "unrecognized arguments"),
        (argv + [draw(st.sampled_from([o.flag for o in OPTIONS]))], None),  # no value
        (argv + [draw(st.sampled_from(["--ne=1.5", "--nf=x", "--max-platoon-size=1e3"]))],
         None),  # a bad number, or a flag of another command
        (argv + ["--epsilon-f", "fast"], "argument --epsilon-f: invalid value: 'fast'"),
        (argv + [draw(st.sampled_from(["--scheme=nucleolus", "--scheme", "fig9"]))], None),
    ]
    if others:
        faults.append((argv + [draw(st.sampled_from(others)), "1"], "unrecognized arguments"))
    if command == "sweep":
        faults.append(([t if t not in SWEEPS else "fig9" for t in argv],
                       "argument kind: invalid choice: 'fig9'"))
    return draw(st.sampled_from(faults))


@given(argv=cli_argv())
@settings(max_examples=150, deadline=None)
def test_cli_contract(argv):
    # exit 0 prints no nan or inf; exit 2 or 3 prints one error line and nothing else
    code, out, err = run(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE)
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")


@given(case=malformed_argv())
@settings(max_examples=150, deadline=None)
def test_cli_contract_on_usage_errors(case):
    # a usage error: exit 2, no stdout, one error line; main never raises SystemExit
    argv, message = case
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and not err.startswith("error: config:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert message is None or message in err


@given(argv=cli_argv(big=6))
@settings(max_examples=60, deadline=None)
def test_same_argv_same_bytes(argv):
    assert run(argv) == run(argv)


@given(argv=cli_argv(big=6))
@settings(max_examples=60, deadline=None)
def test_out_writes_what_stdout_would(argv, tmp_path_factory):
    target = tmp_path_factory.mktemp("out") / "result.txt"
    code, out, err = run(argv)
    assert run([*argv, "--out", str(target)]) == (code, "", err)
    if code == 0:
        assert target.read_bytes() == out.encode()
    else:
        assert not target.exists()


@given(data=st.data(), command=st.sampled_from(list(COMMANDS)))
@settings(max_examples=60, deadline=None)
def test_config_file_gives_the_bytes_of_flags(data, command, tmp_path_factory):
    head = [command]
    if command == "sweep":
        head.append(data.draw(st.sampled_from(list(SWEEPS))))
    elif command == "allocate":
        head += ["--scheme", data.draw(st.sampled_from(list(SCHEMES)))]
    values = data.draw(cli_values(command, big=6))
    flags = {o.name: o.flag for o in OPTIONS}
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text("".join(f"{name} = {value}\n" for name, value in values.items()))
    by_flags = run([*head, *(t for n, v in values.items() for t in (flags[n], v))])
    assert run([*head, "--config", str(cfg)]) == by_flags


def verdicts(argv, out):
    """What a verdict prints: allocate's ``core=`` and ``blocking=`` lines, or a
    sweep's ``stability_probability`` column (fig6: ``in_core``)."""
    if argv[0] == "allocate":
        return [line for line in out.splitlines() if line.startswith(("core=", "blocking="))]
    header, *rows = csv.reader(line for line in out.splitlines() if line[:1] != "#")
    column = header.index("in_core" if "fig6" in argv else "stability_probability")
    return [row[column] for row in rows]


@st.composite
def scalable_argv(draw):
    """(argv, (epsilon_f, epsilon_e), distance) of an allocate or sweep run of
    at most 9 trucks."""
    if draw(st.booleans()):
        n_e = draw(st.integers(0, 9))
        n_f = draw(st.integers(0, 9 - n_e))
        argv = ["allocate", "--ne", str(n_e), "--nf", str(n_f),
                "--scheme", draw(st.sampled_from(list(SCHEMES)))]
        if argv[-1] == "stable" and draw(st.booleans()):
            argv += ["--xi", repr(draw(st.floats(0.001, 1.0)))]
    else:
        argv = ["sweep", draw(st.sampled_from(list(SWEEPS))),
                "--max-platoon-size", str(draw(st.integers(2, 9)))]
    rate = st.one_of(st.sampled_from([0.07, 0.048, 0.72]), st.floats(0.001, 1.0))
    rates = sorted([draw(rate), draw(rate)], reverse=True)  # the sweeps need eps_e < eps_f
    distance = draw(st.one_of(st.just(300.0), st.floats(1e-3, 1e6)))
    return argv, rates, distance


@given(case=scalable_argv(), k=st.integers(-30, 40), rates_scaled=st.booleans())
@settings(max_examples=100, deadline=None)
def test_verdicts_ignore_power_of_two_units(case, k, rates_scaled):
    # scaling both rates, or the distance, by 2^k is exact in floating point,
    # so no verdict may move; every rate is passed, as fig6 presets epsilon_f
    argv, rates, distance = case
    runs = []
    for scale in (0, k):
        r_scale, d_scale = (scale, 0) if rates_scaled else (0, scale)
        epsilon_f, epsilon_e = (math.ldexp(rate, r_scale) for rate in rates)
        flags = ["--epsilon-f", repr(epsilon_f), "--distance", repr(math.ldexp(distance, d_scale))]
        if "fig5" not in argv:  # fig5 sets epsilon_e itself, as a ratio of epsilon_f
            flags += ["--epsilon-e", repr(epsilon_e)]
        code, out, _ = run([*argv, *flags])
        runs.append((code, verdicts(argv, out) if code == 0 else None))
    assert runs[0] == runs[1]


@given(kind=st.sampled_from(list(SWEEPS)), cap=st.integers(2, 12),
       epsilon_f=st.floats(1e-3, 1.0), share=st.floats(0.01, 0.99),
       distance=st.floats(1e-3, 1e6))
# xi* = 0.0020000000000000005 of 1 ET + 5 FPT: a step from 0.002 is below one ulp
@example(kind="fig6", cap=6, epsilon_f=1.0, share=0.010000000000000002, distance=1.0)
@settings(max_examples=100, deadline=None)
def test_sweep_rows_read_their_tables(kind, cap, epsilon_f, share, distance):
    # at any settings each probability row is a direct read of its table, and
    # fig6 reports the bound and the delta of its curve's last point
    epsilon_e = epsilon_f * share
    flags = ["--max-platoon-size", str(cap), "--epsilon-f", repr(epsilon_f),
             "--distance", repr(distance)]
    if kind == "fig5":  # fig5 sets epsilon_e itself; its run's params hold ratio 1
        epsilon_e = epsilon_f
    else:
        flags += ["--epsilon-e", repr(epsilon_e)]
    code, out, err = run(["sweep", kind, *flags])
    assert (code, err) == (0, "")
    _, *rows = csv.reader(line for line in out.splitlines() if line[:1] != "#")
    params = game.SavingsParams(epsilon_f, epsilon_e, distance, cap)
    if kind == "fig3":
        comps = [game.Composition(0, m) for m in range(2, cap + 1)]
    else:
        comps = [game.Composition(n_e, cap - n_e) for n_e in range(1, cap)]
    if kind == "fig6":
        assert len(rows) == 60 * len(comps)
        for i, comp in enumerate(comps):
            curve = rows[60 * i:60 * (i + 1)]
            assert {(*row[:2], *row[5:]) for row in curve} == {
                (str(comp.n_e), str(comp.n_f), ratio6(allocate.xi_upper_bound(comp, params)),
                 curve[-1][3])}
        return
    if kind == "fig5":  # the table reads the rate ratio itself
        build, grid = allocate.shapley_table, _RATIO_GRID
    else:
        build, grid = allocate.stable_table, _XI_GRID
    expected = []
    for comp in comps:
        head = (comp.total(),) if kind == "fig3" else tuple(comp)
        tail = comp.n_f / comp.total() if kind == "fig5" else allocate.xi_upper_bound(comp, params)
        table = build(comp, params)
        expected += [[*map(str, head), ratio6(t), ratio6(table.probability(t)), ratio6(tail)]
                     for t in grid]
    assert rows == expected


@given(epsilon_f=st.one_of(st.sampled_from([1e-303, 7e-302, 8e-302, 0.01, 0.03125]),
                           st.floats(1e-303, 1e6)),
       distance=st.one_of(st.sampled_from([1e-315, 2e307, 1.7e308]),
                          st.floats(1e-315, 1.7e308)),
       cap=st.integers(2, 30))
@settings(max_examples=100, deadline=None)
def test_fig5_runs_iff_its_ratio_one_params_are_valid(epsilon_f, distance, cap):
    # fig5's tables read rate ratios up to 0.95 and take their money
    # tolerance from ratio 1, whose params have the largest rate and money
    # tolerance of the sweep: the run's params are those, so a run either builds every table
    # or is refused as a config error, and never fails midway
    try:
        game.SavingsParams(epsilon_f, epsilon_f, distance, cap)
        expected = 0
    except ValueError:
        expected = 2
    code, _, err = run(["sweep", "fig5", "--epsilon-f", repr(epsilon_f),
                        "--distance", repr(distance), "--max-platoon-size", str(cap)])
    assert code == expected, err


def readme_examples():
    """(command, printed line) for each README command followed by a ``# ->`` line."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    return [(cmd, want[len("# -> "):]) for cmd, want in zip(lines, lines[1:])
            if cmd.startswith("platoonshare ") and want.startswith("# -> ")]


@pytest.mark.parametrize("command, line", readme_examples())
def test_readme_examples_print_their_line(command, line):
    code, out, err = run(shlex.split(command)[1:])
    assert line in (out + err).splitlines()


def test_readme_library_example_runs():
    # the README's library example, run as written on the package under test
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert block is not None
    exec(compile(block[1], "README.md", "exec"), {})
