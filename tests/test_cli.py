import csv
from dataclasses import fields

import pytest

from platoonshare.cli import RunConfig, main

TABLE_TOTALS = ["77.40", "56.40", "63.00", "56.40", "63.00", "56.40", "42.00", "42.00",
                "35.40", "42.00", "42.00", "35.40", "21.00", "21.00", "14.40", "0.00"]


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

    def test_stable_defaults_to_the_bound(self, capsys):
        assert main(["allocate", "--scheme", "stable"]) == 0
        out = capsys.readouterr().out
        assert "xi=0.186047" in out
        assert "core=true" in out
        assert "payoff=14.40" in out

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

    def test_invalid_scheme_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["allocate", "--scheme", "nucleolus"])
        assert exc.value.code == 2


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

    def test_structure_guard(self, capsys):
        assert main(["table1", "--ne", "6", "--nf", "6"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_empty_composition_is_precondition_error(self, capsys):
        assert main(["table1", "--ne", "0", "--nf", "0"]) == 3

    def test_fleet_above_platoon_cap(self, capsys):
        # 10 trucks pass the structure guard but not a platoon cap of 5
        assert main(["table1", "--ne", "4", "--nf", "6", "--max-platoon-size", "5"]) == 3
        captured = capsys.readouterr()
        assert "FleetTooLarge" in captured.err
        assert captured.out == ""


class TestSweeps:
    def test_unknown_kind_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "fig9"])
        assert exc.value.code == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "fig2", "--out", str(a)]) == 0
        assert main(["sweep", "fig2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_fig5_at_the_same_distance_runs(self, tmp_path):
        out_path = tmp_path / "fig5.csv"
        assert main(["sweep", "fig5", "--distance", "1.7e307", "--out", str(out_path)]) == 0


class TestParser:
    @pytest.mark.parametrize("command", [["value"], ["table1"], ["sweep", "fig2"]])
    def test_xi_only_on_allocate(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--xi", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --xi" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--ne", "--nf"])
    def test_fleet_counts_not_on_sweep(self, flag, capsys):
        # every sweep derives its fleets from max_platoon_size alone
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "fig3", flag, "7"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["value", "allocate", "table1", "sweep"])
    def test_help_lists_every_option(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        flags = [f.metadata["flag"] for f in fields(RunConfig)
                 if f.metadata["only"] is None or command in f.metadata["only"]]
        assert len(flags) == {"allocate": 8, "sweep": 5}.get(command, 7)
        for flag in ["--config", *flags]:
            assert flag in out.split()
        assert ("--xi" in out) == (command == "allocate")


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

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epsilon_g = 0.07\n")
        assert main(["value", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("command, code", [
        (["value"], 2), (["table1"], 2), (["sweep", "fig2"], 2),
        (["allocate", "--scheme", "stable"], 0),
    ])
    def test_xi_key_only_on_allocate(self, command, code, tmp_path, capsys):
        # like the --xi flag, the xi key belongs to allocate alone
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
