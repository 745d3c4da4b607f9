"""The verdicts of ``tools/paired_bench.py`` over paired runs, without running any."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

BASE = [10.0, 10.4, 10.2, 10.6, 10.1, 10.5, 10.3, 10.0, 10.4, 10.2]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_base_spread():
    faster = [b - 1.0 for b in BASE]
    v = paired_bench.verdicts(BASE, faster, "lower", 0.25)
    assert (v["wins"], v["gain"], v["bound"]) == (10, True, "held")
    # eight wins are too few, however wide the gap
    mixed = faster[:8] + [b + 1.0 for b in BASE[8:]]
    assert not paired_bench.verdicts(BASE, mixed, "lower", 0.25)["gain"]
    # ten wins by less than the base's interquartile range show nothing
    nudged = [b - 0.01 for b in BASE]
    v = paired_bench.verdicts(BASE, nudged, "lower", 0.25)
    assert v["wins"] == 10 and not v["gain"]


def test_higher_is_better_metrics_count_the_other_way():
    v = paired_bench.verdicts(BASE, [b + 1.0 for b in BASE], "higher", 0.25)
    assert (v["wins"], v["gain"], v["bound"]) == (10, True, "held")
    assert v["moved"] > 0


def test_bound_verdicts():
    assert paired_bench.verdicts(BASE, [b * 1.3 for b in BASE], "lower", 0.25)["bound"] == "worse"
    assert paired_bench.verdicts(BASE, [b * 1.2 for b in BASE], "lower", 0.25)["bound"] == "held"
    # a base spread wider than the bound leaves an unmoved median unresolved
    wide = [1.0, 2.0, 1.0, 2.0]
    assert paired_bench.verdicts(wide, wide, "lower", 0.25)["bound"] == "unresolved"
    assert paired_bench.verdicts(wide, [0.5] * 4, "lower", 0.25)["bound"] == "held"
