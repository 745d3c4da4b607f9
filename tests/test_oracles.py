"""The oracles live in one module that the CLI never loads.

The package and ``allocate`` re-export oracle names lazily, and
``in_core(method="slow")`` loads the labeled scan only when asked.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import platoonshare
from platoonshare import Composition, Fleet, in_core, stable_allocation

# Runs in a fresh interpreter, so no other test has loaded the oracles yet.
FRESH_PROCESS = """
import contextlib, io, sys
import platoonshare.cli as cli

assert "platoonshare.oracles" not in sys.modules, "import platoonshare.cli"
for argv in (["value"], ["allocate"], ["sweep", "fig3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "platoonshare.oracles" not in sys.modules, argv

import platoonshare
first_use = platoonshare.shapley_bruteforce
oracles = sys.modules["platoonshare.oracles"]
assert first_use is oracles.shapley_bruteforce
assert platoonshare.allocate.shapley_bruteforce is oracles.shapley_bruteforce
"""


def test_cli_never_loads_the_oracles():
    src = str(Path(platoonshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", FRESH_PROCESS], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_public_oracle_names_resolve_to_the_oracles_module():
    from platoonshare import oracles

    for name in ("check_superadditivity", "coalition_value_with_leader",
                 "labeled_partitions", "shapley_bruteforce", "structure_value"):
        assert getattr(platoonshare, name) is getattr(oracles, name)
    assert platoonshare.allocate.shapley_bruteforce is oracles.shapley_bruteforce


def test_unknown_names_still_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        platoonshare.no_such_name
    assert not hasattr(platoonshare, "no_such_name")
    assert not hasattr(platoonshare.allocate, "no_such_name")


def test_slow_method_takes_the_labeled_scan(monkeypatch, params):
    from platoonshare import oracles

    fleet = Fleet.from_composition(Composition(3, 4))
    alloc = stable_allocation(fleet, params, 0.5)  # beyond the bound: it blocks
    labeled, scans = oracles.labeled_violations, []

    def spy(*args):
        scans.append(args)
        return labeled(*args)

    monkeypatch.setattr(oracles, "labeled_violations", spy)
    slow = in_core(alloc, fleet, params, method="slow")
    assert len(scans) == 1
    assert not slow.is_member
    assert slow == in_core(alloc, fleet, params)
    in_core(alloc, fleet, params, method="fast")
    assert len(scans) == 1
