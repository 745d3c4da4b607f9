"""The oracles live in one module that the CLI never loads, nor dataclasses or argparse.

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


# The cold CLI path, as CI checks it on the installed package: neither the
# oracles nor dataclasses, which brings inspect and the code it generates,
# nor argparse, which brings gettext and, at its first message, locale.
COLD_IMPORT = ("import platoonshare.cli, sys; "
               "loaded = {'argparse', 'gettext', 'locale', 'dataclasses', 'inspect', "
               "'platoonshare.oracles'} & set(sys.modules); "
               "assert not loaded, loaded")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    src = str(Path(platoonshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_cli_never_loads_the_oracles():
    done = run_fresh(FRESH_PROCESS)
    assert done.returncode == 0, done.stderr


def test_cold_cli_import_is_lean():
    done = run_fresh(COLD_IMPORT)
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
    assert len(scans) == 1
