"""Byte-for-byte regression against checked-in CLI outputs.

Each file under ``tests/golden/`` is the stdout of the listed command at
the default settings. Regenerate one with, for example,
``PYTHONPATH=src python -m platoonshare.cli sweep fig2 > tests/golden/sweep_fig2.csv``
and only when an output change is intended. ``sweep_size40.sha256`` and
``sweep_size100.sha256`` pin the four sweeps at ``--max-platoon-size`` 40
and 100 by digest, in ``sha256sum`` format, since those CSVs are large.
``sweep_settings.sha256`` pins them at ``--max-platoon-size`` 30 under
non-default rates and distances; each name is the sweep and its flags,
comma-separated.
"""

import hashlib
from pathlib import Path

import pytest

from platoonshare.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "sweep_fig2.csv": ["sweep", "fig2"],
    "sweep_fig3.csv": ["sweep", "fig3"],
    "sweep_fig5.csv": ["sweep", "fig5"],
    "sweep_fig6.csv": ["sweep", "fig6"],
    "table1.csv": ["table1"],
    "allocate_stable.txt": ["allocate", "--scheme", "stable"],
    "allocate_shapley.txt": ["allocate", "--scheme", "shapley"],
    "allocate_even-split.txt": ["allocate", "--scheme", "even-split"],
    "allocate_deviation-min.txt": ["allocate", "--scheme", "deviation-min",
                                   "--epsilon-f", "0.72", "--ne", "1", "--nf", "14"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, tmp_path):
    out_path = tmp_path / name
    assert main(GOLDEN[name] + ["--out", str(out_path)]) == 0
    assert out_path.read_bytes() == (GOLDEN_DIR / name).read_bytes()


SIZE40 = dict(line.split()[::-1]
              for line in (GOLDEN_DIR / "sweep_size40.sha256").read_text().splitlines())


@pytest.mark.parametrize("kind", sorted(SIZE40))
def test_size40_sweep_matches_digest(kind, tmp_path):
    out_path = tmp_path / f"{kind}.csv"
    assert main(["sweep", kind, "--max-platoon-size", "40", "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SIZE40[kind]


# size 100 builds larger class tables and rounding windows than size 40
SIZE100 = dict(line.split()[::-1]
               for line in (GOLDEN_DIR / "sweep_size100.sha256").read_text().splitlines())


@pytest.mark.parametrize("kind", sorted(SIZE100))
def test_size100_sweep_matches_digest(kind, tmp_path):
    out_path = tmp_path / f"{kind}.csv"
    assert main(["sweep", kind, "--max-platoon-size", "100", "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SIZE100[kind]


# tiny and huge distances and rates: money tolerances and rounding windows
# far from the defaults'
SETTINGS = dict(line.split()[::-1]
                for line in (GOLDEN_DIR / "sweep_settings.sha256").read_text().splitlines())


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_sweep_settings_match_digest(name, tmp_path):
    out_path = tmp_path / "sweep.csv"
    argv = ["sweep", *name.split(","), "--max-platoon-size", "30", "--out", str(out_path)]
    assert main(argv) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SETTINGS[name]
