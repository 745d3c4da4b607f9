"""Byte-for-byte regression against checked-in CLI outputs.

Each file under ``tests/golden/`` is the stdout of the listed command at
the default settings, apart from the flags it lists. Regenerate one with, for example,
``PYTHONPATH=src python -m platoonshare.cli sweep fig2 > tests/golden/sweep_fig2.csv``
and only when an output change is intended. ``sweep_size40.sha256``,
``sweep_size100.sha256`` and ``sweep_size200.sha256`` pin the four sweeps at
``--max-platoon-size`` 40, 100 and 200 by digest, in ``sha256sum`` format,
since those CSVs are large.
``sweep_settings.sha256`` pins them at ``--max-platoon-size`` 30 under
non-default rates and distances; each name is the sweep and its flags,
comma-separated. The fig2, fig3 and fig5 cells, every fig2, fig3 and fig5
cell at size 40, and fig6's in_core column at size 40 are also recomputed
from each subset class's closed-form excess, and fig6's delta column at size
40 from the closed-form pays, in exact arithmetic.
"""

import csv
import hashlib
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from platoonshare import Composition, SavingsParams, default_xi_grid
from platoonshare.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "sweep_fig2.csv": ["sweep", "fig2"],
    "sweep_fig3.csv": ["sweep", "fig3"],
    "sweep_fig5.csv": ["sweep", "fig5"],
    "sweep_fig6.csv": ["sweep", "fig6"],
    "table1.csv": ["table1"],
    "table1_ne4_nf6.csv": ["table1", "--ne", "4", "--nf", "6"],
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


# sizes 100 and 200 count larger classes, with longer rows, than size 40
SIZE100 = dict(line.split()[::-1]
               for line in (GOLDEN_DIR / "sweep_size100.sha256").read_text().splitlines())
SIZE200 = dict(line.split()[::-1]
               for line in (GOLDEN_DIR / "sweep_size200.sha256").read_text().splitlines())


@pytest.mark.parametrize("kind", sorted(SIZE100))
def test_size100_sweep_matches_digest(kind, tmp_path):
    out_path = tmp_path / f"{kind}.csv"
    assert main(["sweep", kind, "--max-platoon-size", "100", "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SIZE100[kind]


@pytest.mark.parametrize("kind", sorted(SIZE200))
def test_size200_sweep_matches_digest(kind, tmp_path):
    out_path = tmp_path / f"{kind}.csv"
    assert main(["sweep", kind, "--max-platoon-size", "200", "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SIZE200[kind]


# tiny and huge distances and rates: money tolerances and excesses far from
# the defaults'
SETTINGS = dict(line.split()[::-1]
                for line in (GOLDEN_DIR / "sweep_settings.sha256").read_text().splitlines())


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_sweep_settings_match_digest(name, tmp_path):
    out_path = tmp_path / "sweep.csv"
    argv = ["sweep", *name.split(","), "--max-platoon-size", "30", "--out", str(out_path)]
    assert main(argv) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SETTINGS[name]



DEFAULT = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=300.0)


def _leader_out_excess(e, f, xi, ee, ef):
    """Excess per km of a class of e follower ETs and f follower FPTs under
    x(xi), an ET leading when one is present: xi*(e*ee + f*ef) - ee, or
    ef*(xi*f - 1) with no ET. It names no fleet, and it grows with xi."""
    return xi * (e * ee + f * ef) - ee if e else ef * (xi * f - 1)


def _exact(params):
    """The rates, distance and money tolerance of ``params`` as exact Fractions."""
    return (*map(Fraction, (params.epsilon_e, params.epsilon_f, params.distance)),
            Fraction(params.money_tol()))


def _leader_share_cells(kind, size):
    """fig2 (mixed fleets of ``size``) or fig3 (FPT fleets up to ``size``)
    rows: x(xi) leaves the leader's subsets out, since they never block. A
    class's excess names no fleet, so each class's verdict is found once per
    xi and serves every composition."""
    ee, ef, dist, tol = _exact(DEFAULT)
    blocking = []  # per xi: the leader-out classes (e, f) that block
    for i in range(1, 31):
        xi = Fraction(i * 0.005)
        blocking.append([(e, f) for e in range(size) for f in range(size - e)
                         if (e or f) and dist * _leader_out_excess(e, f, xi, ee, ef) > tol])
    if kind == "fig2":
        compositions = [(n_e, size - n_e) for n_e in range(1, size)]
    else:
        compositions = [(0, n) for n in range(2, size + 1)]
    for n_e, n_f in compositions:
        m_e, m_f = (n_e - 1, n_f) if n_e else (0, n_f - 1)
        key = (n_e, n_f) if kind == "fig2" else (n_f,)
        for i, classes in enumerate(blocking, 1):
            count = sum(comb(m_e, e) * comb(m_f, f) for e, f in classes)
            yield [*key, i * 0.005], n_e + n_f, count


def _type_fair_cells(n):
    """fig5 rows in mixed fleets of ``n``: under the type-fair payoff only
    classes of 1 <= e < n_e ETs can block, so only they are visited, with
    excess per km ee*(e/n_e - 1) - ef*e*n_f/(n*n_e) + ef*f/n, a term in e and
    one in f."""
    for n_e in range(1, n):
        n_f = n - n_e
        for i in range(1, 20):
            ee, ef, dist, tol = _exact(DEFAULT._replace(epsilon_e=i * 0.05 * DEFAULT.epsilon_f))
            in_f = [ef * Fraction(f, n) for f in range(n_f + 1)]
            blocking = 0
            for e in range(1, n_e):  # a class blocks if its f term exceeds rest
                rest = tol / dist - ee * (Fraction(e, n_e) - 1) + ef * Fraction(e * n_f, n * n_e)
                blocking += comb(n_e, e) * sum(comb(n_f, f) for f, term in enumerate(in_f)
                                               if term > rest)
            yield [n_e, n_f, i * 0.05], n, blocking


def _leader_share_in_core_cells(size):
    """fig6's (n_e, n_f, xi, in_core) cells along each mixed fleet's
    ``default_xi_grid`` under the ``epsilon_f = 0.72`` preset. A leader-out
    class blocks once xi passes the root of dist*excess = tol, its excess
    being affine and increasing in xi, so x(xi) is in the core iff xi is at
    most the smallest of its classes' roots."""
    params = DEFAULT._replace(epsilon_f=0.72)
    ee, ef, dist, tol = _exact(params)

    def root(e, f):
        at0 = _leader_out_excess(e, f, 0, ee, ef)
        return (tol / dist - at0) / (_leader_out_excess(e, f, 1, ee, ef) - at0)

    for n_e in range(1, size):
        n_f = size - n_e
        bound = min(root(e, f) for e in range(n_e) for f in range(n_f + 1) if e or f)
        for xi in default_xi_grid(Composition(n_e, n_f), params):
            yield [str(n_e), str(n_f), f"{xi:.6f}", str(Fraction(xi) <= bound).lower()]


def _deviation_cells(size):
    """fig6's (n_e, n_f, xi, delta) cells along each mixed fleet's
    ``default_xi_grid`` under the ``epsilon_f = 0.72`` preset: delta is the
    mean of |phi - x|/phi over the trucks, phi the closed-form type-fair pays
    and x(xi) the leader-share ones, each truck of a role alike."""
    ee, ef, dist, _ = _exact(DEFAULT._replace(epsilon_f=0.72))
    for n_e in range(1, size):
        n_f = size - n_e
        phi_e = ((1 - Fraction(1, n_e)) * ee + Fraction(n_f, size * n_e) * ef) * dist
        phi_f = (1 - Fraction(1, size)) * ef * dist
        total = (ee * (n_e - 1) + ef * n_f) * dist  # an ET leads
        for xi in default_xi_grid(Composition(n_e, n_f), DEFAULT._replace(epsilon_f=0.72)):
            x = Fraction(xi)
            gaps = (abs(phi_e - x * total) / phi_e + (n_e - 1) * abs(phi_e - (1 - x) * ee * dist)
                    / phi_e + n_f * abs(phi_f - (1 - x) * ef * dist) / phi_f)
            yield [str(n_e), str(n_f), f"{xi:.6f}", f"{float(gaps / size):.6f}"]


CELLS = {
    "sweep_fig2.csv": lambda: _leader_share_cells("fig2", 15),
    "sweep_fig3.csv": lambda: _leader_share_cells("fig3", 15),
    "sweep_fig5.csv": lambda: _type_fair_cells(15),
}


def _check_cells(rows, cells):
    """The key columns and the stability probability of each row."""
    expected = [[*map(str, key[:-1]), f"{key[-1]:.6f}", f"{1.0 - blocking / ((1 << n) - 2):.6f}"]
                for key, n, blocking in cells]
    assert [row[:len(want)] for row, want in zip(rows, expected)] == expected
    assert len(rows) == len(expected)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_cells_from_closed_form_excesses(name):
    # no table or class scan: each row from the blocking classes alone
    with open(GOLDEN_DIR / name, newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    _check_cells(rows, CELLS[name]())


@pytest.mark.parametrize("kind", ["fig2", "fig3", "fig5", "fig6"])
def test_size40_cells_from_closed_form_excesses(kind, tmp_path):
    # all 1170 cells of each leader-share sweep at size 40, fig5's 741 cells,
    # and the in_core and delta columns of fig6's 2,340
    out_path = tmp_path / f"{kind}.csv"
    assert main(["sweep", kind, "--max-platoon-size", "40", "--out", str(out_path)]) == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    if kind == "fig6":
        expected = list(_leader_share_in_core_cells(40))
        assert [[*row[:3], row[4]] for row in rows] == expected
        assert len(expected) == 2340
        assert [row[:4] for row in rows] == list(_deviation_cells(40))
    else:
        _check_cells(rows, _type_fair_cells(40) if kind == "fig5"
                     else _leader_share_cells(kind, 40))
