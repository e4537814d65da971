"""Window materialization, file formats, and the undecided mask."""

import numpy as np
import pytest

import bruteforce as bf
from toeplitzlab import (
    Budget,
    BudgetExceeded,
    IntegerLineTower,
    NotInDomain,
    SymbolWindow,
    build_skeleton,
    materialize_window,
    window_values,
)
from toeplitzlab.window import window_levels


def _ref_window(orc, n):
    # the reference model lists values in its own domain order
    return dict(zip(orc.T.domain(n), orc.window(n)))


def test_threeadic_windows_match_reference(threeadic, oracle3):
    for n in range(5):
        vals = window_values(threeadic, n)
        lvls = window_levels(threeadic, n)
        ref = _ref_window(oracle3, n)
        dom = threeadic.tower.domain_arr(n).tolist()
        assert [int(v) for v in vals] == [ref[d] for d in dom]
        assert [int(l) for l in lvls] == [oracle3.level(d) for d in dom]


def test_frozen_level_two_window(threeadic):
    assert list(window_values(threeadic, 2)) == [1, 0, 0, 1, 1, 0, 1, 0, 0]
    assert list(window_levels(threeadic, 2)) == [0, 1, 1, 0, 2, 2, 0, 2, 2]


def test_irregular_window_matches_reference(irregular, oracle_irr):
    vals = window_values(irregular, 3)
    dom = irregular.tower.domain_arr(3).tolist()
    ref = _ref_window(oracle_irr, 3)
    assert [int(v) for v in vals] == [ref[d] for d in dom]


def test_lattice_window_matches_reference(lattice, oracle_lat):
    vals = window_values(lattice, 2)
    ref = _ref_window(oracle_lat, 2)
    dom = lattice.tower.elements(lattice.tower.domain_arr(2))
    assert [int(v) for v in vals] == [ref[d] for d in dom]


def test_undecided_cells_at_top_level():
    sk = build_skeleton(IntegerLineTower([3] * 10), 3)
    win = materialize_window(sk, 3)
    assert not win.defined_array().all()
    c = win.counts()
    assert c["undefined"] > 0
    assert c["zeros"] + c["ones"] + c["undefined"] == 27
    # one level down everything is decided
    assert materialize_window(sk, 2).defined_array().all()


def test_value_at_agrees_with_eval(threeadic):
    vals = materialize_window(threeadic, 4).values_array()
    dom = threeadic.tower.domain_arr(4).tolist()
    for idx in range(0, len(dom), 7):
        assert vals[idx] == threeadic.eval(dom[idx])


def test_bits_round_trip(tmp_path, threeadic):
    win = materialize_window(threeadic, 5)
    p = tmp_path / "w.bits"
    win.to_bits(p)
    assert SymbolWindow.from_bits(p) == win


def test_bits_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.bits"
    p.write_bytes(b"not a window file at all")
    with pytest.raises(NotInDomain):
        SymbolWindow.from_bits(p)


def test_csv_round_trip(tmp_path, centered6):
    win = materialize_window(centered6, 4)
    p = tmp_path / "w.csv"
    win.to_csv(centered6.tower, p)
    assert SymbolWindow.from_csv(centered6.tower, p) == win


def test_csv_round_trip_lattice(tmp_path, lattice):
    # lattice coordinates themselves contain commas
    win = materialize_window(lattice, 2)
    p = tmp_path / "w.csv"
    win.to_csv(lattice.tower, p)
    assert SymbolWindow.from_csv(lattice.tower, p) == win


def test_pgm_output(tmp_path, lattice, threeadic):
    win = materialize_window(lattice, 2)
    p = tmp_path / "w.pgm"
    win.to_pgm(p)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n9 9\n255\n")
    assert len(raw) == len(b"P5\n9 9\n255\n") + 81
    line = materialize_window(threeadic, 2)
    q = tmp_path / "l.pgm"
    line.to_pgm(q)
    assert q.read_bytes().startswith(b"P5\n9 1\n255\n")


def test_restrict_window(threeadic):
    # the D_2 cells of the D_4 window are the D_2 window
    T = threeadic.tower
    big = materialize_window(threeadic, 4).values_array()
    small = big[T.index_of_arr(T.domain_arr(2), 4)]
    assert SymbolWindow(2, small) == materialize_window(threeadic, 2)


def test_window_budget_is_enforced():
    sk = build_skeleton(IntegerLineTower([3] * 10), 10, Budget(window=100))
    with pytest.raises(BudgetExceeded):
        materialize_window(sk, 9)


def test_window_budget_is_checked_on_cache_hits():
    sk = build_skeleton(IntegerLineTower([3] * 10), 10)
    window_values(sk, 9)
    window_levels(sk, 9)
    sk.budget = Budget(window=100)
    with pytest.raises(BudgetExceeded):
        window_values(sk, 9)
    with pytest.raises(BudgetExceeded):
        window_levels(sk, 9)
