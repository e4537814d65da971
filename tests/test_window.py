"""Window materialization, file formats, and the undecided mask."""

import functools

import numpy as np
import pytest

import bruteforce as bf
from conftest import relabelled_cyclic, s3_by_z
from toeplitzlab import (
    Budget,
    BudgetExceeded,
    IntegerLatticeTower,
    IntegerLineTower,
    NotInDomain,
    STYLE_CENTERED,
    SymbolWindow,
    Undefined,
    build_skeleton,
    build_tower,
    materialize_window,
    preset_config,
    tower,
    window_values,
)
from toeplitzlab.window import level_scan, window_levels


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


# (tower, skeleton depth); a tower deeper than the skeleton also has its
# window one level past the depth, where cells go undefined
ORACLE_INSTANCES = {
    "threeadic": lambda: (build_tower(preset_config("threeadic")), 6),
    "centered6": lambda: (IntegerLineTower([3] * 6, style=STYLE_CENTERED), 6),
    "centered6-d5": lambda: (IntegerLineTower([3] * 6, style=STYLE_CENTERED),
                             5),
    "lattice": lambda: (IntegerLatticeTower([[3, 3, 3], [3, 3, 3]]), 3),
    "lattice-d2": lambda: (IntegerLatticeTower([[3, 3, 3], [3, 3, 3]]), 2),
    "generic": lambda: (relabelled_cyclic([3] * 6, 1)[0], 6),
    "s3_by_z": lambda: (s3_by_z(5), 5),
    "s3_by_z-d4": lambda: (s3_by_z(5), 4),
}


def _assert_eval_oracle(sk, n):
    """The D_n windows against scalar eval and level_of, cell by cell."""
    T = sk.tower
    dom = T.elements(T.domain_arr(n))
    vals, lvls = window_values(sk, n), window_levels(sk, n)
    assert vals.dtype == np.uint8 and lvls.dtype == np.int16
    want = [sk.eval(g) for g in dom]
    assert vals.tolist() == [255 if v is Undefined else v for v in want], n
    want = [sk.level_of(g) for g in dom]
    assert lvls.tolist() == [-1 if v is None else v for v in want], n


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
def test_windows_agree_with_scalar_eval(monkeypatch, name, chunk):
    T, depth = ORACLE_INSTANCES[name]()
    sk = build_skeleton(T, depth)
    if chunk is not None:
        monkeypatch.setattr(tower, "CHUNK", chunk)
    for n in range(min(depth + 1, T.depth) + 1):
        _assert_eval_oracle(sk, n)


@functools.cache
def _irregular_d4_scan():
    # level_scan over D_4 at the default chunk size, read before any test
    # changes it
    sk = build_skeleton(build_tower(preset_config("irregular-demo")), 4)
    return np.concatenate([level_scan(sk, g)
                           for _, g in tower.domain_chunks(sk.tower, 4)])


@pytest.mark.parametrize("chunk", [None, 7])
def test_irregular_windows_agree_with_eval_and_the_level_scan(monkeypatch,
                                                              chunk):
    scan = _irregular_d4_scan()
    sk = build_skeleton(build_tower(preset_config("irregular-demo")), 4)
    if chunk is not None:
        monkeypatch.setattr(tower, "CHUNK", chunk)
    for n in range(4):
        _assert_eval_oracle(sk, n)
    vals = window_values(sk, 4)
    assert vals.dtype == scan.dtype and np.array_equal(vals, scan)
