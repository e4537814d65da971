"""Window materialization, file formats, and the undecided mask."""

import functools

import numpy as np
import pytest

import bruteforce as bf
from conftest import relabelled_cyclic, s3_by_z
from toeplitzlab import (
    Budget,
    BudgetExceeded,
    DepthExceeded,
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
from toeplitzlab import window
from toeplitzlab.verify import _defined
from toeplitzlab.window import eval_arr, eval_sums, window_levels


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
    assert (win.values_array() == 255).any()
    c = win.counts()
    assert c["undefined"] > 0
    assert c["zeros"] + c["ones"] + c["undefined"] == 27
    # one level down everything is decided
    assert materialize_window(sk, 2).counts()["undefined"] == 0


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


def test_bits_rejects_a_payload_of_the_wrong_size(tmp_path, threeadic):
    # the D_5 file is 16 + 2 * 31 = 78 bytes; cut by 20 it read back as 243
    # cells, 155 of them undefined
    p = tmp_path / "w.bits"
    materialize_window(threeadic, 5).to_bits(p)
    raw = p.read_bytes()
    assert len(raw) == 78
    for bad in (raw[:-20], raw[:-1], raw + b"\0", raw[:10]):
        p.write_bytes(bad)
        with pytest.raises(NotInDomain):
            SymbolWindow.from_bits(p)


def test_pgm_output(tmp_path, lattice, threeadic):
    win = materialize_window(lattice, 2)
    p = tmp_path / "w.pgm"
    win.to_pgm(lattice.tower, p)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n9 9\n255\n")
    assert len(raw) == len(b"P5\n9 9\n255\n") + 81
    line = materialize_window(threeadic, 2)
    q = tmp_path / "l.pgm"
    line.to_pgm(threeadic.tower, q)
    assert q.read_bytes().startswith(b"P5\n9 1\n255\n")


def test_pgm_of_a_window_read_back_from_bits_keeps_its_grid(tmp_path,
                                                            lattice):
    # the bits file holds no shape; the window drew as an 81 x 1 strip once
    # read back, while the tower gives D_2's 9 x 9 grid
    win = materialize_window(lattice, 2)
    win.to_bits(tmp_path / "w.bits")
    back = SymbolWindow.from_bits(tmp_path / "w.bits")
    assert back == win
    for w, name in ((win, "a.pgm"), (back, "b.pgm")):
        w.to_pgm(lattice.tower, tmp_path / name)
    raw = (tmp_path / "b.pgm").read_bytes()
    assert raw.startswith(b"P5\n9 9\n255\n")
    assert raw == (tmp_path / "a.pgm").read_bytes()


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


def _scanning(T, depth):
    """A skeleton whose eval_arr scans the levels: its budget refuses every
    window but the one-cell D_0's."""
    return build_skeleton(T, depth, Budget(window=1))


@functools.cache
def _irregular_d4_scan():
    # the level scan over D_4 at the default chunk size, read before any
    # test changes it
    sk = _scanning(build_tower(preset_config("irregular-demo")), 4)
    return np.concatenate([eval_arr(sk, g)
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


# (tower, skeleton depth) on which eval_arr is checked
EVAL_INSTANCES = {
    "threeadic": lambda: (build_tower(preset_config("threeadic")), 10),
    "centered6": lambda: (IntegerLineTower([3] * 6, style=STYLE_CENTERED), 6),
    "irregular-demo": lambda: (build_tower(preset_config("irregular-demo")),
                               5),
    "lattice": lambda: (IntegerLatticeTower([[3, 3, 3], [3, 3, 3]]), 3),
    "generic": lambda: (relabelled_cyclic([3] * 6, 1)[0], 6),
    "s3_by_z": lambda: (s3_by_z(5), 5),
}


def _eval_probes(T, depth):
    """Runs of 40 elements in D_{depth-1} and in D_depth: the last one and
    three at seeded places.  Then the sums of the D_depth runs with
    themselves reversed, which leave D_depth on the line and the lattice."""
    rng = np.random.default_rng(0)
    inner, top = [np.concatenate([T.domain_arr(n, s, s + 40) for s in (
        *rng.integers(0, T.size(n) - 40, size=3), T.size(n) - 40)])
                  for n in (depth - 1, depth)]
    return inner, top, T.add_arr(top, top[::-1])


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("name", sorted(EVAL_INSTANCES))
def test_eval_arr_agrees_with_the_level_scan(monkeypatch, name, chunk):
    T, depth = EVAL_INSTANCES[name]()
    parts = _eval_probes(T, depth)
    sk = build_skeleton(T, depth)
    wants = [np.array([255 if v is Undefined else v
                       for v in map(sk.eval, T.elements(g))], dtype=np.uint8)
             for g in parts]
    # no level below depth settles J(depth), which the last run of D_depth
    # meets; D_{depth-1} is settled
    assert not (wants[0] == 255).any() and (wants[1] == 255).any()
    with pytest.raises(DepthExceeded):
        _defined(wants[1])
    if chunk is not None:
        monkeypatch.setattr(tower, "CHUNK", chunk)
    reads, pieces = [], {"window": 0, "scan": 0}
    real_values, real_eval = window.window_values, window.eval_arr

    def values(sk, n):
        reads.append(n)
        return real_values(sk, n)

    def counted(sk, g):
        before = len(reads)
        out = real_eval(sk, g)
        pieces["window" if len(reads) > before else "scan"] += 1
        return out

    monkeypatch.setattr(window, "window_values", values)
    monkeypatch.setattr(window, "eval_arr", counted)
    # the default budget, one that refuses D_depth's window, and the scan
    counts = []
    for budget in (Budget(), Budget(window=T.size(depth - 1)),
                   Budget(window=1)):
        sk = build_skeleton(T, depth, budget)
        pieces.update(window=0, scan=0)
        for g, want in [*zip(parts, wants),
                        (np.concatenate(parts), np.concatenate(wants))]:
            for got in (counted(sk, g),
                        eval_sums(sk, g, T.array([T.zero]))[:, 0]):
                assert got.dtype == np.uint8 and np.array_equal(got, want)
        counts.append(dict(pieces))
    # a piece inside a window the budget allows reads it, and one that
    # leaves every such window is scanned, never refused
    assert counts[0]["window"] and counts[1]["scan"]
    assert counts[2]["window"] == 0


def _csv_one_row_per_cell(win, T):
    """The csv that to_csv writes, one formatted row per cell."""
    rows = [f"# level={win.level}\n# cells={win.n_cells}\n"]
    for g, v in zip(T.elements(T.domain_arr(win.level)),
                    win.values_array().tolist()):
        rows.append(f"{T.format_element(g)},{'?' if v == 255 else v}\n")
    return "".join(rows).encode()


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
def test_csv_files_are_one_row_per_cell_and_read_back(tmp_path, monkeypatch,
                                                      name, chunk):
    T, depth = ORACLE_INSTANCES[name]()
    sk = build_skeleton(T, depth)
    if chunk is not None:
        monkeypatch.setattr(tower, "CHUNK", chunk)
    p = tmp_path / "w.csv"
    for n in range(min(depth + 1, T.depth) + 1):
        win = materialize_window(sk, n)
        win.to_csv(T, p)
        assert p.read_bytes() == _csv_one_row_per_cell(win, T), n
        assert SymbolWindow.from_csv(T, p) == win, n
        # rows may come in any order, with CRLF line ends (text mode writes
        # them on Windows) and without a final one
        lines = p.read_text().splitlines()
        p.write_bytes("\r\n".join(lines[:2] + lines[:1:-1]).encode())
        assert SymbolWindow.from_csv(T, p) == win, n


def _edit_rows(edit):
    """A change to the rows (lines past the header) of a csv file."""
    def apply(lines):
        rows = lines[2:]
        edit(rows)
        return lines[:2] + rows
    return apply


MALFORMED_CSV = {
    # each of these read silently, or raised something else, before
    "repeated row": (_edit_rows(lambda r: r.__setitem__(3, r[2])), "twice"),
    "symbol 2": (_edit_rows(lambda r: r.__setitem__(2, "2,2")),
                 "symbol 0, 1 or"),
    "symbol -1": (_edit_rows(lambda r: r.__setitem__(2, "2,-1")),
                  "symbol 0, 1 or"),
    "coordinate past int64": (
        _edit_rows(lambda r: r.__setitem__(2, "99999999999999999999,0")),
        "element outside D_2"),
    "level not an integer": (lambda l: ["# level=two"] + l[1:],
                             "malformed window header"),
    "cells not |D_n|": (lambda l: [l[0], "# cells=8"] + l[2:10],
                        "malformed window header"),
    "level past the tower": (lambda l: ["# level=9"] + l[1:],
                             "malformed window header"),
    "comment after a row": (_edit_rows(lambda r: r.insert(4, "# note")),
                            "symbol 0, 1 or"),
    "blank line": (_edit_rows(lambda r: r.insert(4, "")), "symbol 0, 1 or"),
    "two coordinates": (_edit_rows(lambda r: r.__setitem__(2, "2,0,1")),
                        "symbol 0, 1 or"),
    # these raised NotInDomain before, with the same message
    "missing row": (_edit_rows(lambda r: r.pop()), "malformed window header"),
    "no level": (lambda l: l[1:], "malformed window header"),
    "element outside D_n": (_edit_rows(lambda r: r.__setitem__(2, "9,0")),
                            "element outside D_2"),
    "not an element": (_edit_rows(lambda r: r.__setitem__(2, "x,0")),
                       "'x' is not a group element"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
def test_csv_reader_refuses_malformed_files(tmp_path, threeadic5, case):
    edit, message = MALFORMED_CSV[case]
    p = tmp_path / "w.csv"
    materialize_window(threeadic5, 2).to_csv(threeadic5.tower, p)
    p.write_text("\n".join(edit(p.read_text().splitlines())) + "\n")
    with pytest.raises(NotInDomain, match=message):
        SymbolWindow.from_csv(threeadic5.tower, p)


def test_csv_reader_refuses_labels_outside_the_group(tmp_path):
    T = relabelled_cyclic([3] * 6, 1)[0]
    sk = build_skeleton(T, 6)
    p = tmp_path / "w.csv"
    materialize_window(sk, 6).to_csv(T, p)
    text = p.read_text()
    for label in (-1, 734):
        p.write_text(text.replace("\n728,", f"\n{label},"))
        with pytest.raises(NotInDomain, match="element outside D_6"):
            SymbolWindow.from_csv(T, p)
