"""Whole-domain passes read D_n in pieces of tower.CHUNK elements.

The chunk size must not change a result: the verify table, the J-sets by
both routes, the windows, scalar eval (whose table the chunk caps) and
every broken tower's witness are the same at any chunk size.  And the passes must keep their memory within the chunk:
on irregular-demo, where |D_4| = 3,720,465, the largest checks and the D_4
window stay far below the sizes their whole-domain temporaries had.
"""

import ast
import functools
import tracemalloc

import numpy as np
import pytest

from conftest import cyclic_generic, relabelled_cyclic
from test_crosskind import _draws
from test_tower import _BadSectionTower
from toeplitzlab import (IntegerLatticeTower, SymbolWindow, build_skeleton,
                         build_tower, j_set, j_set_recursive,
                         materialize_window, preset_config, tower)
from toeplitzlab.verify import REGISTRY_NAMES, run_all, run_check
from toeplitzlab.window import window_levels

INSTANCES = {
    # |D_3| = 29,295: 30 chunks of 1000
    "irregular-demo": lambda: (build_tower(preset_config("irregular-demo")), 3),
    "threeadic": lambda: (build_tower(preset_config("threeadic")), 6),
    "lattice": lambda: (IntegerLatticeTower([[3, 3, 3], [3, 3, 3]]), 3),
    "generic": lambda: (relabelled_cyclic([3] * 6, 1)[0], 6),
}


def _bad_at(pair, corrupt):
    """[3, 3, 3] with only the section of pair passed through corrupt: the
    consecutive tilings hold, so decom sees the fault in the section."""
    return lambda: _BadSectionTower(
        [3, 3, 3], lambda sec, i, j: corrupt(sec) if (i, j) == pair else sec)


# "<reason>" or "<reason> at <pair>": the reason decom reports, and the
# pair when a section alone is corrupted
BROKEN = {
    "tiling overlaps": lambda: _BadSectionTower(
        [3, 3], lambda sec, i, j: sec[:-1] + sec[:1]),
    "tiling misses D_j": lambda: _BadSectionTower(
        [3, 3], lambda sec, i, j: sec[:-1] + [sec[-1] + 9]),
    "repeated element in D_n": lambda: cyclic_generic(
        [2, 4], domains=[[0], [0, 1], [0, 1, 2, 3, 4, 5, 6, 6]]),
    "domains not nested": lambda: cyclic_generic(
        [2, 2, 2], domains=[[0], [0, 3], [0, 1, 2, 7], list(range(8))]),
    # the repeat sits 26 elements after the first 0, chunks apart at 7
    "tiling overlaps at (0, 3)": _bad_at((0, 3), lambda s: s[:-1] + s[:1]),
    "tiling misses D_j at (0, 3)": _bad_at(
        (0, 3), lambda s: s[:-1] + [s[-1] + 27]),
    # 25 lies in D_3 but not in 3Z
    "section leaves Gamma_i at (1, 3)": _bad_at(
        (1, 3), lambda s: s[:-1] + [s[-1] + 1]),
    # 4 leaves 3Z in the first chunk of 7, 51 leaves D_3 in the second:
    # leaving D_j is reported first over the whole section
    "tiling misses D_j at (1, 3)": _bad_at(
        (1, 3), lambda s: s[:1] + [s[1] + 1] + s[2:-1] + [s[-1] + 27]),
}


def _results(name):
    """verify all's JSON without times, both J-set routes at every level,
    the window at every level, and scalar eval at seeded points, for a
    fresh build of the instance."""
    T, depth = INSTANCES[name]()
    sk = build_skeleton(T, depth)
    report = run_all(sk).to_json()
    for row in report["results"]:
        row.pop("millis")
    jsets = [(j_set(T, n), j_set_recursive(T, n)) for n in range(1, depth + 1)]
    windows = [materialize_window(sk, n) for n in range(depth + 1)]
    evals = [sk.eval(g) for g in _draws(T, depth, 300)]
    return report, jsets, windows, evals


@functools.cache
def _default(name):
    return _results(name)


@pytest.mark.parametrize("chunk", [7, 1000])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_chunk_size_changes_no_result(monkeypatch, name, chunk):
    want = _default(name)
    monkeypatch.setattr(tower, "CHUNK", chunk)
    report, jsets, windows, evals = _results(name)
    assert report == want[0]
    for (a, b), (wa, wb) in zip(jsets, want[1], strict=True):
        for got, exp in ((a, wa), (b, wb)):
            assert got.dtype == exp.dtype and np.array_equal(got, exp)
    assert windows == want[2]
    assert evals == want[3]


@pytest.mark.parametrize("chunk", [7, 1000])
@pytest.mark.parametrize("label", sorted(BROKEN))
def test_chunk_size_keeps_every_broken_tower_witness(monkeypatch, label,
                                                     chunk):
    want = tower.validate_tower(BROKEN[label]()).counterexample
    reason, _, pair = label.partition(" at ")
    assert want["reason"] == reason
    if pair:
        assert want["pair"] == ast.literal_eval(pair)
    monkeypatch.setattr(tower, "CHUNK", chunk)
    assert tower.validate_tower(BROKEN[label]()).counterexample == want


def test_a_corrupted_section_names_a_real_counterexample():
    # the element a section fault names breaks the axiom its reason states
    def fault(label):
        T = BROKEN[label]()
        i, j = ast.literal_eval(label.partition(" at ")[2])
        g = tower.validate_tower(T).counterexample["element"]
        return T, T.section_arr(i, j).tolist(), g

    _, sec, g = fault("tiling overlaps at (0, 3)")
    assert sec.count(g) == 2
    T, sec, g = fault("tiling misses D_j at (0, 3)")
    assert g in sec and not T.in_domain(g, 3)
    T, sec, g = fault("section leaves Gamma_i at (1, 3)")
    assert g in sec and T.in_domain(g, 3) and T.reduce(g, 1) != 0


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_whole_domain_passes_peak_within_their_gates():
    # before the passes streamed, decom peaked at 142 MiB, j-recursion at
    # 116, containings at 77 and the D_4 window at 54.7; the window then
    # peaked at 11.1 while a level scan built it and it packed whole
    sk = build_skeleton(build_tower(preset_config("irregular-demo")), 5)
    for name in ("decom", "j-recursion", "containings"):
        peak = _peak_mib(lambda: run_check(sk, name))
        assert peak < 64, f"{name} peaked at {peak:.1f} MiB"
    sk = build_skeleton(build_tower(preset_config("irregular-demo")), 5)
    peak = _peak_mib(lambda: materialize_window(sk, 4))
    assert peak < 8, f"the D_4 window peaked at {peak:.1f} MiB"
    # the int16 level map of D_4 alone is 7.1 MiB
    peak = _peak_mib(lambda: window_levels(sk, 4))
    assert peak < 9, f"the D_4 level map peaked at {peak:.1f} MiB"


def test_translate_tables_peak_within_their_gates():
    # in registry order, so containings finds the D_4 window and the
    # translate tables (4, 2) and (4, 3) that partitions-c built; with
    # dense |D_4|-entry translate tables and a pass over every point of D_m
    # they peaked at 14.6 and 37.8 MiB, and containings at 27.8 while its
    # tables held J(l) indices through a dense |D_l| table
    sk = build_skeleton(build_tower(preset_config("irregular-demo")), 5)
    for name, gate in (("partitions-c", 10), ("containings", 8)):
        peak = _peak_mib(lambda: run_check(sk, name))
        assert peak < gate, f"{name} peaked at {peak:.1f} MiB"


def test_u_in_y_peaks_within_its_gate():
    # in registry order, so u-in-y reads the D_3 and D_4 windows the checks
    # before it built; it peaked at 1.1 MiB with one level scan per probe,
    # and at 13.5 MiB with its probes summed in one unchunked batch
    sk = build_skeleton(build_tower(preset_config("irregular-demo")), 5)
    for name in REGISTRY_NAMES[:REGISTRY_NAMES.index("u-in-y")]:
        run_check(sk, name)
    peak = _peak_mib(lambda: run_check(sk, "u-in-y"))
    assert peak < 4, f"u-in-y peaked at {peak:.1f} MiB"


def test_reduce_into_out_allocates_no_chunk():
    # the quotient is formed in out: a CHUNK-element int32 temporary would
    # be 256 KiB, and the D_10 window peaked at 0.733 MiB when np.mod made
    # one per reduction
    T = build_tower(preset_config("irregular-demo"))
    g = T.domain_arr(4, 0, tower.CHUNK)
    r = np.empty_like(g)
    assert g.dtype == np.int32
    for n in range(T.depth + 1):
        peak = _peak_mib(lambda: T.reduce_arr(g, n, out=r))
        assert peak * 1024 < 16, f"reduce to {n} peaked at {peak:.3f} MiB"
    sk = build_skeleton(build_tower(preset_config("threeadic")), 10)
    peak = _peak_mib(lambda: materialize_window(sk, 10))
    assert peak < 0.5, f"the D_10 window peaked at {peak:.3f} MiB"


def test_csv_round_trip_peaks_within_the_chunk(monkeypatch, tmp_path):
    # 59,049 rows of threeadic's D_10; formatting and parsing the whole file
    # at once peaked at 2.85 MiB to write and 9.66 MiB to read
    sk = build_skeleton(build_tower(preset_config("threeadic")), 10)
    win = materialize_window(sk, 10)
    monkeypatch.setattr(tower, "CHUNK", 4096)
    p = tmp_path / "w.csv"
    peak = _peak_mib(lambda: win.to_csv(sk.tower, p))
    assert peak < 1, f"the D_10 csv write peaked at {peak:.2f} MiB"
    peak = _peak_mib(lambda: SymbolWindow.from_csv(sk.tower, p))
    assert peak < 2, f"the D_10 csv read peaked at {peak:.2f} MiB"
