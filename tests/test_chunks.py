"""Whole-domain passes read D_n in pieces of tower.CHUNK elements.

The chunk size must not change a result: the verify table, the J-sets by
both routes, the windows and every broken tower's witness are the same at
any chunk size.  And the passes must keep their memory within the chunk:
on irregular-demo, where |D_4| = 3,720,465, the largest checks and the D_4
window stay far below the sizes their whole-domain temporaries had.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from conftest import cyclic_generic, relabelled_cyclic
from test_tower import _BadSectionTower
from toeplitzlab import (IntegerLatticeTower, SymbolWindow, build_skeleton,
                         build_tower, j_set, j_set_recursive,
                         materialize_window, preset_config, tower)
from toeplitzlab.verify import run_all, run_check
from toeplitzlab.window import window_levels

INSTANCES = {
    # |D_3| = 29,295: 30 chunks of 1000
    "irregular-demo": lambda: (build_tower(preset_config("irregular-demo")), 3),
    "threeadic": lambda: (build_tower(preset_config("threeadic")), 6),
    "lattice": lambda: (IntegerLatticeTower([[3, 3, 3], [3, 3, 3]]), 3),
    "generic": lambda: (relabelled_cyclic([3] * 6, 1)[0], 6),
}

BROKEN = {
    "tiling overlaps": lambda: _BadSectionTower(
        [3, 3], lambda sec, i, j: sec[:-1] + sec[:1]),
    "tiling misses D_j": lambda: _BadSectionTower(
        [3, 3], lambda sec, i, j: sec[:-1] + [sec[-1] + 9]),
    "repeated element in D_n": lambda: cyclic_generic(
        [2, 4], domains=[[0], [0, 1], [0, 1, 2, 3, 4, 5, 6, 6]]),
    "domains not nested": lambda: cyclic_generic(
        [2, 2, 2], domains=[[0], [0, 3], [0, 1, 2, 7], list(range(8))]),
}


def _results(name):
    """verify all's JSON without times, both J-set routes at every level,
    and the window at every level, for a fresh build of the instance."""
    T, depth = INSTANCES[name]()
    sk = build_skeleton(T, depth)
    report = run_all(sk).to_json()
    for row in report["results"]:
        row.pop("millis")
    jsets = [(j_set(T, n), j_set_recursive(T, n)) for n in range(1, depth + 1)]
    windows = [materialize_window(sk, n) for n in range(depth + 1)]
    return report, jsets, windows


@functools.cache
def _default(name):
    return _results(name)


@pytest.mark.parametrize("chunk", [7, 1000])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_chunk_size_changes_no_result(monkeypatch, name, chunk):
    want = _default(name)
    monkeypatch.setattr(tower, "CHUNK", chunk)
    report, jsets, windows = _results(name)
    assert report == want[0]
    for (a, b), (wa, wb) in zip(jsets, want[1], strict=True):
        for got, exp in ((a, wa), (b, wb)):
            assert got.dtype == exp.dtype and np.array_equal(got, exp)
    assert windows == want[2]


@pytest.mark.parametrize("chunk", [7, 1000])
@pytest.mark.parametrize("reason", sorted(BROKEN))
def test_chunk_size_keeps_every_broken_tower_witness(monkeypatch, reason,
                                                     chunk):
    want = tower.validate_tower(BROKEN[reason]()).counterexample
    assert want["reason"] == reason
    monkeypatch.setattr(tower, "CHUNK", chunk)
    assert tower.validate_tower(BROKEN[reason]()).counterexample == want


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
    # in registry order, so containings finds the D_4 window partitions-c
    # built; with dense |D_4|-entry translate tables and a pass over every
    # point of D_m they peaked at 14.6 and 37.8 MiB, and containings at 27.8
    # while its tables held J(l) indices through a dense |D_l| table
    sk = build_skeleton(build_tower(preset_config("irregular-demo")), 5)
    for name, gate in (("partitions-c", 10), ("containings", 8)):
        peak = _peak_mib(lambda: run_check(sk, name))
        assert peak < gate, f"{name} peaked at {peak:.1f} MiB"


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
