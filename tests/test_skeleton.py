"""Construction bookkeeping and lazy evaluation against the naive build."""

import numpy as np
import pytest

import bruteforce as bf
from conftest import cyclic_generic
from test_tower import _BadSectionTower
from toeplitzlab import skeleton
from toeplitzlab import (
    DepthExceeded,
    IntegerLineTower,
    Undefined,
    build_skeleton,
    j_set,
    j_set_recursive,
    j_size,
    load_skeleton,
)


def test_block_boundaries_threeadic(threeadic):
    assert threeadic.mbar == [0, 2, 5, 10]
    assert threeadic.m_k == [2, 5, 10]
    assert threeadic.completed_blocks() == [0, 1, 2]


def test_block_boundaries_irregular(irregular):
    assert irregular.mbar == [0, 2, 17]
    assert irregular.m_k == [2, 17]
    assert irregular.completed_blocks() == [0]


def test_first_steps_threeadic(threeadic):
    assert threeadic.steps[:4] == [("plant", 0), ("zero",), ("plant", 4),
                                   ("plant", 14)]
    assert threeadic.steps[4] == ("zero",)
    assert len(threeadic.steps) == 10


def test_h_records_threeadic(threeadic):
    got = [(r.step, r.block, r.slot, r.g_slot, r.h) for r in threeadic.h_records]
    assert got == [(3, 1, 1, 1, 4), (4, 1, 2, 2, 14), (6, 2, 1, 4, 121),
                   (7, 2, 2, 5, 365), (8, 2, 3, 7, 1096), (9, 2, 4, 8, 3284)]


def test_h_records_irregular(irregular):
    got = [(r.step, r.block, r.slot, r.g_slot, r.h) for r in irregular.h_records]
    assert got == [(3, 1, 1, -7, -232), (4, 1, 2, -6, -14646),
                   (5, 1, 3, -5, -1860230)]


def test_h_records_lattice(lattice):
    got = [(r.step, r.block, r.slot, r.g_slot, r.h) for r in lattice.h_records]
    assert got == [(3, 1, 1, (0, 1), (0, 4))]


@pytest.mark.parametrize("name", ["threeadic", "centered6", "lattice",
                                  "s3_by_z5"])
def test_plants_do_not_depend_on_the_first_prefix(request, monkeypatch, name):
    # a first prefix of one D_n index makes _first_over grow it through
    # every size before it reaches each plant
    sk = request.getfixturevalue(name)
    monkeypatch.setattr(skeleton, "_FIRST_PREFIX", 1)
    assert build_skeleton(sk.tower, sk.depth).steps == sk.steps


def test_a_plant_over_a_broken_tiling_is_the_one_in_d_n():
    # D_2 = {0, 1, 2, 7} is not {0, 2} + D_1: the slot 1 plus the section
    # element 2 is 3, outside D_2, and reduced into D_2 it is 7
    bad = cyclic_generic([2, 2, 2],
                         domains=[[0], [0, 1], [0, 1, 2, 7], list(range(8))])
    assert build_skeleton(bad, 3).steps == [("plant", 0), ("zero",),
                                            ("plant", 7)]


def test_j_sets_match_reference(threeadic, oracle3, centered6, oracle3c,
                                lattice, oracle_lat):
    for sk, orc, top in ((threeadic, oracle3, 6), (centered6, oracle3c, 4),
                         (lattice, oracle_lat, 2)):
        T = sk.tower
        for n in range(top + 1):
            els = T.elements(sk.jset(n))
            assert set(els) == set(orc.J[n])
            # elements come back in D_n enumeration order
            order = {g: i for i, g in enumerate(T.elements(T.domain_arr(n)))}
            assert els == sorted(els, key=order.__getitem__)


def test_j_set_sizes(threeadic, irregular):
    T3 = threeadic.tower
    assert [j_size(T3, n) for n in range(7)] == [1, 2, 4, 8, 16, 32, 64]
    TI = irregular.tower
    assert [j_size(TI, n) for n in range(5)] == [1, 14, 420, 26040, 3281040]
    for n in range(5):
        assert len(threeadic.jset(n)) == j_size(T3, n)


def test_j_recursion_agrees_with_direct(threeadic, centered6, lattice):
    for sk, top in ((threeadic, 5), (centered6, 4), (lattice, 2)):
        T = sk.tower
        for n in range(top + 1):
            assert np.array_equal(j_set_recursive(T, n), j_set(T, n))


def test_j_recursion_repeats_an_element_each_translate_reaches():
    # Gamma_1 cap D_2 lists 3 twice, so 3 + J(1) reaches 4 and 5 twice
    T = _BadSectionTower([3, 3], lambda sec, i, j:
                         sec[:2] + sec[1:2] if (i, j) == (1, 2) else sec)
    assert j_set(T, 2).tolist() == [4, 5, 7, 8]
    assert j_set_recursive(T, 2).tolist() == [4, 4, 5, 5]


def test_j_recursion_generic_mirror():
    G = cyclic_generic([3, 3, 3])
    T = IntegerLineTower([3, 3, 3])
    for n in range(4):
        assert j_set_recursive(G, n).tolist() == j_set(T, n).tolist()


def test_eval_and_level_match_reference(threeadic, oracle3):
    for g in range(-30, 243):
        lvl = threeadic.level_of(g)
        assert lvl == oracle3.level(g)
        v = threeadic.eval(g)
        assert (None if v is Undefined else v) == oracle3.eval(g)
    assert threeadic.eval(0) == 1
    assert [threeadic.eval(g) for g in (4, 5, 7, 13, 14)] == [1, 0, 0, 0, 1]
    assert (threeadic.level_of(6), threeadic.level_of(19),
            threeadic.level_of(14)) == (0, 1, 3)


def test_eval_centered_and_irregular(centered6, oracle3c, irregular):
    for g in range(-121, 122):
        assert centered6.eval(g) == oracle3c.eval(g)
    assert irregular.eval(0) == 1
    assert irregular.eval(-7) == 0
    assert irregular.eval(-232) == 1  # first recorded plant


def test_eval_undefined_past_depth():
    sk = build_skeleton(IntegerLineTower([3] * 10), 3)
    orc = bf.NaiveBuild(bf.NaiveLine([3] * 10, "nonneg"), 3)
    assert orc.level(13) is None
    assert sk.level_of(13) is None
    assert sk.eval(13) is Undefined
    assert sk.eval(4) == 1  # decided at level 1 regardless of depth


def test_eval_periodized_matches_reference(threeadic, oracle3):
    for m in (2, 3, 4):
        for g in range(-10, 90):
            eta_m = threeadic.eval(threeadic.tower.reduce(g, m))
            assert eta_m == oracle3.eta_n(m, g)


def test_linking_matches_reference(threeadic, oracle3, centered6, oracle3c,
                                   irregular):
    assert threeadic.linking_ok == {k: oracle3.linking_ok(k) for k in range(3)}
    assert threeadic.linking_ok == {0: False, 1: False, 2: False}
    assert centered6.linking_ok == {0: True, 1: True}
    assert irregular.linking_ok == {0: True}
    assert threeadic.warnings  # failed linkings are surfaced
    assert not irregular.warnings


def test_jset_equality_and_membership(threeadic):
    fresh = j_set(threeadic.tower, 2)
    assert np.array_equal(fresh, threeadic.jset(2))
    assert not np.array_equal(fresh, threeadic.jset(3))
    assert 13 in threeadic.jset(3)
    assert 12 not in threeadic.jset(3)


def test_the_memo_builds_once_and_keeps_no_failed_build():
    sk = build_skeleton(IntegerLineTower([3] * 3), 2)

    def refused():
        raise DepthExceeded("refused")

    for _ in range(2):
        with pytest.raises(DepthExceeded):
            sk.cached("probe", refused)
    assert sk.cached("probe", lambda: 1) == 1
    assert sk.cached("probe", refused) == 1
    assert sk.jset(2) is sk.jset(2)


def test_save_load_round_trip(tmp_path, centered6):
    p = tmp_path / "sk.json"
    centered6.save(p)
    back = load_skeleton(p)
    assert back.m_k == centered6.m_k
    assert back.steps == centered6.steps
    assert back.tower.style == centered6.tower.style
    for g in range(-121, 122, 7):
        assert back.eval(g) == centered6.eval(g)


def test_depth_validation():
    with pytest.raises(Exception):
        build_skeleton(IntegerLineTower([3, 3]), 5)
    with pytest.raises(Exception):
        build_skeleton(IntegerLineTower([3, 3]), 0)
