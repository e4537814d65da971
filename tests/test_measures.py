"""Exact masses of the periodized measures and the limit enclosures."""

from fractions import Fraction

import pytest

from toeplitzlab import (
    DepthExceeded,
    IntegerLineTower,
    InconclusiveTail,
    Budget,
    BudgetExceeded,
    PeriodicMeasure,
    a_counts,
    an_det_check,
    build_skeleton,
    measures,
    limit_01,
    mu_cylinder,
    parse_pattern,
)
from toeplitzlab.window import window_values


def test_a_counts_match_reference(threeadic, oracle3, irregular):
    want3 = [(0, 1), (2, 3), (9, 10), (34, 31), (118, 93)]
    # every level here has |D_n| <= 2**16, so a_counts cross-checks it
    for n in range(1, 6):
        assert a_counts(threeadic, n) == want3[n - 1]
        assert tuple(oracle3.a_counts(n)) == want3[n - 1]
    wanti = [(0, 1), (14, 31), (1301, 1954)]
    for n in range(1, 4):
        assert a_counts(irregular, n) == wanti[n - 1]


def test_an_det_everywhere(threeadic, irregular):
    for n in range(1, 6):
        assert an_det_check(threeadic, n)["n"] == n
    for n in range(1, 5):
        assert an_det_check(irregular, n)["n"] == n
    assert an_det_check(threeadic, 3) == {"n": 3, "a0": 9, "a1": 10, "j": 8}


def test_an_det_rejects_wrong_counts(threeadic, monkeypatch):
    monkeypatch.setattr(measures, "a_counts", lambda sk, n: (9, 11))
    res = an_det_check(threeadic, 3)
    assert res.status == "Fail"
    assert res.counterexample["expected"] == 27


def test_mu_single_symbol_is_window_share(threeadic):
    for m in (2, 3, 4):
        vals = window_values(threeadic, m)
        ones = int((vals == 1).sum())
        assert mu_cylinder(threeadic, m, [(0, 1)]) == Fraction(ones, 3**m)
        assert mu_cylinder(threeadic, m, [(0, 0)]) == Fraction(3**m - ones, 3**m)


def test_mu_multi_point_matches_brute_force(threeadic, oracle3):
    pattern = [(0, 1), (4, 1), (1, 0)]
    for m in (3, 4):
        hits = sum(1 for d in range(3**m)
                   if all(oracle3.eta_n(m, d + s) == v for s, v in pattern))
        assert mu_cylinder(threeadic, m, pattern) == Fraction(hits, 3**m)
    assert mu_cylinder(threeadic, 3, []) == 1


@pytest.mark.parametrize("name, n, m", [
    ("threeadic", 1, 4), ("threeadic", 4, 9), ("centered6", 1, 5),
    ("irregular", 1, 3), ("lattice", 0, 2), ("relabelled36", 1, 5),
    ("s3_by_z5", 1, 4), ("s3_by_z5", 2, 4),
])
def test_level_cylinder_matches_the_cell_by_cell_pattern(request, name, n, m):
    sk = request.getfixturevalue(name)
    if name == "relabelled36":
        sk = sk[0]
    T = sk.tower
    vals_n = window_values(sk, n)
    dom = T.domain_arr(n + 1)
    pattern = list(zip(dom, vals_n[T.coset_index_arr(dom, n)]))
    pm = PeriodicMeasure(sk, m)
    assert pm.mu_level_cylinder(n) == pm.mu_cylinder(pattern)


def test_level_cylinder_charges_its_passes(threeadic):
    # (|D_4| + 3) passes over D_9: 84 * 19683 cells
    sk = build_skeleton(threeadic.tower, 10, Budget(window=1000000))
    with pytest.raises(BudgetExceeded, match="needs 1653372 cells"):
        PeriodicMeasure(sk, 9).mu_level_cylinder(4)
    assert PeriodicMeasure(sk, 9).mu_level_cylinder(1) == Fraction(1175, 6561)


def test_mu_needs_decided_level(threeadic):
    with pytest.raises(DepthExceeded):
        PeriodicMeasure(threeadic, 10)  # level 10 cells are not decided


def test_parse_pattern(threeadic):
    T = threeadic.tower
    pat = parse_pattern(T, {"support": [0, 4], "values": [1, 1]})
    assert pat == [(0, 1), (4, 1)]
    with pytest.raises(Exception):
        parse_pattern(T, {"support": [0], "values": [1, 0]})
    with pytest.raises(Exception):
        parse_pattern(T, {"support": [0], "values": [2]})


def test_limit_01_enclosures(threeadic, irregular):
    out = limit_01(threeadic, 9)
    a0, a1 = a_counts(threeadic, 9)
    assert out["one"] == (Fraction(a1, 3**9), Fraction(a1 + 1, 3**9))
    assert out["zero"] == (1 - out["one"][1], 1 - out["one"][0])
    assert out["verdict"] == "Regular"
    # the density route must overlap the direct enclosure
    zl, zh = out["zero"]
    vl, vh = out["zero_via_density"]
    assert max(zl, vl) <= min(zh, vh)

    outi = limit_01(irregular)
    assert outi["level"] == 4
    assert outi["verdict"] == "Irregular"
    assert outi["zero"][0] > Fraction(3, 4)  # zeros dominate in the limit


def test_limit_01_requires_tail():
    sk = build_skeleton(IntegerLineTower([3] * 4), 4)
    with pytest.raises(InconclusiveTail):
        limit_01(sk, 3)
