"""Periodic structure checks and their negative controls."""

import numpy as np
import pytest

from toeplitzlab import (
    CheckResult,
    DepthExceeded,
    DoubledOne,
    build_skeleton,
    invariant_shift,
    partitions_c_check,
    per_eq_check,
    per_masks,
    per_set,
)
from toeplitzlab.cells import mu_zero_set, translate_ones
from toeplitzlab.density import d_enumeration
from toeplitzlab.verify import run_check
from toeplitzlab.window import window_values


def test_per_sets_match_reference(threeadic, oracle3, centered6, oracle3c):
    for sk, orc, top in ((threeadic, oracle3, 4), (centered6, oracle3c, 3)):
        for n in range(1, top + 1):
            for symbol in (0, 1):
                assert set(per_set(sk, n, symbol)) == set(orc.per_level(n, symbol))


def test_frozen_per_sets(threeadic):
    assert set(per_set(threeadic, 2, 1)) == {0, 3, 6}
    assert set(per_set(threeadic, 2, 0)) == {1, 2}


def test_per_sets_past_the_built_depth_are_refused(threeadic, threeadic5):
    # Per(6, .) needs levels 0..5, and threeadic5 built steps 1..5 only;
    # read anyway, it gave 354 of the 385 cells of Per(6, 0)
    for n in (6, 7):
        with pytest.raises(DepthExceeded, match=rf"Per\({n}, \.\) needs "
                                                rf"depth >= {n}, have 5"):
            per_set(threeadic5, n, 0)
        with pytest.raises(DepthExceeded):
            d_enumeration(threeadic5, n)
    assert per_set(threeadic5, 5, 0) == per_set(threeadic, 5, 0)
    assert d_enumeration(threeadic5, 5) == d_enumeration(threeadic, 5)


def test_per_member_returns_forced_symbol(threeadic):
    zeros, ones = per_masks(threeadic, 2)
    assert ones[3] and not zeros[3]
    assert zeros[1] and not ones[1]
    # 4 is planted at level 2, so no level below 2 forces it
    assert not zeros[4] and not ones[4]
    # at level 1 the coset of 4 is cell 1, which only level 1 decides
    assert not any(m[1] for m in per_masks(threeadic, 1))


def _passes(res):
    """A unit body passes when it returns its witness, not a result."""
    return not isinstance(res, CheckResult)


def test_per_eq_passes(threeadic, centered6, lattice):
    for n in range(1, 5):
        assert _passes(per_eq_check(threeadic, n))
    for n in range(1, 4):
        assert _passes(per_eq_check(centered6, n))
    assert _passes(per_eq_check(lattice, 2))


def _planted(sk, n, vals):
    """A fresh build of sk's tower and depth whose D_n window is vals: a
    shared skeleton keeps what it derived from its own window, such as the
    translate tables, beside it."""
    fresh = build_skeleton(sk.tower, sk.depth)
    fresh.cached(("vals", n), lambda: vals)
    return fresh


def _flip_window_at_4(sk):
    """sk with the symbol at 4 of its D_4 window, where per_eq_check reads
    at level 3, flipped."""
    vals = window_values(sk, 4).copy()
    vals[sk.tower.index_of(4, 4)] ^= 1
    return _planted(sk, 4, vals)


def test_per_eq_catches_flipped_symbol(threeadic):
    res = per_eq_check(_flip_window_at_4(threeadic), 3)
    assert res.status == "Fail"
    assert res.counterexample["coset"] == "4+Gamma_3"


def test_per_eq_fails_a_j_cell_in_the_per_sets(threeadic):
    # J(3) given a cell that a level below 3 decides: the J-membership
    # facet names it, as per-eq's row "n=3 membership"
    T = threeadic.tower
    per = per_masks(threeadic, 3)
    cell = T.domain_arr(3)[per[0] | per[1]][:1]
    fresh = build_skeleton(T, 5)
    fresh._cache[("jset", 3)] = np.concatenate((threeadic.jset(3), cell))
    want = {"n": 3, "g": T.format_element(T.element(cell[0]))}
    res = per_eq_check(fresh, 3)
    assert (res.status, res.scope, res.counterexample) == (
        "Fail", "n=3 membership", want)
    res = run_check(fresh, "per-eq")
    assert (res.status, res.scope, res.counterexample) == (
        "Fail", "n=3 membership", want)


def test_essential_passes(threeadic, centered6, lattice, s3_by_z4):
    for sk, levels in ((threeadic, range(1, 5)), (centered6, [2]),
                       (lattice, [1, 2]), (s3_by_z4, [1, 2, 3])):
        for n in levels:
            assert invariant_shift(sk.tower, n, *per_masks(sk, n))[0] is None
            assert "essential" in per_eq_check(sk, n)
    assert per_eq_check(threeadic, 3)["essential"] == "3 divisor shifts of 27"


def _left_translate(T, mask, v, n):
    """The mask over D_n of v + P, P the cells of mask."""
    cells = T.domain_arr(n)[mask]
    out = np.zeros_like(mask)
    out[T.coset_index_arr(T.add_arr(v, cells), n)] = True
    return out


@pytest.mark.parametrize("name", ["threeadic", "centered6", "lattice",
                                  "relabelled36", "s3_by_z4"])
def test_essential_negative_control(request, name):
    # masks lifted from level n-1 are Gamma_{n-1}-periodic, so a shift in
    # Gamma_{n-1} cap D_n must fix them, from the left as the shift acts
    sk = request.getfixturevalue(name)
    sk = sk[0] if isinstance(sk, tuple) else sk
    T = sk.tower
    n = 2
    up = T.coset_index_arr(T.domain_arr(n), n - 1)
    masks = [m[up] for m in per_masks(sk, n - 1)]
    shift, _ = invariant_shift(T, n, *masks)
    assert shift is not None and shift != T.zero
    assert T.reduce(shift, n - 1) == T.zero
    for m in masks:
        assert np.array_equal(_left_translate(T, m, shift, n), m)


def test_essential_finds_the_left_stabilizer(s3_by_z4):
    # over D_2 of S3 x Z, {8, 8 + 16} is fixed by 40 + P = P only, and by
    # P + 16 = P only: the search must return the left one
    T, n = s3_by_z4.tower, 2
    dom = T.domain_arr(n)
    mask = np.isin(dom, [8, T.add_arr(8, 16)])
    assert dom[mask].tolist() == [8, 32]
    none = np.zeros_like(mask)
    assert invariant_shift(T, n, mask, none) == (40, "11 nonzero translates")
    assert invariant_shift(T, n, none, mask)[0] == 40
    fixes = [v for v in dom[1:].tolist()
             if np.array_equal(_left_translate(T, mask, v, n), mask)]
    assert fixes == [40]
    fixes = [v for v in dom[1:].tolist()
             if np.array_equal(T.shift_arr(mask, v, n), mask)]
    assert fixes == [16]


def test_per1_structure(threeadic, irregular):
    # Per(s, 1) is Gamma_1 plus the recorded plants, each reduced mod Gamma_s
    for sk, top in ((threeadic, 5), (irregular, 4)):
        T = sk.tower
        for s in range(1, top + 1):
            want = set(T.section_arr(1, s).tolist())
            for rec in sk.h_records:
                if rec.step <= s:
                    want |= set(T.add_arr(rec.h, T.section_arr(rec.step, s)).tolist())
            assert set(per_set(sk, s, 1)) == want, s


def test_partitions_c_clean(threeadic, irregular):
    for k in (1, 2, 3):
        wit = partitions_c_check(threeadic, k)
        assert _passes(wit)
        assert wit["translates"] == 3 ** (9 - k)
        assert wit["ones_histogram"][1] > 0
    # the J(1)-translates of D_9 without a 1 are Z_1: mu_9(Z_1) = 5549/6561
    assert partitions_c_check(threeadic, 1)["ones_histogram"][0] == 5549
    assert _passes(partitions_c_check(irregular, 1))


def test_a_doubled_one_fails_partitions_c(threeadic):
    # plant a second 1 in the first J(2)-translate of the D_9 window that
    # carries one, where partitions_c_check reads
    T, k = threeadic.tower, 2
    vals = window_values(threeadic, 9).copy()
    for gamma in T.section_arr(k, 9).tolist():
        cells = T.index_of_arr(T.add_arr(gamma, threeadic.jset(k)), 9)
        if (vals[cells] == 1).sum() == 1:
            break
    vals[cells[vals[cells] == 0][0]] = 1
    sk = _planted(threeadic, 9, vals)
    res = partitions_c_check(sk, k)
    assert res.status == "Fail"
    assert res.counterexample == {"k": k, "gamma": gamma, "ones": 2}
    # mu_9(Z_2) reads the same table, so it names the same translate
    with pytest.raises(DoubledOne) as exc:
        mu_zero_set(sk, k, 9)
    assert (exc.value.gamma, exc.value.ones) == (gamma, 2)


def test_doubled_one_names_the_least_doubled_translate(threeadic):
    # second 1s at 5, 7, 32 and 88 of the D_9 window double the
    # J(1)-translates 3 and 30, and put three 1s in the J(2)-translate 0
    # and two in 81; the pinned (gamma, ones) are those the dense-table
    # code raised: the least doubled translate and its count
    vals = window_values(threeadic, 9).copy()
    assert vals[[4, 5, 7, 8, 31, 32, 85, 88]].tolist() == [1, 0, 0, 0,
                                                           1, 0, 1, 0]
    vals[[5, 7, 32, 88]] = 1
    sk = _planted(threeadic, 9, vals)
    for k, gamma, ones in ((1, 3, 2), (2, 0, 3)):
        with pytest.raises(DoubledOne) as exc:
            translate_ones(sk, 9, k)
        assert (exc.value.gamma, exc.value.ones) == (gamma, ones)
    # a refused table is not kept, so the check meets the same refusal
    res = run_check(sk, "partitions-c")
    assert (res.status, res.scope) == ("Fail", "k=1")
    assert res.counterexample == {"k": 1, "gamma": 3, "ones": 2}


def test_per_eq_reports_an_invariant_shift_last(threeadic, monkeypatch):
    from toeplitzlab import periods
    monkeypatch.setattr(periods, "invariant_shift",
                        lambda T, n, m0, m1: (9, "stub"))
    res = per_eq_check(threeadic, 3)
    assert res.status == "Fail"
    assert res.scope == "level 3, essential (stub)"
    assert res.counterexample["invariant_shift"] == 9
    # a flipped window still fails first, on its probe
    res = per_eq_check(_flip_window_at_4(threeadic), 3)
    assert "coset" in res.counterexample
