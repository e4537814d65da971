"""The check registry: names, statuses, and honest degradation under budgets."""

import inspect
from fractions import Fraction

import numpy as np
import pytest

from conftest import cyclic_generic, h3_generic, s3_by_z
from test_chunks import BROKEN
from test_periods import _planted
from test_skeleton import _OffDomainReduceTower
from test_tower import _BadSectionTower
from toeplitzlab import (
    REGISTRY_NAMES,
    Budget,
    BudgetExceeded,
    IntegerLatticeTower,
    IntegerLineTower,
    UnknownCheck,
    registry_self_test,
    run_all,
    run_check,
    zero_mass_closed_form,
    build_skeleton,
    build_tower,
    preset_config,
    zero_mass_lower_bound,
)
from toeplitzlab import STYLE_CENTERED, periods, tower, verify, window
from toeplitzlab.cli import main
from toeplitzlab.cells import mu_zero_set, verify_refinement
from toeplitzlab.result import failed
from toeplitzlab.verify import (_REGISTRY, _per_unit, good_bound,
                                good_ds_witnesses, good_set)
from toeplitzlab.window import per_masks


def test_registry_names_are_stable():
    assert REGISTRY_NAMES == (
        "decom", "j-recursion", "per-eq", "good-relation", "good-patches",
        "t1t2", "partitions-c", "linking", "good-ds", "u-in-y", "containings",
        "z-identity", "an-det", "uns-bound", "measure-1-trend")
    assert registry_self_test().status == "Pass"


def test_registry_self_test_catches_a_dangling_alias(monkeypatch):
    from toeplitzlab import verify
    monkeypatch.setitem(verify.ALIASES, "j-gone", "no-such-check")
    res = registry_self_test()
    assert res.status == "Fail"
    assert res.counterexample == {"bad_alias": ["j-gone"]}


def test_every_check_takes_only_the_skeleton():
    # run_check is the one caller; a check has no settings of its own, and
    # its caps are the skeleton's budget
    for name, fn in _REGISTRY.items():
        params = inspect.signature(fn).parameters
        assert list(params) == ["skeleton"], name
        assert params["skeleton"].default is inspect.Parameter.empty, name


def test_per_unit_skips_only_the_refused_unit():
    def body(u):
        if u == 2:
            raise BudgetExceeded("unit 2")
        if u == 4:
            return failed("x", "u=4", {"u": u})
        return {"u": u} if u == 1 else None

    def run(units):
        return _per_unit("x", units, body, lambda done: f"u in {done}")

    res = run([1, 2, 3])
    assert (res.status, res.scope, res.witnesses) == (
        "Pass", "u in [1, 3]; over budget: [2]", [{"u": 1}])
    assert run([1, 4, 2]).scope == "u=4"
    assert (run([2]).status, run([2]).scope) == (
        "Inconclusive", "u in []; over budget: [2]")


def test_a_scope_names_only_the_units_that_ran(threeadic):
    # the D_7 window is over this cap, so containings stops at n = 4
    res = run_check(build_skeleton(threeadic.tower, 10, Budget(window=2000)),
                    "containings")
    assert (res.status, res.scope) == (
        "Pass", "pointwise parent rule, n up to 4; over budget: [5, 6, 7, 8]")
    assert [w["n"] for w in res.witnesses] == [1, 2, 3, 4]
    # the D_10 level map is over this window cap, so an-det stops at n = 9
    capped = build_skeleton(threeadic.tower, 10, Budget(window=20000))
    res = run_check(capped, "an-det")
    assert (res.status, res.scope) == (
        "Pass", "n = 1..9, det equals |D_n|; over budget: [10]")
    assert [w["n"] for w in res.witnesses] == list(range(1, 10))


def test_unknown_check_is_rejected(threeadic5):
    with pytest.raises(UnknownCheck):
        run_check(threeadic5, "nope")


def test_alias_keeps_requested_name(threeadic5):
    res = run_check(threeadic5, "j-sub")
    assert res.name == "j-sub"
    assert res.status == "Pass"


def test_suite_threeadic_depth5(threeadic5):
    report = run_all(threeadic5)
    assert report.ok
    by_name = {r.name: r for r in report.results}
    assert by_name["linking"].status == "Inconclusive"  # blocks 0 and 1 fail
    assert by_name["u-in-y"].status == "Vacated"
    for w in by_name["u-in-y"].witnesses:
        assert w["contained"] is True  # scanned anyway, no violation found
    for name in ("decom", "j-recursion", "per-eq", "good-relation",
                 "good-patches", "t1t2", "partitions-c", "good-ds",
                 "containings", "z-identity", "an-det", "uns-bound"):
        assert by_name[name].status == "Pass", name
    assert by_name["measure-1-trend"].status in ("Pass", "Inconclusive")


def test_suite_irregular_all_pass(irregular):
    report = run_all(irregular)
    assert report.ok
    by_name = {r.name: r for r in report.results}
    assert all(r.status == "Pass" for r in report.results), [
        (r.name, r.status) for r in report.results if r.status != "Pass"]
    # the block is still open, so the patch checks pass vacuously
    assert "vacuous" in by_name["t1t2"].scope or by_name["t1t2"].witnesses == []
    assert by_name["linking"].status == "Pass"
    assert by_name["measure-1-trend"].status == "Pass"


@pytest.mark.parametrize("corrupt, scope, cx, decom", [
    # one element left: no gamma of Gamma_2 cap D_4 is good
    (lambda s: s[:1], "(n,m)=(1,4)", {"n": 1, "m": 4, "count": 0, "bound": 4},
     {"reason": "section size mismatch", "expected": 9, "got": 1}),
    # 72 + 81 stays in Gamma_2 but leaves D_4
    (lambda s: s[:-1] + [s[-1] + 81], "(n,m)=(1,4) translate containment",
     {"gamma": 153, "v": 0}, {"reason": "tiling misses D_j", "element": 153}),
], ids=["count", "containment"])
def test_good_relation_fails_on_a_corrupted_section(corrupt, scope, cx,
                                                    decom):
    # [3]^6 with only the section (2, 4) corrupted, which good_set(1, 4)
    # reads; decom refutes the tower at that pair
    sk = build_skeleton(_BadSectionTower(
        [3] * 6, lambda sec, i, j: corrupt(sec) if (i, j) == (2, 4) else sec),
        6)
    res = run_check(sk, "good-relation")
    assert (res.status, res.scope, res.counterexample) == ("Fail", scope, cx)
    assert run_check(sk, "decom").counterexample == {"pair": (2, 4), **decom}


# the first three elements only the recursive route reaches at n = k + 2;
# the direct route reaches none that it misses
_OFF_DOMAIN_RECURSIVE_ONLY = {
    (3,) * 6: [[14, 17, 23], [41, 44, 50], [122, 125, 131], [365, 368, 374]],
    (2, 3, 4, 5, 2, 3): [[9, 11, 15], [33, 35, 39], [153, 155, 159],
                         [393, 395, 399]],
}


@pytest.mark.parametrize("indices", [[3] * 6, [2, 3, 4, 5, 2, 3]])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_j_recursion_alone_catches_a_reduce_wrong_off_the_domain(indices, k):
    # reduce(g, n) is wrong only for g outside D_{n+k}; decom tests reduce
    # on domains and sections alone, so it passes the tower, and the
    # J-recursion is its only guard: a faster J-set must keep this catch
    sk = build_skeleton(_OffDomainReduceTower(indices, k), 6)
    assert run_check(sk, "decom").status == "Pass"
    res = run_check(sk, "j-recursion")
    assert (res.status, res.scope) == ("Fail", f"n={k + 2}")
    assert res.counterexample == {
        "n": k + 2, "direct_only": [],
        "recursive_only": _OFF_DOMAIN_RECURSIVE_ONLY[tuple(indices)][k - 1]}


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("make, depth, cx", [
    # Gamma_1 cap D_2 lists 3 twice: 4 and 5 are reached twice, 7 and 8 never
    (lambda: _BadSectionTower([3, 3], lambda s, i, j:
                              s[:2] + s[1:2] if (i, j) == (1, 2) else s), 2,
     {"n": 2, "direct_only": [7, 8], "recursive_only": []}),
    # D_2 drops 3 from D_1, so the translate 2 + J(1) = {5} leaves D_2
    (lambda: cyclic_generic([2, 2, 2], domains=[[0], [0, 3], [0, 1, 2, 7],
                                                list(range(8))]), 3,
     {"n": 2, "direct_only": [1, 7], "recursive_only": [5]}),
    # Gamma_1 cap D_2 lists 15 for 6: 15 + J(1) = {16, 17} leaves D_2
    (lambda: _BadSectionTower([3, 3], lambda s, i, j:
                              s[:2] + [15] if (i, j) == (1, 2) else s), 2,
     {"n": 2, "direct_only": [7, 8], "recursive_only": [16, 17]}),
], ids=["repeated-translate", "generic-unnested", "translates-leave-D_n"])
def test_j_recursion_names_what_each_route_alone_reaches(monkeypatch, make,
                                                         depth, cx, chunk):
    # the routes compare as masks over D_n chunk by chunk; a Fail still
    # names the first three elements each route alone gives, sorted
    if chunk is not None:
        monkeypatch.setattr(tower, "CHUNK", chunk)
    res = run_check(build_skeleton(make(), depth), "j-recursion")
    assert (res.status, res.scope, res.counterexample) == (
        "Fail", f"n={cx['n']}", cx)


def test_good_set_matches_reference(threeadic, oracle3):
    assert set(good_set(threeadic, 1, 4)) == set(oracle3.good_set(1, 4)) \
        == {36, 45, 63, 72}
    assert set(good_set(threeadic, 1, 3)) == {9, 18}
    assert len(good_set(threeadic, 1, 9)) == 128
    assert len(good_set(threeadic, 4, 9)) == 16


def test_good_bound(threeadic, oracle3):
    for n, m in ((1, 4), (1, 9), (4, 9)):
        b = good_bound(threeadic.tower, n, m)
        assert b == oracle3.good_bound(n, m)
        assert len(good_set(threeadic, n, m)) >= b


def test_zero_mass_closed_form(threeadic):
    # the step-(m+1) plant is already visible inside D_m
    for n, m in ((1, 3), (1, 4), (2, 4), (1, 9), (4, 9)):
        assert zero_mass_closed_form(threeadic, n, m) == \
            mu_zero_set(threeadic, n, m)
    assert zero_mass_closed_form(threeadic, 1, 3) == Fraction(7, 9)
    assert zero_mass_closed_form(threeadic, 1, 4) == Fraction(23, 27)


def test_zero_mass_lower_bounds(threeadic, irregular):
    # trend bounds must sit below the exact masses they certify
    lb = zero_mass_lower_bound(threeadic, 1)
    assert lb <= mu_zero_set(threeadic, 1, 9)
    assert lb == Fraction(16646, 19683)
    lbi = zero_mass_lower_bound(irregular, 1)
    assert lbi > Fraction(99, 100)


def test_containings_degrades_honestly(threeadic):
    # each unit that runs covers all of D_m; the others are named
    small = build_skeleton(threeadic.tower, threeadic.depth, Budget(100, 100))
    res = run_check(small, "containings")
    assert (res.status, res.scope) == (
        "Pass", "pointwise parent rule, n up to 2; over budget: "
                "[3, 4, 5, 6, 7, 8]")
    assert [(w["m"], w["points"]) for w in res.witnesses] == [(3, 27), (4, 81)]


def test_a_section_read_charges_no_cap_of_its_own(irregular):
    # u-in-y at n_k = 1 reads Gamma_1 cap D_2, one index's 31 elements,
    # past an enum cap of 20; the window cap alone governs its work
    sk = build_skeleton(irregular.tower, irregular.depth, Budget(enum=20))
    res = run_check(sk, "u-in-y")
    assert (res.status, res.scope) == ("Pass",
                                       "n_k in [1], reps over D_(n_k+2)")


def test_translate_tables_read_only_the_window_cap(irregular):
    # a translate table reads the 1-cells of the D_m window, which the
    # window cap charges; an enum cap below |D_l| once refused it for a
    # J(l) table it no longer builds (k = 3 and n = 2, 3 read |D_3| = 29,295)
    sk = build_skeleton(irregular.tower, irregular.depth, Budget(enum=20000))
    rows = [run_check(sk, name) for name in ("partitions-c", "containings")]
    assert [(r.status, r.scope) for r in rows] == [
        ("Pass", "k in [1, 2, 3]"),
        ("Pass", "pointwise parent rule, n up to 3")]


def test_containings_builds_no_j_set(monkeypatch):
    # its translate tables hold each 1's position, so no unit asks for a
    # J-set, though the construction cached only J(0) and J(1); in a suite
    # it runs after J(1..3) are cached, and J(4) never is
    from toeplitzlab import skeleton
    irr = build_skeleton(preset_config("irregular-demo"), 5)
    built, honest = [], skeleton.j_set

    def recording(tower, n, budget=Budget()):
        built.append(n)
        return honest(tower, n, budget)

    monkeypatch.setattr(skeleton, "j_set", recording)
    assert run_check(irr, "containings").status == "Pass"
    assert built == []
    assert sorted(k for k in irr._cache if k[0] == "jset") == [
        ("jset", 0), ("jset", 1)]


def test_uns_bound_witnesses_strict(threeadic):
    res = run_check(threeadic, "uns-bound")
    assert res.status == "Pass"
    masses = {(w["n"], w["m"]): w["mu"] for w in res.witnesses}
    assert masses[(1, 4)] == Fraction(5, 27)
    assert masses[(1, 9)] == Fraction(1175, 6561)
    assert masses[(4, 9)] == Fraction(41, 6561)
    assert all(w["mu"] >= w["bound"] for w in res.witnesses)
    assert all(w["strict"] for w in res.witnesses)


def test_good_ds_first_witnesses(threeadic, oracle3):
    res = run_check(threeadic, "good-ds")
    assert res.status == "Pass"
    by_nk = {w["n_k"]: w for w in res.witnesses}
    assert by_nk[4]["witnesses"] == 26
    assert by_nk[9]["witnesses"] == 6560
    assert by_nk[4]["sample"] == [(1, 0), (2, 0), (3, 4)]
    ref = oracle3.good_ds_witnesses(4)
    assert all(g is not None for g in ref.values())
    for w, g_w in by_nk[4]["sample"]:
        assert ref[w] is not None


def _first_witness_scan(skeleton, nk, per1_up, per1_lo):
    """good-ds one w at a time, 4,096 cells of D_{n_k+1} per step: each
    nonzero w of D_{n_k-1} with the D_{n_k+1} index of its first witness
    e, or -1."""
    T = skeleton.tower
    e_all = T.domain_arr(nk + 1)
    out = []
    for w in T.elements(T.domain_arr(nk - 1)):
        if w == T.zero:
            continue
        first = -1
        for s in range(0, len(e_all), 4096):
            g = T.sub_arr(e_all[s:s + 4096], w)
            cand = per1_lo[T.coset_index_arr(g, nk - 1)] & ~per1_up[s:s + 4096]
            if cand.any():
                first = s + int(cand.argmax())
                break
        out.append((w, first))
    return out


def test_good_ds_finds_every_first_witness_at_once(threeadic):
    ws, first = good_ds_witnesses(threeadic, 9)
    ref = _first_witness_scan(threeadic, 9, per_masks(threeadic, 10)[1],
                              per_masks(threeadic, 8)[1])
    assert list(zip(threeadic.tower.elements(ws), first.tolist())) == ref
    # the witnesses lie in every pass of the fourfold prefixes, one of them
    # past the first 4,096 cells
    assert [int((first >= k).sum()) for k in (16, 1024, 4096)] == [932, 7, 1]
    assert first.max() == 5470


def test_good_ds_fails_on_the_first_w_without_a_witness(threeadic,
                                                        monkeypatch):
    # mark Per(5, 1) on every candidate e of the w = 17 at n_k = 4, so that
    # it, and any w whose candidates it covers, has no witness
    from toeplitzlab import verify
    T = threeadic.tower
    lo = per_masks(threeadic, 3)[1]
    e_all = T.domain_arr(5)
    blocked = lo[T.coset_index_arr(T.sub_arr(e_all, 17), 3)]

    def patched(skeleton, n):
        per0, per1 = per_masks(skeleton, n)
        return (per0, per1 | blocked) if n == 5 else (per0, per1)

    monkeypatch.setattr(verify, "per_masks", patched)
    ref = _first_witness_scan(threeadic, 4, per_masks(threeadic, 5)[1]
                              | blocked, lo)
    missing = [w for w, first in ref if first < 0]
    assert 17 in missing and missing[0] != 1
    res = run_check(threeadic, "good-ds")
    assert (res.status, res.scope) == ("Fail", "n_k=4")
    assert res.counterexample == {"n_k": 4, "w": missing[0],
                                  "reason": "no witness in D_{n_k+1}"}


def test_result_json_shapes(threeadic5):
    report = run_all(threeadic5)
    data = report.to_json()
    assert data["all_ok"] is True
    names = [r["name"] for r in data["results"]]
    assert names[0] == "registry"
    assert set(REGISTRY_NAMES) <= set(names)
    text = report.render()
    assert "linking" in text and "Inconclusive" in text


def test_decom_runs_once_per_skeleton(monkeypatch):
    # five checks break on this tower's axioms; each used to ask a fresh
    # validate_tower whether decom refutes them
    calls = []
    real = verify.validate_tower
    monkeypatch.setattr(verify, "validate_tower",
                        lambda *a: calls.append(a) or real(*a))
    sk = build_skeleton(BROKEN["domains not nested"](), 3)
    rows = {r.name: r for r in run_all(sk).results}
    assert len(calls) == 1
    assert rows["decom"].counterexample["reason"] == "domains not nested"
    vacated = [r for r in rows.values() if r.status == "Vacated"]
    assert len(vacated) == 5
    assert all(r.witnesses == [rows["decom"].counterexample] for r in vacated)


def test_decom_reports_its_time(threeadic5):
    assert run_check(threeadic5, "decom").millis > 0


def test_z_identity_says_when_a_chain_is_exhaustive(threeadic5):
    # (1,4) has |D_4| * (1 + |J(4)|) = 81 * 17 = 1377 atoms; the chains of
    # threeadic depth 10 are pinned in test_acceptance.py
    full = run_check(threeadic5, "z-identity")
    assert full.scope == "zero steps m_k of blocks [0, 1]; chains [(1, 4)]"
    (wf,) = [w for w in full.witnesses if "span" in w]
    assert (wf["mode"], wf["atoms"], wf["of"]) == ("exhaustive", 1377, 1377)
    assert "(1, 4) exhaustive: 1377 of 1377 atoms" in full.render()


# every row of verify all on S3 x Z at depth 5; uns-bound's Fail at
# (n, m) = (1, 3) is the index-2 case of ROADMAP item 2: q_3 = 48/24 = 2
S3_BY_Z5_ROWS = {
    "registry": "Pass", "decom": "Pass", "j-recursion": "Pass",
    "per-eq": "Pass", "good-relation": "Pass", "good-patches": "Pass",
    "t1t2": "Pass", "partitions-c": "Pass", "linking": "Inconclusive",
    "good-ds": "Pass", "u-in-y": "Vacated", "containings": "Pass",
    "z-identity": "Pass", "an-det": "Pass", "uns-bound": "Fail",
    "measure-1-trend": "Inconclusive",
}


def test_suite_runs_on_a_non_abelian_tower(s3_by_z5):
    T = s3_by_z5.tower
    # two transpositions of S3, at z = 0, do not commute
    a, b = T.array([16]), T.array([32])
    assert not T.eq_arr(T.add_arr(a, b), T.add_arr(b, a)).all()
    assert [T.size(n) for n in range(1, 6)] == [4, 12, 24, 48, 96]
    report = run_all(s3_by_z5)
    by_name = {r.name: r for r in report.results}
    assert {r.name: r.status for r in report.results} == S3_BY_Z5_ROWS
    assert list(by_name) == ["registry", *REGISTRY_NAMES]
    assert by_name["per-eq"].scope == (
        "n in [1, 2, 3, 4], window saturation + step-log rebuild + "
        "J-membership + essential")
    assert by_name["uns-bound"].scope == "(n,m)=(1,3)"
    assert all(r.millis > 0 for r in report.results[1:])
    assert by_name["measure-1-trend"].witnesses[0] == {
        "pair": (1, 3), "mu": Fraction(2, 3)}


H3_GENERIC6_SCOPES = {
    "decom": "levels 0..6, tilings 21 pairs, enumerated where "
             "|D_j| <= 4194304",
    "per-eq": "n in [1, 2, 3, 4, 5], window saturation + step-log rebuild "
              "+ J-membership + essential",
    "good-relation": "10 pairs, n+2 <= m <= 6",
    "good-patches": "boundary pairs [(1, 4)]",
    "t1t2": "boundary pairs [(1, 4)]",
    "partitions-c": "k in [1, 2, 3, 4]",
    "linking": "completed blocks [0, 1]",
    "good-ds": "n_k in [4], every w in D_{n_k-1} minus identity",
    "u-in-y": "n_k in [1], reps over D_(n_k+2)",
    "z-identity": "zero steps m_k of blocks [0, 1]; chains [(1, 4)]",
    "uns-bound": "3 pairs, n in boundary levels, n+2 <= m <= 5",
}


def test_a_non_abelian_tower_keeps_its_table_at_depth_6(h3_generic6):
    # per-eq, good-patches and t1t2 once read the section on the right,
    # off the domain: NotInDomain ("element outside D_4") and no table
    T = h3_generic6.tower
    a, b = T.array([81]), T.array([9])  # (1, 0, 0) and (0, 1, 0)
    assert not T.eq_arr(T.add_arr(a, b), T.add_arr(b, a)).all()
    report = run_all(h3_generic6)
    rows = {r.name: r.status for r in report.results}
    assert rows == {**dict.fromkeys(rows, "Pass"),
                    "measure-1-trend": "Inconclusive"}
    assert list(rows) == ["registry", *REGISTRY_NAMES]
    scopes = {r.name: r.scope for r in report.results}
    assert {k: scopes[k] for k in H3_GENERIC6_SCOPES} == H3_GENERIC6_SCOPES


def test_section_right_domains_do_not_tile():
    res = run_check(build_skeleton(h3_generic(6, left=False), 6), "decom")
    assert (res.status, res.counterexample) == ("Fail", {
        "pair": (1, 2), "reason": "tiling misses D_j", "element": 153})


def test_a_section_decom_accepts_tiles_without_repeats(
        generic36, relabelled36, s3_by_z5, h3_generic6, line36, centered6,
        lattice):
    # decom looks for no repeated tile: once the levels pass and the section
    # Gamma_{j-1} cap D_j lies in D_j and Gamma_{j-1} without repeats, the
    # tiles section + D_{j-1} are distinct, whether or not they tile D_j
    towers = [sk.tower for sk in (generic36, relabelled36[0], s3_by_z5,
                                  h3_generic6, line36, centered6, lattice)]
    towers += [h3_generic(6, left=False), IntegerLineTower([2, 3, 4, 5, 2, 3]),
               IntegerLatticeTower([[3, 3, 3], [5, 3, 3]], STYLE_CENTERED),
               *(make() for make in BROKEN.values())]
    pairs = 0
    for T in towers:
        cx = tower.validate_tower(T).counterexample
        if cx is not None and "pair" not in cx:
            continue  # a level fails
        for j in range(1, T.depth + 1):
            sec = T.section_arr(j - 1, j)
            if tower._section_fault(T, j - 1, j) is None:
                tiles = T.translate_arr(sec, T.domain_arr(j - 1))
                tiles = tiles.reshape(-1, *tiles.shape[2:])
                assert len(np.unique(tiles, axis=0)) == len(tiles), (T, j)
                pairs += 1
    # every consecutive pair but the four of the two broken [3, 3] towers,
    # whose sections all fail
    assert pairs == 65


def test_measure_one_trend_cross_checks_a_lattice(lattice):
    assert run_check(lattice, "measure-1-trend").witnesses[0] == {
        "pair": (1, 2), "mu": Fraction(8, 9)}


def test_measure_one_trend_names_a_refused_cross_check(irregular):
    # the D_3 window of pair (1, 3) has 29,295 cells, past a cap of 1000
    sk = build_skeleton(irregular.tower, irregular.depth, Budget(window=1000))
    res = run_check(sk, "measure-1-trend")
    assert (res.status, res.scope) == (
        "Pass", "certified lower bounds at boundary levels [1, 16] are "
                "nondecreasing; over budget: [(1, 3)]")
    assert "pair" not in res.witnesses[0]


def test_measure_one_trend_cross_check_reads_only_the_window_cap(irregular):
    # mu_3(Z_1) counts the 1,953 translates of the D_3 window, which the
    # window cap governs, so an enum cap of 1000 keeps the cross-check
    sk = build_skeleton(irregular.tower, irregular.depth, Budget(enum=1000))
    assert run_check(sk, "measure-1-trend").witnesses[0] == {
        "pair": (1, 3), "mu": Fraction(1951, 1953)}


_LADDER_TOWERS = {
    "threeadic": (lambda: build_tower(preset_config("threeadic")), 6),
    "irregular-demo": (lambda: build_tower(preset_config("irregular-demo")),
                       4),
    "lattice": (lambda: IntegerLatticeTower([[3, 3, 3], [3, 3, 3]]), 3),
    "s3_by_z": (lambda: s3_by_z(5), 5),
}


@pytest.mark.parametrize("name", sorted(_LADDER_TOWERS))
def test_no_check_raises_a_refusal_under_a_cap_ladder(monkeypatch, name):
    # a check only ever skips a unit a cap refuses, so no registered check
    # lets BudgetExceeded out, whatever the caps
    raised = []

    def guarded(check, fn):
        def run(skeleton):
            try:
                return fn(skeleton)
            except BudgetExceeded as exc:
                raised.append((check, skeleton.budget, str(exc)))
                return failed(check, "raised BudgetExceeded", str(exc))
        return run

    for check, fn in list(_REGISTRY.items()):
        monkeypatch.setitem(_REGISTRY, check, guarded(check, fn))
    make, depth = _LADDER_TOWERS[name]
    tower = make()
    for enum in (20, 1000, 1 << 22):
        for cap in (100, 1 << 16, 1 << 28):
            try:
                sk = build_skeleton(tower, depth, Budget(enum, cap))
            except BudgetExceeded:
                continue
            assert len(run_all(sk).results) == 16
    assert raised == []


def test_the_window_is_refused_before_the_j_set_is_built(threeadic):
    # J(4) is not cached by the construction, whose blocks reach J(2); a
    # classification is charged |D_m| against the window cap
    sk = build_skeleton(threeadic.tower, 10, Budget(window=200))
    with pytest.raises(BudgetExceeded, match="window D_5 needs 243 cells"):
        verify_refinement(sk, 3, 5)
    with pytest.raises(BudgetExceeded, match="window D_6 needs 729 cells"):
        mu_zero_set(sk, 4, 6)
    assert ("jset", 4) not in sk._cache
    # irregular-demo: J(4) has 3,281,040 elements, and a cap below |D_4|
    # refuses containings n = 3 without building it
    irr = build_skeleton(preset_config("irregular-demo"), 5,
                         Budget(window=1000000))
    with pytest.raises(BudgetExceeded):
        verify_refinement(irr, 3, 4)
    assert ("jset", 4) not in irr._cache


def test_per_eq_is_refused_before_any_mask_is_built(threeadic, monkeypatch):
    # n = 9 reads the D_10 window, which this cap refuses; no smaller window
    # stands in for it, and the step-log rebuild never starts
    def no_rebuild(skeleton, n):
        raise AssertionError("built the step-log masks")

    monkeypatch.setattr(periods, "_step_log_masks", no_rebuild)
    sk = build_skeleton(threeadic.tower, 10, Budget(window=20000))
    with pytest.raises(BudgetExceeded, match="window D_10 needs 59049 cells"):
        periods.per_eq_check(sk, 9)


def test_per_eq_keeps_each_levels_witness(threeadic):
    # the rows of `verify per-eq` carry per_eq_check's witness for every n
    res = run_check(threeadic, "per-eq")
    assert res.status == "Pass"
    assert res.witnesses == [periods.per_eq_check(threeadic, n)
                             for n in range(1, 10)]
    assert all(set(w) == {"zeros", "ones", "probes", "essential"}
               for w in res.witnesses)


def test_only_the_budget_limits_per_eq_and_good_relation(monkeypatch):
    # |D_11| = 177,147 and every window here sit far inside the default caps,
    # so no level or pair is skipped
    sk = build_skeleton(IntegerLineTower([3] * 12), 12)
    per_eq = run_check(sk, "per-eq")
    assert per_eq.status == "Pass"
    assert per_eq.scope.startswith(f"n in {list(range(1, 12))}, ")
    assert "over budget" not in per_eq.scope
    assert (run_check(sk, "good-relation").scope
            == "55 pairs, n+2 <= m <= 12")

    # off the line the essential facet compares |D_n| cells for each of the
    # |D_n| - 1 nonzero translates: 1024 * 1023 fits the enumeration cap,
    # 4096 * 4095 does not, and level 6 builds no mask
    masked = []

    def per_masks(skeleton, n):
        masked.append(n)
        return real(skeleton, n)

    real = periods.per_masks
    monkeypatch.setattr(periods, "per_masks", per_masks)
    sk = build_skeleton(IntegerLatticeTower([[2] * 7, [2] * 7]), 7)
    res = run_check(sk, "per-eq")
    assert res.status == "Pass"
    assert res.scope.startswith("n in [1, 2, 3, 4, 5], ")
    assert res.scope.endswith("; over budget: [6]")
    assert masked == [1, 2, 3, 4, 5]
    with pytest.raises(BudgetExceeded,
                       match="essential level 6 needs 16773120 elements"):
        periods.per_eq_check(sk, 6)


def test_u_in_y_reads_every_probe_from_a_window(monkeypatch, capsys):
    # the probes of irregular-demo all lie in D_4; before u-in-y read them
    # from its cached window it made 899 level scans, one per probe: 465
    # for U and 434 for Y
    reads, pieces = [], []
    real_values, real_eval = window.window_values, window.eval_arr

    def values(skeleton, n):
        reads.append(n)
        return real_values(skeleton, n)

    def counted(skeleton, g):
        before = len(reads)
        out = real_eval(skeleton, g)
        pieces.append(reads[before:])
        return out

    monkeypatch.setattr(window, "window_values", values)
    monkeypatch.setattr(window, "eval_arr", counted)
    sk = build_skeleton(build_tower(preset_config("irregular-demo")), 5)
    assert run_check(sk, "u-in-y").status == "Pass"
    # every piece reads one window (D_3 or D_4), so none is scanned, and
    # each holds many probes
    assert 0 < len(pieces) < 100
    assert all(len(r) == 1 and r[0] in (3, 4) for r in pieces)
    # a cap that refuses D_4 leaves the unit its base D_3: the eval reads
    # what the D_3 window holds and scans the levels for the rest
    pieces.clear()
    assert main(["verify", "u-in-y", "--preset", "irregular-demo",
                 "--window-budget", "1000000"]) == 0
    assert capsys.readouterr().out == (
        "[        Pass] u-in-y: n_k in [1], reps over D_(n_k+2)\n")
    assert [] in pieces and all(r in ([], [3]) for r in pieces)


# -- Fail rows reached by planted windows -----------------------------------


def _flip_settled_at_2(sk, vals):
    # a D_3 cell that level 2 settles is no translate of a Per(2, .) cell,
    # so levels 1 and 2 pass and level 3's step-log rebuild differs first
    vals[np.flatnonzero(window.window_levels(sk, 3) == 2)[0]] ^= 1


def _flip_patch(sk, vals):
    # the D_4 cell gamma0 + gamma + u of the first offset of the first good
    # translate of (1, 4)
    T = sk.tower
    S = good_set(sk, 1, 4)
    _, _, (gam, u) = verify._patch_values(sk, 1, 4, S)
    vals[T.index_of_arr(T.add_arr(S[:1], T.add_arr(gam[:1], u[:1])), 4)] ^= 1


def _flip_eta_1_at_1(sk, vals):
    # no good translate's window shows eta_1 any more
    vals[1] ^= 1


def _drop_the_plant_at_4(sk, vals):
    # step 2's 1 at 4, removed from D_3: mu_3(Z_1) read from the window is
    # 8/9, the step log's 7/9
    vals[4] = 0


def _copy_eta_1_to_1(sk, vals):
    # D_4 shows eta_1's pattern on 1 + D_2, and 1 lies outside Gamma_1, so
    # it joins U but not Y
    T = sk.tower
    d2 = T.domain_arr(2)
    vals[T.index_of_arr(T.add_arr(1, d2), 4)] = (
        window.window_values(sk, 1)[T.coset_index_arr(d2, 1)])


# check -> (fixture, window level, edit, scope, counterexample keys)
PLANTED_FAILS = {
    "per-eq": ("threeadic", 3, _flip_settled_at_2, "level 3",
               {"level", "element", "reason"}),
    "t1t2": ("threeadic", 4, _flip_patch, "(n,m)=(1,4)",
             {"gamma0", "gamma", "u"}),
    "good-patches": ("threeadic", 1, _flip_eta_1_at_1, "(n,m)=(1,4)",
                     {"gamma0", "reason"}),
    "measure-1-trend": ("threeadic", 3, _drop_the_plant_at_4,
                        "closed form at (1,3)", {"direct", "closed"}),
    "u-in-y": ("centered6", 4, _copy_eta_1_to_1, "n_k=1, reps D_3",
               {"n_k", "v"}),
}


def _planted_fail(sk, name):
    """run_check of name on a fresh build of sk whose window is edited as
    PLANTED_FAILS says."""
    _, level, edit, _, _ = PLANTED_FAILS[name]
    vals = window.window_values(sk, level).copy()
    edit(sk, vals)
    return run_check(_planted(sk, level, vals), name)


@pytest.mark.parametrize("name", sorted(PLANTED_FAILS))
def test_a_planted_window_reaches_the_fail_row(request, name):
    fixture, _, _, scope, keys = PLANTED_FAILS[name]
    sk = request.getfixturevalue(fixture)
    assert run_check(sk, name).status != "Fail"
    res = _planted_fail(sk, name)
    assert (res.status, res.scope) == ("Fail", scope)
    assert set(res.counterexample) == keys


def test_a_fail_renders_its_counterexample(threeadic):
    res = _planted_fail(threeadic, "per-eq")
    assert res.counterexample == {
        "level": 3, "element": 4,
        "reason": "step-log union disagrees with level scan"}
    assert res.render().splitlines() == [
        "[        Fail] per-eq: level 3",
        f"{'':15}counterexample: {{'level': 3, 'element': 4, 'reason': "
        "'step-log union disagrees with level scan'}"]


def test_a_counterexample_renders_its_fractions_exactly():
    res = run_check(build_skeleton(s3_by_z(6), 6), "uns-bound")
    assert res.render().splitlines() == [
        "[        Fail] uns-bound: (n,m)=(1,3)",
        f"{'':15}counterexample: {{'n': 1, 'm': 3, 'mu': 0 ~ 0.000000000, "
        "'bound': 1/24 ~ 0.041666667}"]
