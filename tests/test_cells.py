"""Cell refinement, the corollary chains, and orbit membership."""

import copy
import functools
from fractions import Fraction

import numpy as np
import pytest

from conftest import relabelled_cyclic
from toeplitzlab import (BudgetExceeded, DepthExceeded, NotInDomain,
                         Undefined, build_skeleton, build_tower, preset_config)
from toeplitzlab import cells, tower, verify
from toeplitzlab.cells import (
    CHAIN_BRANCHES,
    TAG_ZERO,
    corollary_chain,
    mu_zero_set,
    parent_cells,
    tag_one,
    translate_ones,
    verify_refinement,
)
from toeplitzlab.verify import _u_mask, _y_mask, run_all, run_check
from toeplitzlab.window import window_values


# -- the refinement rules one cell at a time: the oracle for the array walks


def _sub(T, a, b):
    return T.element(T.sub_arr(T.array([a]), T.array([b]))[0])


@functools.lru_cache(maxsize=1 << 16)
def _split(T, w, n):
    """w as gamma + v with v = reduce(w, n); the chain oracles split the
    same few points and positions over and over."""
    v = T.reduce(w, n)
    return _sub(T, w, v), v


def decompose_one_position(skeleton, u, n1):
    """u in J(n1) as gamma~ + g~ with g~ = reduce(u, n1 - 1)."""
    return _split(skeleton.tower, u, n1 - 1)


def parent_cell(skeleton, cell, child_level):
    """The unique level-(child_level - 1) cell containing the given cell."""
    T = skeleton.tower
    n = child_level - 1
    if n < 0:
        raise DepthExceeded("no parent below level 0")
    w, tag = cell
    if not T.in_domain(w, child_level):
        raise NotInDomain(f"cell rep {w} not in D_{child_level}")
    gamma, v = _split(T, w, n)
    if gamma == T.zero:
        if child_level > skeleton.depth:
            raise DepthExceeded(f"step {child_level} not constructed")
        kind = skeleton.steps[child_level - 1]
        return (v, tag_one(kind[1]) if kind[0] == "plant" else TAG_ZERO)
    if tag == TAG_ZERO:
        return (v, TAG_ZERO)
    gamma_t, g_t = decompose_one_position(skeleton, tag[1], child_level)
    return (v, tag_one(g_t)) if gamma_t == gamma else (v, TAG_ZERO)


def containment_case(skeleton, cell, child_level):
    """Which of the five refinement rules applies to this child cell."""
    T = skeleton.tower
    w, tag = cell
    gamma, _ = _split(T, w, child_level - 1)
    if gamma == T.zero:
        return "c4" if skeleton.steps[child_level - 1][0] == "zero" else "c5"
    if tag == TAG_ZERO:
        return "c1"
    gamma_t, _ = decompose_one_position(skeleton, tag[1], child_level)
    return "c2" if gamma_t == gamma else "c3"


def test_translate_tables_match_reference(threeadic, oracle3):
    # each point d of D_m reads the 1 of its translate d - reduce(d, l)
    T = threeadic.tower
    for l, m in ((1, 3), (2, 4)):
        keys, ones = translate_ones(threeadic, m, l)
        table = dict(zip(keys.tolist(), T.elements(ones)))
        for d in T.elements(T.domain_arr(m)):
            got = table.get(T.index_of(_sub(T, d, T.reduce(d, l)), m))
            _, want = oracle3.atom_tag(d, l, m)
            assert got == want, (d, l, m)


def test_refinement_rules_hold(threeadic, centered6, oracle3):
    cex, counts, npts = verify_refinement(threeadic, 1, 3)
    assert cex is None
    assert npts == 27
    assert counts == {"c1": 6, "c2": 6, "c3": 6, "c4": 9, "c5": 0}
    # child level 3 is a plant step, so the zero column flips to c5
    cex2, counts2, _ = verify_refinement(threeadic, 2, 4)
    assert cex2 is None
    assert counts2["c4"] == 0 and counts2["c5"] > 0
    assert sum(counts2.values()) == 81
    cexc, _, _ = verify_refinement(centered6, 1, 3)
    assert cexc is None


def _dense_lookup(skeleton, m, l):
    """translate_ones' table spread over D_m: which translates carry a 1,
    and its position, the identity where none does."""
    T = skeleton.tower
    keys, ones = cells.translate_ones(skeleton, m, l)
    has = np.zeros(T.size(m), dtype=bool)
    has[keys] = True
    pos = np.repeat(T.array([T.zero]), T.size(m), axis=0)
    pos[keys] = ones
    return has, pos


def pointwise_refinement(skeleton, n, m):
    """verify_refinement one point d of D_m at a time, a chunk of D_m per
    pass: each d's child cell and parent are read off its own reductions.
    On a Fail the counts are those of the points before the failing chunk.
    """
    T = skeleton.tower
    has_c_at, u_at = _dense_lookup(skeleton, m, n + 1)
    act_one_at, act_g_at = _dense_lookup(skeleton, m, n)
    zero_col = "c5" if skeleton.steps[n][0] == "plant" else "c4"
    counts = {"c1": 0, "c2": 0, "c3": 0, "c4": 0, "c5": 0}
    for start, d_arr in tower.domain_chunks(T, m):
        w = T.reduce_arr(d_arr, n + 1)
        child_at = T.coset_index_arr(T.sub_arr(d_arr, w), m)
        has_c, u = has_c_at[child_at], u_at[child_at]
        v, exp_one, exp_g, w_exit, is0 = parent_cells(skeleton, n + 1, w,
                                                      has_c, u)
        parent_at = T.coset_index_arr(T.sub_arr(d_arr, v), m)
        act_one, act_g = act_one_at[parent_at], act_g_at[parent_at]
        bad = (exp_one != act_one) | (exp_one & act_one
                                      & ~T.eq_arr(exp_g, act_g))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            child = tag_one(T.element(u[i])) if has_c[i] else TAG_ZERO
            return ({"d": T.element(d_arr[i]),
                     "child": (T.element(w[i]), child),
                     "expected_parent_one": bool(exp_one[i]),
                     "actual_parent_one": bool(act_one[i])},
                    counts, start + i + 1)
        exits = int(w_exit.sum())
        counts["c1"] += int((~is0 & ~has_c).sum())
        counts["c2"] += int((~is0 & has_c).sum()) - exits
        counts["c3"] += exits
        counts[zero_col] += int(is0.sum())
    return None, counts, T.size(m)


_REFINED = {
    "threeadic6": lambda request: build_skeleton(
        build_tower(preset_config("threeadic")), 6),
    "centered6": lambda request: request.getfixturevalue("centered6"),
    "lattice": lambda request: request.getfixturevalue("lattice"),
    "generic": lambda request: build_skeleton(
        relabelled_cyclic([3] * 6, 1)[0], 6),
    "s3_by_z5": lambda request: request.getfixturevalue("s3_by_z5"),
}


def _containings_units(skeleton):
    """The (n, m) that containings checks."""
    dep = skeleton.depth
    return [(n, min(n + 2, dep - 1)) for n in range(1, dep - 1)]


@pytest.mark.parametrize("name", sorted(_REFINED))
def test_refinement_matches_the_pointwise_oracle(request, name):
    sk = _REFINED[name](request)
    units = _containings_units(sk)
    assert units
    for n, m in units:
        got = verify_refinement(sk, n, m)
        assert got == pointwise_refinement(sk, n, m), (n, m)
        assert got[0] is None


@pytest.mark.parametrize("name, depth, tables", [("irregular-demo", 5, 6),
                                                 ("threeadic", 10, 21)])
def test_a_suite_builds_each_translate_table_once(name, depth, tables):
    # partitions-c, containings and measure-1-trend read the same (m, l)
    # tables: while each check built its own, irregular-demo built 9 tables
    # for these 6 and threeadic 24 for these 21
    sk = build_skeleton(build_tower(preset_config(name)), depth)
    built, honest = [], sk.cached

    def recording(key, build):
        def counted():
            built.append(key)
            return build()
        return honest(key, counted)

    sk.cached = recording
    run_all(sk)
    ones = [key for key in built if key[0] == "ones"]
    assert len(ones) == len(set(ones)) == tables


def _dropping_ones(l_drop):
    """translate_ones with its level-l_drop tables emptied, as if no
    translate carried a 1."""
    honest = cells.translate_ones

    def tampered(skeleton, m, l):
        keys, ones = honest(skeleton, m, l)
        return (keys[:0], ones[:0]) if l == l_drop else (keys, ones)
    return tampered


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("side", ["parent", "child"])
@pytest.mark.parametrize("name", ["threeadic6", "lattice", "generic",
                                  "s3_by_z5"])
def test_refinement_fail_names_the_oracles_first_point(request, monkeypatch,
                                                       name, side, chunk):
    sk = _REFINED[name](request)
    n, m = _containings_units(sk)[0]
    if chunk is not None:  # None: the default
        monkeypatch.setattr(tower, "CHUNK", chunk)
    monkeypatch.setattr(cells, "translate_ones",
                        _dropping_ones(n if side == "parent" else n + 1))
    cex, counts, points = verify_refinement(sk, n, m)
    want = pointwise_refinement(sk, n, m)
    assert cex is not None and counts is None
    assert (cex, points) == (want[0], want[2])
    res = run_check(sk, "containings")
    assert res.status == "Fail"
    assert res.scope == f"n={n} m={m}"
    assert res.counterexample == cex


# containings' case counts on irregular-demo, pinned before the rules moved
# into one function
_IRREGULAR_CASES = [
    (1, 3, {"c1": 27450, "c2": 30, "c3": 870, "c4": 945, "c5": 0}),
    (2, 4, {"c1": 3603750, "c2": 930, "c3": 56730, "c4": 0, "c5": 59055}),
    (3, 4, {"c1": 0, "c2": 29295, "c3": 3661875, "c4": 0, "c5": 29295}),
]


def test_containings_case_counts_are_pinned(irregular):
    res = run_check(irregular, "containings")
    assert res.status == "Pass"
    assert [(w["n"], w["m"], w["cases"]) for w in res.witnesses] \
        == _IRREGULAR_CASES


def test_parent_cell_cases(threeadic):
    # gamma = 9, child tag One(13): 13 = 9 + 4, so the parent keeps One(4)
    assert parent_cell(threeadic, (9 + 4, tag_one(13)), 3) == (4, tag_one(4))
    # mismatched column collapses to Zero
    assert parent_cell(threeadic, (18 + 4, tag_one(13)), 3) == (4, TAG_ZERO)
    # zero column at a plant step takes the planted position
    assert parent_cell(threeadic, (4, tag_one(13)), 3) == (4, tag_one(4))


def _closing_step_planted(skeleton, block):
    """A copy of skeleton whose block's closing zero step m_k plants the
    identity instead."""
    sk = copy.copy(skeleton)
    sk.steps = list(skeleton.steps)
    sk.steps[skeleton.m_k[block] - 1] = ("plant", skeleton.tower.zero)
    return sk


def test_zero_set_identity_at_block_ends(threeadic):
    # steps 2, 5 and 10 close blocks 0, 1 and 2; the chains' one-column
    # exits sit there, so z-identity asserts each is a zero step
    res = run_check(threeadic, "z-identity")
    assert res.status == "Pass"
    assert [w for w in res.witnesses if "block" in w] == [
        {"block": 0, "m_k": 2}, {"block": 1, "m_k": 5},
        {"block": 2, "m_k": 10}]
    for block in (0, 1, 2):
        mutant = run_check(_closing_step_planted(threeadic, block),
                           "z-identity")
        assert mutant.status == "Fail"
        assert mutant.scope == f"block {block} closing step"
        assert mutant.counterexample == {
            "block": block, "m_k": threeadic.m_k[block],
            "step": ("plant", 0)}


def test_corollary_chain_frozen_counts(threeadic):
    cex, branches, checked = corollary_chain(threeadic, [1], 4)[1]
    assert cex is None
    assert checked == 1377
    assert branches == {"already_zero": 69, "w_exit": 816, "one_column": 240,
                        "not_zero_ancestor": 252}


def _reference_exit(skeleton, atom, n_j, n_s):
    """The branch through which one atom leaves on its chain (n_j, n_s),
    None if it has no exit, and the chain, through parent_cell and
    containment_case."""
    m_window = {skeleton.m_k[k] - 1 for k in skeleton.completed_blocks()
                if n_j <= skeleton.m_k[k] - 1 < n_s}
    chain = {n_s: atom}
    for r in range(n_s, n_j, -1):
        chain[r - 1] = parent_cell(skeleton, chain[r], r)
    branch = None
    if chain[n_j][1] != TAG_ZERO:
        branch = "not_zero_ancestor"
    elif atom[1] == TAG_ZERO:
        branch = "already_zero"
    else:
        for r in range(n_j + 1, n_s + 1):
            case = containment_case(skeleton, chain[r], r)
            if case == "c3":
                branch = "w_exit"
                break
            if r - 1 in m_window and case == "c4" and chain[r][1][0] == "One":
                branch = "one_column"
                break
    return branch, sorted(chain.items())


def _reference_chain(skeleton, n_j, n_s):
    """corollary_chain one atom at a time: the atoms with no exit, the
    branch counts of the others and the number of atoms."""
    T = skeleton.tower
    tags = [TAG_ZERO] + [tag_one(u) for u in T.elements(skeleton.jset(n_s))]
    atoms = [(w, tag) for w in T.elements(T.domain_arr(n_s)) for tag in tags]
    missing, branches = [], dict.fromkeys(CHAIN_BRANCHES, 0)
    for atom in atoms:
        branch, _ = _reference_exit(skeleton, atom, n_j, n_s)
        if branch is None:
            missing.append(atom)
        else:
            branches[branch] += 1
    return missing, branches, len(atoms)


@pytest.mark.parametrize("name, n_j, n_s", [
    ("threeadic", 1, 4),
    ("centered6", 1, 4),
    ("lattice", 1, 2),
    ("lattice", 1, 3),
    ("relabelled36", 1, 4),
    ("s3_by_z5", 1, 5),
])
def test_corollary_chain_matches_reference_walk(request, name, n_j, n_s):
    sk = request.getfixturevalue(name)
    if name == "relabelled36":
        sk = sk[0]
    missing, branches, atoms = _reference_chain(sk, n_j, n_s)
    assert missing == []
    assert corollary_chain(sk, [n_j], n_s)[n_j] == (None, branches, atoms)


def test_corollary_chain_fails_without_the_m_window(threeadic):
    # with every block boundary past the depth no zero-step One column counts
    # as an exit, so an atom that leaves only through one has none
    sk = copy.copy(threeadic)
    sk.m_k = [m + threeadic.depth for m in threeadic.m_k]
    assert sk.completed_blocks() == []
    cex, branches, atoms = corollary_chain(sk, [1], 4)[1]
    missing, want, want_atoms = _reference_chain(sk, 1, 4)
    assert (branches, atoms) == (want, want_atoms) == (branches, 1377)
    assert sum(branches.values()) == atoms - len(missing)
    # the named atom has no exit, and its chain runs from n_s down to n_j
    assert cex["atom"] in missing
    assert _reference_exit(sk, cex["atom"], 1, 4) == (None, cex["chain"])
    assert [lvl for lvl, _ in cex["chain"]] == [1, 2, 3, 4]
    assert cex["chain"][0][1][1] == TAG_ZERO


def test_z_identity_fails_on_a_chain_atom_with_no_exit():
    # threeadic d5 with step 3's plant (h = 4) made a zero step that closes
    # no block; a fresh skeleton, as a copy would share the fixture's memo
    sk = build_skeleton(build_tower(preset_config("threeadic")), 5)
    assert sk.steps[2] == ("plant", 4)
    sk.steps[2] = ("zero",)
    res = run_check(sk, "z-identity")
    assert (res.status, res.scope) == ("Fail", "chain (1,4)")
    cex = res.counterexample
    assert cex["atom"] == (27, tag_one(40))
    assert _reference_exit(sk, cex["atom"], 1, 4) == (None, cex["chain"])


# threeadic's chains ending at n_s = 9, over all |D_9| * (1 + |J(9)|) =
# 19683 * 513 atoms
_EXACT_BRANCHES = {
    (1, 9): {"already_zero": 16647, "w_exit": 6210048,
             "one_column": 2311680, "not_zero_ancestor": 1559004},
    (4, 9): {"already_zero": 16443, "w_exit": 6676992,
             "one_column": 1700352, "not_zero_ancestor": 1703592},
}


@pytest.mark.parametrize("span, branches", sorted(_EXACT_BRANCHES.items()))
def test_chain_branch_counts_are_pinned(threeadic, span, branches):
    cex, got, atoms = corollary_chain(threeadic, [span[0]], span[1])[span[0]]
    assert cex is None
    assert atoms == 10097379 == sum(got.values())
    assert got == branches


def test_chains_that_share_n_s_draw_and_walk_once(threeadic, monkeypatch):
    walks = []
    monkeypatch.setattr(cells, "corollary_chain",
                        lambda *a: walks.append(a[1:]) or corollary_chain(*a))
    monkeypatch.setattr(verify, "corollary_chain", cells.corollary_chain)
    res = run_check(threeadic, "z-identity")
    assert res.status == "Pass"
    assert walks == [([1], 4), ([1, 4], 9)]
    got = {w["span"]: w["branches"] for w in res.witnesses if "span" in w}
    assert got == {(1, 4): {"already_zero": 69, "w_exit": 816,
                            "one_column": 240, "not_zero_ancestor": 252},
                   **_EXACT_BRANCHES}
    # one walk to n_j = 1 reads (4, 9) off on its way down
    assert corollary_chain(threeadic, [1, 4], 9) == {
        nj: (None, b, 10097379) for (nj, _), b in _EXACT_BRANCHES.items()}


def test_corollary_chain_refuses_counts_past_int64(threeadic, monkeypatch):
    threeadic.jset(4)
    monkeypatch.setattr(threeadic.tower, "size", lambda n: 2 ** 59)
    with pytest.raises(BudgetExceeded, match=r"level 4 have \d+ atoms, past"):
        corollary_chain(threeadic, [1], 4)


def test_corollary_chain_irregular(irregular):
    # |D_3| * (1 + |J(3)|) = 29295 * 26041 atoms, every one with an exit
    cex, branches, atoms = corollary_chain(irregular, [1], 3)[1]
    assert cex is None
    assert branches == {"already_zero": 29280, "w_exit": 761279400,
                        "one_column": 781200, "not_zero_ancestor": 781215}
    T = irregular.tower
    assert atoms == sum(branches.values()) == T.size(3) * (
        1 + len(irregular.jset(3))) == 762871095


def test_orbit_membership_matches_reference(threeadic, oracle3):
    # U_1 and Y_1 membership as the u-in-y check computes it
    base = threeadic.tower.array(range(27))
    in_u = _u_mask(threeadic, base, 1)
    in_y = _y_mask(threeadic, base, 1)
    assert in_u.tolist() == [oracle3.in_un(v, 1) for v in range(27)]
    assert in_y.tolist() == [oracle3.in_yn(v, 1) for v in range(27)]
    assert [v for v in range(27) if in_u[v]] == [15, 18, 21]


def _u_first_mismatch(sk, v, n):
    """U_n membership of v one probe at a time, in _u_mask's order: None for
    a member, else the value at v's first mismatching probe."""
    T = sk.tower
    shifts = T.domain_arr(n + 1)
    target = window_values(sk, n)[T.coset_index_arr(shifts, n)]
    for i in np.argsort(target == 0, kind="stable"):
        got = sk.eval(v + int(shifts[i]))
        if got != target[i]:
            return got
    return None


@pytest.mark.parametrize("chunk", [None, 7])
def test_u_mask_needs_each_points_first_mismatch_defined(threeadic5,
                                                         monkeypatch, chunk):
    # at depth 5 some probes of D_5 + D_2 lie in J(5) and are undefined: a
    # point whose first mismatch is one stops the check, a point that left
    # U before meeting one does not, even in the same batch
    if chunk is not None:
        monkeypatch.setattr(tower, "CHUNK", chunk)
    T = threeadic5.tower
    first = [_u_first_mismatch(threeadic5, v, 1) for v in range(T.size(5))]
    late = [v for v, f in enumerate(first) if f is not Undefined]
    stops = [v for v, f in enumerate(first) if f is Undefined]
    assert len(late) == 183 and stops[:3] == [114, 117, 120]

    in_u = _u_mask(threeadic5, T.array(late), 1)
    assert in_u.tolist() == [first[v] is None for v in late]
    with pytest.raises(DepthExceeded):
        _u_mask(threeadic5, T.array(late + stops[:1]), 1)


def test_zero_set_masses(threeadic):
    assert mu_zero_set(threeadic, 1, 4) == Fraction(23, 27)
    assert mu_zero_set(threeadic, 1, 9) == Fraction(5549, 6561)
    assert mu_zero_set(threeadic, 4, 9) == Fraction(203, 243)


def test_zero_set_mass_matches_reference(threeadic, oracle3):
    for n, m in ((1, 3), (1, 4), (2, 4)):
        assert mu_zero_set(threeadic, n, m) == oracle3.mu_zn(n, m)

