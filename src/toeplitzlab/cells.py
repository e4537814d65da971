"""Cells and their refinement between consecutive levels.

A level-n cell is a pair (v, tag) with v in D_n and tag one of
  ("Zero",)    the translate of the all-zero slot block
  ("One", g)   the translate picking the planted position g in J(n)

Every level-(n+1) cell sits inside exactly one level-n cell.  With
w = gamma + v (gamma in Gamma_n cap D_{n+1}, v = reduce(w, n)) and a One-tag
position u = gamma~ + g~ (gamma~ nonzero since J(n+1) is built from nonzero
translates of J(n)), the parent tag is:

  (1) gamma != 0, Zero                 -> Zero
  (2) gamma != 0, One(u), gamma~ == gamma -> One(g~)
  (3) gamma != 0, One(u), gamma~ != gamma -> Zero
  (4) gamma == 0, step n+1 is zero     -> Zero      (whole child cell)
  (5) gamma == 0, step n+1 plants h    -> One(h)    (whole child cell)

These rules are verified empirically on the periodized measures by
classify/parent comparison over whole domains, and they drive the set
identities for Z_n and the corollary chains.  Here they exist only as array
ops over many cells at once (verify_refinement, _chain_level); their
one-cell form, parent_cell and containment_case, lives in tests/test_cells.py
as the oracle those array walks are compared against.

Each Gamma_l-translate of J(l) carries at most one planted 1: translate_ones
reads it off a window's 1-cells in one pass, and every level-l tag here, as
well as the partitions check, is a lookup in that table.
"""

import random
from fractions import Fraction

import numpy as np

from .errors import DepthExceeded, DoubledOne
from .window import window_values

TAG_ZERO = ("Zero",)


def tag_one(g):
    return ("One", g)


# -- classification of periodized points ---------------------------------

_POINT_CHUNK = 1 << 18  # points of D_m per array pass of verify_refinement


def translate_ones(skeleton, m, l):
    """The planted 1 of every translate gamma + J(l), gamma in Gamma_l cap
    D_m, read from the 1-cells of the D_m window in one pass.

    Each 1-cell x of D_m lies in the translate gamma + D_l with gamma =
    x - reduce(x, l) (the tiling axiom), and in gamma + J(l) when reduce(x, l)
    is in J(l).  Returns an array over D_m holding, at the D_m index of each
    such gamma, the J(l) index of its translate's 1, and -1 everywhere else.
    Raises DepthExceeded on undecided cells, and DoubledOne when a translate
    carries two 1s.
    """
    T = skeleton.tower
    vals = window_values(skeleton, m)
    if (vals == 255).any():
        raise DepthExceeded(f"mu_{m} region has undecided cells")
    jl = skeleton.jset(l)
    dtype = np.min_scalar_type(-T.size(l))
    jpos = np.full(T.size(l), -1, dtype=dtype)
    jpos[T.index_of_arr(jl, l)] = np.arange(len(jl))
    x = T.domain_arr(m)[vals == 1]
    r = T.reduce_arr(x, l)
    pick = jpos[T.index_of_arr(r, l)]
    gamma = T.sub_arr(x, r)[pick >= 0]
    pick = pick[pick >= 0]
    key = T.index_of_arr(gamma, m)
    table = np.full(T.size(m), -1, dtype=dtype)
    table[key] = pick
    if (table >= 0).sum() < len(key):
        keys, counts = np.unique(key, return_counts=True)
        i = int((counts > 1).argmax())
        raise DoubledOne(T.element(gamma[key == keys[i]][0]), int(counts[i]))
    return table


def classify_points(skeleton, m, l, d_arr):
    """Level-l tags of sigma^{-d} eta_m for each d in the element array d_arr:
    -1 for Zero, else the index of the planted position in the ordered J(l).
    A point's translate gamma is taken mod Gamma_m into D_m."""
    T = skeleton.tower
    d_arr = T.array(d_arr)
    gamma = T.sub_arr(d_arr, T.reduce_arr(d_arr, l))
    return translate_ones(skeleton, m, l)[T.coset_index_arr(gamma, m)]


def verify_refinement(skeleton, n, m):
    """Compare the symbolic parent rule against pointwise classification.

    Classifies sigma^{-d} eta_m at levels n and n+1 for every d in D_m and
    checks the child cell's parent matches, _POINT_CHUNK points at a time.
    Returns (counterexample_or_None, case_counts, points).
    """
    T = skeleton.tower
    if skeleton.depth < m + 1:
        raise DepthExceeded(f"mu_{m} needs depth >= {m + 1}")
    if m < n + 1:
        raise DepthExceeded("refinement needs m >= n + 1")
    ones_c = translate_ones(skeleton, m, n + 1)
    ones_p = translate_ones(skeleton, m, n)
    jn = skeleton.jset(n)
    jn1 = skeleton.jset(n + 1)
    kind = skeleton.steps[n]  # step n+1 decides the gamma == 0 column
    plant = kind[0] == "plant"
    counts = {"c1": 0, "c2": 0, "c3": 0, "c4": 0, "c5": 0}
    dom = T.domain_arr(m)
    for start in range(0, len(dom), _POINT_CHUNK):
        d_arr = dom[start:start + _POINT_CHUNK]
        vn1 = T.reduce_arr(d_arr, n + 1)
        vn = T.reduce_arr(d_arr, n)
        cidx = ones_c[T.coset_index_arr(T.sub_arr(d_arr, vn1), m)]
        pidx = ones_p[T.coset_index_arr(T.sub_arr(d_arr, vn), m)]

        # the five rules of the module docstring, one array op each
        gamma_c = T.sub_arr(vn1, vn)
        is0 = T.eq_arr(gamma_c, T.zero)
        has_c = cidx >= 0
        u = jn1[np.where(has_c, cidx, 0)]
        exp_g = T.reduce_arr(u, n)
        match = has_c & T.eq_arr(T.sub_arr(u, exp_g), gamma_c)
        exp_one = np.where(is0, plant, match)
        if plant:
            exp_g[is0] = kind[1]
        act_one = pidx >= 0
        act_g = jn[np.where(act_one, pidx, 0)]
        bad = (exp_one != act_one) | (exp_one & act_one
                                      & ~T.eq_arr(exp_g, act_g))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            child = TAG_ZERO if cidx[i] < 0 else tag_one(T.element(u[i]))
            return ({"d": T.element(d_arr[i]),
                     "child": (T.element(vn1[i]), child),
                     "expected_parent_one": bool(exp_one[i]),
                     "actual_parent_one": bool(act_one[i])},
                    counts, start + i + 1)
        counts["c1"] += int((~is0 & ~has_c).sum())
        counts["c2"] += int((~is0 & match).sum())
        counts["c3"] += int((~is0 & has_c & ~match).sum())
        counts["c5" if plant else "c4"] += int(is0.sum())
    return None, counts, len(dom)


# -- the set identities ----------------------------------------------------


def zero_set_identity(skeleton, n):
    """Class algebra for the Z_n recursion at level n.

    Children classes are (gamma, tag-class) with gamma over Gamma_n cap
    D_{n+1} and tag-class Zero or One(gamma~).  LHS: classes whose parent tag
    is Zero.  RHS: Z_{n+1} union W_{n+1}, plus the full One column at
    gamma == 0 when step n+1 is a zero step.  Equality must hold exactly at
    zero steps (n in M) and containment LHS <= RHS otherwise.

    Returns (equality_holds, containment_holds, class_table).  The table
    holds the section as "gamma", its nonzero part as "nonzero" (the
    gamma~ of the One classes, after the Zero class), and the LHS and RHS as
    boolean "parent_zero" and "rhs" arrays over gamma x tag-class.
    """
    T = skeleton.tower
    if n + 1 > skeleton.depth:
        raise DepthExceeded(f"zero-set identity at {n} needs depth >= {n + 1}")
    plant = skeleton.steps[n][0] == "plant"
    sec = T.section_arr(n, n + 1, skeleton.budget)
    is0 = T.eq_arr(sec, T.zero)
    nz = sec[~is0]
    # One classes: W_{n+1} needs gamma not in {0, gamma~}; at gamma == 0
    # the C^1 column exists at zero steps, on both sides
    one = ~T.eq_arr(np.expand_dims(sec, 1), np.expand_dims(nz, 0))
    one[is0] = not plant
    # the Zero class: LHS unless gamma == 0 at a plant step; RHS is Z_{n+1}
    lhs = np.column_stack((~is0 | (not plant), one))
    rhs = np.column_stack((np.ones(len(sec), dtype=bool), one))
    table = {"gamma": sec, "nonzero": nz, "parent_zero": lhs, "rhs": rhs}
    return bool((lhs == rhs).all()), bool((rhs | ~lhs).all()), table


def class_rows(tower, table, mask):
    """The first three classes of a zero_set_identity table where the
    boolean mask over gamma x tag-class holds, gamma-major, as dicts."""
    rows = []
    for i, c in np.argwhere(mask)[:3].tolist():
        tag = TAG_ZERO if c == 0 else ("OneClass",
                                       tower.element(table["nonzero"][c - 1]))
        rows.append({"gamma": tower.element(table["gamma"][i]), "tag": tag,
                     "parent_zero": bool(table["parent_zero"][i, c]),
                     "rhs": bool(table["rhs"][i, c])})
    return rows


CHAIN_BRANCHES = ("already_zero", "w_exit", "one_column", "not_zero_ancestor")


# a corollary chain checks every atom when there are at most _CHAIN_ATOMS,
# else that many drawn from random.Random(_CHAIN_SEED)
_CHAIN_ATOMS = 200000
_CHAIN_SEED = 0


def chain_mode(skeleton, n_s):
    """How corollary_chain covers the level-n_s atoms: ("exhaustive" or
    "sampled", the number of atoms |D_{n_s}| * (1 + |J(n_s)|))."""
    total = skeleton.tower.size(n_s) * (1 + len(skeleton.jset(n_s)))
    return ("exhaustive" if total <= _CHAIN_ATOMS else "sampled"), total


_WORD_PASS = 1 << 16  # MT19937 words _randrange_pairs reads per pass


def _randrange_pairs(seed, size, picks, count):
    """The first count pairs (randrange(size), randrange(picks)) that
    random.Random(seed) draws in turn, as two int64 arrays, read from its
    32-bit words _WORD_PASS at a time.

    randrange(n) takes the top n.bit_length() bits of one word and draws
    again while they are >= n.  Which draw a word serves is then a two-state
    machine, state 0 awaiting a size and state 1 a pick: a word both draws
    accept flips the state, one only the size draw (pick draw) accepts sets
    it to 1 (0), and one neither accepts keeps it.  The state after a word
    is that of the last setting word, flipped once per flip since, and a
    word is used when it changes the state.
    """
    if max(size, picks).bit_length() > 32:
        raise ValueError(f"sampled chain draws need size and picks below "
                         f"2**32, got {size} and {picks}")
    shift_size, shift_pick = 32 - size.bit_length(), 32 - picks.bit_length()
    rng = random.Random(seed)
    # a setting word's key: 2 + twice its position, plus its state with the
    # flips up to it undone, so a running maximum picks the last one
    key = np.arange(2, 2 * _WORD_PASS + 2, 2, dtype=np.int32)
    before = np.empty(_WORD_PASS, dtype=bool)
    state, got, out = 0, 0, []
    while got < 2 * count:
        words = np.frombuffer(rng.getrandbits(32 * _WORD_PASS).to_bytes(
            4 * _WORD_PASS, "little"), dtype="<u4")
        to_one = (words >> shift_size) < size
        to_zero = (words >> shift_pick) < picks
        flipped = np.bitwise_xor.accumulate(to_one & to_zero)
        last = np.maximum.accumulate((key | (to_one ^ flipped))
                                     * (to_one ^ to_zero))
        after = (np.maximum(last, state) & 1).astype(bool) ^ flipped
        before[0], before[1:] = state, after[:-1]
        out.append(np.compress(before ^ after, words))
        got += len(out[-1])
        state = int(after[-1])
    draws = np.concatenate(out)[:2 * count]
    return ((draws[0::2] >> shift_size).astype(np.int64),
            (draws[1::2] >> shift_pick).astype(np.int64))


def _chain_atoms(skeleton, n_s):
    """The atoms to check, in order, as D_{n_s} indices and tag picks: pick 0
    is Zero, pick p is One(J(n_s)[p-1]).  Past _CHAIN_ATOMS atoms, that
    many (domain index, pick) pairs are drawn from
    random.Random(_CHAIN_SEED)."""
    size = skeleton.tower.size(n_s)
    mode, total = chain_mode(skeleton, n_s)
    picks = total // size
    if mode == "exhaustive":
        skeleton.budget.check_enum(size, f"D_{n_s}")
        return np.repeat(np.arange(size), picks), np.tile(np.arange(picks), size)
    return _randrange_pairs(_CHAIN_SEED, size, picks, _CHAIN_ATOMS)


def _chain_level(skeleton, r, w, tag):
    """One level of the corollary-chain walk for atoms w over D_r with One
    positions as D_r indices in tag (-1 for Zero).  Returns their level-(r-1)
    parents (v, tag) by the rules of the module docstring, and the masks of
    the One atoms that exit through rule (3) and of those at gamma == 0."""
    T = skeleton.tower
    dom = T.domain_arr(r)
    g_t = T.reduce_arr(dom, r - 1)
    gamma_t = T.sub_arr(dom, g_t)
    v = T.reduce_arr(w, r - 1)
    gamma = T.sub_arr(w, v)
    is0 = T.eq_arr(gamma, T.zero)
    one = tag >= 0
    safe = np.where(one, tag, 0)
    match = one & T.eq_arr(gamma_t[safe], gamma)
    # parent tags: rule (2), else Zero, and rules (4)/(5) on gamma == 0
    parent = np.where(match, T.index_of_arr(g_t, r - 1)[safe], -1)
    kind = skeleton.steps[r - 1]
    parent[is0] = T.index_of(kind[1], r - 1) if kind[0] == "plant" else -1
    return v, parent, one & ~is0 & ~match, one & is0


def corollary_chain(skeleton, n_j, n_s):
    """Every finest Zero-ancestor atom passes through an allowed exit.

    For atoms (w, tag) at level n_s whose iterated parent at level n_j is a
    Zero cell, one of: the atom itself is a Zero cell, some intermediate cell
    lies in W_r, or the chain crosses a zero-step One column at some m in M.
    All atoms walk down together, one level at a time, by the rules of the
    module docstring; an atom is w over D_r with its One position as a D_r
    index (-1 for Zero).  Returns (counterexample_or_None, branch_counts,
    atoms_checked), stopping at the first atom with no exit, whose chain the
    same walk rebuilds.
    """
    T = skeleton.tower
    if n_s > skeleton.depth:
        raise DepthExceeded("chain exceeds constructed depth")
    js = skeleton.jset(n_s)
    m_zero_steps = {skeleton.m_k[k] - 1 for k in skeleton.completed_blocks()}
    m_window = {m for m in m_zero_steps if n_j <= m < n_s}

    idx, pick = _chain_atoms(skeleton, n_s)
    atoms = T.domain_arr(n_s)[idx], np.concatenate(
        ([-1], T.index_of_arr(js, n_s)))[pick]
    w, tag = atoms
    branch = np.full(len(pick), -1, dtype=np.int8)  # CHAIN_BRANCHES index, -1 if none
    for r in range(n_s, n_j, -1):
        w, parent, w_exit, zero_col = _chain_level(skeleton, r, w, tag)
        # walking down, the last exit written is the first in ascending r
        branch[w_exit] = 1                               # w_exit: rule (3)
        if skeleton.steps[r - 1][0] == "zero" and r - 1 in m_window:
            branch[zero_col] = 2                         # one_column: rule (4)
        tag = parent

    branch[pick == 0] = 0                                # already_zero
    branch[tag >= 0] = 3                                 # not_zero_ancestor
    missing = np.flatnonzero(branch < 0)
    first = int(missing[0]) if len(missing) else len(branch)
    counts = np.bincount(branch[:first], minlength=len(CHAIN_BRANCHES))
    branches = {name: int(c) for name, c in zip(CHAIN_BRANCHES, counts)}
    if first == len(branch):
        return None, branches, first
    w, tag = (a[first:first + 1] for a in atoms)
    chain = []
    for r in range(n_s, n_j - 1, -1):
        one = T.domain_arr(r)[tag[0]] if tag[0] >= 0 else None
        chain.append((r, (T.element(w[0]),
                          TAG_ZERO if one is None else tag_one(T.element(one)))))
        if r > n_j:
            w, tag, _, _ = _chain_level(skeleton, r, w, tag)
    return {"atom": chain[0][1], "chain": chain[::-1]}, branches, first + 1


# -- measures of cell families --------------------------------------------


def mu_zero_set(skeleton, n, m):
    """mu_m(Z_n): the share of D_m whose level-n tag is Zero.  The |D_n|
    points of a translate gamma + D_n share gamma's tag, so the section
    Gamma_n cap D_m stands for all of D_m."""
    tags = classify_points(skeleton, m, n,
                           skeleton.tower.section_arr(n, m, skeleton.budget))
    return Fraction(int((tags < 0).sum()), len(tags))

