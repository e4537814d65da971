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
"""

import random
from array import array
from fractions import Fraction

import numpy as np

from .errors import DepthExceeded
from .skeleton import j_size
from .window import window_values

TAG_ZERO = ("Zero",)


def tag_one(g):
    return ("One", g)


# -- classification of periodized points ---------------------------------


def classify_points(skeleton, m, l, d_arr, chunk=1 << 20):
    """Level-l tags of sigma^{-d} eta_m for each d in the element array d_arr:
    -1 for Zero, else the index of the planted position in the ordered J(l)."""
    T = skeleton.tower
    d_arr = T.array(d_arr)
    vals = window_values(skeleton, m)
    if (vals == 255).any():
        raise DepthExceeded(f"mu_{m} region has undecided cells")
    jl = np.expand_dims(skeleton.jset(l), 0)
    gamma = T.sub_arr(d_arr, T.reduce_arr(d_arr, l))
    out = np.empty(len(d_arr), dtype=np.int64)
    rows = max(1, chunk // jl.shape[1])
    for start in range(0, len(d_arr), rows):
        gm = np.expand_dims(gamma[start:start + rows], 1)
        idx = T.coset_index_arr(T.add_arr(gm, jl), m)
        probe = vals[idx] == 1
        counts = probe.sum(axis=1)
        if (counts > 1).any():
            raise ArithmeticError("two planted cells in one translate")
        out[start:start + rows] = np.where(counts == 1, probe.argmax(axis=1), -1)
    return out


def verify_refinement(skeleton, n, m, sample=None, seed=0):
    """Compare the symbolic parent rule against pointwise classification.

    Classifies sigma^{-d} eta_m at levels n and n+1 for d over D_m (or a
    seeded sample) and checks the child cell's parent matches.  The probe
    cost, points times J(n+1) cells, is held to the window cap before any
    build.  Returns (counterexample_or_None, case_counts, points).
    """
    T = skeleton.tower
    if skeleton.depth < m + 1:
        raise DepthExceeded(f"mu_{m} needs depth >= {m + 1}")
    if m < n + 1:
        raise DepthExceeded("refinement needs m >= n + 1")
    size = T.size(m)
    skeleton.budget.check_window((size if sample is None else sample)
                                 * j_size(T, n + 1), f"refinement n={n} m={m}")
    d_arr = T.domain_arr(m)
    if sample is not None:
        rng = random.Random(seed)
        d_arr = d_arr[[rng.randrange(size) for _ in range(sample)]]

    jn = skeleton.jset(n)
    jn1 = skeleton.jset(n + 1)
    cidx = classify_points(skeleton, m, n + 1, d_arr)
    pidx = classify_points(skeleton, m, n, d_arr)

    kind = skeleton.steps[n]  # step n+1 decides the gamma == 0 column
    plant = kind[0] == "plant"
    counts = {"c1": 0, "c2": 0, "c3": 0, "c4": 0, "c5": 0}

    # the five rules of the module docstring, one array op each
    vn1 = T.reduce_arr(d_arr, n + 1)
    gamma_c = T.sub_arr(vn1, T.reduce_arr(d_arr, n))
    j1_red = T.reduce_arr(jn1, n)
    j1_gam = T.sub_arr(jn1, j1_red)

    is0 = T.eq_arr(gamma_c, T.zero)
    has_c = cidx >= 0
    safe = np.where(has_c, cidx, 0)
    match = has_c & T.eq_arr(j1_gam[safe], gamma_c)
    exp_one = np.where(is0, plant, match)
    exp_g = j1_red[safe]
    if plant:
        exp_g[is0] = kind[1]
    act_one = pidx >= 0
    act_g = jn[np.where(act_one, pidx, 0)]
    bad = (exp_one != act_one) | (exp_one & act_one & ~T.eq_arr(exp_g, act_g))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return ({"d": T.element(d_arr[i]),
                 "child": (T.element(vn1[i]),
                           TAG_ZERO if cidx[i] < 0 else tag_one(T.element(jn1[cidx[i]]))),
                 "expected_parent_one": bool(exp_one[i]),
                 "actual_parent_one": bool(act_one[i])},
                counts, len(d_arr))
    counts["c1"] = int((~is0 & ~has_c).sum())
    counts["c2"] = int((~is0 & match).sum())
    counts["c3"] = int((~is0 & has_c & ~match).sum())
    counts["c4"] = 0 if plant else int(is0.sum())
    counts["c5"] = int(is0.sum()) if plant else 0
    return None, counts, len(d_arr)


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


def chain_mode(skeleton, n_s, exhaustive_cap=200000):
    """How corollary_chain covers the level-n_s atoms: ("exhaustive" or
    "sampled", the number of atoms |D_{n_s}| * (1 + |J(n_s)|))."""
    total = skeleton.tower.size(n_s) * (1 + len(skeleton.jset(n_s)))
    return ("exhaustive" if total <= exhaustive_cap else "sampled"), total


def _chain_atoms(skeleton, n_s, seed, exhaustive_cap):
    """The atoms to check, in order, as D_{n_s} indices and tag picks: pick 0
    is Zero, pick p is One(J(n_s)[p-1]).  Past exhaustive_cap atoms, that
    many are drawn from one seeded stream, a (domain index, pick) pair each."""
    size = skeleton.tower.size(n_s)
    mode, total = chain_mode(skeleton, n_s, exhaustive_cap)
    picks = total // size
    if mode == "exhaustive":
        skeleton.budget.check_enum(size, f"D_{n_s}")
        return np.repeat(np.arange(size), picks), np.tile(np.arange(picks), size)
    rng = random.Random(seed)
    draws = array("q")
    for _ in range(exhaustive_cap):
        draws.append(rng.randrange(size))
        draws.append(rng.randrange(picks))
    draws = np.frombuffer(draws, dtype=np.int64)
    return draws[0::2], draws[1::2]


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


def corollary_chain(skeleton, n_j, n_s, seed=0, exhaustive_cap=200000):
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

    idx, pick = _chain_atoms(skeleton, n_s, seed, exhaustive_cap)
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
    """mu_m(Z_n): translates whose level-n tag is Zero.  The probe cost,
    |D_m| times J(n) cells, is held to the window cap before any build."""
    T = skeleton.tower
    skeleton.budget.check_window(T.size(m) * j_size(T, n), f"mu_{m}(Z_{n})")
    tags = classify_points(skeleton, m, n, T.domain_arr(m))
    return Fraction(int((tags < 0).sum()), T.size(m))

