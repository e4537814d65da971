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

parent_cells is the one encoding of these rules: array ops over many cells
at once, on the cells' elements alone.  verify_refinement checks it against
the classification of periodized points over whole domains, and the
corollary-chain walk applies it once per level.  Its one-cell form,
parent_cell and containment_case, lives in tests/test_cells.py as the oracle
both are compared against, beside verify_refinement's pointwise form.

The tilings split each d in D_m as gc + gp + v, with gc in Gamma_{n+1} cap
D_m, gp in Gamma_n cap D_{n+1} and v in D_n.  sigma^{-d} eta_m shows the
level-(n+1) cell (gp + v, the tag of the translate gc) and the level-n tag
of the translate gc + gp, and the rule's verdict reads gamma = gp, never v:
so one pair (gc, gp) decides all |D_n| of its points at once.

Each Gamma_l-translate of J(l) carries at most one planted 1: translate_ones
reads them off a window's 1-cells into a table sorted by translate that holds
each 1's position in J(l) itself, once per skeleton, and every level-l tag
here, as well as the partitions check and mu_m(Z_n), is a lookup in it or
its length.
"""

from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, DepthExceeded, DoubledOne
from .skeleton import j_mask
from .tower import domain_chunks, sum_chunks
from .window import UNDEFINED, window_values

TAG_ZERO = ("Zero",)


def tag_one(g):
    return ("One", g)


# -- classification of periodized points ---------------------------------

def translate_ones(skeleton, m, l):
    """The planted 1 of every translate gamma + J(l), gamma in Gamma_l cap
    D_m, read from the 1-cells of the D_m window chunk by chunk.

    Each 1-cell x of D_m lies in the translate gamma + D_l with gamma =
    x - reduce(x, l) (the tiling axiom), and in gamma + J(l) when reduce(x, l)
    is in J(l).  Returns the table (keys, ones): the sorted D_m indices of
    the gammas whose translate carries a 1, and each one's planted position
    reduce(x, l), an element of J(l).  Raises DepthExceeded on undecided
    cells, and DoubledOne naming the least translate that carries two 1s.
    The skeleton keeps each table it built, and none it refused.
    """
    def build():
        T = skeleton.tower
        vals = window_values(skeleton, m)
        if (vals == UNDEFINED).any():
            raise DepthExceeded(f"mu_{m} region has undecided cells")
        gammas, ones = [], []
        for start, g in domain_chunks(T, m):
            x = g[vals[start:start + len(g)] == 1]
            r = T.reduce_arr(x, l)
            in_j = j_mask(T, r, l)
            gammas.append(T.sub_arr(x[in_j], r[in_j]))
            ones.append(r[in_j])
        gamma, one = np.concatenate(gammas), np.concatenate(ones)
        key = T.index_of_arr(gamma, m)
        order = np.argsort(key, kind="stable")
        key = key[order]
        again = np.flatnonzero(key[1:] == key[:-1])
        if len(again):
            i = int(again[0])  # the least repeated key, first in read order
            raise DoubledOne(T.element(gamma[order[i]]),
                             int(np.count_nonzero(key == key[i])))
        return key, one[order]

    return skeleton.cached(("ones", m, l), build)


def translate_picks(tower, keys, ones, idx):
    """Which translates whose D_m index is in idx carry a 1, and the
    position of that 1 (the identity where there is none), from
    translate_ones' table (keys, ones)."""
    pos = np.searchsorted(keys, idx)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == idx[hit]
    position = np.full((len(idx),) + ones.shape[1:], tower.zero,
                       dtype=ones.dtype)
    position[hit] = ones[pos[hit]]
    return hit, position


def parent_cells(skeleton, r, w, one, u):
    """Level-(r-1) parents of the level-r cells (w, tag), by the rules of
    the module docstring.  w is an element array over D_r, the mask `one`
    marks the One cells and u holds their positions in J(r) (any element
    where `one` is false).

    Returns (v, parent_one, g, w_exit, is0): the parents' points v, which
    parents are One and their positions g in J(r-1), the One cells that
    exit through rule (3), and the cells at gamma == 0.
    """
    T = skeleton.tower
    v = T.reduce_arr(w, r - 1)
    gamma = T.sub_arr(w, v)
    is0 = T.eq_arr(gamma, T.zero)
    g = T.reduce_arr(u, r - 1)
    match = one & T.eq_arr(T.sub_arr(u, g), gamma)      # rule (2)
    kind = skeleton.steps[r - 1]                        # rules (4) and (5)
    parent_one = np.where(is0, kind[0] == "plant", match)
    if kind[0] == "plant":
        g[is0] = kind[1]
    return v, parent_one, g, one & ~is0 & ~match, is0


def verify_refinement(skeleton, n, m):
    """Compare the symbolic parent rule against pointwise classification:
    parent_cells must map the level-(n+1) cell sigma^{-d} eta_m shows to the
    level-n cell it shows, for every d in D_m, one pair (gc, gp) at a time
    (module docstring).  Returns (counterexample_or_None, case_counts,
    points): points is |D_m|, or on a Fail one more than the D_m index of
    the first failing d, and the case counts are None.
    """
    T = skeleton.tower
    child, parent = (translate_ones(skeleton, m, l) for l in (n + 1, n))
    gcs = T.section_arr(n + 1, m)
    gps = T.section_arr(n, n + 1)
    has_gc, u_gc = translate_picks(T, *child, T.index_of_arr(gcs, m))
    zero_col = "c5" if skeleton.steps[n][0] == "plant" else "c4"
    counts = {"c1": 0, "c2": 0, "c3": 0, "c4": 0, "c5": 0}
    fails = []
    for i0, pair in sum_chunks(T, gcs, gps):
        rows = len(pair) // len(gps)
        has_c = np.repeat(has_gc[i0:i0 + rows], len(gps))
        u = np.repeat(u_gc[i0:i0 + rows], len(gps), axis=0)
        gp = gps[np.tile(np.arange(len(gps)), rows)]
        _, exp_one, exp_g, w_exit, is0 = parent_cells(skeleton, n + 1, gp,
                                                      has_c, u)
        act_one, act_g = translate_picks(T, *parent,
                                         T.coset_index_arr(pair, m))
        bad = (exp_one != act_one) | (exp_one & act_one
                                      & ~T.eq_arr(exp_g, act_g))
        fails.append([a[bad] for a in (pair, has_c, u, exp_one, act_one)])
        exits = int(w_exit.sum())
        counts["c1"] += int((~is0 & ~has_c).sum())
        counts["c2"] += int((~is0 & has_c).sum()) - exits
        counts["c3"] += exits
        counts[zero_col] += int(is0.sum())
    pair, has_c, u, exp_one, act_one = map(np.concatenate, zip(*fails))
    if not len(pair):
        return None, {k: c * T.size(n) for k, c in counts.items()}, T.size(m)
    # the first failing d: the least D_m index of pair + v, v in D_n
    first, p = T.size(m), 0
    for _, v in domain_chunks(T, n):
        for i0, d in sum_chunks(T, pair, v):
            idx = T.coset_index_arr(d, m)
            if idx.min() < first:
                first, p = int(idx.min()), i0 + int(idx.argmin()) // len(v)
    d = T.domain_arr(m, first, first + 1)
    child = tag_one(T.element(u[p])) if has_c[p] else TAG_ZERO
    return ({"d": T.element(d[0]),
             "child": (T.element(T.reduce_arr(d, n + 1)[0]), child),
             "expected_parent_one": bool(exp_one[p]),
             "actual_parent_one": bool(act_one[p])}, None, first + 1)


CHAIN_BRANCHES = ("already_zero", "w_exit", "one_column", "not_zero_ancestor")


def _chain_cell(tower, r, w, one, u):
    return r, (tower.element(w[0]),
               tag_one(tower.element(u[0])) if one[0] else TAG_ZERO)


def corollary_chain(skeleton, n_js, n_s):
    """Every finest Zero-ancestor atom passes through an allowed exit, for
    the chains (n_j, n_s) of each n_j in n_js at once, over every atom.

    For atoms (w, tag) at level n_s whose iterated parent at level n_j is a
    Zero cell, one of: the atom itself is a Zero cell, some intermediate cell
    lies in W_r, or the chain crosses a zero-step One column at some m in M.
    At level r the rules read only the digit gamma of w in Gamma_{r-1} cap
    D_r and the tag, and the tilings make the digits independent, so the
    atoms sharing a state (one, u, branch, zero_atom) walk down as one state
    with a count.  Each level expands the states by its digits, passed to
    parent_cells as w, and merges equal parents; the D_{n_j} part of w no
    rule of the chain (n_j, n_s) reads, so each state there stands for
    |D_{n_j}| times its count.  Returns {n_j: (counterexample_or_None,
    branch_counts, atoms)}: the counts are exact, of every atom with an exit,
    and atoms is |D_{n_s}| * (1 + |J(n_s)|).  A counterexample names an atom
    with no exit, a state's representative (its tag and the sum of the
    digits it took), whose chain the same rule rebuilds.
    """
    if n_s > skeleton.depth:
        raise DepthExceeded("chain exceeds constructed depth")
    T = skeleton.tower
    m_zero_steps = {skeleton.m_k[k] - 1 for k in skeleton.completed_blocks()}
    tags = np.concatenate((T.array([T.zero]), skeleton.jset(n_s)))
    atoms = T.size(n_s) * len(tags)
    if atoms > np.iinfo(np.int64).max:  # no state's count can pass atoms
        raise BudgetExceeded(f"the chains to level {n_s} have {atoms} "
                             "atoms, past int64")
    pick = np.arange(len(tags))       # 0 is Zero, p is One(tags[p])
    one, u = pick > 0, tags
    zero_atom = ~one
    branch = np.full(len(one), -1, dtype=np.int8)  # CHAIN_BRANCHES index, -1 if none
    count = np.ones(len(one), dtype=np.int64)
    rep = np.repeat(T.array([T.zero]), len(one), axis=0)
    out = {}
    for r in range(n_s, min(n_js), -1):
        digits = T.section_arr(r - 1, r)
        skeleton.budget.check_enum(len(one) * len(digits),
                                   f"chain states at level {r}")
        s = np.repeat(np.arange(len(one)), len(digits))
        gamma = digits[np.tile(np.arange(len(digits)), len(one))]
        one, branch = one[s], branch[s]
        _, parent_one, g, w_exit, is0 = parent_cells(skeleton, r, gamma, one,
                                                     u[s])
        # walking down, the last exit written is the first in ascending r
        branch[w_exit] = 1                               # w_exit: rule (3)
        if skeleton.steps[r - 1][0] == "zero" and r - 1 in m_zero_steps:
            branch[one & is0] = 2                        # one_column: rule (4)
        g[~parent_one] = T.zero
        key = (T.index_of_arr(g, r - 1) * 16 + parent_one * 8
               + (branch + 1) * 2 + zero_atom[s])
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        merged = np.zeros(len(first), dtype=np.int64)
        np.add.at(merged, inverse, count[s])
        src = s[first]
        one, u, branch = parent_one[first], g[first], branch[first]
        zero_atom, pick, count = zero_atom[src], pick[src], merged
        rep = T.add_arr(rep[src], gamma[first])
        if r - 1 in n_js:
            out[r - 1] = _chain_result(skeleton, branch, zero_atom, one, count,
                                       (rep, pick > 0, tags[pick]), r - 1, n_s)
    return out


def _chain_result(skeleton, branch, zero_atom, one, count, reps, n_j, n_s):
    """The chain (n_j, n_s) once the walk reached n_j, with the states'
    parents there One where `one` holds, their atom counts `count` and
    their representative atoms reps = (w, one, u)."""
    T = skeleton.tower
    branch = branch.copy()
    branch[zero_atom] = 0                                # already_zero
    branch[one] = 3                                      # not_zero_ancestor
    branches = {name: int(count[branch == i].sum()) * T.size(n_j)
                for i, name in enumerate(CHAIN_BRANCHES)}
    atoms = int(count.sum()) * T.size(n_j)
    missing = np.flatnonzero(branch < 0)
    if not len(missing):
        return None, branches, atoms
    w, one, u = (a[missing[:1]] for a in reps)
    chain = [_chain_cell(T, n_s, w, one, u)]
    for r in range(n_s, n_j, -1):
        w, one, u, _, _ = parent_cells(skeleton, r, w, one, u)
        chain.append(_chain_cell(T, r - 1, w, one, u))
    return {"atom": chain[0][1], "chain": chain[::-1]}, branches, atoms


# -- measures of cell families --------------------------------------------


def mu_zero_set(skeleton, n, m):
    """mu_m(Z_n): the share of D_m whose level-n tag is Zero.  The |D_n|
    points of a translate gamma + D_n share gamma's tag, so this is the
    share of the section Gamma_n cap D_m whose translate carries no 1."""
    T = skeleton.tower
    return 1 - Fraction(len(translate_ones(skeleton, m, n)[0]),
                        T.size(m) // T.size(n))
