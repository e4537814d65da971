"""Periodic structure of the array: per-sets and the checks on them.

Per(n, a) collects the D_n representatives whose whole Gamma_n-coset is
already forced to the symbol a, i.e. the cells decided strictly below level
n; window.per_masks gives both as masks over D_n.  per_eq_check rebuilds the
same masks from the step log alone, reads the array on every Gamma_n-translate
of every per-cell, asks that no larger subgroup fix them (essential) and that
they miss J(n) (J-membership).  partitions_c_check reads the planted 1 of
every J(k)-translate of the D_{depth-1} window from cells.translate_ones.
per_eq_check and partitions_c_check are unit bodies of verify's checks: each
returns its level's witness, or a Fail.
"""

import numpy as np

from .cells import translate_ones
from .errors import DoubledOne, NotInDomain
from .result import failed
from .tower import sum_chunks
from .window import UNDEFINED, per_masks, window_values


def per_set(skeleton, n, symbol):
    """Per(n, symbol) as D_n representatives, in enumeration order."""
    if symbol not in (0, 1):
        raise NotInDomain(f"symbol must be 0 or 1, got {symbol!r}")
    T = skeleton.tower
    skeleton.budget.check_enum(T.size(n), f"Per({n},{symbol})")
    mask = per_masks(skeleton, n)[symbol]
    return tuple(T.elements(T.domain_arr(n)[mask]))


def _step_log_masks(skeleton, n):
    """Per(n, 0) and Per(n, 1) rebuilt from the step log alone: step t forces
    the translates Gamma_t + J(t-1), to 1 on its planted position's and to 0
    on the rest.  Returns the two masks over D_n and, per symbol, the elements
    it reached outside D_n (none unless the tower is corrupted)."""
    T = skeleton.tower
    masks = (np.zeros(T.size(n), dtype=bool), np.zeros(T.size(n), dtype=bool))
    outside = ([], [])
    for t in range(1, n + 1):
        kind = skeleton.steps[t - 1]
        cells = skeleton.jset(t - 1)
        parts = [cells]
        if kind[0] == "plant":
            # h lies in J(t-1) itself; other J(t-1) cells of this step get 0
            parts = [cells[~T.eq_arr(cells, kind[1])], T.array([kind[1]])]
        sec = T.section_arr(t, n)
        for symbol, part in enumerate(parts):
            for _, e in sum_chunks(T, sec, part):
                inside = T.in_domain_arr(e, n)
                masks[symbol][T.index_of_arr(e[inside], n)] = True
                outside[symbol].extend(T.elements(e[~inside]))
    return masks, outside


def invariant_shift(tower, n, mask0, mask1):
    """(v, label): a nonzero v in D_n with v + P = P for both per-sets P
    over D_n, or None, and what was tried.  The shift acts on the left and
    shift_arr reads d + s, so the masks are read at the inverses of D_n:
    v + P = P exactly when P^-1 + v = P^-1.  The tower names the
    candidates (see shift_candidates); each compares |D_n| cells, and the
    caller charges that work to its budget."""
    T = tower
    inv = T.coset_index_arr(T.sub_arr(T.zero, T.domain_arr(n)), n)
    mask0, mask1 = mask0[inv], mask1[inv]
    cands, label = T.shift_candidates(n)
    for v in cands:
        if (np.array_equal(T.shift_arr(mask0, v, n), mask0)
                and np.array_equal(T.shift_arr(mask1, v, n), mask1)):
            return T.element(v), label
    return None, label


def per_eq_check(skeleton, n):
    """Per(n, .) from the windows and from the step log must coincide, the
    D_{n+1} window must show the right symbol on every translate of every
    per-cell, no subgroup strictly between Gamma_n and G may fix the
    per-sets, and no cell of J(n) may lie in them.  |D_n|, the essential
    facet's |D_n| cells per candidate shift and the window are charged
    before any mask is built."""
    T = skeleton.tower
    name = "per-eq"
    skeleton.budget.check_enum(T.size(n), f"Per({n},.)")
    shifts = len(T.shift_candidates(n)[0])
    skeleton.budget.check_enum(shifts * T.size(n), f"essential level {n}")
    wlevel = n + 1
    vals = window_values(skeleton, wlevel)
    dom = T.domain_arr(n)
    per = per_masks(skeleton, n)
    logged, outside = _step_log_masks(skeleton, n)
    for symbol in (1, 0):
        diff = T.elements(dom[logged[symbol] != per[symbol]]) + outside[symbol]
        if diff:
            return failed(
                name, f"level {n}",
                {"level": n, "element": sorted(diff, key=repr)[0],
                 "reason": "step-log union disagrees with level scan"})

    # every Gamma_n-translate of a per-cell, section-major and zero-cells
    # first, agrees with the window wherever it is defined
    counts = [int(m.sum()) for m in per]
    cells = np.concatenate((dom[per[0]], dom[per[1]]))
    want = np.repeat(np.uint8([0, 1]), counts)
    e = T.translate_arr(T.section_arr(n, wlevel), cells)
    got = vals[T.index_of_arr(e, wlevel)]
    bad = (got != UNDEFINED) & (got != want)
    if bad.any():
        first = int(bad.argmax())
        i, j = np.unravel_index(first, bad.shape)
        return failed(
            name, f"level {n}, window level {wlevel}",
            {"level": n, "element": T.element(e[i, j]),
             "expected": int(want[j]), "got": int(got[i, j]),
             "coset": f"{T.format_element(T.element(cells[j]))}+Gamma_{n}"},
            [{"probes": first + 1}])

    shift, label = invariant_shift(T, n, per[0], per[1])
    if shift is not None:
        return failed(
            name, f"level {n}, essential ({label})",
            {"level": n, "invariant_shift": shift,
             "reason": "a proper supergroup of Gamma_n fixes the per-sets"})

    # J(n) gains the period only one level up, so no cell of J(n) is
    # decided below level n
    jn = skeleton.jset(n)
    off = (per[0] | per[1])[T.index_of_arr(jn, n)]
    if off.any():
        return failed(
            name, f"n={n} membership",
            {"n": n, "g": T.format_element(T.element(jn[off.argmax()]))})
    return {"zeros": counts[0], "ones": counts[1], "probes": got.size,
            "essential": label}


def partitions_c_check(skeleton, k):
    """Every Gamma_k-translate of J(k) carries at most one planted 1.

    Exhaustive over the translates by Gamma_k cap D_{depth-1}, read from the
    D_{depth-1} window by cells.translate_ones.  Returns the witness of k, or
    a Fail naming a translate with two 1s.
    """
    T = skeleton.tower
    top = skeleton.depth - 1
    try:
        ones = len(translate_ones(skeleton, top, k)[0])
    except DoubledOne as exc:
        return failed("partitions-c", f"k={k}",
                      {"k": k, "gamma": exc.gamma, "ones": exc.ones})
    translates = T.size(top) // T.size(k)
    return {"k": k, "translates": translates,
            "ones_histogram": {0: translates - ones, 1: ones}}
