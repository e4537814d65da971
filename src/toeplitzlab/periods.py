"""Periodic structure of the array: per-sets and the lemmas about them.

Per(n, a) collects the D_n representatives whose whole Gamma_n-coset is
already forced to the symbol a, i.e. the cells decided strictly below level
n.  Membership is exact: level_of(d) < n decides it, and the planted step for
that level gives the symbol.
"""

import random
import time
from dataclasses import dataclass

import numpy as np

from . import budgets
from .errors import NonAbelianUnsupported, NotInDomain
from .result import failed, inconclusive, passed
from .skeleton import j_size
from .tower import KIND_LINE
from .window import window_levels, window_values


@dataclass(frozen=True)
class PerSet:
    level: int
    symbol: int
    ordered: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.ordered))

    def __len__(self):
        return len(self.ordered)

    def __iter__(self):
        return iter(self.ordered)

    def __contains__(self, g):
        return g in self.members


def per_set(skeleton, n, symbol, budget=None):
    """Per(n, symbol) as D_n representatives, in enumeration order."""
    if symbol not in (0, 1):
        raise NotInDomain(f"symbol must be 0 or 1, got {symbol!r}")
    T = skeleton.tower
    budgets.check_enum(T.size(n), f"Per({n},{symbol})", budget)
    lvls = window_levels(skeleton, n, budget)
    vals = window_values(skeleton, n, budget)
    decided = (lvls >= 0) & (lvls < n) & (vals == symbol)
    idx = np.flatnonzero(decided)
    ordered = tuple(T.element_at(n, int(i)) for i in idx)
    return PerSet(n, symbol, ordered)


def per_member(skeleton, n, g, symbol=None):
    """Exact membership of the Gamma_n-coset of g in the per-structure.

    Returns the forced symbol (0/1) when level_of(g) < n, else None.  With
    `symbol` given, returns a bool instead.
    """
    d = skeleton.tower.reduce(g, n)
    lvl = skeleton.level_of(d)
    if lvl is None or lvl >= n:
        return None if symbol is None else False
    val = skeleton.eval(d)
    return val if symbol is None else val == symbol


def _plant_union(skeleton, n, budget=None):
    """Independent rebuild of the decided cells from the step log alone."""
    T = skeleton.tower
    ones, zeros = set(), set()
    for t in range(1, n + 1):
        kind = skeleton.steps[t - 1]
        sec = list(T.section(t, n, budget=budget))
        if kind[0] == "plant":
            h = kind[1]
            for gamma in sec:
                ones.add(T.add(h, gamma))
            # h lies in J(t-1) itself; other J(t-1) cells of this step get 0
            for g in skeleton.jset(t - 1, budget=budget):
                if g == h:
                    continue
                for gamma in sec:
                    zeros.add(T.add(g, gamma))
        else:
            for g in skeleton.jset(t - 1, budget=budget):
                for gamma in sec:
                    zeros.add(T.add(g, gamma))
    return zeros, ones


def per_eq_check(skeleton, n, window=None, budget=None):
    """Two independent routes to Per(n, .) must coincide, and a window must
    show the right symbol on every translate of every per-cell."""
    t0 = time.perf_counter()
    T = skeleton.tower
    name = "per-eq"
    p0 = per_set(skeleton, n, 0, budget)
    p1 = per_set(skeleton, n, 1, budget)

    zeros, ones = _plant_union(skeleton, n, budget)
    if ones != p1.members or zeros != p0.members:
        bad = sorted(ones ^ p1.members or zeros ^ p0.members, key=repr)[0]
        return failed(name, f"level {n}",
                      {"level": n, "element": bad,
                       "reason": "step-log union disagrees with level scan"},
                      [])
    if p0.members & p1.members:
        bad = sorted(p0.members & p1.members, key=repr)[0]
        return failed(name, f"level {n}", {"level": n, "element": bad,
                                           "reason": "per-sets overlap"})

    if window is None:
        from .errors import BudgetExceeded
        from .window import materialize_window
        wlevel = min(n + 1, T.depth)
        try:
            window = materialize_window(skeleton, wlevel, budget)
        except BudgetExceeded:
            wlevel = n
            window = materialize_window(skeleton, wlevel, budget)
    else:
        wlevel = window.level
        if wlevel < n:
            raise NotInDomain(f"window level {wlevel} below per level {n}")

    # every Gamma_n-translate of a per cell visible in the window agrees
    probes = 0
    for pset in (p0, p1):
        for d in pset:
            for gamma in T.section(n, wlevel, budget=budget):
                e = T.add(d, gamma)
                got = window.value_at(T.index_of(e, wlevel))
                probes += 1
                if got is not None and got != pset.symbol:
                    res = failed(
                        name, f"level {n}, window level {wlevel}",
                        {"level": n, "element": e, "expected": pset.symbol,
                         "got": got,
                         "coset": f"{T.format_element(d)}+Gamma_{n}"},
                        [{"probes": probes}])
                    res.millis = (time.perf_counter() - t0) * 1e3
                    return res
    res = passed(name, f"level {n}: {len(p0)} zero-cells, {len(p1)} one-cells, "
                       f"{probes} window probes at level {wlevel}",
                 [{"zeros": len(p0), "ones": len(p1), "probes": probes}])
    res.millis = (time.perf_counter() - t0) * 1e3
    return res


def essential_check(skeleton, n, per_sets=None, budget=None):
    """No subgroup strictly between Gamma_n and G fixes both per-sets.

    Any such subgroup contains a nonidentity coset of D_n, so it is enough to
    test single-translate invariance for every nonzero v in D_n (for the line,
    only divisor shifts, which generate all cyclic subgroups).
    """
    t0 = time.perf_counter()
    T = skeleton.tower
    name = "essential"
    if not getattr(T, "abelian", True):
        raise NonAbelianUnsupported("essential_check needs an abelian tower")
    size = T.size(n)
    budgets.check_enum(size, f"essential level {n}", budget)

    if per_sets is None:
        lvls = window_levels(skeleton, n, budget)
        vals = window_values(skeleton, n, budget)
        decided = (lvls >= 0) & (lvls < n)
        mask0 = decided & (vals == 0)
        mask1 = decided & (vals == 1)
        injected = False
    else:
        mask0 = np.zeros(size, dtype=bool)
        mask1 = np.zeros(size, dtype=bool)
        for g in per_sets[0]:
            mask0[T.index_of(g, n)] = True
        for g in per_sets[1]:
            mask1[T.index_of(g, n)] = True
        injected = True

    if T.kind == KIND_LINE:
        # shifts by v generate gcd(v, N) Z; divisors cover every subgroup
        cands = [d for d in range(1, size) if size % d == 0]
        label = f"{len(cands)} divisor shifts of {size}"
    else:
        cands = [v for v in T.domain(n, budget=budget) if v != T.zero]
        label = f"{len(cands)} nonzero translates"

    for v in cands:
        if (np.array_equal(T.shift_arr(mask0, v, n), mask0)
                and np.array_equal(T.shift_arr(mask1, v, n), mask1)):
            res = failed(name, f"level {n} ({label})",
                         {"level": n, "invariant_shift": v,
                          "reason": "a proper supergroup of Gamma_n fixes the per-sets"})
            res.millis = (time.perf_counter() - t0) * 1e3
            return res

    res = passed(name, f"level {n} ({label}{', injected per-sets' if injected else ''})",
                 [{"candidates": len(cands)}])
    res.millis = (time.perf_counter() - t0) * 1e3
    return res


def per1_structure_check(skeleton, s, budget=None):
    """Per(s, 1) is exactly Gamma_1 plus the recorded plants reduced mod
    Gamma_s; at a block end the last recorded plant completes the union."""
    t0 = time.perf_counter()
    T = skeleton.tower
    name = "periodo1"
    if s > skeleton.depth:
        raise NotInDomain(f"per1 structure needs s <= depth, got {s}")
    budgets.check_enum(T.size(s), f"per1 structure level {s}", budget)

    expected = set(T.section(1, s, budget=budget))
    used = []
    for rec in skeleton.h_records:
        if rec.step <= s:
            for gamma in T.section(rec.step, s, budget=budget):
                expected.add(T.add(rec.h, gamma))
            used.append(rec.step)

    got = per_set(skeleton, s, 1, budget).members
    if got != expected:
        bad = sorted(got ^ expected, key=repr)[0]
        return failed(name, f"level {s}",
                      {"level": s, "element": bad,
                       "side": "missing" if bad in expected else "extra"})

    inside = [k for k in range(len(skeleton.m_k))
              if skeleton.mbar[k] < s < skeleton.m_k[k]]
    at_end = [k for k in range(len(skeleton.m_k)) if s == skeleton.m_k[k]]
    res = passed(name,
                 f"level {s}: Gamma_1 plus {len(used)} recorded plants"
                 + (f", inside block {inside[0]}" if inside else "")
                 + (f", closes block {at_end[0]}" if at_end else ""),
                 [{"plants": used, "cells": len(got)}])
    res.millis = (time.perf_counter() - t0) * 1e3
    return res


def auxiliar_cover_check(skeleton, i, gamma):
    """Least block position l in 1..i where gamma leaves Gamma_{n_l+1}.

    Returns (l, kind): kind "proper" when reduce(gamma, n_l+1) is nonzero at
    the found l, "terminal" when gamma stays in every Gamma_{n_l+1} (then
    l = i), and (None, "BeyondDepth") when the needed levels are not built.
    """
    from .errors import BeyondDepth
    T = skeleton.tower
    if i < 1:
        raise NotInDomain(f"block index must be >= 1, got {i}")
    try:
        n_prev = skeleton.subsequence_M(i - 1)
    except BeyondDepth:
        return None, "BeyondDepth"
    if n_prev + 1 > T.depth or T.reduce(gamma, n_prev + 1) != T.zero:
        raise NotInDomain(
            f"gamma must lie in Gamma_{{n_{i-1}+1}} = Gamma_{n_prev + 1}")
    for l in range(1, i + 1):
        if l >= len(skeleton.m_k) or skeleton.m_k[l] > skeleton.depth:
            return None, "BeyondDepth"
        n_l = skeleton.m_k[l] - 1
        if n_l + 1 > T.depth:
            return None, "BeyondDepth"
        if T.reduce(gamma, n_l + 1) != T.zero:
            return l, "proper"
    return i, "terminal"


def partitions_c_check(skeleton, k, samples=10000, seed=None, budget=None):
    """Every Gamma_k-translate of J(k) carries at most one planted 1.

    Exhaustive over Gamma_k cap D_{k+3} when those probes are defined, then a
    seeded sample of cosets near the top of the built region.
    """
    t0 = time.perf_counter()
    T = skeleton.tower
    name = "partitions-c"
    jk = T.array(skeleton.jset(k, budget=budget).elements)
    rng = random.Random(seed)

    def ones_on(gam, level):
        """Ones on each translate gamma J(k), gamma in the array gam; the
        tiling axiom keeps gamma + J(k) inside the decided D_level."""
        vals = window_values(skeleton, level, budget)
        counts = np.zeros(len(gam), dtype=np.int64)
        for g in jk:
            counts += vals[T.index_of_arr(T.add_arr(gam, g), level)] == 1
        return counts

    done = {"exhaustive": 0, "sampled": 0}
    hist = {0: 0, 1: 0}
    top = skeleton.depth - 1
    runs = []
    if k + 3 <= T.depth and skeleton.depth >= k + 4:
        sec = T.section(k, k + 3, budget=budget)
        budgets.check_enum(len(sec) * len(jk), f"partitions-c k={k}", budget)
        runs.append(("exhaustive", T.array(sec), k + 3))
    if top >= k and samples > 0:
        sec = T.section(k, top)
        gam = T.array([sec[rng.randrange(len(sec))] for _ in range(samples)])
        runs.append(("sampled", gam, top))
    for mode, gam, level in runs:
        counts = ones_on(gam, level)
        bad = counts > 1
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            res = failed(name, f"k={k} {mode}",
                         {"k": k, "gamma": T.element(gam[i]),
                          "ones": int(counts[i])})
            res.millis = (time.perf_counter() - t0) * 1e3
            return res
        hist[0] += int((counts == 0).sum())
        hist[1] += int((counts == 1).sum())
        done[mode] = len(gam)

    if not any(done.values()):
        res = inconclusive(name, f"k={k}: no coset checkable at depth {skeleton.depth}")
        res.millis = (time.perf_counter() - t0) * 1e3
        return res
    res = passed(name,
                 f"k={k}: {done['exhaustive']} cosets exhaustive in Gamma_{k} "
                 f"cap D_{k+3}, {done['sampled']} sampled in Gamma_{k} cap D_{top}",
                 [{"ones_histogram": hist}])
    res.millis = (time.perf_counter() - t0) * 1e3
    return res
