"""Irregular Toeplitz construction over a quotient tower.

The array is built step by step.  Step t either marks a whole saturated set
J(t-1)Gamma_t with 0, or picks a position h in J(t-1) lying over a designated
slot of a lower J-set and marks hGamma_t with 1.  Steps are grouped in blocks;
block k has one slot step per element of J(k), then one closing zero step.

Nothing is ever materialized globally: evaluation finds the first level whose
J-set covers the queried element, then looks up what that step planted.

Key fact used throughout: for d in D_n, membership d in J(n) is equivalent to
reduce(d, i+1) not in D_i for every i < n, so J-membership and level lookups
need no stored J-sets.
"""

import bisect
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budgets import Budget
from .errors import DepthExceeded, EmptySlot, NotInDomain
from .tower import (TowerConfig, build_tower, domain_where, mark_repeats,
                    sum_chunks)


class _UndefinedType:
    """Value of the array outside the region the finite depth determines."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"

    def __bool__(self):
        return False


Undefined = _UndefinedType()


def j_size(tower, n):
    """|J(n)| from index products alone; no enumeration."""
    if n < 0:
        raise DepthExceeded(f"negative level {n}")
    out = 1
    for i in range(1, n + 1):
        out *= tower.size(i) // tower.size(i - 1) - 1
    return out


def j_mask(tower, g, n, lo=0):
    """Which elements of the array g lie in no D_l Gamma_{l+1}, lo <= l < n,
    i.e. have reduce(g, l+1) outside D_l.  For g in D_n and lo = 0 these are
    the elements of J(n).  The one saturation test: J-sets, good sets,
    good-relation and each plant step read it."""
    keep = np.ones(len(g), dtype=bool)
    for l in range(lo, n):
        keep &= ~tower.in_domain_arr(tower.reduce_arr(g, l + 1), l)
    return keep


def j_set(tower, n, budget=Budget()):
    """J(n) as an element array in enumeration order: D_n minus everything
    lower levels saturate."""
    budget.check_enum(tower.size(n), f"J({n})")
    return domain_where(tower, n, lambda _, g: j_mask(tower, g, n))


def j_set_recursive(tower, n, budget=Budget()):
    """J(n) via the translation recursion; must agree with j_set.

    Level 1 is the definitional base.  For n >= 2, J(n) is the union of
    gamma J(n-1) over nonidentity gamma in Gamma_{n-1} cap D_n, in the
    enumeration order of D_n, an element once per translate reaching it; on
    a broken tower the translates that leave D_n come last, sorted.
    """
    if n == 0:
        return tower.array([tower.zero])
    if n == 1:
        return j_set(tower, 1, budget)
    budget.check_enum(tower.size(n), f"D_{n}")
    below = j_set_recursive(tower, n - 1, budget)
    sec = tower.section_arr(n - 1, n)
    sec = sec[~tower.eq_arr(sec, tower.zero)]
    # D_n elements reached, D_n indices reached again, translates outside D_n
    hit = np.zeros(tower.size(n), dtype=bool)
    again, outside = [], []
    for _, w in sum_chunks(tower, sec, below):
        inside = tower.in_domain_arr(w, n)
        keys = tower.index_of_arr(w[inside], n)
        again += keys[mark_repeats(hit, keys)].tolist()
        outside += tower.elements(w[~inside])
    out = domain_where(tower, n, lambda start, g: hit[start:start + len(g)])
    if again:
        rank = np.searchsorted(np.flatnonzero(hit), again)
        out = np.repeat(out, 1 + np.bincount(rank, minlength=len(out)), axis=0)
    return (np.concatenate((out, tower.array(sorted(outside)))) if outside
            else out)


@dataclass(frozen=True)
class HRecord:
    step: int
    block: int
    slot: int
    g_slot: object
    h: object

    def to_json(self, fmt):
        return {"step": self.step, "block": self.block, "slot": self.slot,
                "g_slot": fmt(self.g_slot), "h": fmt(self.h)}


_FIRST_PREFIX = 1 << 16  # D_n indices _first_over tests first


class ToeplitzSkeleton:
    """Everything the lazy evaluator needs: step kinds and planted positions,
    the caps everything computed from it obeys, and the one memo, `cached`,
    of what is derived from it: J-sets, windows, translate tables and
    decom's result."""

    def __init__(self, tower, depth, budget=Budget()):
        if depth < 1:
            raise DepthExceeded("depth must be >= 1")
        if depth > tower.depth:
            raise DepthExceeded(
                f"depth {depth} exceeds the tower's {tower.depth} levels")
        self.tower = tower
        self.depth = depth
        self.budget = budget
        self._cache = {}

        # block boundaries: m_k = 1 + k + sum of |J(i)| for i <= k
        self.m_of = []
        self.mbar = [0]
        while self.mbar[-1] < depth:
            self.m_of.append(j_size(tower, len(self.m_of)))
            self.mbar.append(len(self.m_of) + sum(self.m_of))
        self.m_k = list(self.mbar[1:])

        self.steps = []      # index t-1 -> ("zero",) or ("plant", h)
        self.h_records = []
        self.warnings = []
        for t in range(1, depth + 1):
            k = bisect.bisect_left(self.mbar, t) - 1
            if t == self.mbar[k + 1]:
                self.steps.append(("zero",))
                continue
            slot = t - self.mbar[k]
            jk = self.jset(k)
            if len(jk) != self.m_of[k]:
                raise EmptySlot(f"J({k}) has {len(jk)} elements, not the "
                                f"{self.m_of[k]} of j_size (invalid tower)")
            g_slot = tower.element(jk[slot - 1])
            h = self._first_over(g_slot, k, t - 1)
            self.steps.append(("plant", h))
            if k >= 1:
                self.h_records.append(HRecord(t, k, slot, g_slot, h))

        self.linking_ok = {}
        self._record_linking()

    # -- the memo and the J-sets -----------------------------------------

    def cached(self, key, build):
        """The value stored under key, else build()'s, stored first; a build
        that raises stores nothing, so a refusal is raised on every call."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def jset(self, n):
        """J(n), cached."""
        return self.cached(("jset", n),
                           lambda: j_set(self.tower, n, self.budget))

    def _first_over(self, g_slot, k, n):
        """First element of J(n) cap g_slot Gamma_k in enumeration order.

        The section Gamma_k cap D_n holds one element of each coset of
        Gamma_n in Gamma_k, so its translates by the slot, reduced into D_n,
        are the elements of D_n over the slot.  They are tested in prefixes
        of D_n growing fourfold, since the first hit mostly lies early."""
        T = self.tower
        sec = T.section_arr(k, n)
        cand = T.add_arr(sec, T.reduce(g_slot, k))
        idx = T.coset_index_arr(cand, n)
        top = _FIRST_PREFIX
        while True:
            near = np.flatnonzero(idx < top)
            c = T.reduce_arr(cand[near], n)
            # the slot, in J(k), already settles the levels below k
            hit = j_mask(T, c, n, k)
            if hit.any():
                return T.element(c[hit][idx[near][hit].argmin()])
            if top >= T.size(n):
                raise EmptySlot(f"no position over slot {g_slot} at level {n}")
            top *= 4

    # -- construction bookkeeping ---------------------------------------

    def plant_tail_sum(self, n, top):
        """Exact sum of 1/|D_t| over planted steps t in (n, top]."""
        return sum((Fraction(1, self.tower.size(t))
                    for t in range(n + 1, top + 1)
                    if self.steps[t - 1][0] == "plant"), Fraction(0))

    def completed_blocks(self):
        return [k for k in range(len(self.m_k)) if self.m_k[k] <= self.depth]

    def _record_linking(self):
        """Per completed block: does every nonidentity v in
        Gamma_{m_k-2} cap D_{m_k-1} keep v^{-1} h within D_{m_k}?"""
        T = self.tower
        for k in self.completed_blocks():
            mk = self.m_k[k]
            kind = self.steps[mk - 2]  # last slot step of block k, a plant
            sec = T.section_arr(mk - 2, mk - 1)
            sec = sec[~T.eq_arr(sec, T.zero)]
            v_inv_h = T.add_arr(T.sub_arr(T.zero, sec), kind[1])
            out = ~T.in_domain_arr(v_inv_h, mk)
            self.linking_ok[k] = not out.any()
            if out.any():
                bad = T.element(sec[out.argmax()])
                self.warnings.append(
                    f"LinkingViolation: block {k}, witness v={T.format_element(bad)}")

    # -- evaluation ------------------------------------------------------

    def level_of(self, g):
        """Least i with reduce(g, i+1) in J(i); None past the built depth."""
        hit = self.tower.level_of(g, self.depth)
        return None if hit is None else hit[0]

    def eval(self, g):
        hit = self.tower.level_of(g, self.depth)
        if hit is None:
            return Undefined
        kind = self.steps[hit[0]]
        if kind[0] == "zero":
            return 0
        return 1 if hit[1] == kind[1] else 0

    # -- serialization ----------------------------------------------------

    def to_json(self):
        fmt = self.tower.format_element
        steps = []
        for kind in self.steps:
            if kind[0] == "zero":
                steps.append({"kind": "zero"})
            else:
                steps.append({"kind": "plant", "h": fmt(kind[1])})
        return {
            "config": self.tower.config().to_json(),
            "depth": self.depth,
            "m_of": self.m_of,
            "m_k": self.m_k,
            "steps": steps,
            "h_records": [r.to_json(fmt) for r in self.h_records],
            "linking_ok": {str(k): v for k, v in self.linking_ok.items()},
            "warnings": list(self.warnings),
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")


def build_skeleton(tower_or_config, depth, budget=Budget()):
    if isinstance(tower_or_config, (dict, TowerConfig)):
        tower = build_tower(tower_or_config)
    else:
        tower = tower_or_config
    return ToeplitzSkeleton(tower, depth, budget)


def load_skeleton(path):
    """Rebuild from the stored config and confirm the file matches."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    skel = build_skeleton(TowerConfig.from_json(obj["config"]), obj["depth"])
    fresh = skel.to_json()
    for key in ("m_k", "steps", "h_records"):
        if fresh[key] != obj.get(key):
            raise NotInDomain(f"stored skeleton is inconsistent at {key!r}")
    return skel
