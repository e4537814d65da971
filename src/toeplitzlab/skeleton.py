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

import numpy as np

from . import budgets
from .errors import DepthExceeded, EmptySlot, NotInDomain
from .tower import KIND_GENERIC, KIND_LINE, TowerConfig, build_tower


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


@dataclass(frozen=True)
class JSet:
    level: int
    elements: tuple

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        if isinstance(other, JSet):
            return self.level == other.level and self.elements == other.elements
        return NotImplemented

    def __hash__(self):
        return hash((self.level, self.elements))


def j_size(tower, n):
    """|J(n)| from index products alone; no enumeration."""
    if n < 0:
        raise DepthExceeded(f"negative level {n}")
    out = 1
    for i in range(1, n + 1):
        out *= tower.size(i) // tower.size(i - 1) - 1
    return out


def _covered_below(tower, d, n):
    """True when d already belongs to some J(i)Gamma_{i+1} with i < n."""
    for i in range(n):
        if tower.in_domain(tower.reduce(d, i + 1), i):
            return True
    return False


def j_set(tower, n, budget=None):
    """J(n) in enumeration order: D_n minus everything lower levels saturate."""
    if n > tower.depth:
        raise DepthExceeded(f"J({n}) needs tower level {n}, have {tower.depth}")
    budgets.check_enum(tower.size(n), f"J({n})", budget)
    g = tower.domain_arr(n)
    keep = np.ones(len(g), dtype=bool)
    for i in range(n):
        keep &= ~tower.in_domain_arr(tower.reduce_arr(g, i + 1), i)
    return JSet(n, tuple(tower.elements(g[keep])))


def j_set_recursive(tower, n, budget=None):
    """J(n) via the translation recursion; must agree with j_set.

    Level 1 is the definitional base.  For n >= 2, J(n) is the union of
    gamma J(n-1) over nonidentity gamma in Gamma_{n-1} cap D_n.
    """
    if n > tower.depth:
        raise DepthExceeded(f"J({n}) needs tower level {n}, have {tower.depth}")
    if n == 0:
        return JSet(0, (tower.zero,))
    if n == 1:
        return j_set(tower, 1, budget=budget)
    budgets.check_enum(j_size(tower, n), f"J({n}) recursion", budget)
    below = j_set_recursive(tower, n - 1, budget=budget)
    out = []
    for gamma in tower.section(n - 1, n, budget=budget):
        if gamma == tower.zero:
            continue
        for g in below:
            out.append(tower.add(gamma, g))
    # enumeration order of D_n, not discovery order
    if tower.kind != KIND_GENERIC:
        out.sort()
    else:
        order = {g: i for i, g in enumerate(tower.domain(n, budget=budget))}
        out.sort(key=order.__getitem__)
    return JSet(n, tuple(out))


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


class ToeplitzSkeleton:
    """Everything the lazy evaluator needs: step kinds and planted positions."""

    def __init__(self, tower, depth):
        if depth < 1:
            raise DepthExceeded("depth must be >= 1")
        if depth > tower.depth:
            raise DepthExceeded(
                f"depth {depth} exceeds the tower's {tower.depth} levels")
        self.tower = tower
        self.depth = depth
        self._jcache = {}

        # block boundaries: m_k = 1 + k + sum of |J(i)| for i <= k
        self.m_of = [1]
        self.mbar = [0]
        k = 0
        while self.mbar[-1] < depth:
            while len(self.m_of) <= k:
                self.m_of.append(j_size(tower, len(self.m_of)))
            self.mbar.append(1 + k + sum(self.m_of[:k + 1]))
            k += 1
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
            g_slot = self.jset(k).elements[slot - 1]
            h = self._first_over(g_slot, k, t - 1)
            self.steps.append(("plant", h))
            if k >= 1:
                self.h_records.append(HRecord(t, k, slot, g_slot, h))

        self.linking_ok = {}
        self._record_linking()

    # -- J-sets ---------------------------------------------------------

    def jset(self, n, budget=None):
        if n not in self._jcache:
            self._jcache[n] = j_set(self.tower, n, budget=budget)
        return self._jcache[n]

    def in_jset(self, g, n):
        if not self.tower.in_domain(g, n):
            return False
        return not _covered_below(self.tower, g, n)

    def _first_over(self, g_slot, k, n):
        """First element of J(n) cap g_slot Gamma_k in enumeration order."""
        T = self.tower
        if T.kind == KIND_LINE:
            step = T.size(k)
            lo = T.lo(n)
            first = lo + (g_slot - lo) % step
            for c in range(first, lo + T.size(n), step):
                if self.in_jset(c, n):
                    return c
        else:
            for c in T.domain(n):
                if T.reduce(c, k) == T.reduce(g_slot, k) and self.in_jset(c, n):
                    return c
        raise EmptySlot(f"no position over slot {g_slot} at level {n}")

    # -- construction bookkeeping ---------------------------------------

    def completed_blocks(self):
        return [k for k in range(len(self.m_k)) if self.m_k[k] <= self.depth]

    def _record_linking(self):
        """Per completed block: does every nonidentity v in
        Gamma_{m_k-2} cap D_{m_k-1} keep v^{-1} h within D_{m_k}?"""
        T = self.tower
        for k in self.completed_blocks():
            mk = self.m_k[k]
            if mk > T.depth or self.mbar[k + 1] - 1 < 1:
                continue
            kind = self.steps[self.mbar[k + 1] - 2]  # last slot step of block k
            if kind[0] != "plant":
                continue
            h_last = kind[1]
            ok = True
            bad = None
            for v in T.section(mk - 2, mk - 1):
                if v == T.zero:
                    continue
                if not T.in_domain(T.add(T.neg(v), h_last), mk):
                    ok = False
                    bad = v
                    break
            self.linking_ok[k] = ok
            if not ok:
                self.warnings.append(
                    f"LinkingViolation: block {k}, witness v={T.format_element(bad)}")

    # -- evaluation ------------------------------------------------------

    def level_of(self, g):
        """Least i with reduce(g, i+1) in J(i); None past the built depth."""
        T = self.tower
        for i in range(self.depth):
            if T.in_domain(T.reduce(g, i + 1), i):
                return i
        return None

    def eval(self, g):
        lvl = self.level_of(g)
        if lvl is None:
            return Undefined
        kind = self.steps[lvl]
        if kind[0] == "zero":
            return 0
        return 1 if self.tower.reduce(g, lvl + 1) == kind[1] else 0

    def eval_periodized(self, m, g):
        """eta_m(g): the Gamma_m-periodization, total once depth > m."""
        return self.eval(self.tower.reduce(g, m))

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
            "m_of": self.m_of[:len(self.m_k)],
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


def build_skeleton(tower_or_config, depth):
    if isinstance(tower_or_config, (dict, TowerConfig)):
        tower = build_tower(tower_or_config)
    else:
        tower = tower_or_config
    return ToeplitzSkeleton(tower, depth)


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
