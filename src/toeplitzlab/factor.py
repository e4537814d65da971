"""Finite-depth odometer coordinates, the coset map on orbit points, and
fiber diagnostics.

The inverse limit of the quotients G/Gamma_n is represented up to the
constructed depth as a coherent coset sequence.  Orbit points map to their
reduction sequence.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DepthExceeded, NotInDomain
from .window import UNDEFINED, eval_sums


@dataclass(frozen=True)
class OdometerPoint:
    depth: int
    cosets: tuple

    def verify(self, tower):
        """Coherence: each coset reduces to the previous one."""
        if len(self.cosets) != self.depth:
            raise NotInDomain("coset count must equal depth")
        for n in range(1, self.depth + 1):
            c = self.cosets[n - 1]
            if not tower.in_domain(c, n):
                raise NotInDomain(f"coset {c} not in D_{n}")
            if n < self.depth and tower.reduce(self.cosets[n], n) != c:
                raise NotInDomain(f"incoherent cosets at level {n}")
        return self

    def to_json(self, tower=None):
        fmt = tower.format_element if tower is not None else str
        return {"depth": self.depth, "cosets": [fmt(c) for c in self.cosets]}


def pi_of_orbit(skeleton, v, depth=None):
    """Coset coordinates of the orbit point indexed by v.

    The point sigma^{v^{-1}} eta lies in the v Gamma_n translate of C_n for
    every n, so the algebraic reduction sequence is the image.
    """
    T = skeleton.tower
    depth = skeleton.depth if depth is None else depth
    if depth < 1 or depth > skeleton.depth:
        raise DepthExceeded(f"level {depth} outside 1..{skeleton.depth}")
    return OdometerPoint(depth,
                         tuple(T.reduce(v, n) for n in range(1, depth + 1))
                         ).verify(T)


@dataclass
class FiberProfile:
    """Distinct fully defined windows seen over each level-n coset.

    counts[c] is a lower bound on the fiber cardinality over the cylinder at
    c.  Lifts whose window contains undecided positions are tallied in
    partial[c] instead of being fingerprinted.
    """

    level: int
    counts: dict
    partial: dict

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["coset", "distinct_windows", "partial_lifts"])
        for c in sorted(self.counts):
            w.writerow([c, self.counts[c], self.partial.get(c, 0)])
        return buf.getvalue()


def fiber_profile(skeleton, n):
    """Window multiplicity over each level-n coset, from level-(n+1) lifts.

    For every v in D_{n+1} the D_n-window of sigma^{v^{-1}} eta is read off,
    by eval_sums over the products v s, s in D_n; windows group by
    reduce(v, n).  Cosets whose whole neighborhood is periodically forced
    below level n always report exactly one window.
    """
    T = skeleton.tower
    skeleton.budget.check_enum(T.size(n + 1) * T.size(n),
                               f"fiber profile at {n}")
    dom_n = T.domain_arr(n)
    lifts = T.domain_arr(n + 1)
    windows = eval_sums(skeleton, lifts, dom_n)
    coset = T.coset_index_arr(lifts, n)
    full = ~(windows == UNDEFINED).any(axis=1)
    # one row per distinct (coset, window) pair among the fully defined lifts
    keys = np.column_stack((coset[full], np.packbits(windows[full], axis=1)))
    seen = np.unique(keys, axis=0)[:, 0]
    counts = np.bincount(seen, minlength=len(dom_n))
    partial = np.bincount(coset[~full], minlength=len(dom_n))
    names = [T.format_element(c) for c in T.elements(dom_n)]
    return FiberProfile(n, {c: int(k) for c, k in zip(names, counts)},
                        {c: int(k) for c, k in zip(names, partial)})
