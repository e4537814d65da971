"""Exact measures of cylinder sets under the level-m periodizations.

mu_m is normalized counting over D_m translates of the periodized array
eta_m.  Once the depth passes m every cell of D_m is decided, so all masses
are exact rationals with denominator |D_m|.
"""

from fractions import Fraction

import numpy as np

from .errors import (CountMismatch, DepthExceeded, InconclusiveTail,
                     NotInDomain)
from .density import d_recursion, regularity_verdict, VERDICT_INCONCLUSIVE
from .result import failed
from .skeleton import j_size
from .window import UNDEFINED, per_masks, window_values


def a_counts(skeleton, n):
    """(a_{n,0}, a_{n,1}): decided cosets of each symbol inside D_n.

    A planted step t <= n gives |D_n|/|D_t| ones; the steps up to n decide
    d_n |D_n| cells.  When |D_n| <= 2**16 an enumeration must reproduce the
    same pair, else CountMismatch."""
    T = skeleton.tower
    if n > skeleton.depth:
        raise DepthExceeded(f"a_counts needs n <= depth, got {n}")
    size = T.size(n)
    a1 = int(size * skeleton.plant_tail_sum(0, n))
    a0 = int(size * d_recursion(T, n)) - a1
    if size <= 1 << 16:
        e0, e1 = (int(m.sum()) for m in per_masks(skeleton, n))
        if (e0, e1) != (a0, a1):
            raise CountMismatch(n, (a0, a1), (e0, e1))
    return a0, a1


class PeriodicMeasure:
    """mu_m: exact masses for eta_m-cylinders; needs depth > m."""

    def __init__(self, skeleton, m):
        if m < 1:
            raise DepthExceeded("measure level must be >= 1")
        self.skeleton = skeleton
        self.m = m
        self.tower = skeleton.tower
        self.size = self.tower.size(m)
        self._vals = window_values(skeleton, m)
        if (self._vals == UNDEFINED).any():
            raise DepthExceeded(f"mu_{m} found undecided cells")

    def _matches(self, pattern):
        acc = np.ones(self.size, dtype=bool)
        for s, v in pattern:
            acc &= self.tower.shift_arr(self._vals, s, self.m) == v
        return acc

    def mu_cylinder(self, pattern):
        """Mass of {d : eta_m(d + s) = v for every (s, v) in pattern}."""
        return Fraction(int(self._matches(pattern).sum()), self.size)

    def mu_level_cylinder(self, n):
        """mu_cylinder of the pairs (s, eta_n(s)), s in D_{n+1}.  D_{n+1}
        tiles as c + u, c in Gamma_n cap D_{n+1}, u in D_n (decom checks it),
        and eta_n(c + u) = eta_n(u): one pass per u, then one per c."""
        T, budget = self.tower, self.skeleton.budget
        passes = T.size(n) + T.size(n + 1) // T.size(n)
        budget.check_window(passes * self.size, f"mu_{self.m} of eta_{n}")
        acc = self._matches(zip(T.domain_arr(n), window_values(self.skeleton, n)))
        out = np.ones(self.size, dtype=bool)
        for c in T.section_arr(n, n + 1):
            out &= T.shift_arr(acc, c, self.m)
        return Fraction(int(out.sum()), self.size)


def mu_cylinder(skeleton, m, pattern):
    return PeriodicMeasure(skeleton, m).mu_cylinder(pattern)


def parse_pattern(tower, obj):
    """JSON form: {"support": [g, ...], "values": [0/1, ...]}, each g in the
    JSON form of the tower's elements (an int, or a list of coordinates)."""
    if not isinstance(obj, dict):
        raise NotInDomain(f"a pattern is a JSON object, got {obj!r}")
    support = obj.get("support", [])
    values = obj.get("values", [])
    if not isinstance(support, list) or not isinstance(values, list) \
            or len(support) != len(values):
        raise NotInDomain("pattern support and values need to be lists of "
                          "equal length")
    out = []
    for g, v in zip(support, values):
        if isinstance(v, bool) or v not in (0, 1):
            raise NotInDomain(f"pattern value must be 0/1, got {v!r}")
        out.append((tower.coerce(g), v))
    return out


def limit_01(skeleton, level=None):
    """Certified enclosures for the limiting masses of the symbol cylinders.

    The one-mass partials a_{m,1}/|D_m| are nondecreasing, and every later
    step adds at most one coset of its own level, so indices >= 2 bound the
    future contribution by 1/|D_m|.  The zero-mass enclosure is the exact
    complement; a second route through the density interval must intersect it.
    Raises InconclusiveTail when the tower declares no tail.
    """
    T = skeleton.tower
    m = level if level is not None else skeleton.depth - 1
    if m < 1 or m + 1 > skeleton.depth:
        raise DepthExceeded(f"limit_01 needs a level in 1..{skeleton.depth - 1}")
    report = regularity_verdict(T)
    if report.verdict == VERDICT_INCONCLUSIVE:
        raise InconclusiveTail(
            "limit_01 needs a certified density interval; declare a tail")
    a0, a1 = a_counts(skeleton, m)
    size = T.size(m)
    one_lo = Fraction(a1, size)
    one_hi = one_lo + Fraction(1, size)
    zero_lo, zero_hi = 1 - one_hi, 1 - one_lo

    d_lo, d_hi = report.d_interval
    d_m = Fraction(a0 + a1, size)
    # future zero mass: each step t > m contributes j_size(t-1)/|D_t| which is
    # (1 - d_{t-1})/q_t <= (1 - d_m)/2, summing to at most (1 - d_m)
    future_zero = 1 - d_m
    via_lo = Fraction(a0, size) + (1 - d_hi)
    via_hi = Fraction(a0, size) + future_zero + (1 - d_lo)
    if via_hi > 1:
        via_hi = Fraction(1)
    if max(zero_lo, via_lo) > min(zero_hi, via_hi):
        raise ArithmeticError("zero-mass enclosures fail to intersect")

    return {
        "level": m,
        "one": (one_lo, one_hi),
        "zero": (zero_lo, zero_hi),
        "zero_via_density": (via_lo, via_hi),
        "a_counts": (a0, a1),
        "verdict": report.verdict,
    }


def an_det_check(skeleton, n):
    """det [[a0+j, a0+j-1], [a1, a1+1]] must equal |D_n| exactly.  A unit
    body of verify's an-det: returns the level's witness, or a Fail, also
    where a window count of (a0, a1) disagrees with the step log's."""
    try:
        a0, a1 = a_counts(skeleton, n)
    except CountMismatch as exc:
        return failed("an-det", f"level {n}", {"level": n, "log": exc.log,
                                               "count": exc.count})
    j = j_size(skeleton.tower, n)
    size = skeleton.tower.size(n)
    mat = ((a0 + j, a0 + j - 1), (a1, a1 + 1))
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if det != size:
        return failed("an-det", f"level {n}", {"level": n, "matrix": mat,
                                               "det": det, "expected": size})
    return {"n": n, "a0": a0, "a1": a1, "j": j}
