"""Density of the decided region and the regularity dichotomy.

d_n is the fraction of D_n whose Gamma_n-coset is already forced.  Three
routes must agree: counting cells, summing step contributions, and the
telescoping product.  The limit behavior is certified from the declared tail:
a divergent index-ratio sum pushes d_n to 1, a geometric one pins sup d_n
strictly below 1 with an exact rational interval.

All arithmetic is fractions.Fraction; the only transcendental, exp, is
enclosed by interval Taylor summation with argument halving.
"""

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, DepthExceeded
from .result import exact_str, jsonable
from .skeleton import j_size
from .tower import TAIL_DIVERGENT, TAIL_GEOMETRIC
from .window import per_masks

VERDICT_REGULAR = "Regular"
VERDICT_IRREGULAR = "Irregular"
VERDICT_INCONCLUSIVE = "Inconclusive"
_EXP_WIDTH = Fraction(1, 10**7)  # width of each exp(-2L) enclosure


def ratio_term(tower, j):
    """t_j = |D_j| / |D_{j+1}|."""
    return Fraction(tower.size(j), tower.size(j + 1))


def d_product(tower, n):
    """Telescoping closed form: 1 - d_n = prod_{j<n} (1 - t_j)."""
    out = Fraction(1)
    for j in range(n):
        out *= 1 - ratio_term(tower, j)
    return 1 - out


def d_recursion(tower, n):
    """Sum of per-step contributions: step t decides j_size(t-1) cosets of
    Gamma_t inside every D_n."""
    total = 0
    for t in range(1, n + 1):
        total += j_size(tower, t - 1) * (tower.size(n) // tower.size(t))
    return Fraction(total, tower.size(n))


def d_enumeration(skeleton, n):
    decided = sum(int(m.sum()) for m in per_masks(skeleton, n))
    return Fraction(decided, skeleton.tower.size(n))


def density_methods(skeleton, n):
    """All computable routes to d_n; enumeration is skipped past the budget."""
    tower = skeleton.tower
    out = {"product": d_product(tower, n), "recursion": d_recursion(tower, n)}
    try:
        if skeleton.depth >= n:
            out["enumeration"] = d_enumeration(skeleton, n)
    except BudgetExceeded:
        pass
    return out


def future_factor_bound(tower, at):
    """Certified upper bound on every t_j for j >= at.

    Indices are at least 2, so 1/2 always works; past the built depth a
    declared geometric tail sharpens it to t_{depth-1} r^(j-depth+1) at
    j = at, which is below 1/2 and falls by r with each later j."""
    tail = tower.tail
    if tail is not None and tail.kind == TAIL_GEOMETRIC and at >= tower.depth:
        last = ratio_term(tower, tower.depth - 1)
        return last * tail.ratio ** (at - tower.depth + 1)
    return Fraction(1, 2)


def exp_enclosure(x, width=_EXP_WIDTH):
    """Certified rational interval around e^x, x <= 0, of at most `width`.

    Halve the argument until it is small, bracket by alternating Taylor
    partial sums, then square the interval back up.
    """
    if x > 0:
        raise ArithmeticError("exp_enclosure expects a nonpositive argument")
    if x == 0:
        return Fraction(1), Fraction(1)
    halvings = 0
    y = x
    while y < Fraction(-1, 2):
        y /= 2
        halvings += 1
    # squaring roughly doubles relative width each time; aim well inside
    inner = width / (4 ** halvings) / 4
    lo, hi = None, None
    term = Fraction(1)
    total = Fraction(1)
    i = 0
    while True:
        i += 1
        term *= Fraction(y, i)
        total += term
        # for y < 0 the partial sums alternate around the limit
        if term >= 0:
            hi = total
        else:
            lo = total
        if lo is not None and hi is not None and hi - lo < inner:
            break
        if i > 500:
            raise ArithmeticError("exp series failed to close")
    if lo < 0:
        lo = Fraction(0)
    for _ in range(halvings):
        lo, hi = lo * lo, hi * hi
    return lo, hi


@dataclass
class DensityReport:
    verdict: str
    depth: int
    d_seq: list
    d_interval: tuple
    L_partial: Fraction
    L_tail_bound: Fraction
    product_partial: Fraction
    exp_interval: tuple
    exp_width: Fraction
    notes: list = field(default_factory=list)
    millis: float = 0.0

    def to_json(self):
        return jsonable({**vars(self),
                         "d_seq": [{"n": n, "d": d} for n, d in self.d_seq],
                         "millis": round(self.millis, 3)})

    def render(self):
        lines = [f"verdict: {self.verdict}"]
        for n, d in self.d_seq:
            lines.append(f"  d_{n} = {exact_str(d)}")
        lines.append(f"  sup d in {exact_str(list(self.d_interval))}")
        lines.append(f"  L partial = {exact_str(self.L_partial)}"
                     + (f", tail <= {exact_str(self.L_tail_bound)}"
                        if self.L_tail_bound is not None else ", tail Unbounded"))
        elo, ehi = self.exp_interval
        lines.append(f"  exp(-2L) in [{float(elo):.9f}, {float(ehi):.9f}] "
                     f"(width {float(self.exp_width):.3e})")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def regularity_verdict(tower, levels=None):
    """Certified judgment of whether the decided density tends to 1."""
    if levels is not None and levels < 0:
        raise DepthExceeded(f"levels must be nonnegative, got {levels}")
    t0 = time.perf_counter()
    depth = tower.depth
    top = min(depth, levels if levels is not None else 6)
    d_seq = [(n, d_product(tower, n)) for n in range(1, top + 1)]
    d_depth = d_product(tower, depth)
    L_lo = sum((ratio_term(tower, j) for j in range(depth)), Fraction(0))

    tail = tower.tail
    d_hi, future = Fraction(1), None
    if tail is None:
        verdict = VERDICT_INCONCLUSIVE
        exp_iv, exp_width = (Fraction(0), Fraction(1)), Fraction(1)
        notes = ["no tail declaration: the limit of d_n cannot be certified"]
    elif tail.kind == TAIL_DIVERGENT:
        verdict = VERDICT_REGULAR
        exp_iv = exp_enclosure(-2 * L_lo)
        exp_width = exp_iv[1] - exp_iv[0]
        notes = ["declared divergent ratio sum: the telescoping product "
                 "tends to 0, so d_n tends to 1"]
    else:
        # certified bound on the sum of t_j over j >= depth
        future = future_factor_bound(tower, depth) / (1 - tail.ratio)
        d_hi = min(d_depth + (1 - d_depth) * future, d_hi)
        lo_hi, hi_hi = exp_enclosure(-2 * L_lo)  # largest exp(-2L)
        lo_lo, _ = exp_enclosure(-2 * (L_lo + future))  # smallest
        exp_iv, exp_width = (lo_lo, hi_hi), hi_hi - lo_hi
        notes = [f"remark bound: sup d_n <= 1 - exp(-2L) <= "
                 f"{float(1 - lo_lo):.9f}"]
        verdict = VERDICT_IRREGULAR if d_hi < 1 else VERDICT_INCONCLUSIVE
        if verdict == VERDICT_IRREGULAR:
            notes.append("declared geometric tail keeps the telescoping "
                         "product positive, so sup d_n < 1")
    return DensityReport(verdict, depth, d_seq, (d_depth, d_hi), L_lo, future,
                         1 - d_depth, exp_iv, exp_width, notes,
                         (time.perf_counter() - t0) * 1e3)
