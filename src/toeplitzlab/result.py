"""Check results and suite reports.

A CheckResult is the single currency every verifier returns.  Status values:

  Pass          the asserted relation held on the whole reported scope
  Fail          a counterexample was found (always attached)
  Inconclusive  every unit was over budget, or the input lacks the data
                needed to decide (e.g. no tail declaration)
  Vacated       a prerequisite recorded on the skeleton is false, so the
                statement's hypothesis never triggers; the scan still ran.
                Also a check that broke on tower axioms that decom refutes

A check builds its result without timing itself: `millis` is set by
verify.run_check, which also turns the errors a check raises into these
statuses (the table is in verify's docstring).
"""

from dataclasses import dataclass, field
from fractions import Fraction

PASS = "Pass"
FAIL = "Fail"
INCONCLUSIVE = "Inconclusive"
VACATED = "Vacated"

_STATUSES = (PASS, FAIL, INCONCLUSIVE, VACATED)


def jsonable(value):
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator),
                "approx": float(value)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, float)) or value is None:
        return value
    if isinstance(value, int):
        # json keeps ints exact, but huge group orders read better as strings
        return value if abs(value) < 1 << 53 else str(value)
    return str(value)


class _Shown(str):
    """Text that a container's repr shows as it is."""
    __repr__ = str.__str__


def _show_fractions(value):
    if isinstance(value, Fraction):
        return _Shown(f"{value} ~ {float(value):.9f}")
    if isinstance(value, dict):
        return {k: _show_fractions(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_show_fractions, value))
    return value


def exact_str(value):
    """str(value), with every Fraction in it, however nested, written
    exactly and with a decimal approximation: `num/den ~ 0.123456789`."""
    return str(_show_fractions(value))


@dataclass
class CheckResult:
    name: str
    status: str
    scope: str
    witnesses: list = field(default_factory=list)
    counterexample: object = None
    millis: float = 0.0

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        if self.status == FAIL and self.counterexample is None:
            raise ValueError("Fail result must carry a counterexample")

    @property
    def ok(self):
        return self.status != FAIL

    def to_json(self):
        return jsonable({**vars(self), "millis": round(self.millis, 3)})

    def render(self):
        head = f"[{self.status:>12}] {self.name}: {self.scope}"
        # a witness with an "of" says how many "atoms" of those cases it
        # covered, and how ("mode"): a corollary chain counts every atom
        for w in self.witnesses:
            if isinstance(w, dict) and "of" in w:
                head += (f"\n{'':15}{w.get('span', '')} {w['mode']}: "
                         f"{w['atoms']} of {w['of']} atoms")
        if self.counterexample is not None:
            head += (f"\n{'':15}counterexample: "
                     f"{exact_str(self.counterexample)}")
        return head


def passed(name, scope, witnesses=None):
    return CheckResult(name, PASS, scope, witnesses or [])


def failed(name, scope, counterexample, witnesses=None):
    return CheckResult(name, FAIL, scope, witnesses or [], counterexample)


def inconclusive(name, scope, witnesses=None):
    return CheckResult(name, INCONCLUSIVE, scope, witnesses or [])


def vacated(name, scope, witnesses=None):
    return CheckResult(name, VACATED, scope, witnesses or [])


@dataclass
class SuiteReport:
    results: list

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def to_json(self):
        return {"all_ok": self.ok, "results": [r.to_json() for r in self.results]}

    def render(self):
        lines = [r.render() for r in self.results]
        tally = {}
        for r in self.results:
            tally[r.status] = tally.get(r.status, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(tally.items()))
        lines.append(f"-- {len(self.results)} checks: {summary}")
        return "\n".join(lines)
