"""Decided-density arithmetic and the certified regularity verdicts."""

import math
from fractions import Fraction

import pytest

from toeplitzlab import IntegerLineTower
from toeplitzlab.density import (
    DensityReport,
    density_methods,
    exp_enclosure,
    ratio_term,
    regularity_verdict,
)


def test_ratio_terms(threeadic, irregular):
    assert all(ratio_term(threeadic.tower, j) == Fraction(1, 3) for j in range(9))
    assert ratio_term(irregular.tower, 0) == Fraction(1, 15)
    assert ratio_term(irregular.tower, 4) == Fraction(1, 255)


def test_density_methods_agree(threeadic, irregular):
    for n in range(1, 6):
        vals = density_methods(threeadic, n)
        assert set(vals) == {"product", "recursion", "enumeration"}
        assert len(set(vals.values())) == 1
    for n in range(1, 4):
        vals = density_methods(irregular, n)
        assert len(set(vals.values())) == 1


def _routes(skeleton, n):
    """The values every density route gives for d_n, with all three run."""
    routes = density_methods(skeleton, n)
    assert set(routes) == {"product", "recursion", "enumeration"}
    return set(routes.values())


def test_d_exact_matches_reference(threeadic, oracle3):
    want = [Fraction(1, 3), Fraction(5, 9), Fraction(19, 27),
            Fraction(65, 81), Fraction(211, 243)]
    for n in range(1, 6):
        assert _routes(threeadic, n) == {want[n - 1]} == {oracle3.d_exact(n)}
    assert _routes(threeadic, 2) == {1 - Fraction(4, 9)}


def test_d_exact_irregular(irregular, oracle_irr):
    want = [Fraction(1, 15), Fraction(3, 31), Fraction(1, 9), Fraction(15, 127)]
    for n in range(1, 5):
        assert _routes(irregular, n) == {want[n - 1]}
    for n in range(1, 4):
        assert _routes(irregular, n) == {oracle_irr.d_exact(n)}


def test_exp_enclosure_brackets_exp():
    slack = Fraction(1, 10**12)  # float(exp) itself is only correct to ~1e-16
    for x in (Fraction(0), Fraction(-1, 3), Fraction(-2), Fraction(-13, 7)):
        lo, hi = exp_enclosure(x, Fraction(1, 10**9))
        assert lo - slack <= math.exp(float(x)) <= hi + slack
        assert 0 <= lo <= hi
        assert hi - lo <= Fraction(1, 10**9)
    with pytest.raises(ArithmeticError):
        exp_enclosure(Fraction(1, 2))


def test_threeadic_is_regular(threeadic):
    rep = regularity_verdict(threeadic.tower, levels=5)
    assert rep.verdict == "Regular"
    ds = [d for _, d in rep.d_seq]
    assert all(a < b for a, b in zip(ds, ds[1:]))
    assert rep.d_interval[1] == Fraction(1)
    assert "verdict: Regular" in rep.render()


def test_irregular_is_certified_irregular(irregular):
    rep = regularity_verdict(irregular.tower, levels=4)
    assert rep.verdict == "Irregular"
    lo, hi = rep.d_interval
    assert lo == Fraction(31, 255)
    assert hi == Fraction(8129, 65025)
    assert hi < Fraction(1, 4)
    assert hi < 1 - hi  # zeros keep the majority in the limit
    assert rep.exp_width < Fraction(1, 10**6)
    out = rep.to_json()
    assert out["verdict"] == "Irregular"
    assert out["d_interval"][1]["approx"] < 0.25


def test_no_tail_declaration_is_inconclusive():
    rep = regularity_verdict(IntegerLineTower([3, 3, 3]))
    assert rep.verdict == "Inconclusive"
    assert any("no tail declaration" in note for note in rep.notes)
