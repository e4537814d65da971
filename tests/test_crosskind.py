"""One implementation for every tower kind.

The Generic copies of the line tower [3]^6 (identity labels, and a seeded
relabelling) run the same array kernels as the line itself, so they must
reproduce its J-sets, windows and verdicts under the labelling.  The level
scan must also agree with scalar eval and level_of cell by cell on every
kind, and section_arr with section element by element.
"""

import numpy as np
import pytest

from toeplitzlab import BudgetExceeded, Undefined, run_all, window_values
from toeplitzlab.window import window_levels


@pytest.fixture(scope="module")
def copies(generic36, relabelled36):
    """(skeleton, label of each line element) for both Generic copies."""
    return [(generic36, list(range(729))), relabelled36]


def test_j_sets_follow_the_labelling(line36, copies):
    for sk, labels in copies:
        for n in range(7):
            want = tuple(labels[g] for g in line36.jset(n).elements)
            assert sk.jset(n).elements == want, n


def test_windows_match_the_line(line36, copies):
    for sk, _ in copies:
        for n in range(7):
            assert np.array_equal(window_values(sk, n), window_values(line36, n))
            assert np.array_equal(window_levels(sk, n), window_levels(line36, n))


def test_run_all_matches_the_line(line36, copies):
    want = [(r.name, r.status, r.scope) for r in run_all(line36).results]
    for sk, _ in copies:
        got = [(r.name, r.status, r.scope) for r in run_all(sk).results]
        assert got == want


@pytest.mark.parametrize("name", ["threeadic5", "centered6", "lattice",
                                  "generic36"])
def test_scan_matches_scalar_eval(request, name):
    sk = request.getfixturevalue(name)
    for n in range(sk.depth + 1):
        dom = list(sk.tower.domain(n))
        vals = [255 if v is Undefined else v for v in map(sk.eval, dom)]
        lvls = [-1 if l is None else l for l in map(sk.level_of, dom)]
        assert window_values(sk, n).tolist() == vals, n
        assert window_levels(sk, n).tolist() == lvls, n


def _raises_budget(fn):
    try:
        fn()
    except BudgetExceeded:
        return True
    return False


@pytest.mark.parametrize("name", ["threeadic5", "centered6", "lattice",
                                  "generic36"])
def test_section_arr_matches_section(request, name):
    T = request.getfixturevalue(name).tower
    over = []
    for j in range(T.depth + 1):
        for i in range(j + 1):
            want = T.array(list(T.section(i, j)))
            assert np.array_equal(T.section_arr(i, j), want), (i, j)
            raised = _raises_budget(lambda: T.section(i, j, budget=8))
            assert _raises_budget(lambda: T.section_arr(i, j, budget=8)) == raised
            over.append(raised)
    assert any(over) and not all(over)
