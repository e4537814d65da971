"""One implementation for every tower kind.

The Generic copies of the line tower [3]^6 (identity labels, and a seeded
relabelling) run the same array kernels as the line itself, so they must
reproduce its J-sets, windows, fiber profiles and verdicts under the
labelling.  The level scan must also agree with scalar eval and level_of
cell by cell on every kind, section_arr with the section's definition
element by element, shift_arr with the scalar ops translate by translate,
and the scalar index_of with domain_arr index by index.
"""

import itertools

import numpy as np
import pytest

from conftest import s3_by_z

from toeplitzlab import (Budget, BudgetExceeded, Undefined, fiber_profile,
                         run_all, window_values)
from toeplitzlab.window import window_levels


@pytest.fixture(scope="module")
def copies(generic36, relabelled36):
    """(skeleton, label of each line element) for both Generic copies."""
    return [(generic36, list(range(729))), relabelled36]


def test_j_sets_follow_the_labelling(line36, copies):
    for sk, labels in copies:
        for n in range(7):
            want = [labels[g] for g in line36.jset(n).tolist()]
            assert sk.jset(n).tolist() == want, n


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
        dom = sk.tower.elements(sk.tower.domain_arr(n))
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
            if name == "lattice":
                # the lattice reads its sections through the definition
                # below, so its oracle is the product of the axes' sections
                # in lexicographic order
                want = np.array(list(itertools.product(
                    *(ax.section_arr(i, j).tolist() for ax in T.axes))))
            else:
                # Gamma_i cap D_j: the elements of D_j that reduce to 0 mod
                # Gamma_i
                dom = T.domain_arr(j)
                want = dom[T.eq_arr(T.reduce_arr(dom, i), T.zero)]
            assert np.array_equal(T.section_arr(i, j), want), (i, j)
            raised = _raises_budget(lambda: T.section_arr(i, j, Budget(8)))
            assert raised == (len(want) > 8)
            over.append(raised)
    assert any(over) and not all(over)


@pytest.mark.parametrize("name", ["threeadic5", "centered6", "lattice",
                                  "generic36", "relabelled36", "s3_by_z4"])
def test_shift_arr_matches_the_scalar_ops(request, name):
    # shift_arr(vals, s, n)[k] reads vals at the coset of d_k + s, s on the
    # right: on the non-abelian s3_by_z(4), d_k + s and s + d_k lie in
    # different cosets of Gamma_n for n >= 2
    if name == "s3_by_z4":
        T = s3_by_z(4)
    else:
        sk = request.getfixturevalue(name)
        T = (sk[0] if name == "relabelled36" else sk).tower
    for n in range(min(T.depth, 4) + 1):
        vals = np.arange(T.size(n))
        dom = T.domain_arr(n)
        shifts = T.domain_arr(min(n + 1, T.depth))
        for s in shifts[::max(1, len(shifts) // 16)]:
            want = [T.index_of(T.reduce(T.element(g), n), n)
                    for g in T.add_arr(dom, s)]
            assert T.shift_arr(vals, s, n).tolist() == want, (n, s)


@pytest.mark.parametrize("name", ["threeadic5", "centered6", "lattice",
                                  "generic36", "relabelled36"])
def test_element_at_indexes_domain_arr(request, name):
    sk = request.getfixturevalue(name)
    T = (sk[0] if name == "relabelled36" else sk).tower
    for n in range(T.depth + 1):
        dom = T.elements(T.domain_arr(n))
        assert [T.index_of(g, n) for g in dom] == list(range(len(dom))), n


def test_fiber_profiles_follow_the_labelling(line36, relabelled36):
    sk, labels = relabelled36
    fmt = sk.tower.format_element
    for n in range(1, 5):
        want = fiber_profile(line36, n)
        got = fiber_profile(sk, n)
        relabel = {str(g): fmt(labels[g]) for g in range(line36.tower.size(n))}
        assert got.counts == {relabel[c]: k for c, k in want.counts.items()}, n
        assert got.partial == {relabel[c]: k for c, k in want.partial.items()}, n
