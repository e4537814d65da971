"""One implementation for every tower kind.

The Generic copies of the line tower [3]^6 (identity labels, and a seeded
relabelling) run the same array kernels as the line itself, so they must
reproduce its J-sets, windows, fiber profiles and verdicts under the
labelling.  The level scan must also agree with scalar eval and level_of
cell by cell on every kind, section_arr with the section's definition
element by element (refusing levels out of order), shift_arr with the
scalar ops translate by translate, and the scalar index_of with domain_arr
index by index.  Off D_depth, eval and level_of must read the D_depth
window at the element's reduction, also past the eval table on a lattice
of more than CHUNK cells, which walks with the shared level_of.  Each
kind's coset_index, and the line's level_of from any start, must agree
with the shared forms they override; the lattice and Generic walk with the
shared level_of itself.
Scalar eval, a table over D_L and a walk past L, must give the plain walk
from level 0 at every table level the chunk size and the window cap
allow, and on a broken Generic tower the walk's value or its error.
"""

import itertools
import random

import numpy as np
import pytest

from conftest import cyclic_generic, s3_by_z

from toeplitzlab import (STYLE_CENTERED, Budget, DepthExceeded,
                         IntegerLatticeTower, NotInDomain, Undefined,
                         build_skeleton, fiber_profile, run_all, tower,
                         window_values)
from toeplitzlab.tower import _ArrayForms
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


@pytest.fixture(scope="module")
def centered_lattice():
    return build_skeleton(
        IntegerLatticeTower([[3, 3, 3], [5, 3, 3]], style=STYLE_CENTERED), 3)


def _draws(T, depth, count=600, seed=3):
    """Elements drawn as the benchmark draws them: each integer coordinate
    from three copies of D_depth, the one below it to the one above, so
    most lie outside D_depth; every label of a Generic tower."""
    if T.kind == "Generic":
        return list(range(T.size(T.depth)))
    rng = random.Random(seed)
    axes = T.axes if T.kind == "IntegerLattice" else [T]
    pts = [tuple(rng.randrange(ax.lo(depth) - ax.size(depth),
                               ax.lo(depth) + 2 * ax.size(depth))
                 for ax in axes) for _ in range(count)]
    return pts if T.kind == "IntegerLattice" else [p[0] for p in pts]


@pytest.fixture(scope="module")
def lattice_past_chunk():
    # |D_5| = 3^10 <= CHUNK < |D_6| = 3^12: at depth 6 the eval table lies
    # over D_5, and eval walks level 5 with the shared level_of
    return build_skeleton(IntegerLatticeTower([[3] * 6] * 2), 6)


# a Generic tower's elements all lie in D_depth at its own depth, so its
# skeletons are built lower
OFF_DOMAIN = [("threeadic", 10), ("centered6", 6), ("lattice", 3),
              ("centered_lattice", 3), ("lattice_past_chunk", 6),
              ("generic36", 4), ("s3_by_z5", 3)]

# the towers whose kind overrides level_of: the line's
LINE_WALKS = [("threeadic", 10), ("centered6", 6), ("irregular", 5)]


@pytest.mark.parametrize("name, depth", OFF_DOMAIN)
def test_eval_off_the_domain_reads_the_window_at_its_reduction(
        request, name, depth):
    T = request.getfixturevalue(name).tower
    sk = build_skeleton(T, depth)
    vals, lvls = window_values(sk, depth), window_levels(sk, depth)
    pts = _draws(T, depth)
    outside = 0
    for g in pts:
        i = T.index_of(T.reduce(g, depth), depth)
        v, lvl = sk.eval(g), sk.level_of(g)
        assert (255 if v is Undefined else v) == vals[i], g
        assert (-1 if lvl is None else lvl) == lvls[i], g
        outside += not T.in_domain(g, depth)
    assert outside > len(pts) / 2
    if name == "lattice_past_chunk":
        assert _table_level(sk) == 5
    # both symbols and undefined cells are reached off D_depth
    assert {0, 1} <= {sk.eval(g) for g in pts}
    assert Undefined in [sk.eval(g) for g in pts]


@pytest.mark.parametrize("name, depth", LINE_WALKS)
def test_level_of_matches_the_shared_form(request, name, depth):
    T = request.getfixturevalue(name).tower
    for g in _draws(T, depth, count=200):
        for n in range(T.depth + 1):
            assert T.level_of(g, n) == _ArrayForms.level_of(T, g, n), (g, n)


def test_eval_on_a_coset_without_a_representative_raises():
    # D_1 = [0, 2] holds no element of the odd coset mod 2
    sk = build_skeleton(cyclic_generic([2, 4], domains=[[0], [0, 2],
                                                        list(range(8))]), 2)
    assert sk.eval(4) is Undefined
    # Generic's coset_index, which eval's table read goes through
    for fn in (sk.eval, sk.level_of, lambda g: sk.tower.coset_index(g, 1)):
        with pytest.raises(NotInDomain, match="D_1 has no representative"):
            fn(1)


@pytest.mark.parametrize("name, depth", OFF_DOMAIN)
def test_coset_index_and_a_late_start_match_the_shared_forms(
        request, name, depth):
    T = request.getfixturevalue(name).tower
    late_start = (name, depth) in LINE_WALKS
    for g in _draws(T, depth, count=100):
        for n in range(T.depth + 1):
            assert T.coset_index(g, n) == _ArrayForms.coset_index(T, g, n)
            for start in range(n + 1) if late_start else ():
                assert (T.level_of(g, n, start)
                        == _ArrayForms.level_of(T, g, n, start)), (g, n)
    for n in (-1, T.depth + 1):
        with pytest.raises(DepthExceeded):
            T.coset_index(T.zero, n)


def _walked(sk, g):
    """eval by the plain walk from level 0: the step at sk.level_of(g), and
    at a plant whether g reduces onto the planted position there."""
    i = sk.level_of(g)
    if i is None:
        return Undefined
    kind = sk.steps[i]
    return int(kind[0] == "plant" and sk.tower.reduce(g, i + 1) == kind[1])


def _table_level(sk):
    """The level L of the table over D_L that sk's eval has read."""
    return sk.cached("eval table", lambda: pytest.fail("no eval table"))[0]


# the level of the eval table at each chunk size: L = 0, 0 < L < depth and
# L = depth all occur
TABLE_LEVELS = {
    7: {"threeadic5": 1, "centered6": 1, "lattice": 0, "generic36": 1,
        "h3_generic6": 1, "s3_by_z5": 1},
    1000: {"threeadic5": 5, "centered6": 6, "lattice": 3, "generic36": 6,
           "h3_generic6": 6, "s3_by_z5": 5},
}


@pytest.mark.parametrize("chunk", sorted(TABLE_LEVELS))
@pytest.mark.parametrize("name", sorted(TABLE_LEVELS[7]))
def test_eval_matches_the_walk_at_every_table_level(monkeypatch, request,
                                                    name, chunk):
    built = request.getfixturevalue(name)
    monkeypatch.setattr(tower, "CHUNK", chunk)
    sk = build_skeleton(built.tower, built.depth)
    pts = _draws(sk.tower, sk.depth)
    assert [sk.eval(g) for g in pts] == [_walked(sk, g) for g in pts]
    assert _table_level(sk) == TABLE_LEVELS[chunk][name]
    assert {0, 1, Undefined} <= {sk.eval(g) for g in pts}


def test_the_eval_table_obeys_the_window_cap(threeadic5):
    # |D_n| = 3^n: a cap of 9 cells stops the table at D_2
    pts = _draws(threeadic5.tower, 5)
    want = [_walked(threeadic5, g) for g in pts]
    for window, level in ((1, 0), (9, 2), (242, 4), (243, 5)):
        sk = build_skeleton(threeadic5.tower, 5, Budget(window=window))
        assert [sk.eval(g) for g in pts] == want
        assert _table_level(sk) == level


def _outcome(fn, g):
    """fn(g), or the message of the NotInDomain it raises."""
    try:
        return fn(g)
    except NotInDomain as exc:
        return f"NotInDomain: {exc}"


# broken Generic towers and the level their eval table stops below
BROKEN_DOMAINS = {
    # D_2 has no element of the coset 2 + 4Z, which level 0 settles, and
    # the walk never reads D_2 for it
    "D_2 misses a coset level 0 settles": (
        [2, 2, 2], [[0], [0, 1], [0, 1, 3], list(range(8))], 1),
    # D_1 holds two elements of 2Z and none of 1 + 2Z, while D_2 holds one
    # element of every coset: the walk raises on the odd elements
    "D_1 repeats a coset under a whole D_2": (
        [2, 4], [[0], [0, 2], list(range(8))], 0),
}


@pytest.mark.parametrize("label", sorted(BROKEN_DOMAINS))
def test_eval_on_a_broken_tower_gives_the_walks_value_or_error(label):
    moduli, domains, level = BROKEN_DOMAINS[label]
    sk = build_skeleton(cyclic_generic(moduli, domains=domains), 2)
    labels = range(sk.tower.size(sk.tower.depth))
    want = [_outcome(lambda g: _walked(sk, g), g) for g in labels]
    assert [_outcome(sk.eval, g) for g in labels] == want
    assert _table_level(sk) == level
    assert 0 in want


@pytest.mark.parametrize("name", ["threeadic5", "centered6", "lattice",
                                  "generic36"])
def test_section_arr_matches_section(request, name):
    T = request.getfixturevalue(name).tower
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
    # every kind refuses a pair out of order or past the depth
    for i, j in ((T.depth, 1), (-1, 1), (1, T.depth + 1)):
        with pytest.raises(DepthExceeded):
            T.section_arr(i, j)


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
