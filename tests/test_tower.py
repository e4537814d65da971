"""Tower arithmetic against the naive reference model."""

import copy
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import cyclic_generic, relabelled_cyclic, s3_by_z
from toeplitzlab import (
    GenericTower,
    IntegerLatticeTower,
    IntegerLineTower,
    InvalidIndex,
    NotInDomain,
    ParityError,
    STYLE_CENTERED,
    TowerConfig,
    build_skeleton,
    build_tower,
    preset_config,
    validate_tower,
)
from toeplitzlab import tower as tower_module


def test_line_nonneg_matches_reference():
    T = IntegerLineTower([3, 3, 3, 3])
    R = bf.NaiveLine([3, 3, 3, 3], "nonneg")
    assert [T.size(n) for n in range(5)] == list(R.N)
    for n in range(5):
        assert T.elements(T.domain_arr(n)) == list(R.domain(n))
    for g in range(-50, 130):
        for n in range(5):
            assert T.reduce(g, n) == R.red(g, n)
            assert T.in_domain(g, n) == R.in_domain(g, n)


def test_line_centered_matches_reference():
    T = IntegerLineTower([3, 5, 3], style=STYLE_CENTERED)
    R = bf.NaiveLine([3, 5, 3], "centered")
    for n in range(4):
        assert sorted(T.elements(T.domain_arr(n))) == sorted(R.domain(n))
    for g in range(-70, 70):
        for n in range(4):
            assert T.reduce(g, n) == R.red(g, n)


def test_centered_rejects_even_modulus():
    with pytest.raises(ParityError):
        IntegerLineTower([3, 4, 3], style=STYLE_CENTERED)


def test_index_below_two_rejected():
    with pytest.raises(InvalidIndex):
        IntegerLineTower([3, 1, 3])
    with pytest.raises(InvalidIndex):
        IntegerLatticeTower([[3, 3], [3, 1]])


@given(g=st.integers(-10**12, 10**12), n=st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_line_reduce_is_coset_retraction(g, n):
    for style in (None, STYLE_CENTERED):
        T = IntegerLineTower([3, 5, 7, 3, 9], style=style or "NonNegative")
        r = T.reduce(g, n)
        assert (g - r) % T.size(n) == 0
        assert T.in_domain(r, n)
        assert T.reduce(r, n) == r
        arr = np.array([g], dtype=np.int64)
        assert T.reduce_arr(arr, n).tolist() == [r]
        assert T.coset_index_arr(arr, n).tolist() == [(g - T.lo(n)) % T.size(n)]


def _three_ways(op, g):
    """op(g, out) with no out, a separate out and out aliasing g; an op
    given an out returns it."""
    out, alias = np.empty_like(g), g.copy()
    got = [op(g.copy(), None), op(g, out), op(alias, alias)]
    assert got[1] is out and got[2] is alias
    return got


@pytest.mark.parametrize("style", ["NonNegative", STYLE_CENTERED])
def test_quotient_kernel_is_exact_at_the_int32_edge(style):
    # N_2 = 2,147,395,599 < 2**31, so D_0..D_2 are int32; reducing the ends
    # of D_2 to level 1 comes within 65k of 2**31
    T = IntegerLineTower([46341, 46339], style=style)
    for k in range(3):
        size = T.size(k)
        g = np.unique(np.concatenate((T.domain_arr(k, 0, 70000),
                                      T.domain_arr(k, max(0, size - 70000)))))
        assert g.dtype == np.int32
        for n in range(3):
            lo, m = T.lo(n), T.size(n)
            want = [T.reduce(x, n) for x in g.tolist()]
            for got in _three_ways(lambda a, out: T.reduce_arr(a, n, out=out),
                                   g):
                assert got.dtype == np.int32 and got.tolist() == want
            idx = [(x - lo) % m for x in g.tolist()]
            assert T.coset_index_arr(g, n).tolist() == idx


@pytest.mark.parametrize("indices", [[46341, 46339], [46341, 46341]])
@pytest.mark.parametrize("style", ["NonNegative", STYLE_CENTERED])
def test_sections_are_exact_at_the_int32_edge(style, indices):
    # a section comes in its D_j's dtype: int32 while N_2 = 2,147,395,599,
    # int64 for j >= 1 once N_2 = 2,147,488,281 passes 2**31; its sums with
    # D_i come out int64 and reach both ends of D_j
    T = IntegerLineTower(indices, style=style)
    for i, j in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2)):
        sec = T.section_arr(i, j)
        assert sec.dtype == T.domain_arr(j, 0, 1).dtype
        q, step = T.size(j) // T.size(i), T.size(i)
        first = 0 if style == "NonNegative" else -((q - 1) // 2)
        assert sec.tolist() == [(first + k) * step for k in range(q)]
        ends = T.add_arr(sec[[0, -1], None], np.concatenate(
            (T.domain_arr(i, 0, 1), T.domain_arr(i, step - 1)))[None])
        assert ends.dtype == np.int64
        assert (ends.min(), ends.max()) == (T.lo(j), T.lo(j) + T.size(j) - 1)
    assert T.section_arr(1, 2).dtype == (np.int32 if indices[1] == 46339
                                         else np.int64)


def test_lattice_quotient_kernel_reads_strided_axis_views():
    T = IntegerLatticeTower([[3, 5, 7], [5, 3, 9]], style=STYLE_CENTERED)
    g = np.random.default_rng(0).integers(-10**12, 10**12, size=(2000, 2))
    for n in range(4):
        want = [T.reduce(x, n) for x in T.elements(g)]
        for got in _three_ways(lambda a, out: T.reduce_arr(a, n, out=out), g):
            assert T.elements(got) == want
        idx = [T.index_of(x, n) for x in want]
        assert T.coset_index_arr(g, n).tolist() == idx


@pytest.mark.parametrize("build", [
    lambda: IntegerLineTower([3, 5, 2, 4]),
    lambda: IntegerLineTower([3, 5, 3, 7], style=STYLE_CENTERED),
    lambda: IntegerLatticeTower([[2, 3, 4], [3, 2, 2]]),
    lambda: IntegerLatticeTower([[3, 5, 3], [5, 3, 3]], style=STYLE_CENTERED),
    lambda: relabelled_cyclic([3, 2, 3], 1)[0],
    lambda: s3_by_z(4),
])
def test_extend_reads_each_coset_at_its_representative(build):
    # over D_{l+1}, the value at g is the D_l value of g's Gamma_l-coset,
    # cell by cell through the scalar ops
    T = build()
    for l in range(T.depth):
        vals = np.arange(T.size(l)) * 7 % 11
        got = T.extend_arr(vals, l)
        dom = T.elements(T.domain_arr(l + 1))
        assert got.dtype == vals.dtype and len(got) == len(dom)
        assert got.tolist() == [vals[T.index_of(T.reduce(g, l), l)]
                                for g in dom]


def test_sections_tile_the_domain():
    T = IntegerLineTower([3, 5, 3], style=STYLE_CENTERED)
    for i in range(3):
        for j in range(i, 4):
            sec = T.section_arr(i, j)
            assert len(sec) * T.size(i) == T.size(j)
            tiles = T.translate_arr(sec, T.domain_arr(i))
            assert set(tiles.ravel().tolist()) == set(T.domain_arr(j).tolist())


def test_lattice_matches_reference():
    T = IntegerLatticeTower([[3, 3, 3], [3, 3, 3]])
    R = bf.NaiveLattice([[3, 3, 3], [3, 3, 3]], "nonneg")
    for n in range(4):
        assert sorted(T.elements(T.domain_arr(n))) == sorted(R.domain(n))
    for a in range(-5, 12):
        for b in range(-5, 12):
            for n in range(4):
                assert T.reduce((a, b), n) == R.red((a, b), n)
    a, b = T.array([(1, 2)]), T.array([(3, 4)])
    assert T.elements(T.add_arr(a, b)) == [(4, 6)]
    assert T.elements(T.sub_arr(a, b)) == [(-2, -2)]


def test_tile_decompose_recombines():
    # g in D_3 splits as v + u, v in Gamma_1 cap D_3 and u in D_1
    T = IntegerLineTower([3, 3, 3, 3])
    g = T.domain_arr(3)
    u = T.reduce_arr(g, 1)
    v = T.sub_arr(g, u)
    assert np.array_equal(T.add_arr(v, u), g)
    assert T.in_domain_arr(u, 1).all()
    assert set(v.tolist()) == set(T.section_arr(1, 3).tolist())


def test_element_text_round_trip():
    T = IntegerLineTower([3, 3])
    assert T.parse_element(T.format_element(-7)) == -7
    L = IntegerLatticeTower([[3, 3], [3, 3]])
    assert L.parse_element(L.format_element((2, -1))) == (2, -1)


def test_config_json_round_trip():
    cfg = TowerConfig("IntegerLine", indices=[15, 31], style=STYLE_CENTERED,
                      tail={"kind": "geometric", "ratio": "1/2"})
    back = TowerConfig.from_json(cfg.to_json())
    T = build_tower(back)
    assert T.tail.ratio == Fraction(1, 2)
    assert T.size(2) == 465
    lat = TowerConfig("IntegerLattice", indices=[[3, 3], [3, 3]])
    assert build_tower(TowerConfig.from_json(lat.to_json())).size(2) == 81


def test_generic_tower_mirrors_line():
    G = cyclic_generic([2, 4])
    T = IntegerLineTower([2, 4])
    assert [G.size(n) for n in range(3)] == [T.size(n) for n in range(3)]
    for g in range(8):
        for n in range(3):
            assert G.reduce(g, n) == T.reduce(g, n)
    assert validate_tower(G).status == "Pass"


def test_generic_tower_nonstandard_reps():
    # D_1 = {0, 3} still represents both mod-2 cosets
    G = cyclic_generic([2, 4], domains=[[0], [0, 3], list(range(8))])
    assert G.reduce(5, 1) == 3
    assert G.reduce(6, 1) == 0
    assert validate_tower(G).status == "Pass"
    with pytest.raises(NotInDomain):
        G.index_of(2, 1)


def test_generic_domain_pieces_are_fresh_copies_of_the_list(monkeypatch):
    G = relabelled_cyclic([3] * 6, 1)[0]
    monkeypatch.setattr(tower_module, "CHUNK", 7)
    for n in (0, 1, 6):
        pieces = list(tower_module.domain_chunks(G, n))
        assert [start for start, _ in pieces] == list(range(0, G.size(n), 7))
        for start, g in pieces:
            assert g.dtype == np.int64
            assert g.tolist() == G.domains[n][start:start + 7]
    # a caller may write into what it was given
    G.domain_arr(6, 7, 14)[:] = -1
    G.domain_arr(6)[:] = -1
    assert G.domain_arr(6, 7, 14).tolist() == G.domains[6][7:14]
    assert G.domain_arr(6).tolist() == G.domains[6]


def test_generic_index_of_refuses_labels_outside_the_group():
    # the position tables have one entry per label 0..|G|-1: label 734
    # indexed past them, and -1 read them from the end, so at the top
    # level, where D_6 is all of G, it passed as label 728
    G = relabelled_cyclic([3] * 6, 1)[0]
    for n in (0, 3, 6):
        for bad in (-1, 729, 734):
            with pytest.raises(NotInDomain, match=f"element outside D_{n}"):
                G.index_of_arr(np.array([0, bad]), n)
    assert G.index_of(728, 6) == G.domains[6].index(728)


def test_generic_scalar_ops_refuse_labels_outside_the_group():
    # the list tables read -1 from their end (reduce gave 8, in_domain
    # False, level_of None) and 27 past it (IndexError)
    G = cyclic_generic([3] * 3)
    sk = build_skeleton(G, 2)
    for bad in (-1, 27):
        for op, n in ((G.reduce, 2), (G.in_domain, 2), (G.level_of, 3)):
            with pytest.raises(NotInDomain, match=f"{bad} is not a group"):
                op(bad, n)
        with pytest.raises(NotInDomain, match=f"{bad} is not a group"):
            sk.eval(bad)
    assert (G.reduce(26, 2), G.in_domain(26, 2)) == (8, False)
    assert (G.level_of(26, 3), G.level_of(5, 3)) == (None, (2, 5))


def test_translates_put_the_section_on_the_left():
    G = s3_by_z(4)
    sec, cells = G.section_arr(1, 3), G.domain_arr(2)
    out = G.translate_arr(sec, cells)
    assert out.shape == (len(sec), len(cells))
    assert out.tolist() == [[int(G.add_arr(g, c)) for c in cells]
                            for g in sec]
    # the right form differs on this non-abelian tower
    assert (out != G.add_arr(cells[None], sec[:, None])).any()


def test_generic_reduce_takes_the_last_domain_element_of_a_coset():
    # a broken D_1 holds both elements 0 and 2 of one mod-2 coset and no
    # element of the other; the later of the two represents the coset
    for d1, rep in (([0, 2], 2), ([2, 0], 0)):
        G = cyclic_generic([2, 4], domains=[[0], d1, list(range(8))])
        assert [G.reduce(g, 1) for g in (0, 2, 4, 6)] == [rep] * 4
        assert G.reduce_arr(np.array([0, 2, 4, 6]), 1).tolist() == [rep] * 4
        with pytest.raises(NotInDomain):
            G.reduce(1, 1)
        with pytest.raises(NotInDomain):
            G.reduce_arr(np.array([4, 1]), 1)
        res = validate_tower(G)
        assert res.counterexample == {"level": 1, "element": d1[0],
                                      "reason": "reduce does not fix D_n"}


@pytest.mark.parametrize("build", [lambda: s3_by_z(5),
                                   lambda: relabelled_cyclic([3] * 6, 1)[0]],
                         ids=["s3_by_z5", "relabelled-3x6"])
def test_generic_scalar_ops_read_the_array_tables(build):
    G = build()
    g = np.arange(G.size(G.depth))
    for n in range(G.depth + 1):
        assert [G.reduce(x, n) for x in g.tolist()] == \
            G.reduce_arr(g, n).tolist()
        assert [G.in_domain(x, n) for x in g.tolist()] == \
            G.in_domain_arr(g, n).tolist()


def test_line_shift_candidates_are_the_divisors_below_the_size():
    # every divisor list up to 5000 at once, by a sieve
    divisors = [[] for _ in range(5001)]
    for d in range(1, 5001):
        for m in range(d, 5001, d):
            divisors[m].append(d)
    assert IntegerLineTower([2]).shift_candidates(0) == (
        [], "0 divisor shifts of 1")
    for size in range(2, 5001):
        want = divisors[size][:-1]
        assert IntegerLineTower([size]).shift_candidates(1) == (
            want, f"{len(want)} divisor shifts of {size}")
    # irregular-demo's levels: a divisor of a product is a product of
    # divisors of its factors
    T = build_tower(preset_config("irregular-demo"))
    for n in range(1, T.depth + 1):
        parts = [[d for d in range(1, q + 1) if q % d == 0]
                 for q in T.indices[:n]]
        want = sorted({math.prod(c) for c in itertools.product(*parts)})[:-1]
        assert T.shift_candidates(n) == (
            want, f"{len(want)} divisor shifts of {T.size(n)}")


def _one_level(op):
    return GenericTower([{"size": len(op), "op": op}], [[0], list(range(len(op)))])


def test_generic_tower_rejects_a_non_group_table():
    # rows 1 and 3 have no identity entry; the first is named
    op = [[0, 1, 2, 3], [1, 1, 1, 1], [2, 3, 0, 1], [3, 3, 3, 3]]
    with pytest.raises(InvalidIndex,
                       match=r"^element 1 has no inverse; op table is not a group$"):
        _one_level(op)
    # XNOR: a group, but its identity is label 1
    with pytest.raises(InvalidIndex, match=r"^label 0 is not the identity"):
        _one_level([[1, 0], [0, 1]])
    # identity 0 and inverses, but not associative: an order-5 loop, with
    # (1*1)*2 = 2 and 1*(1*2) = 4, and a table whose row 1 holds 0 twice
    for op in ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
               [[0, 1, 2], [1, 0, 0], [2, 0, 1]]):
        with pytest.raises(InvalidIndex, match=r"^op table is not associative "
                                               r"at element 1; not a group$"):
            _one_level(op)


def test_generic_tower_rejects_malformed_tables():
    good = cyclic_generic([2, 2]).config()
    levels, domains = good.levels, good.domains

    def broken(what, fix):
        lv, dm = copy.deepcopy((levels, domains))
        fix(lv, dm)
        with pytest.raises(InvalidIndex, match=what):
            GenericTower(lv, dm)

    broken("table is malformed", lambda lv, dm: lv[1].pop("proj"))
    # every size, op, proj and domain entry must be an in-range integer:
    # int(), or a conversion to int64, read 2.5 and "0" as 2 and 0
    for size in ("two", 2.5, True, float("inf")):
        broken(f"^level 1 size {size!r} is not an integer multiple >=2 of 1$",
               lambda lv, dm: lv[0].update(size=size))
    broken("^level 2 size 3 is not an integer multiple >=2 of 2$",
           lambda lv, dm: lv[1].update(size=3))
    broken("^level 2 proj must be 4 integers in 0..1$",
           lambda lv, dm: lv[1].update(proj=[0, 1, 2, 1]))
    broken("^level 2 proj must be 4 integers in 0..1$",
           lambda lv, dm: lv[1].update(proj=[0, 1, 0]))
    for bad in (4, -1, 0.5, "0", 2**70, None):
        broken("^level 2 op table must be 4x4 integers in 0..3$",
               lambda lv, dm: lv[1]["op"][1].__setitem__(2, bad))
    broken("^level 2 op table must be 4x4 integers in 0..3$",
           lambda lv, dm: lv[1]["op"][1].pop())
    # an upper level's table must be the image of the one below it
    broken("^level 1 op table is not the image of level 2's under its proj$",
           lambda lv, dm: lv[0].update(op=[[0, 0], [0, 0]]))
    broken("^level 1 op table must be 2x2 integers in 0..1$",
           lambda lv, dm: lv[0].update(op=[[0, 1], [1, -1]]))
    broken("^domain D_2 must be 4 integers in 0..3$",
           lambda lv, dm: dm[2].__setitem__(0, -1))
    broken("^domain D_2 must be 4 integers in 0..3$",
           lambda lv, dm: dm[2].__setitem__(0, 1.0))
    deep = cyclic_generic([2, 2, 2]).config()
    deep.levels[1]["op"] = [[1] * 4 for _ in range(4)]
    with pytest.raises(InvalidIndex, match="^level 2 op table is not"):
        GenericTower(deep.levels, deep.domains)
    broken("domains must list", lambda lv, dm: dm.pop())
    # D_1 names three of level 2's elements, more than its two cosets; the
    # chunked passes size their outputs by [G : Gamma_n]
    broken("at most", lambda lv, dm: dm.__setitem__(1, [0, 1, 2]))
    with pytest.raises(InvalidIndex):
        GenericTower(None, domains)


def test_elements_from_json_values():
    G = cyclic_generic([2, 2])
    assert G.coerce(3) == 3
    for bad in (-1, 4, True, "1", [1]):
        with pytest.raises(NotInDomain):
            G.coerce(bad)
    L = IntegerLatticeTower([[3], [3]])
    assert L.coerce([1, -2]) == (1, -2)
    for bad in (1, [1], [1, 2, 3], [1, "2"]):
        with pytest.raises(NotInDomain):
            L.coerce(bad)
    with pytest.raises(NotInDomain):
        IntegerLineTower([3]).coerce(1.5)


def test_validate_tower_flags_broken_domain():
    bad = cyclic_generic([2, 4], domains=[[0], [0, 1], [0, 1, 2, 3, 4, 5, 6, 6]])
    res = validate_tower(bad)
    assert res.status == "Fail"
    assert res.counterexample["reason"] == "repeated element in D_n"


def test_validate_tower_passes_everywhere(threeadic, irregular, lattice):
    for sk in (threeadic, irregular, lattice):
        assert validate_tower(sk.tower).status == "Pass"


# one corrupted tower per reason validate_tower can report; every witness
# must be a real counterexample to the axiom it names

def _fail(tower):
    res = validate_tower(tower)
    assert res.status == "Fail"
    return res.counterexample


def test_validate_tower_flags_domain_size_mismatch():
    bad = cyclic_generic([2, 4], domains=[[0], [0, 1], list(range(7))])
    cx = _fail(bad)
    assert cx["reason"] == "domain size mismatch"
    assert cx["level"] == 2
    assert cx["expected"] == bad.size(2) != cx["got"] == len(bad.domain_arr(2))


def test_validate_tower_flags_missing_identity():
    bad = cyclic_generic([2, 4], domains=[[0], [2, 1], list(range(8))])
    cx = _fail(bad)
    assert cx["reason"] == "identity missing from D_n"
    assert cx["level"] == 1
    assert bad.zero not in bad.domain_arr(1).tolist()


def test_validate_tower_flags_reduce_not_fixing():
    # 0 and 2 share a mod-2 coset, so one of them is not its own reduction
    bad = cyclic_generic([2, 4], domains=[[0], [0, 2], list(range(8))])
    cx = _fail(bad)
    assert cx["reason"] == "reduce does not fix D_n"
    assert cx["level"] == 1
    g = cx["element"]
    assert g in bad.domain_arr(1).tolist()
    assert bad.reduce(g, 1) != g


def test_validate_tower_flags_unnested_domains():
    # D_2 = {0, 1, 2, 7} represents every mod-4 coset but drops 3 from D_1
    bad = cyclic_generic([2, 2, 2],
                         domains=[[0], [0, 3], [0, 1, 2, 7], list(range(8))])
    cx = _fail(bad)
    assert cx["reason"] == "domains not nested"
    assert cx["level"] == 2
    assert cx["element"] in bad.domain_arr(1).tolist()
    assert cx["element"] not in bad.domain_arr(2).tolist()


class _BadSectionTower(IntegerLineTower):
    """Line tower whose sections are passed through `corrupt` (a list map)."""

    def __init__(self, indices, corrupt):
        super().__init__(indices)
        self.corrupt = corrupt

    def section_arr(self, i, j, start=0, stop=None):
        sec = super().section_arr(i, j).tolist()
        return self.array(self.corrupt(sec, i, j)[start:stop])


def _tiles(tower, pair):
    i, j = pair
    tiles = tower.translate_arr(tower.section_arr(i, j), tower.domain_arr(i))
    return tiles.ravel().tolist()


def test_validate_tower_flags_section_size_mismatch():
    bad = _BadSectionTower([3, 3], lambda sec, i, j: sec[:-1])
    cx = _fail(bad)
    assert cx["reason"] == "section size mismatch"
    i, j = cx["pair"]
    assert cx["got"] == len(bad.section_arr(i, j))
    assert cx["got"] * bad.size(i) != bad.size(j)
    assert cx["expected"] == bad.size(j) // bad.size(i)


def test_validate_tower_flags_tiling_overlap():
    bad = _BadSectionTower([3, 3], lambda sec, i, j: sec[:-1] + sec[:1])
    cx = _fail(bad)
    assert cx["reason"] == "tiling overlaps"
    assert _tiles(bad, cx["pair"]).count(cx["element"]) > 1


def test_validate_tower_flags_tiling_miss():
    # the last translate stays in its Gamma_i coset but leaves D_j
    bad = _BadSectionTower(
        [3, 3], lambda sec, i, j: sec[:-1] + [sec[-1] + 9])
    cx = _fail(bad)
    assert cx["reason"] == "tiling misses D_j"
    tiles = _tiles(bad, cx["pair"])
    assert len(set(tiles)) == len(tiles)
    assert cx["element"] in set(bad.domain_arr(cx["pair"][1]).tolist()) ^ set(tiles)


def test_validate_tower_tiles_only_consecutive_pairs(monkeypatch, threeadic):
    # the tilings of (j-1, j) imply the other 45 pairs of D_0..D_10, which
    # decom checks by their sections alone
    tiled = []
    real = tower_module._tiling_fault

    def counted(T, sec, dom_i, j):
        tiled.append((len(dom_i), j))
        return real(T, sec, dom_i, j)

    monkeypatch.setattr(tower_module, "_tiling_fault", counted)
    res = validate_tower(threeadic.tower, depth=10)
    assert res.status == "Pass" and len(res.witnesses[0]["pairs"]) == 55
    assert tiled == [(3 ** (j - 1), j) for j in range(1, 11)]


@pytest.mark.parametrize("pieces", [
    [[3, 4, 5], [6, 7], [5, 6, 7, 8]],  # runs, the last over marked keys
    [[0, 2, 4], [1, 3], [4, 5]],        # rising, but no runs
    [[2, 1, 2], [], [0, 1]],            # unsorted with a repeat, and empty
])
def test_mark_repeats_matches_a_set(pieces):
    # a run of consecutive keys is read and marked as one slice
    seen, marked = np.zeros(10, dtype=bool), set()
    for keys in pieces:
        want = []
        for k in keys:
            want.append(k in marked)
            marked.add(k)
        got = tower_module.mark_repeats(seen, np.array(keys, dtype=np.int64))
        assert got.tolist() == want
    assert np.flatnonzero(seen).tolist() == sorted(marked)
