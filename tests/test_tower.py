"""Tower arithmetic against the naive reference model."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import cyclic_generic
from toeplitzlab import (
    IntegerLatticeTower,
    IntegerLineTower,
    InvalidIndex,
    NotInDomain,
    ParityError,
    STYLE_CENTERED,
    TowerConfig,
    build_tower,
    tile_decompose,
    validate_tower,
)


def test_line_nonneg_matches_reference():
    T = IntegerLineTower([3, 3, 3, 3])
    R = bf.NaiveLine([3, 3, 3, 3], "nonneg")
    assert [T.size(n) for n in range(5)] == list(R.N)
    for n in range(5):
        assert list(T.domain(n)) == list(R.domain(n))
    for g in range(-50, 130):
        for n in range(5):
            assert T.reduce(g, n) == R.red(g, n)
            assert T.in_domain(g, n) == R.in_domain(g, n)


def test_line_centered_matches_reference():
    T = IntegerLineTower([3, 5, 3], style=STYLE_CENTERED)
    R = bf.NaiveLine([3, 5, 3], "centered")
    for n in range(4):
        assert sorted(T.domain(n)) == sorted(R.domain(n))
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


def test_sections_tile_the_domain():
    T = IntegerLineTower([3, 5, 3], style=STYLE_CENTERED)
    for i in range(3):
        for j in range(i, 4):
            sec = list(T.section(i, j))
            assert len(sec) * T.size(i) == T.size(j)
            tiles = {T.add(v, u) for v in sec for u in T.domain(i)}
            assert tiles == set(T.domain(j))


def test_lattice_matches_reference():
    T = IntegerLatticeTower([[3, 3, 3], [3, 3, 3]])
    R = bf.NaiveLattice([[3, 3, 3], [3, 3, 3]], "nonneg")
    for n in range(4):
        assert sorted(T.domain(n)) == sorted(R.domain(n))
    for a in range(-5, 12):
        for b in range(-5, 12):
            for n in range(4):
                assert T.reduce((a, b), n) == R.red((a, b), n)
    assert T.add((1, 2), (3, 4)) == (4, 6)
    assert T.sub((1, 2), (3, 4)) == (-2, -2)


def test_tile_decompose_recombines():
    T = IntegerLineTower([3, 3, 3, 3])
    for g in T.domain(3):
        v, u = tile_decompose(T, g, 3, 1)
        assert T.add(v, u) == g
        assert T.in_domain(u, 1)
        assert T.reduce(v, 1) == 0


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
    assert cx["expected"] == bad.size(2) != cx["got"] == len(bad.domain(2))


def test_validate_tower_flags_missing_identity():
    bad = cyclic_generic([2, 4], domains=[[0], [2, 1], list(range(8))])
    cx = _fail(bad)
    assert cx["reason"] == "identity missing from D_n"
    assert cx["level"] == 1
    assert bad.zero not in bad.domain(1)


def test_validate_tower_flags_reduce_not_fixing():
    # 0 and 2 share a mod-2 coset, so one of them is not its own reduction
    bad = cyclic_generic([2, 4], domains=[[0], [0, 2], list(range(8))])
    cx = _fail(bad)
    assert cx["reason"] == "reduce does not fix D_n"
    assert cx["level"] == 1
    g = cx["element"]
    assert g in bad.domain(1)
    assert bad.reduce(g, 1) != g


def test_validate_tower_flags_unnested_domains():
    # D_2 = {0, 1, 2, 7} represents every mod-4 coset but drops 3 from D_1
    bad = cyclic_generic([2, 2, 2],
                         domains=[[0], [0, 3], [0, 1, 2, 7], list(range(8))])
    cx = _fail(bad)
    assert cx["reason"] == "domains not nested"
    assert cx["level"] == 2
    assert cx["element"] in bad.domain(1)
    assert cx["element"] not in bad.domain(2)


class _BadSectionTower(IntegerLineTower):
    """Line tower whose sections are passed through `corrupt` (a list map)."""

    def __init__(self, indices, corrupt):
        super().__init__(indices)
        self.corrupt = corrupt

    def section(self, i, j, budget=None):
        return self.corrupt(list(super().section(i, j, budget)), i, j)

    def section_arr(self, i, j, budget=None):
        return self.array(self.section(i, j, budget))


def _tiles(tower, pair):
    i, j = pair
    return [tower.add(v, u) for v in tower.section(i, j) for u in tower.domain(i)]


def test_validate_tower_flags_section_size_mismatch():
    bad = _BadSectionTower([3, 3], lambda sec, i, j: sec[:-1])
    cx = _fail(bad)
    assert cx["reason"] == "section size mismatch"
    i, j = cx["pair"]
    assert cx["got"] == len(bad.section(i, j))
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
    assert cx["element"] in set(bad.domain(cx["pair"][1])) ^ set(tiles)
