"""Odometer coordinates, decided mass, and fiber multiplicity."""

import csv
import hashlib
import io
from fractions import Fraction

import pytest

from toeplitzlab import (
    Budget,
    NotInDomain,
    OdometerPoint,
    a_counts,
    build_skeleton,
    build_tower,
    d_recursion,
    fiber_profile,
    pi_of_orbit,
    preset_config,
    tower,
)


def test_pi_traces_reductions(threeadic):
    pt = pi_of_orbit(threeadic, 14, depth=4)
    assert pt.cosets == (2, 5, 14, 14)
    T = threeadic.tower
    full = pi_of_orbit(threeadic, 14)
    assert full.cosets == tuple(T.reduce(14, n) for n in range(1, 11))


def test_pi_is_equivariant(threeadic):
    T = threeadic.tower
    for v in (0, 7, 100):
        for g in (1, 9, 40):
            shifted = pi_of_orbit(threeadic, T.element(T.add_arr(v, g)))
            base = pi_of_orbit(threeadic, v)
            moved = T.add_arr(T.array(base.cosets), g)
            assert shifted.cosets == tuple(
                T.reduce(c, n) for n, c in enumerate(T.elements(moved), start=1))


def test_odometer_point_coherence(threeadic):
    T = threeadic.tower
    OdometerPoint(3, (2, 5, 14)).verify(T)
    with pytest.raises(NotInDomain):
        OdometerPoint(3, (2, 4, 14)).verify(T)  # 4 does not reduce to 2
    with pytest.raises(NotInDomain):
        OdometerPoint(3, (2, 5, 99)).verify(T)


def test_mass_estimate_equals_density(threeadic, irregular):
    # the decided cosets a_0 + a_1 inside D_n make up the density d_n
    for sk, n in ((threeadic, 5), (irregular, 3)):
        a0, a1 = a_counts(sk, n)
        assert Fraction(a0 + a1, sk.tower.size(n)) == d_recursion(sk.tower, n)
    assert Fraction(sum(a_counts(irregular, 3)), irregular.tower.size(3)) \
        == Fraction(1, 9)


def test_fiber_profile_counts(threeadic):
    prof = fiber_profile(threeadic, 1)
    assert prof.level == 1
    assert prof.counts == {"0": 2, "1": 2, "2": 2}
    assert all(v == 0 for v in prof.partial.values())
    prof2 = fiber_profile(threeadic, 2)
    assert len(prof2.counts) == 9
    assert all(c >= 1 for c in prof2.counts.values())


@pytest.mark.parametrize("name, n", [("threeadic5", 3), ("threeadic5", 4),
                                     ("irregular", 1), ("lattice", 1)])
def test_fiber_profile_keeps_no_chunk_size_of_its_own(request, monkeypatch,
                                                      name, n):
    # its evals take the lifts tower.sum_chunks hands out
    sk = request.getfixturevalue(name)
    want = fiber_profile(sk, n)
    if (name, n) == ("threeadic5", 4):
        # some windows of lifts in threeadic's D_5 reach past the depth
        assert any(want.partial.values())
    monkeypatch.setattr(tower, "CHUNK", 7)
    got = fiber_profile(sk, n)
    assert (got.counts, got.partial) == (want.counts, want.partial)


# sha256 of each profile's csv as the level scan of every probe wrote it,
# before the probes were read from windows; it is the same at any chunk size
FIBER_CSV_SHA256 = {
    ("threeadic", 10, 6):
        "2d7cdb6b26d32be1bfe047c4320c3c1571955f71727ec4fbe5f77cd2a8b5da29",
    ("irregular-demo", 5, 2):
        "6df20741747ed2cf5d79a19b12810f89688056d445a2a40c698680d31770d5c0",
}


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("case", sorted(FIBER_CSV_SHA256))
def test_fiber_profiles_keep_their_csv(monkeypatch, case, chunk):
    preset, depth, n = case
    # irregular-demo's level 2 reads |D_3| |D_2| = 13,622,175 probes, over
    # the default enumeration cap
    sk = build_skeleton(build_tower(preset_config(preset)), depth,
                        Budget(enum=1 << 24))
    if chunk is not None:
        monkeypatch.setattr(tower, "CHUNK", chunk)
    text = fiber_profile(sk, n).to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == FIBER_CSV_SHA256[case]


def test_fiber_profile_csv(threeadic):
    prof = fiber_profile(threeadic, 1)
    rows = list(csv.reader(io.StringIO(prof.to_csv())))
    assert rows[0] == ["coset", "distinct_windows", "partial_lifts"]
    assert rows[1:] == [["0", "2", "0"], ["1", "2", "0"], ["2", "2", "0"]]
