"""Shared fixtures: the two preset instances plus small cross-check builds.

Heavy skeletons are session scoped; the naive reference models from
bruteforce.py are kept at depths where their pure-python loops stay cheap.
"""

import random

import pytest

import bruteforce as bf
from toeplitzlab import (
    GenericTower,
    IntegerLatticeTower,
    IntegerLineTower,
    STYLE_CENTERED,
    STYLE_NONNEG,
    build_skeleton,
    build_tower,
    preset_config,
)

IRREGULAR_INDICES = [15, 31, 63, 127, 255]


def cyclic_generic(moduli, domains=None, style=STYLE_NONNEG):
    """Explicit-table model of the nonneg integer line on the given moduli.

    Lets tests exercise the generic code paths against line answers, and
    lets them pick nonstandard coset representatives.
    """
    sizes = [1]
    for q in moduli:
        sizes.append(sizes[-1] * q)
    levels = []
    for n, size in enumerate(sizes[1:], start=1):
        lvl = {"size": size,
               "op": [[(a + b) % size for b in range(size)] for a in range(size)]}
        if n > 1:
            lvl["proj"] = [g % sizes[n - 1] for g in range(size)]
        levels.append(lvl)
    if domains is None:
        domains = [list(range(s)) for s in sizes]
    return GenericTower(levels, domains, style=style)


def relabelled_cyclic(moduli, seed):
    """cyclic_generic with every non-identity element given a seeded label.

    D_n lists the labels of 0..N_n-1 in increasing order, so enumeration
    order, and with it the whole construction, matches the line tower.
    Returns the tower and `labels`, the label of each line element.
    """
    rng = random.Random(seed)
    sizes = [1]
    for q in moduli:
        sizes.append(sizes[-1] * q)
    perms = [[0]]
    for size in sizes[1:]:
        rest = list(range(1, size))
        rng.shuffle(rest)
        perms.append([0] + rest)
    levels = []
    for n, size in enumerate(sizes[1:], start=1):
        pi = perms[n]
        op = [[0] * size for _ in range(size)]
        for a in range(size):
            for b in range(size):
                op[pi[a]][pi[b]] = pi[(a + b) % size]
        lvl = {"size": size, "op": op}
        if n > 1:
            proj = [0] * size
            for x in range(size):
                proj[pi[x]] = perms[n - 1][x % sizes[n - 1]]
            lvl["proj"] = proj
        levels.append(lvl)
    labels = perms[-1]
    domains = [[labels[x] for x in range(s)] for s in sizes]
    return GenericTower(levels, domains), labels


@pytest.fixture(scope="session")
def line36():
    return build_skeleton(IntegerLineTower([3] * 6), 6)


@pytest.fixture(scope="session")
def generic36():
    return build_skeleton(cyclic_generic([3] * 6), 6)


@pytest.fixture(scope="session")
def relabelled36():
    tower, labels = relabelled_cyclic([3] * 6, seed=7)
    return build_skeleton(tower, 6), labels


@pytest.fixture(scope="session")
def threeadic():
    return build_skeleton(build_tower(preset_config("threeadic")), 10)


@pytest.fixture(scope="session")
def threeadic5():
    return build_skeleton(build_tower(preset_config("threeadic")), 5)


@pytest.fixture(scope="session")
def centered6():
    return build_skeleton(IntegerLineTower([3] * 6, style=STYLE_CENTERED), 6)


@pytest.fixture(scope="session")
def irregular():
    return build_skeleton(build_tower(preset_config("irregular-demo")), 5)


@pytest.fixture(scope="session")
def lattice():
    return build_skeleton(IntegerLatticeTower([[3, 3, 3], [3, 3, 3]]), 3)


@pytest.fixture(scope="session")
def oracle3():
    return bf.NaiveBuild(bf.NaiveLine([3] * 10, "nonneg"), 10)


@pytest.fixture(scope="session")
def oracle3c():
    return bf.NaiveBuild(bf.NaiveLine([3] * 6, "centered"), 6)


@pytest.fixture(scope="session")
def oracle_irr():
    # depth 4 keeps the naive window/level loops under a second
    return bf.NaiveBuild(bf.NaiveLine(IRREGULAR_INDICES, "centered"), 4)


@pytest.fixture(scope="session")
def oracle_lat():
    return bf.NaiveBuild(bf.NaiveLattice([[3, 3, 3], [3, 3, 3]], "nonneg"), 3)
