"""Shared fixtures: the two preset instances plus small cross-check builds.

Heavy skeletons are session scoped; the naive reference models from
bruteforce.py are kept at depths where their pure-python loops stay cheap.
"""

import itertools
import random

import pytest

import bruteforce as bf
from toeplitzlab import (
    GenericTower,
    IntegerLatticeTower,
    IntegerLineTower,
    STYLE_CENTERED,
    build_skeleton,
    build_tower,
    preset_config,
)

IRREGULAR_INDICES = [15, 31, 63, 127, 255]


def cyclic_generic(moduli, domains=None):
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
    return GenericTower(levels, domains)


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


def s3_by_z(depth):
    """G = S3 x Z with Gamma_1 = A3 x 2Z and Gamma_n = {e} x 2^(n-1) Z.

    Level 1 is G/Gamma_1 = Z/2 x Z/2, labelled 2 * parity + (z mod 2);
    level n >= 2 is S3 x Z/2^(n-1), labelled s * 2^(n-1) + z with s the
    index of the permutation.  D_1 = {e, (01)} x {0, 1} and, for n >= 2,
    D_n = S3 x [0, 2^(n-1)), so the level sizes are 4, 12, 24, 48, ...
    """
    perms = list(itertools.permutations(range(3)))  # perms[0] is e
    compose = [[perms.index(tuple(p[i] for i in q)) for q in perms]
               for p in perms]
    parity = [sum(p[i] > p[j] for i, j in itertools.combinations(range(3), 2))
              % 2 for p in perms]
    levels = [{"size": 4, "op": [[a ^ b for b in range(4)] for a in range(4)]}]
    for n in range(2, depth + 1):
        z = 1 << (n - 1)
        op = [[compose[a // z][b // z] * z + (a + b) % z
               for b in range(6 * z)] for a in range(6 * z)]
        if n == 2:
            proj = [2 * parity[g // z] + g % 2 for g in range(6 * z)]
        else:
            proj = [g // z * (z // 2) + g % (z // 2) for g in range(6 * z)]
        levels.append({"size": 6 * z, "op": op, "proj": proj})
    top = 1 << (depth - 1)
    swap = perms.index((1, 0, 2))
    domains = [[0], [s * top + k for s in (0, swap) for k in (0, 1)]]
    domains += [[s * top + k for s in range(6) for k in range(1 << (n - 1))]
                for n in range(2, depth + 1)]
    return GenericTower(levels, domains)


def h3_generic(depth, left=True):
    """H3(Z), with (a,b,c)(x,y,z) = (a+x, b+y, c+z+a*y), modulo Gamma_n =
    {a = 0 mod A_n, b = 0 mod B_n, c = 0 mod C_n}, where level k triples
    the modulus of axis k mod 3: (A, B, C) runs (3,1,1), (3,3,1), (3,3,3),
    (9,3,3), ...  C_n divides A_n and B_n, so each Gamma_n is normal.

    Level n labels (a, b, c) as (a * B_n + b) * C_n + c.  D_n = S_{n-1} +
    D_{n-1}, section on the left, with S_k = {0, u_k, -u_k} and u_k the
    unit of axis k mod 3 times its level-k modulus; S_k's element is
    slowest, so D_{n-1} is a prefix of D_n.  left=False composes D_{n-1} +
    S_{n-1} instead, which does not tile.
    """
    mods = [(1, 1, 1)]
    for k in range(depth):
        mods.append(tuple(m * 3 if i == k % 3 else m
                          for i, m in enumerate(mods[-1])))

    def mul(g, h):
        return g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1]

    def label(g, n):
        A, B, C = mods[n]
        return (g[0] % A * B + g[1] % B) * C + g[2] % C

    levels = []
    for n in range(1, depth + 1):
        elems = list(itertools.product(*map(range, mods[n])))
        lvl = {"size": len(elems),
               "op": [[label(mul(g, h), n) for h in elems] for g in elems]}
        if n > 1:
            lvl["proj"] = [label(g, n - 1) for g in elems]
        levels.append(lvl)
    doms = [[(0, 0, 0)]]
    for k in range(depth):
        u = tuple(mods[k][i] if i == k % 3 else 0 for i in range(3))
        sec = [(0, 0, 0), u, tuple(-x for x in u)]
        doms.append([mul(s, d) if left else mul(d, s)
                     for s in sec for d in doms[-1]])
    return GenericTower(levels, [[label(g, depth) for g in d] for d in doms])


def mutant(skeleton, steps=(), **attrs):
    """skeleton rebuilt by build_skeleton, with the step at each index of
    the mapping `steps` replaced and the attributes in attrs set.  The
    rebuilt skeleton has its own memo: a copy would read the J-sets,
    windows and eval table cached from the original."""
    sk = build_skeleton(skeleton.tower, skeleton.depth, skeleton.budget)
    for i, kind in dict(steps).items():
        sk.steps[i] = kind
    for name, value in attrs.items():
        setattr(sk, name, value)
    return sk


@pytest.fixture(scope="session")
def s3_by_z4():
    return build_skeleton(s3_by_z(4), 4)


@pytest.fixture(scope="session")
def s3_by_z5():
    return build_skeleton(s3_by_z(5), 5)


@pytest.fixture(scope="session")
def h3_generic6():
    return build_skeleton(h3_generic(6), 6)


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
