"""Residually finite quotient towers and their nested fundamental domains.

A tower fixes a group G together with finite-index subgroups
G = Gamma_0 > Gamma_1 > Gamma_2 > ... and a fundamental domain D_n for each
quotient, nested D_0 = {0} <= D_1 <= D_2 <= ...  Three kinds are supported:

  IntegerLine     G = Z, Gamma_n = N_n Z with N_n a product of indices >= 2
  IntegerLattice  G = Z^d, one index chain per axis
  Generic         a finite model of G given by explicit quotient tables

Domain styles for the integer kinds:

  NonNegative  D_n = {0, ..., N_n - 1}
  Centered     D_n = {-(N_n-1)/2, ..., (N_n-1)/2}; every N_n must be odd

Elements are plain ints (line), tuples of ints (lattice), or table indices
(generic).  All towers are abelian except possibly Generic.

Every tower also has array forms of the ops (domain_arr, section_arr,
reduce_arr, in_domain_arr, add_arr, sub_arr, index_of_arr, eq_arr) over
numpy arrays of elements: 1-D ints for the line and for Generic, (..., d)
ints for the lattice.  Two more serve Gamma_n-periodic arrays:
coset_index_arr is the D_n index of each element's coset representative,
and shift_arr(vals, s, n) reads values over D_n at d + s for every d in D_n.
The kernels and checks use only these, so one implementation serves every
kind; the scalar ops stay as the reference they are compared against.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import budgets
from .errors import (DepthExceeded, InvalidIndex, NonAbelianUnsupported,
                     NotInDomain, ParityError)

KIND_LINE = "IntegerLine"
KIND_LATTICE = "IntegerLattice"
KIND_GENERIC = "Generic"

STYLE_NONNEG = "NonNegative"
STYLE_CENTERED = "Centered"

TAIL_DIVERGENT = "divergent"
TAIL_GEOMETRIC = "geometric"


@dataclass
class TailDecl:
    """Declared behavior of the index ratios t_j = |D_j| / |D_{j+1}| past depth.

    divergent: sum t_j diverges (e.g. bounded indices); geometric: each later
    term is at most `ratio` times the previous one, ratio < 1.
    """

    kind: str
    ratio: Fraction = None

    def to_json(self):
        out = {"kind": self.kind}
        if self.ratio is not None:
            out["ratio"] = [self.ratio.numerator, self.ratio.denominator]
        return out

    @staticmethod
    def from_json(obj):
        if obj is None:
            return None
        kind = obj["kind"]
        if kind == TAIL_DIVERGENT:
            return TailDecl(TAIL_DIVERGENT)
        if kind == TAIL_GEOMETRIC:
            raw = obj["ratio"]
            ratio = Fraction(raw[0], raw[1]) if isinstance(raw, (list, tuple)) else Fraction(raw)
            if not 0 < ratio < 1:
                raise InvalidIndex(f"geometric tail ratio must be in (0,1), got {ratio}")
            return TailDecl(TAIL_GEOMETRIC, ratio)
        raise InvalidIndex(f"unknown tail kind {kind!r}")


def _coerce_tail(tail):
    return TailDecl.from_json(tail) if isinstance(tail, dict) else tail


def _check_indices(indices):
    if not indices:
        raise InvalidIndex("need at least one index")
    for q in indices:
        if not isinstance(q, int) or q < 2:
            raise InvalidIndex(f"indices must be integers >= 2, got {q!r}")


class _ArrayForms:
    """Array-form defaults for single-int elements; the lattice overrides
    the ones that see an element's shape.

    Sums and differences come out int64, so translates never wrap.
    """

    def add_arr(self, a, b):
        return np.add(a, b, dtype=np.int64)

    def sub_arr(self, a, b):
        return np.subtract(a, b, dtype=np.int64)

    def eq_arr(self, a, b):
        return np.equal(a, b)

    def array(self, elements):
        return np.asarray(elements, dtype=np.int64)

    def element(self, x):
        return int(x)

    def elements(self, arr):
        return arr.tolist()


class IntegerLineTower(_ArrayForms):
    kind = KIND_LINE

    def __init__(self, indices, style=STYLE_NONNEG, tail=None):
        _check_indices(indices)
        if style not in (STYLE_NONNEG, STYLE_CENTERED):
            raise InvalidIndex(f"unknown style {style!r}")
        self.indices = list(indices)
        self.style = style
        self.tail = _coerce_tail(tail)
        self.depth = len(indices)
        self.N = [1]
        for q in indices:
            self.N.append(self.N[-1] * q)
        if style == STYLE_CENTERED:
            for m in self.N[1:]:
                if m % 2 == 0:
                    raise ParityError(f"centered style needs odd moduli, got {m}")
        self.half = [(m - 1) // 2 for m in self.N]
        self.zero = 0
        self.abelian = True

    def _chk(self, n):
        if not 0 <= n <= self.depth:
            raise DepthExceeded(f"level {n} outside 0..{self.depth}")

    def size(self, n):
        self._chk(n)
        return self.N[n]

    def lo(self, n):
        self._chk(n)
        return 0 if self.style == STYLE_NONNEG else -self.half[n]

    def reduce(self, g, n):
        self._chk(n)
        m = self.N[n]
        if self.style == STYLE_NONNEG:
            return g % m
        return (g + self.half[n]) % m - self.half[n]

    def in_domain(self, g, n):
        self._chk(n)
        if self.style == STYLE_NONNEG:
            return 0 <= g < self.N[n]
        return abs(g) <= self.half[n]

    def domain(self, n, budget=None):
        budgets.check_enum(self.size(n), f"D_{n}", budget)
        lo = self.lo(n)
        return range(lo, lo + self.N[n])

    def section(self, i, j, budget=None):
        """Gamma_i intersected with D_j, in enumeration order."""
        self._chk(i)
        self._chk(j)
        if i > j:
            raise DepthExceeded(f"section needs i <= j, got ({i},{j})")
        q = self.N[j] // self.N[i]
        budgets.check_enum(q, f"Gamma_{i} cap D_{j}", budget)
        step = self.N[i]
        if self.style == STYLE_NONNEG:
            return range(0, self.N[j], step)
        k = (q - 1) // 2
        return range(-k * step, (k + 1) * step, step)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def index_of(self, g, n):
        if not self.in_domain(g, n):
            raise NotInDomain(f"{g} not in D_{n}")
        return g - self.lo(n)

    def element_at(self, n, idx):
        return idx + self.lo(n)

    def _arr_dtype(self, n):
        # int32 while reducing D_n one level up stays in range
        return np.int32 if self.N[min(n + 1, self.depth)] < 1 << 31 else np.int64

    def domain_arr(self, n):
        lo = self.lo(n)
        return np.arange(lo, lo + self.N[n], dtype=self._arr_dtype(n))

    def section_arr(self, i, j, budget=None):
        sec = self.section(i, j, budget)
        return np.arange(sec.start, sec.stop, sec.step, dtype=np.int64)

    def reduce_arr(self, g, n, out=None):
        self._chk(n)
        m = self.N[n]
        if self.style == STYLE_NONNEG:
            return np.mod(g, m, out=out)
        out = np.add(g, self.half[n], out=out)
        np.mod(out, m, out=out)
        return np.subtract(out, self.half[n], out=out)

    def in_domain_arr(self, g, n):
        lo = self.lo(n)
        out = np.greater_equal(g, lo)
        return np.logical_and(out, g < lo + self.N[n], out=out)

    def index_of_arr(self, g, n):
        idx = np.subtract(g, self.lo(n), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.N[n]):
            raise NotInDomain(f"element outside D_{n}")
        return idx

    def coset_index_arr(self, g, n):
        idx = np.subtract(g, self.lo(n), dtype=np.int64)
        return np.mod(idx, self.N[n], out=idx)

    def shift_arr(self, vals, s, n):
        return np.roll(vals, -int(s))

    def parse_element(self, text):
        return int(text)

    def format_element(self, g):
        return str(g)

    def config(self):
        return TowerConfig(KIND_LINE, indices=list(self.indices), style=self.style,
                           tail=self.tail)


class IntegerLatticeTower(_ArrayForms):
    kind = KIND_LATTICE

    def __init__(self, per_axis_indices, style=STYLE_NONNEG, tail=None):
        if not per_axis_indices:
            raise InvalidIndex("need at least one axis")
        depth = len(per_axis_indices[0])
        for chain in per_axis_indices:
            if len(chain) != depth:
                raise InvalidIndex("all axes need the same number of levels")
            _check_indices(chain)
        self.axes = [IntegerLineTower(chain, style) for chain in per_axis_indices]
        self.dim = len(self.axes)
        self.style = style
        self.tail = _coerce_tail(tail)
        self.depth = depth
        self.zero = (0,) * self.dim
        self.abelian = True

    def _chk(self, n):
        if not 0 <= n <= self.depth:
            raise DepthExceeded(f"level {n} outside 0..{self.depth}")

    def size(self, n):
        self._chk(n)
        out = 1
        for ax in self.axes:
            out *= ax.size(n)
        return out

    def reduce(self, g, n):
        return tuple(ax.reduce(c, n) for ax, c in zip(self.axes, g))

    def in_domain(self, g, n):
        return all(ax.in_domain(c, n) for ax, c in zip(self.axes, g))

    def domain(self, n, budget=None):
        budgets.check_enum(self.size(n), f"D_{n}", budget)
        return self._product([ax.domain(n) for ax in self.axes])

    def _check_section(self, i, j, budget):
        self._chk(i)
        self._chk(j)
        if i > j:
            raise DepthExceeded(f"section needs i <= j, got ({i},{j})")
        size = 1
        for ax in self.axes:
            size *= ax.size(j) // ax.size(i)
        budgets.check_enum(size, f"Gamma_{i} cap D_{j}", budget)

    def section(self, i, j, budget=None):
        self._check_section(i, j, budget)
        return self._product([ax.section(i, j) for ax in self.axes])

    @staticmethod
    def _product(ranges):
        # lexicographic, first axis slowest: matches tuple comparison order
        out = [()]
        for r in ranges:
            out = [t + (v,) for t in out for v in r]
        return out

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def index_of(self, g, n):
        if not self.in_domain(g, n):
            raise NotInDomain(f"{g} not in D_{n}")
        idx = 0
        for ax, c in zip(self.axes, g):
            idx = idx * ax.size(n) + (c - ax.lo(n))
        return idx

    def element_at(self, n, idx):
        coords = []
        for ax in reversed(self.axes):
            m = ax.size(n)
            coords.append(idx % m + ax.lo(n))
            idx //= m
        return tuple(reversed(coords))

    # array forms: (..., d) ints, each axis through the line's formulas

    def _grid(self, per_axis):
        # ij order, first axis slowest: the order of _product
        grids = np.meshgrid(*per_axis, indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, self.dim).astype(np.int64)

    def domain_arr(self, n):
        return self._grid([ax.domain_arr(n) for ax in self.axes])

    def section_arr(self, i, j, budget=None):
        self._check_section(i, j, budget)
        return self._grid([ax.section_arr(i, j) for ax in self.axes])

    def reduce_arr(self, g, n, out=None):
        out = np.empty_like(g) if out is None else out
        for k, ax in enumerate(self.axes):
            ax.reduce_arr(g[..., k], n, out=out[..., k])
        return out

    def in_domain_arr(self, g, n):
        out = self.axes[0].in_domain_arr(g[..., 0], n)
        for k, ax in enumerate(self.axes[1:], start=1):
            out &= ax.in_domain_arr(g[..., k], n)
        return out

    def index_of_arr(self, g, n):
        idx = 0
        for k, ax in enumerate(self.axes):
            idx = idx * ax.size(n) + ax.index_of_arr(g[..., k], n)
        return idx

    def coset_index_arr(self, g, n):
        idx = 0
        for k, ax in enumerate(self.axes):
            idx = idx * ax.size(n) + ax.coset_index_arr(g[..., k], n)
        return idx

    def shift_arr(self, vals, s, n):
        grid = vals.reshape([ax.size(n) for ax in self.axes])
        shifts = tuple(-int(c) for c in s)
        return np.roll(grid, shifts, axis=tuple(range(self.dim))).reshape(-1)

    def eq_arr(self, a, b):
        return np.equal(a, b).all(axis=-1)

    def array(self, elements):
        return np.asarray(elements, dtype=np.int64).reshape(-1, self.dim)

    def element(self, x):
        return tuple(int(c) for c in x)

    def elements(self, arr):
        return [tuple(x) for x in arr.tolist()]

    def parse_element(self, text):
        parts = [int(p) for p in text.replace("(", "").replace(")", "").split(",")]
        if len(parts) != self.dim:
            raise NotInDomain(f"expected {self.dim} coordinates, got {len(parts)}")
        return tuple(parts)

    def format_element(self, g):
        return ",".join(str(c) for c in g)

    def config(self):
        return TowerConfig(KIND_LATTICE,
                           indices=[list(ax.indices) for ax in self.axes],
                           style=self.style, tail=self.tail)


class GenericTower(_ArrayForms):
    """Finite model of a tower given by explicit quotient tables.

    levels[n-1] describes G/Gamma_n for n = 1..depth: its size, its addition
    table (or `op` table when non-abelian), and for n >= 2 a projection onto
    the previous level.  Group elements are indices into the deepest level;
    D_n is a supplied list of such indices, one per Gamma_n-coset.
    """

    kind = KIND_GENERIC

    def __init__(self, levels, domains, style=STYLE_NONNEG, tail=None):
        if not levels:
            raise InvalidIndex("generic tower needs at least one level")
        self.depth = len(levels)
        self.sizes = [1]
        self.ops = [None]
        self.projs = [None]  # projs[n] maps level n -> level n-1
        prev = 1
        for n, lvl in enumerate(levels, start=1):
            try:
                size = int(lvl["size"])
                op = lvl["op"]
            except KeyError as exc:
                raise InvalidIndex(f"level {n} table missing field {exc}") from exc
            if size % prev != 0 or size // prev < 2:
                raise InvalidIndex(f"level {n} size {size} not a multiple >=2 of {prev}")
            if len(op) != size or any(len(row) != size for row in op):
                raise InvalidIndex(f"level {n} op table must be {size}x{size}")
            if n == 1:
                proj = [0] * size
            else:
                proj = list(lvl["proj"])
                if len(proj) != size:
                    raise InvalidIndex(f"level {n} proj must have {size} entries")
            self.sizes.append(size)
            self.ops.append([list(row) for row in op])
            self.projs.append(proj)
            prev = size
        # domains[0] is D_0 = {identity}; identity is table index 0 at depth
        if len(domains) != self.depth + 1 or list(domains[0]) != [0]:
            raise InvalidIndex("domains must list D_0..D_depth with D_0 = [0]")
        self.domains = [list(d) for d in domains]
        self.style = style
        self.tail = _coerce_tail(tail)
        self.zero = 0
        top = self.ops[self.depth]
        self.abelian = all(top[a][b] == top[b][a]
                           for a in range(self.sizes[self.depth])
                           for b in range(self.sizes[self.depth]))
        # inverse lookup at the deepest level
        self._inv = [None] * self.sizes[self.depth]
        for a in range(self.sizes[self.depth]):
            for b in range(self.sizes[self.depth]):
                if top[a][b] == 0:
                    self._inv[a] = b
                    break
            if self._inv[a] is None:
                raise InvalidIndex(f"element {a} has no inverse; op table is not a group")
        # coset key of g at level n: project the deepest index down
        self._down = []
        for g in range(self.sizes[self.depth]):
            keys = [0] * (self.depth + 1)
            keys[self.depth] = g
            for n in range(self.depth, 1, -1):
                keys[n - 1] = self.projs[n][keys[n]]
            keys[0] = 0
            self._down.append(keys)
        self._rep = [dict() for _ in range(self.depth + 1)]
        for n in range(self.depth + 1):
            for d in self.domains[n]:
                self._rep[n][self._down[d][n]] = d

    def _chk(self, n):
        if not 0 <= n <= self.depth:
            raise DepthExceeded(f"level {n} outside 0..{self.depth}")

    def size(self, n):
        self._chk(n)
        return self.sizes[n]

    def coset_key(self, g, n):
        return self._down[g][n]

    def reduce(self, g, n):
        self._chk(n)
        try:
            return self._rep[n][self._down[g][n]]
        except KeyError:
            raise NotInDomain(f"D_{n} has no representative for the coset of {g}")

    def in_domain(self, g, n):
        self._chk(n)
        return g in self._domain_sets(n)

    def _domain_sets(self, n):
        if not hasattr(self, "_dsets"):
            self._dsets = [frozenset(d) for d in self.domains]
        return self._dsets[n]

    def domain(self, n, budget=None):
        self._chk(n)
        budgets.check_enum(len(self.domains[n]), f"D_{n}", budget)
        return list(self.domains[n])

    def section(self, i, j, budget=None):
        self._chk(i)
        self._chk(j)
        out = [g for g in self.domains[j] if self._down[g][i] == self._down[0][i]]
        budgets.check_enum(len(out), f"Gamma_{i} cap D_{j}", budget)
        return out

    def add(self, a, b):
        return self.ops[self.depth][a][b]

    def sub(self, a, b):
        return self.ops[self.depth][a][self._inv[b]]

    def neg(self, a):
        return self._inv[a]

    def index_of(self, g, n):
        try:
            return self.domains[n].index(g)
        except ValueError:
            raise NotInDomain(f"{g} not in D_{n}")

    def element_at(self, n, idx):
        return self.domains[n][idx]

    # array forms: lookups in tables built on first use, so that building
    # the tower never pays for the op table

    @cached_property
    def _down_arr(self):
        """_down_arr[n][g]: the level-n coset key of g."""
        return np.array(self._down, dtype=np.int64).T.copy()

    @cached_property
    def _rep_arr(self):
        """_rep_arr[n][key]: the D_n representative of a coset key, or -1."""
        out = []
        for n, reps in enumerate(self._rep):
            arr = np.full(self.sizes[n], -1, dtype=np.int64)
            arr[list(reps)] = list(reps.values())
            out.append(arr)
        return out

    @cached_property
    def _pos_arr(self):
        """_pos_arr[n][g]: the index of g in D_n, or -1 outside D_n."""
        out = []
        for dom in self.domains:
            arr = np.full(self.sizes[self.depth], -1, dtype=np.int64)
            arr[dom] = np.arange(len(dom))
            out.append(arr)
        return out

    @cached_property
    def _op_arr(self):
        return np.array(self.ops[self.depth], dtype=np.int64)

    @cached_property
    def _inv_arr(self):
        return np.array(self._inv, dtype=np.int64)

    def domain_arr(self, n):
        self._chk(n)
        return np.array(self.domains[n], dtype=np.int64)

    def section_arr(self, i, j, budget=None):
        return np.array(self.section(i, j, budget), dtype=np.int64)

    def reduce_arr(self, g, n, out=None):
        self._chk(n)
        out = np.take(self._rep_arr[n], self._down_arr[n][g], out=out)
        if (out < 0).any():
            raise NotInDomain(f"D_{n} has no representative for some coset")
        return out

    def in_domain_arr(self, g, n):
        self._chk(n)
        return self._pos_arr[n][g] >= 0

    def index_of_arr(self, g, n):
        self._chk(n)
        idx = self._pos_arr[n][g]
        if (idx < 0).any():
            raise NotInDomain(f"element outside D_{n}")
        return idx

    def coset_index_arr(self, g, n):
        return self.index_of_arr(self.reduce_arr(g, n), n)

    def shift_arr(self, vals, s, n):
        return vals[self.coset_index_arr(self.add_arr(self.domain_arr(n), s), n)]

    def add_arr(self, a, b):
        return self._op_arr[a, b]

    def sub_arr(self, a, b):
        return self._op_arr[a, self._inv_arr[b]]

    def parse_element(self, text):
        return int(text)

    def format_element(self, g):
        return str(g)

    def require_abelian(self, what):
        if not self.abelian:
            raise NonAbelianUnsupported(f"{what} needs an abelian tower")

    def config(self):
        levels = []
        for n in range(1, self.depth + 1):
            lvl = {"size": self.sizes[n], "op": self.ops[n]}
            if n > 1:
                lvl["proj"] = self.projs[n]
            levels.append(lvl)
        return TowerConfig(KIND_GENERIC, style=self.style, tail=self.tail,
                           levels=levels, domains=[list(d) for d in self.domains])


@dataclass
class TowerConfig:
    kind: str
    indices: list = None
    style: str = STYLE_NONNEG
    tail: TailDecl = None
    levels: list = None
    domains: list = None

    def __post_init__(self):
        self.tail = _coerce_tail(self.tail)

    def to_json(self):
        out = {"kind": self.kind, "style": self.style}
        if self.indices is not None:
            out["indices"] = self.indices
        if self.levels is not None:
            out["levels"] = self.levels
            out["domains"] = self.domains
        if self.tail is not None:
            out["tail"] = self.tail.to_json()
        return out

    @staticmethod
    def from_json(obj):
        kind = obj.get("kind")
        if kind not in (KIND_LINE, KIND_LATTICE, KIND_GENERIC):
            raise InvalidIndex(f"unknown tower kind {kind!r}")
        return TowerConfig(kind,
                           indices=obj.get("indices"),
                           style=obj.get("style", STYLE_NONNEG),
                           tail=TailDecl.from_json(obj.get("tail")),
                           levels=obj.get("levels"),
                           domains=obj.get("domains"))

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            return TowerConfig.from_json(json.load(fh))


def build_tower(config):
    if isinstance(config, dict):
        config = TowerConfig.from_json(config)
    if config.kind == KIND_LINE:
        return IntegerLineTower(config.indices, config.style, config.tail)
    if config.kind == KIND_LATTICE:
        return IntegerLatticeTower(config.indices, config.style, config.tail)
    if config.kind == KIND_GENERIC:
        return GenericTower(config.levels, config.domains, config.style, config.tail)
    raise InvalidIndex(f"unknown tower kind {config.kind!r}")


def tile_decompose(tower, g, j, i):
    """Split g in D_j uniquely as v + u with v in D_j cap Gamma_i, u in D_i."""
    if i > j:
        raise DepthExceeded(f"tile_decompose needs i <= j, got ({i},{j})")
    if not tower.in_domain(g, j):
        raise NotInDomain(f"{g} not in D_{j}")
    u = tower.reduce(g, i)
    v = tower.sub(g, u)
    if not tower.in_domain(v, j):
        # only reachable on a corrupted generic tower
        raise NotInDomain(f"tile part {v} escapes D_{j}; tower domains inconsistent")
    return v, u


def _element_keys(tower, w, n):
    """One int per element of w, equal exactly where the elements are: the
    D_n index inside D_n, and |D_n| plus a rank among the distinct elements
    outside it.  Also returns the inside mask."""
    inside = tower.in_domain_arr(w, n)
    if inside.all():
        return tower.index_of_arr(w, n), inside
    keys = np.empty(len(w), dtype=np.int64)
    keys[inside] = tower.index_of_arr(w[inside], n)
    _, rank = np.unique(w[~inside], axis=0, return_inverse=True)
    keys[~inside] = tower.size(n) + rank.reshape(-1)
    return keys, inside


def _first_repeat(keys):
    """Position of the first key equal to an earlier one."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    return int(order[1:][ordered[1:] == ordered[:-1]].min())


def validate_tower(tower, max_level=None, budget=None):
    """Check the nesting/tiling axioms by enumeration up to a level cap.

    Each level is checked in the order: no repeats, size, identity, reduce
    fixes D_n, D_{n-1} <= D_n; each pair i < j: section size, then that the
    translates section + D_i cover D_j without overlap.
    """
    from .result import failed, passed  # local import to avoid a cycle

    cap = budgets.enum_budget(budget)
    top = tower.depth if max_level is None else min(max_level, tower.depth)
    checked_pairs = []
    name = "decom"

    sizes = [tower.size(n) for n in range(top + 1)]
    for n in range(top):
        if sizes[n + 1] <= sizes[n]:
            return failed(name, f"levels 0..{top}",
                          {"level": n + 1, "reason": "index below 2",
                           "sizes": (sizes[n], sizes[n + 1])})

    levels_in_budget = [n for n in range(top + 1) if sizes[n] <= cap]
    scope = f"levels {levels_in_budget}"
    for n in levels_in_budget:
        dom = tower.domain_arr(n)
        keys, _ = _element_keys(tower, dom, n)
        if (np.bincount(keys) > 1).any():
            return failed(name, scope,
                          {"level": n, "reason": "repeated element in D_n"})
        if len(dom) != sizes[n]:
            return failed(name, scope,
                          {"level": n, "reason": "domain size mismatch",
                           "expected": sizes[n], "got": len(dom)})
        if not tower.eq_arr(dom, tower.zero).any():
            return failed(name, scope,
                          {"level": n, "reason": "identity missing from D_n"})
        # one representative per coset: reduce must fix the domain pointwise
        moved = ~tower.eq_arr(tower.reduce_arr(dom, n), dom)
        if moved.any():
            return failed(name, scope,
                          {"level": n, "element": tower.element(dom[moved.argmax()]),
                           "reason": "reduce does not fix D_n"})
        if n > 0:
            prev = tower.domain_arr(n - 1)
            out = ~tower.in_domain_arr(prev, n)
            if out.any():
                return failed(name, scope,
                              {"level": n, "reason": "domains not nested",
                               "element": min(tower.elements(prev[out]), key=repr)})

    scope = f"tilings up to level {top}"
    # sizes increase, so the levels in budget are 0..L and every pair in
    # budget lies among them
    for i in levels_in_budget:
        dom_i = tower.domain_arr(i)
        for j in levels_in_budget[i + 1:]:
            sec = tower.section_arr(i, j, budget=cap)
            if len(sec) * sizes[i] != sizes[j]:
                return failed(name, scope,
                              {"pair": (i, j), "reason": "section size mismatch",
                               "expected": sizes[j] // sizes[i], "got": len(sec)})
            # every v + u, v in the section, u in D_i, in section-major order
            tiles = tower.add_arr(sec[:, None], dom_i[None])
            tiles = tiles.reshape(-1, *tiles.shape[2:])
            keys, inside = _element_keys(tower, tiles, j)
            counts = np.bincount(keys, minlength=sizes[j])
            if (counts > 1).any():
                return failed(name, scope,
                              {"pair": (i, j), "reason": "tiling overlaps",
                               "element": tower.element(tiles[_first_repeat(keys)])})
            if not inside.all():
                missed = tower.domain_arr(j)[counts[:sizes[j]] == 0]
                diff = tower.elements(missed) + tower.elements(tiles[~inside])
                return failed(name, scope,
                              {"pair": (i, j), "reason": "tiling misses D_j",
                               "element": min(diff, key=repr)})
            checked_pairs.append((i, j))

    return passed(name, f"levels 0..{top}, tilings {len(checked_pairs)} pairs, "
                        f"enumerated where |D_j| <= {cap}",
                  [{"pairs": checked_pairs}])
