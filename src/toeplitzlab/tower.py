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

A style is only the offset lo(n) of D_n = {lo(n), ..., lo(n) + N_n - 1},
which every op reads; no op branches on it.  Generic domains are explicit,
so a Generic tower takes no style.

Elements are plain ints (line), tuples of ints (lattice), or table indices
(generic).  All towers are abelian except possibly Generic.

A tower's interface is its array ops (domain_arr, section_arr, reduce_arr,
in_domain_arr, add_arr, sub_arr, index_of_arr, eq_arr) over numpy arrays of
elements: 1-D ints for the line and for Generic, (..., d) ints for the
lattice.  domain_arr(n, start, stop) is a slice of D_n and
section_arr(i, j, start, stop) one of Gamma_i cap D_j; whole-domain passes
read D_n CHUNK elements at a time from domain_chunks, and decom reads each
section alike from section_chunks.  A coset's translates are
translate_arr(sec, cells)'s, gamma + c with the section on the left, as in
D_j = (Gamma_i cap D_j) + D_i; no kind overrides it.  Three
more ops serve Gamma_n-periodic arrays: coset_index_arr is the D_n index of
each element's coset representative, shift_arr(vals, s, n) reads values
over D_n at d + s for every d in D_n (a point read at an offset, which
periods.invariant_shift handles), and extend_arr(vals, l) reads values over
D_l as a function of the Gamma_l-coset over all of D_{l+1}.  _ArrayForms
states these four and section_arr (the elements of D_j that reduce to the
identity mod Gamma_i) once, from the ops above.  A kind overrides the
others only for a measured reason, each named with its override in
tests/test_reachability.py's OVERRIDES.  The kernels and checks use only
these, so one implementation serves every kind.  The scalar ops left are
size, reduce, in_domain, index_of (plus lo on the line), coset_index and
level_of(g, n, start), the least level i, start <= i < n, whose D_i
Gamma_{i+1} holds g, with reduce(g, i + 1): evaluating or locating one
element needs them.  _ArrayForms states the last two through reduce.
Every scalar eval reads coset_index, so each kind overrides it over its
own tables.  eval walks level_of only at the levels past its table over
D_L, and of the benchmarked towers only irregular-demo's line has such
levels; so only the line overrides level_of, with one loop over lo and N,
and the lattice and Generic walk with the shared form.
The reference the ops are compared against is the independent naive model
in tests/bruteforce.py.
What depends on the kind beyond that is asked of the tower too: shape(n),
the axis sizes of D_n, and shift_candidates(n), the translates per-eq's
essential facet tries.  No module outside this one branches on the kind.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budgets import Budget
from .errors import DepthExceeded, InvalidIndex, NotInDomain, ParityError
from .result import failed, passed

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
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind == TAIL_DIVERGENT:
            return TailDecl(TAIL_DIVERGENT)
        if kind == TAIL_GEOMETRIC:
            if "ratio" not in obj:
                raise InvalidIndex("a geometric tail needs a ratio")
            raw = obj["ratio"]
            parts = raw if isinstance(raw, (list, tuple)) else [raw]
            try:
                # Fraction reads a JSON true/false as 1/0
                if any(isinstance(p, bool) for p in parts):
                    raise TypeError("a bool is not a number")
                ratio = Fraction(*parts)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise InvalidIndex(f"tail ratio {raw!r} is not a fraction") from None
            if not 0 < ratio < 1:
                raise InvalidIndex(f"geometric tail ratio must be in (0,1), got {ratio}")
            return TailDecl(TAIL_GEOMETRIC, ratio)
        raise InvalidIndex(f"unknown tail {obj!r}")


def _coerce_tail(tail):
    return TailDecl.from_json(tail) if isinstance(tail, dict) else tail


def _check_indices(indices):
    if not isinstance(indices, (list, tuple)) or not indices:
        raise InvalidIndex(f"indices must be a nonempty list, got {indices!r}")
    for q in indices:
        if not isinstance(q, int) or q < 2:
            raise InvalidIndex(f"indices must be integers >= 2, got {q!r}")


def _int_table(obj, shape, bound, what):
    """obj as an int64 array of exactly `shape` with entries in 0..bound-1;
    ragged rows, floats, strings, numbers past int64 or bools, which numpy
    reads as 0 and 1 among ints, raise InvalidIndex."""
    try:
        arr = np.array(obj)
    except ValueError:  # ragged rows
        arr = None
    rows = [obj] if len(shape) == 1 else obj
    if (arr is None or arr.shape != shape
            or arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0
                             or arr.max() >= bound
                             or any(bool in set(map(type, r)) for r in rows))):
        dims = "x".join(map(str, shape))
        raise InvalidIndex(f"{what} must be {dims} integers in 0..{bound - 1}")
    return arr.astype(np.int64, copy=False)


def _last_of(keys, values, size):
    """Table over 0..size-1 giving, for each key, the value at its last
    occurrence in keys, and -1 for a key that does not occur."""
    out = np.full(size, -1, dtype=np.int64)
    uniq, first = np.unique(keys[::-1], return_index=True)
    out[uniq] = values[::-1][first]
    return out


class _ArrayForms:
    """The derived array ops, stated once for every kind, and defaults for
    single-int elements, which the lattice overrides where shape shows.

    Sums and differences come out int64, so translates never wrap.
    """

    def _chk(self, n):
        if not 0 <= n <= self.depth:
            raise DepthExceeded(f"level {n} outside 0..{self.depth}")

    def shape(self, n):
        """The axis sizes of D_n, in enumeration order."""
        return (self.size(n),)

    def shift_candidates(self, n):
        """The nonzero translates of D_n the essential facet tries, and a
        label.  Any subgroup strictly between Gamma_n and G contains a
        nonidentity coset of D_n, so single translates decide it."""
        cands = self.domain_arr(n)
        cands = cands[~self.eq_arr(cands, self.zero)]
        return cands, f"{len(cands)} nonzero translates"

    def coset_index_arr(self, g, n):
        """The D_n index of each element's coset representative."""
        return self.index_of_arr(self.reduce_arr(g, n), n)

    def translate_arr(self, sec, cells):
        """gamma + c, section on the left, a (len(sec), len(cells)) array."""
        return self.add_arr(np.expand_dims(sec, 1), np.expand_dims(cells, 0))

    def shift_arr(self, vals, s, n):
        """vals over D_n, read as a function of the Gamma_n-coset, at
        d + s for every d in D_n: s on the right of d."""
        return vals[self.coset_index_arr(self.add_arr(self.domain_arr(n), s), n)]

    def _chk_section(self, i, j):
        self._chk(i)
        self._chk(j)
        if i > j:
            raise DepthExceeded(f"section needs i <= j, got ({i},{j})")

    def section_arr(self, i, j, start=0, stop=None):
        """Gamma_i intersected with D_j, in enumeration order, or its
        elements start..stop-1: the elements of D_j that reduce to the
        identity mod Gamma_i."""
        self._chk_section(i, j)
        return domain_where(self, j, lambda _, g: self.eq_arr(
            self.reduce_arr(g, i), self.zero))[start:stop]

    def extend_arr(self, vals, l):
        """vals over D_l, read as a function of the Gamma_l-coset, over
        D_{l+1}: a gather at each coset index."""
        out = np.empty(self.size(l + 1), dtype=vals.dtype)
        stop = 0
        for start, g in domain_chunks(self, l + 1):
            stop = start + len(g)
            out[start:stop] = vals[self.coset_index_arr(g, l)]
        # a broken Generic tower may list fewer elements than |D_{l+1}|
        return out[:stop]

    def add_arr(self, a, b):
        return np.add(a, b, dtype=np.int64)

    def sub_arr(self, a, b):
        return np.subtract(a, b, dtype=np.int64)

    def eq_arr(self, a, b):
        return np.equal(a, b)

    def array(self, elements):
        return np.asarray(elements, dtype=np.int64)

    def level_of(self, g, n, start=0):
        """The least level i, start <= i < n, whose D_i Gamma_{i+1} holds
        the element g, with g reduced into D_{i+1}: (i, reduce(g, i + 1)),
        or None when no such level settles g."""
        self._chk(n)
        for i in range(start, n):
            r = self.reduce(g, i + 1)
            if self.in_domain(r, i):
                return i, r
        return None

    def index_of(self, g, n):
        """The D_n index of the element g; NotInDomain outside D_n."""
        return int(self.index_of_arr(self.array([g]), n)[0])

    def coset_index(self, g, n):
        """The D_n index of the element g's coset representative."""
        return self.index_of(self.reduce(g, n), n)

    def element(self, x):
        return int(x)

    def elements(self, arr):
        return arr.tolist()

    def coerce(self, obj):
        """The element that the JSON value obj names; NotInDomain if none."""
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise NotInDomain(f"{obj!r} is not a group element")
        return obj

    def parse_element(self, text):
        try:
            return int(text)
        except ValueError:
            raise NotInDomain(f"{text!r} is not a group element") from None

    def format_element(self, g):
        return str(g)


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
        self._lo = ([0] * len(self.N) if style == STYLE_NONNEG
                    else [(1 - m) // 2 for m in self.N])
        self.zero = 0

    def size(self, n):
        self._chk(n)
        return self.N[n]

    def lo(self, n):
        self._chk(n)
        return self._lo[n]

    def reduce(self, g, n):
        lo = self.lo(n)
        return (g - lo) % self.N[n] + lo

    def in_domain(self, g, n):
        lo = self.lo(n)
        return lo <= g < lo + self.N[n]

    # one local loop over lo and N, no guarded call per level
    def level_of(self, g, n, start=0):
        self._chk(n)
        lo, N = self._lo, self.N
        for i in range(start, n):
            r = (g - lo[i + 1]) % N[i + 1] + lo[i + 1]
            if lo[i] <= r < lo[i] + N[i]:
                return i, r
        return None

    # one remainder; _chk is called only to raise, as a call costs 80 ns
    def coset_index(self, g, n):
        if not 0 <= n <= self.depth:
            self._chk(n)
        return (g - self._lo[n]) % self.N[n]

    def _arr_dtype(self, n):
        # int32 while reducing D_n one level up stays in range
        return np.int32 if self.N[min(n + 1, self.depth)] < 1 << 31 else np.int64

    def domain_arr(self, n, start=0, stop=None):
        """D_n in enumeration order, or its elements start..stop-1."""
        lo = self.lo(n)
        stop = self.N[n] if stop is None else min(stop, self.N[n])
        return np.arange(lo + start, lo + stop, dtype=self._arr_dtype(n))

    # |D_j|/|D_i| steps, where the shared form passes over all of D_j
    def section_arr(self, i, j, start=0, stop=None):
        self._chk_section(i, j)
        # every N_i-th element of D_j, from the least multiple of N_i in it
        first = -(-self._lo[j] // self.N[i]) * self.N[i]
        r = range(first, first + self.N[j], self.N[i])[start:stop]
        # elements of D_j, so in domain_arr(j)'s dtype
        return np.arange(r.start, r.stop, r.step, dtype=self._arr_dtype(j))

    def reduce_arr(self, g, n, out=None):
        # r = g - m * q with q = floor((g - lo) / m): numpy divides by the
        # scalar m with a precomputed reciprocal, several times faster than
        # np.mod.  q is formed in out, in out's dtype, unless out shares
        # g's memory.  m * q lies in (g - lo - m, g - lo], as g - lo itself
        # does, so a chunk of D_k stays exact in int32 while N[k+1] < 2**31
        # (_arr_dtype)
        lo, m = self.lo(n), self.N[n]
        q = (np.empty_like(g) if out is None or np.may_share_memory(g, out)
             else out)
        np.floor_divide(np.subtract(g, lo, out=q, dtype=q.dtype), m, out=q)
        np.multiply(q, m, out=q)
        return np.subtract(g, q, out=q if out is None else out)

    def in_domain_arr(self, g, n):
        lo = self.lo(n)
        out = np.greater_equal(g, lo)
        return np.logical_and(out, g < lo + self.N[n], out=out)

    def index_of_arr(self, g, n):
        idx = np.subtract(g, self.lo(n), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.N[n]):
            raise NotInDomain(f"element outside D_{n}")
        return idx

    # one kernel pass: 135 us against the shared 487 us on a 64Ki int64 chunk
    def coset_index_arr(self, g, n):
        idx = self.reduce_arr(g, n, out=np.empty(np.shape(g), dtype=np.int64))
        return np.subtract(idx, self.lo(n), out=idx)

    # a roll, and extend_arr a tile: neither reads a coset index
    def shift_arr(self, vals, s, n):
        return np.roll(vals, -int(s))

    def extend_arr(self, vals, l):
        # D_{l+1}'s k-th element lo(l+1) + k lies in the coset of D_l's
        # k mod N_l-th, as lo(l+1) = lo(l) mod N_l: both are 0, or, with
        # every N odd, lo(l) - lo(l+1) = N_l (N_{l+1} / N_l - 1) / 2
        return np.tile(vals, self.size(l + 1) // self.size(l))

    def shift_candidates(self, n):
        """The divisors of |D_n| below it, ascending: shifts by them
        generate every subgroup of Z/|D_n|, so they suffice."""
        size = self.size(n)
        low = [d for d in range(1, math.isqrt(size) + 1) if size % d == 0]
        high = [size // d for d in reversed(low) if d * d != size]
        cands = (low + high)[:-1]
        return cands, f"{len(cands)} divisor shifts of {size}"

    def config(self):
        return TowerConfig(KIND_LINE, indices=list(self.indices), style=self.style,
                           tail=self.tail)


class IntegerLatticeTower(_ArrayForms):
    kind = KIND_LATTICE

    def __init__(self, per_axis_indices, style=STYLE_NONNEG, tail=None):
        if not isinstance(per_axis_indices, (list, tuple)) or not per_axis_indices:
            raise InvalidIndex("need a nonempty list of axes")
        for chain in per_axis_indices:
            _check_indices(chain)
        depth = len(per_axis_indices[0])
        if any(len(chain) != depth for chain in per_axis_indices):
            raise InvalidIndex("all axes need the same number of levels")
        self.axes = [IntegerLineTower(chain, style) for chain in per_axis_indices]
        self._axis_tables = [(ax.N, ax._lo) for ax in self.axes]
        self.dim = len(self.axes)
        self.style = style
        self.tail = _coerce_tail(tail)
        self.depth = depth
        self.zero = (0,) * self.dim

    def size(self, n):
        return math.prod(self.shape(n))

    def reduce(self, g, n):
        return tuple([ax.reduce(c, n) for ax, c in zip(self.axes, g)])

    def in_domain(self, g, n):
        return all([ax.in_domain(c, n) for ax, c in zip(self.axes, g)])

    # the line's remainder per axis, in row-major order
    def coset_index(self, g, n):
        if not 0 <= n <= self.depth:
            self._chk(n)
        idx = 0
        for (N, lo), c in zip(self._axis_tables, g):
            idx = idx * N[n] + (c - lo[n]) % N[n]
        return idx

    # array forms: (..., d) ints, each axis through the line's formulas

    def domain_arr(self, n, start=0, stop=None):
        # C order, first axis slowest: lexicographic, as tuples compare
        stop = self.size(n) if stop is None else min(stop, self.size(n))
        idx = np.unravel_index(np.arange(start, stop), self.shape(n))
        return np.stack([ax.lo(n) + i for ax, i in zip(self.axes, idx)],
                        axis=-1)

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

    def shape(self, n):
        return tuple(ax.size(n) for ax in self.axes)

    # with the tile, keeps the D_3 window at 0.33-0.36 ms, 0.56 ms shared
    def shift_arr(self, vals, s, n):
        grid = vals.reshape(self.shape(n))
        shifts = tuple(-int(c) for c in s)
        return np.roll(grid, shifts, axis=tuple(range(self.dim))).reshape(-1)

    def extend_arr(self, vals, l):
        # the line's tiling, per axis of the D_l grid
        reps = tuple(ax.size(l + 1) // ax.size(l) for ax in self.axes)
        return np.tile(vals.reshape(self.shape(l)), reps).reshape(-1)

    def eq_arr(self, a, b):
        return np.equal(a, b).all(axis=-1)

    def array(self, elements):
        return np.asarray(elements, dtype=np.int64).reshape(-1, self.dim)

    def element(self, x):
        return tuple(int(c) for c in x)

    def elements(self, arr):
        return [tuple(x) for x in arr.tolist()]

    def coerce(self, obj):
        if (not isinstance(obj, (list, tuple)) or len(obj) != self.dim
                or not all(isinstance(c, int) and not isinstance(c, bool)
                           for c in obj)):
            raise NotInDomain(f"{obj!r} is not {self.dim} integer coordinates")
        return tuple(obj)

    def parse_element(self, text):
        try:
            parts = [int(p) for p in text.replace("(", "").replace(")", "").split(",")]
        except ValueError:
            raise NotInDomain(f"{text!r} is not a group element") from None
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

    levels[n-1] describes G/Gamma_n for n = 1..depth: its size, its group
    law as an `op` table, and for n >= 2 a projection onto the previous
    level.  Group elements are indices into the deepest level;
    D_n is a supplied list of such indices, one per Gamma_n-coset, so the
    tower has no style; config() records the default one.
    """

    kind = KIND_GENERIC

    def __init__(self, levels, domains, tail=None):
        if not isinstance(levels, list) or not levels:
            raise InvalidIndex("generic tower needs a nonempty list of levels")
        self.depth = len(levels)
        self.levels = levels
        self.sizes = [1]
        ops = [None]
        projs = [None]  # projs[n] maps level n -> level n-1
        for n, lvl in enumerate(levels, start=1):
            prev = self.sizes[-1]
            try:
                size, op = lvl["size"], lvl["op"]
                proj = lvl["proj"] if n > 1 else None
            except (KeyError, TypeError) as exc:
                raise InvalidIndex(f"level {n} table is malformed: {exc!r}") from None
            if (isinstance(size, bool) or not isinstance(size, int)
                    or size % prev != 0 or size // prev < 2):
                raise InvalidIndex(f"level {n} size {size!r} is not an "
                                   f"integer multiple >=2 of {prev}")
            self.sizes.append(size)
            ops.append(_int_table(op, (size, size), size, f"level {n} op table"))
            projs.append(None if n == 1 else
                         _int_table(proj, (size,), prev, f"level {n} proj"))
        # domains[0] is D_0 = {identity}; identity is table index 0 at depth
        if (not isinstance(domains, list) or len(domains) != self.depth + 1
                or not all(isinstance(d, list) and len(d) <= size
                           for d, size in zip(domains, self.sizes))
                or domains[0] != [0]):
            raise InvalidIndex("domains must list D_0..D_depth as table "
                               "indices, D_n at most [G : Gamma_n] of them, "
                               "with D_0 = [0]")
        top = self.sizes[self.depth]
        doms = [_int_table(d, (len(d),), top, f"domain D_{n}")
                for n, d in enumerate(domains)]
        # config() writes the lists back out; domain_arr slices the arrays
        self.domains, self._dom_arr = domains, doms
        self.tail = _coerce_tail(tail)
        self.zero = 0
        op = self._op_arr = ops[self.depth]
        # config() writes every level's table back out, so each must be the
        # image of the table below it under that level's proj; blocks of 64
        # rows keep the temporaries small
        for n in range(self.depth, 1, -1):
            parent, proj, child = ops[n - 1], projs[n], ops[n]
            if not all((parent[proj[s:s + 64, None], proj]
                        == proj[child[s:s + 64]]).all()
                       for s in range(0, len(proj), 64)):
                raise InvalidIndex(f"level {n - 1} op table is not the image "
                                   f"of level {n}'s under its proj")
        labels = np.arange(top)
        if not ((op[0] == labels).all() and (op[:, 0] == labels).all()):
            raise InvalidIndex("label 0 is not the identity; op table is "
                               "not a group")
        # inverse lookup at the deepest level: the first b with a + b = 0
        is_id = op == 0
        has_inv = is_id.any(axis=1)
        if not has_inv.all():
            a = int(np.argmin(has_inv))
            raise InvalidIndex(f"element {a} has no inverse; op table is not a group")
        self._inv_arr = np.argmax(is_id, axis=1)
        # the coset tables, each once: _down_arr[n][g] is the level-n coset
        # key of g, _rep_arr[n][key] the D_n representative of a key (the
        # last element of D_n in that coset, -1 if none) and _pos_arr[n][g]
        # the index of g in D_n (-1 outside).  The scalar ops read list
        # views of the same tables, which index faster one element at a time
        down = np.zeros((self.depth + 1, top), dtype=np.int64)
        down[self.depth] = np.arange(top)
        for n in range(self.depth, 1, -1):
            down[n - 1] = projs[n][down[n]]
        self._down_arr = down
        self._rep_arr = [_last_of(down[n][d], d, self.sizes[n])
                         for n, d in enumerate(doms)]
        self._pos_arr = [_last_of(d, np.arange(len(d)), top) for d in doms]
        self._down = down.tolist()
        self._rep = [r.tolist() for r in self._rep_arr]
        self._pos = [p.tolist() for p in self._pos_arr]
        # Light's test: the g with (x + g) + y = x + (g + y) for all x, y
        # are closed under the product, and the sections Gamma_k cap D_{k+1}
        # generate G once the domains tile, so they suffice; a narrow copy
        # of the table, 64 rows at a time
        small = op.astype(np.min_scalar_type(top - 1))
        gens = {g for k in range(self.depth)
                for g in self.section_arr(k, k + 1).tolist()}
        for g in sorted(gens - {0}):
            x_g, g_y = small[:, g], small[g]
            if not all((small[x_g[s:s + 64]] == small[s:s + 64, g_y]).all()
                       for s in range(0, top, 64)):
                raise InvalidIndex(f"op table is not associative at element "
                                   f"{g}; not a group")

    def size(self, n):
        self._chk(n)
        return self.sizes[n]

    def _label(self, g):
        """g, once it is a label in 0..|G|-1; the list tables would read
        a negative one from their end."""
        if not 0 <= g < self.sizes[self.depth]:
            raise NotInDomain(f"{g!r} is not a group element")
        return g

    def reduce(self, g, n):
        self._chk(n)
        rep = self._rep[n][self._down[n][self._label(g)]]
        if rep < 0:
            raise NotInDomain(f"D_{n} has no representative for the coset of {g}")
        return rep

    def in_domain(self, g, n):
        self._chk(n)
        return self._pos[n][self._label(g)] >= 0

    # the coset tables' lists, through reduce's checks
    def coset_index(self, g, n):
        r = self.reduce(g, n)
        return self._pos[n][r]

    def domain_arr(self, n, start=0, stop=None):
        self._chk(n)
        return self._dom_arr[n][start:stop].copy()

    # the coset table: reduce_arr raises on a broken tower decom has not failed
    def section_arr(self, i, j, start=0, stop=None):
        self._chk_section(i, j)
        dom, down = self.domain_arr(j), self._down_arr[i]
        return dom[down[dom] == down[0]][start:stop]

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
        pos = self._pos_arr[n]
        # a label outside 0..|G|-1 would index pos out of range, or from
        # its end
        if g.size and (g.min() < 0 or g.max() >= len(pos)):
            raise NotInDomain(f"element outside D_{n}")
        idx = pos[g]
        if (idx < 0).any():
            raise NotInDomain(f"element outside D_{n}")
        return idx

    def add_arr(self, a, b):
        return self._op_arr[a, b]

    def sub_arr(self, a, b):
        return self._op_arr[a, self._inv_arr[b]]

    def coerce(self, obj):
        return self._label(super().coerce(obj))

    def parse_element(self, text):
        return self.coerce(super().parse_element(text))

    def config(self):
        # the tables as the config gave them, which the constructor checked
        levels = []
        for n, lvl in enumerate(self.levels, start=1):
            keys = ("size", "op", "proj") if n > 1 else ("size", "op")
            levels.append({key: lvl[key] for key in keys})
        return TowerConfig(KIND_GENERIC, tail=self.tail, levels=levels,
                           domains=self.domains)


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
        if not isinstance(obj, dict):
            raise InvalidIndex(f"a tower config is a JSON object, got {obj!r}")
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
            try:
                obj = json.load(fh)
            except ValueError as exc:
                raise InvalidIndex(f"{path} is not JSON: {exc}") from None
        return TowerConfig.from_json(obj)


def build_tower(config):
    if isinstance(config, dict):
        config = TowerConfig.from_json(config)
    if config.kind == KIND_LINE:
        return IntegerLineTower(config.indices, config.style, config.tail)
    if config.kind == KIND_LATTICE:
        return IntegerLatticeTower(config.indices, config.style, config.tail)
    if config.kind == KIND_GENERIC:
        if config.style != STYLE_NONNEG:
            raise InvalidIndex("a Generic tower's domains are explicit; "
                               f"style {config.style!r} does not apply")
        return GenericTower(config.levels, config.domains, config.tail)
    raise InvalidIndex(f"unknown tower kind {config.kind!r}")


CHUNK = 1 << 16  # elements per array pass of a whole-domain sweep


def domain_chunks(tower, n):
    """D_n in enumeration order as (start, elements) pieces: the elements
    start..start+CHUNK-1, the last piece running to the end of D_n."""
    size = tower.size(n)
    for start in range(0, size, CHUNK):
        stop = start + CHUNK
        yield start, tower.domain_arr(n, start, stop if stop < size else None)


def section_chunks(tower, i, j):
    """Gamma_i cap D_j in enumeration order as pieces of CHUNK elements, up
    to the first short piece: a section too long is read to its end."""
    for start in itertools.count(0, CHUNK):
        piece = tower.section_arr(i, j, start, start + CHUNK)
        yield piece
        if len(piece) < CHUNK:
            return


def domain_where(tower, n, keep):
    """The elements of D_n, in enumeration order, where the mask
    keep(start, elements) holds on each piece of domain_chunks, copied into
    one output."""
    masks = [keep(start, g) for start, g in domain_chunks(tower, n)]
    empty = tower.domain_arr(n, 0, 0)
    out = np.empty_like(empty, shape=(sum(map(np.count_nonzero, masks)),
                                      *empty.shape[1:]))
    pos = 0
    for (_, g), mask in zip(domain_chunks(tower, n), masks):
        g = g[mask]
        out[pos:pos + len(g)] = g
        pos += len(g)
    return out


def sum_chunks(tower, a, b):
    """The sums a[i] + b[k], i slowest, as (i0, sums) pieces of the whole
    rows from i0 on, about CHUNK sums each."""
    rows = max(1, CHUNK // max(1, len(b)))
    for i in range(0, len(a), rows):
        out = tower.translate_arr(a[i:i + rows], b)
        yield i, out.reshape(-1, *out.shape[2:])


def mark_repeats(seen, keys):
    """Which keys equal one that the mask `seen` holds or an earlier one in
    keys; then marks them all seen."""
    rising = (keys[1:] > keys[:-1]).all()  # then none repeats an earlier one
    if rising and len(keys) and keys[-1] - keys[0] == len(keys) - 1:
        keys = slice(keys[0], keys[-1] + 1)  # a run: a slice, no gather
    again = np.array(seen[keys])
    if not rising:
        order = np.argsort(keys, kind="stable")
        again[order[1:]] |= keys[order[1:]] == keys[order[:-1]]
    seen[keys] = True
    return again


def _tiling_fault(tower, sec, dom_i, j):
    """None when every tile of sec + D_i lies in D_j, else ("tiling misses
    D_j", the least by repr of the D_j elements no tile reaches and the
    tiles outside D_j), once sec passed _section_fault (see validate_tower)."""
    if all(tower.in_domain_arr(tiles, j).all()
           for _, tiles in sum_chunks(tower, sec, dom_i)):
        return None
    seen, outside = np.zeros(tower.size(j), dtype=bool), []
    for _, tiles in sum_chunks(tower, sec, dom_i):
        inside = tower.in_domain_arr(tiles, j)
        seen[tower.index_of_arr(tiles[inside], j)] = True
        outside += tower.elements(tiles[~inside])
    missed = domain_where(tower, j, lambda start, g: ~seen[start:start + len(g)])
    return "tiling misses D_j", min(tower.elements(missed) + outside, key=repr)


def _section_fault(tower, i, j):
    """None when the section Gamma_i cap D_j lies in D_j and Gamma_i without
    repeats, else (reason, element): its first element outside D_j, else the
    first outside Gamma_i, else the first that repeats an earlier one."""
    seen = np.zeros(tower.size(j), dtype=bool)
    for reason, bad in (
            ("tiling misses D_j", lambda g: ~tower.in_domain_arr(g, j)),
            ("section leaves Gamma_i", lambda g: ~tower.eq_arr(
                tower.reduce_arr(g, i), tower.zero)),
            ("tiling overlaps",
             lambda g: mark_repeats(seen, tower.index_of_arr(g, j)))):
        for g in section_chunks(tower, i, j):
            b = bad(g)
            if b.any():
                return reason, tower.element(g[b.argmax()])
    return None


def validate_tower(tower, budget=Budget(), depth=None):
    """Check the nesting/tiling axioms on every level up to depth (default:
    the tower's), by enumeration where the level fits the enumeration
    budget, CHUNK elements at a time.

    Each level is checked in the order: no repeats, size, identity, reduce
    fixes D_n, D_{n-1} <= D_n.  Then j by j each section Gamma_i cap D_j,
    i = j-1 first: its size, that it lies in D_j and Gamma_i without
    repeats, then for i = j-1 that section + D_i lies in D_j.  No two of
    those tiles s + d are equal: D_i holds distinct Gamma_i-coset
    representatives, so tiles with different d differ, and s + d = s' + d
    cancels to s = s'; so the |D_j| tiles cover D_j.  That suffices: with
    S_k = Gamma_k cap D_{k+1} <= Gamma_i, the tilings give D_j = S_{j-1} +
    ... + S_i + D_i with unique sums (composed on the left, as section +
    D_i), |D_j|/|D_i| elements of Gamma_i cap D_j; as Gamma_i cap D_i = {0}
    (reduce fixes D_i, which holds 0 once) they are all of it.
    """
    top = tower.depth if depth is None else depth
    name = "decom"

    sizes = [tower.size(n) for n in range(top + 1)]
    levels_in_budget = [n for n in range(top + 1) if sizes[n] <= budget.enum]
    scope = f"levels {levels_in_budget}"
    ramp = np.arange(CHUNK)
    for n in levels_in_budget:
        count, has_zero, moved = 0, False, []
        for start, g in domain_chunks(tower, n):
            # the k-th element of D_n has D_n index k unless one repeats
            if (tower.index_of_arr(g, n) - start != ramp[:len(g)]).any():
                return failed(name, scope,
                              {"level": n, "reason": "repeated element in D_n"})
            count += len(g)
            has_zero = has_zero or tower.eq_arr(g, tower.zero).any()
            # one representative per coset: reduce must fix the domain
            fixed = tower.eq_arr(tower.reduce_arr(g, n), g)
            if not fixed.all():
                moved += tower.elements(g[~fixed])
        if count != sizes[n]:
            return failed(name, scope,
                          {"level": n, "reason": "domain size mismatch",
                           "expected": sizes[n], "got": count})
        if not has_zero:
            return failed(name, scope,
                          {"level": n, "reason": "identity missing from D_n"})
        if moved:
            return failed(name, scope,
                          {"level": n, "element": moved[0],
                           "reason": "reduce does not fix D_n"})
        if n > 0:
            out = tower.elements(domain_where(
                tower, n - 1, lambda _, g: ~tower.in_domain_arr(g, n)))
            if out:
                return failed(name, scope,
                              {"level": n, "reason": "domains not nested",
                               "element": min(out, key=repr)})

    scope = f"tilings up to level {top}"
    # every constructor refuses an index below 2, so sizes increase: the
    # levels in budget are 0..L and every pair in budget lies among them
    for j in levels_in_budget[1:]:
        for i in [j - 1, *range(j - 1)]:
            got = sum(map(len, section_chunks(tower, i, j)))
            if got * sizes[i] != sizes[j]:
                return failed(name, scope,
                              {"pair": (i, j), "reason": "section size mismatch",
                               "expected": sizes[j] // sizes[i], "got": got})
            fault = _section_fault(tower, i, j) or (
                _tiling_fault(tower, tower.section_arr(i, j),
                              tower.domain_arr(i), j)
                if i == j - 1 else None)
            if fault is not None:
                return failed(name, scope, {"pair": (i, j), "reason": fault[0],
                                            "element": fault[1]})
    pairs = [(i, j) for i in levels_in_budget
             for j in levels_in_budget[i + 1:]]

    return passed(name, f"levels 0..{top}, tilings {len(pairs)} pairs, "
                        f"enumerated where |D_j| <= {budget.enum}",
                  [{"pairs": pairs}])
