"""Materialized symbol windows over fundamental domains.

A window holds the array restricted to D_n as bit-packed values plus a
defined-mask (cells past the constructed depth exist once n reaches the
skeleton depth).  Windows are built by a level scan over each chunk of D_n,
not cell-by-cell evaluation: one vectorized pass per level settles every cell
that level decides, for every tower kind.

File formats:
  csv   one row per cell: coordinates, then 0/1 or ? for undefined
  bits  16-byte header (magic TPW1, level u32 LE, cells u64 LE), then the
        value bits LSB-first, then the defined-mask bits
  pgm   binary P5; 0 -> black, 1 -> white, undefined -> mid gray
"""

import numpy as np

from .errors import DepthExceeded, NotInDomain
from .tower import domain_chunks

MAGIC = b"TPW1"


def level_scan(skeleton, g, values, out=None):
    """Per element of the array g: its value (uint8, 255 undefined) when
    `values` is true, else its level (int16, -1 past the built depth),
    written into `out` when given.

    This is eval and level_of over a whole array: level l settles every
    undecided element whose reduction mod Gamma_{l+1} lies in D_l.  The
    reductions reuse one buffer, so no per-cell temporary grows with the
    number of levels.
    """
    T = skeleton.tower
    count = len(g)
    if out is None:
        out = np.empty(count, dtype=np.uint8 if values else np.int16)
    out.fill(255 if values else -1)
    undec = np.ones(count, dtype=bool)
    r = np.empty_like(g)
    for l in range(skeleton.depth):
        T.reduce_arr(g, l + 1, out=r)
        cells = T.in_domain_arr(r, l)
        np.logical_and(cells, undec, out=cells)
        kind = skeleton.steps[l]
        if not values:
            out[cells] = l
        elif kind[0] == "zero":
            out[cells] = 0
        else:
            out[cells] = T.eq_arr(r[cells], kind[1])
        np.logical_not(cells, out=cells)
        undec &= cells
        if not undec.any():
            break
    return out


def per_masks(skeleton, n):
    """Boolean masks over D_n of Per(n, 0) and Per(n, 1): the cells that a
    level below n decides, split by the symbol it gives them."""
    lvls = window_levels(skeleton, n)
    vals = window_values(skeleton, n)
    decided = (lvls >= 0) & (lvls < n)
    return decided & (vals == 0), decided & (vals == 1)


def _window(skeleton, n, values):
    T = skeleton.tower
    what = "window" if values else "level map"
    skeleton.budget.check_window(T.size(n), f"{what} D_{n}")
    key = ("vals" if values else "lvls", n)
    cache = skeleton._wincache
    if key not in cache:
        out = np.empty(T.size(n), dtype=np.uint8 if values else np.int16)
        for start, g in domain_chunks(T, n):
            level_scan(skeleton, g, values, out[start:start + len(g)])
        # a broken Generic tower may list fewer elements than |D_n|
        cache[key] = out[:start + len(g)]
    return cache[key]


def window_values(skeleton, n):
    """uint8 array over D_n in enumeration order; 255 marks undefined."""
    return _window(skeleton, n, values=True)


def window_levels(skeleton, n):
    """int16 array of cell levels over D_n; -1 marks beyond-depth cells."""
    return _window(skeleton, n, values=False)


class SymbolWindow:
    """Bit-packed values + defined-mask over D_level."""

    def __init__(self, level, values_u8, dims=None):
        self.level = level
        self.n_cells = int(values_u8.shape[0])
        defined = values_u8 != 255
        self.bits = np.packbits(values_u8 == 1, bitorder="little")
        self.mask = np.packbits(defined, bitorder="little")
        self.dims = dims

    def values_array(self):
        """uint8 with 0/1 where defined and 255 elsewhere."""
        vals = np.unpackbits(self.bits, count=self.n_cells, bitorder="little")
        defined = self.defined_array()
        out = np.where(defined, vals, np.uint8(255)).astype(np.uint8)
        return out

    def defined_array(self):
        return np.unpackbits(self.mask, count=self.n_cells,
                             bitorder="little").astype(bool)

    def counts(self):
        vals = self.values_array()
        return {"zeros": int((vals == 0).sum()), "ones": int((vals == 1).sum()),
                "undefined": int((vals == 255).sum())}

    def __eq__(self, other):
        if not isinstance(other, SymbolWindow):
            return NotImplemented
        return (self.level == other.level and self.n_cells == other.n_cells
                and np.array_equal(self.bits, other.bits)
                and np.array_equal(self.mask, other.mask))

    # -- files -----------------------------------------------------------

    def to_bits(self, path):
        header = MAGIC + np.uint32(self.level).tobytes() + np.uint64(self.n_cells).tobytes()
        assert len(header) == 16
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(self.bits.tobytes())
            fh.write(self.mask.tobytes())

    @staticmethod
    def from_bits(path):
        with open(path, "rb") as fh:
            header = fh.read(16)
            if header[:4] != MAGIC:
                raise NotInDomain(f"{path} is not a window file")
            level = int(np.frombuffer(header[4:8], dtype=np.uint32)[0])
            n_cells = int(np.frombuffer(header[8:16], dtype=np.uint64)[0])
            nbytes = (n_cells + 7) // 8
            bits = np.frombuffer(fh.read(nbytes), dtype=np.uint8)
            mask = np.frombuffer(fh.read(nbytes), dtype=np.uint8)
        out = SymbolWindow.__new__(SymbolWindow)
        out.level = level
        out.n_cells = n_cells
        out.bits = bits.copy()
        out.mask = mask.copy()
        out.dims = None
        return out

    def to_csv(self, tower, path):
        vals = self.values_array()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# level={self.level}\n# cells={self.n_cells}\n")
            for g, v in zip(tower.elements(tower.domain_arr(self.level)),
                            vals.tolist()):
                fh.write(f"{tower.format_element(g)},{'?' if v == 255 else v}\n")

    @staticmethod
    def from_csv(tower, path):
        level = None
        cells = None
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, val = line[1:].strip().partition("=")
                    if key == "level":
                        level = int(val)
                    elif key == "cells":
                        cells = int(val)
                    continue
                coord, _, sym = line.rpartition(",")
                rows.append((tower.parse_element(coord),
                             255 if sym == "?" else int(sym)))
        if level is None or cells != len(rows):
            raise NotInDomain(f"{path} has a malformed window header")
        vals = np.full(cells, 255, dtype=np.uint8)
        if rows:
            elements, symbols = zip(*rows)
            vals[tower.index_of_arr(tower.array(elements), level)] = symbols
        return SymbolWindow(level, vals, dims=tower.shape(level))

    def to_pgm(self, path):
        vals = self.values_array()
        pixels = np.where(vals == 255, np.uint8(128),
                          np.where(vals == 1, np.uint8(255), np.uint8(0)))
        # dims is the tower's shape of D_level: a 2-D one draws as its grid
        if self.dims and len(self.dims) == 2:
            height, width = self.dims
        else:
            height, width = 1, self.n_cells
        with open(path, "wb") as fh:
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fh.write(pixels.astype(np.uint8).tobytes())


def materialize_window(skeleton, n):
    """Build the D_n window; raises BudgetExceeded past the window cap."""
    if n < 0:
        raise DepthExceeded(f"negative level {n}")
    if n > skeleton.tower.depth:
        raise DepthExceeded(f"window level {n} exceeds tower depth")
    vals = window_values(skeleton, n)
    return SymbolWindow(n, vals, dims=skeleton.tower.shape(n))

