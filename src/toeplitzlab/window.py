"""Materialized symbol windows over fundamental domains.

A window holds the array restricted to D_n as bit-packed values plus a
defined-mask (cells past the constructed depth exist once n reaches the
skeleton depth).  Windows are built the way the construction defines the
array, not cell by cell: the array over D_l extends to D_{l+1} as a function
of the Gamma_l-coset, then level l settles the blank cells of D_l, so each
cell is written about once and the line does no division.  eval_arr, eval
over any array, reads such a window where one holds it, else scans levels.

File formats:
  csv   `# level=n` and `# cells=|D_n|` lines, then one row per cell: the
        element's integer coordinates, then 0/1 or ? for undefined, joined
        by commas.  Rows may come in any order, but each cell of D_n must
        appear exactly once.  Both directions pass over CHUNK rows at a
        time, so memory follows the chunk and the window, not the file.
  bits  16-byte header (magic TPW1, level u32 LE, cells u64 LE), then the
        value bits LSB-first, then the defined-mask bits, and nothing more
  pgm   binary P5; 0 -> black, 1 -> white, undefined -> mid gray
"""

import itertools
import os
import re

import numpy as np

from .errors import DepthExceeded, NotInDomain
from . import tower as _tower
from .tower import domain_chunks, sum_chunks

MAGIC = b"TPW1"

UNDEFINED = 255  # the value of a cell past the built depth
# a cell's symbol by its value 0, 1 or UNDEFINED, clipped to 2
SYMBOLS = np.array(["0", "1", "?"], dtype=object)
# a cell value by the symbol byte of a csv row; _NO_SYMBOL for any other byte
_NO_SYMBOL = 254
_VALUE_OF = np.full(256, _NO_SYMBOL, dtype=np.uint8)
_VALUE_OF[[ord("0"), ord("1"), ord("?")]] = 0, 1, UNDEFINED


def eval_arr(skeleton, g):
    """eval over the element array g, uint8, UNDEFINED past the built depth.

    g is read from the least window D_L, L <= depth, that holds all of it
    and that the budget allows.  Only where none does, the residual scans
    the levels: level l settles every undecided element whose reduction mod
    Gamma_{l+1} lies in D_l, the reductions reusing one buffer.  Callers
    pass about CHUNK elements at a time, as eval_sums does."""
    T = skeleton.tower
    L = next((l for l in range(skeleton.depth + 1)
              if skeleton.budget.allows_window(T.size(l))
              and T.in_domain_arr(g, l).all()), None)
    if L is not None:
        return window_values(skeleton, L)[T.index_of_arr(g, L)]
    out = np.full(len(g), UNDEFINED, dtype=np.uint8)
    undec = np.ones(len(g), dtype=bool)
    r = np.empty_like(g)
    for l in range(skeleton.depth):
        T.reduce_arr(g, l + 1, out=r)
        cells = T.in_domain_arr(r, l)
        np.logical_and(cells, undec, out=cells)
        kind = skeleton.steps[l]
        out[cells] = 0 if kind[0] == "zero" else T.eq_arr(r[cells], kind[1])
        np.logical_not(cells, out=cells)
        undec &= cells
        if not undec.any():
            break
    return out


def eval_sums(skeleton, a, b):
    """eval_arr at every a[i] + b[k], as a (len(a), len(b)) array."""
    out = np.empty((len(a), len(b)), dtype=np.uint8)
    for i0, g in sum_chunks(skeleton.tower, a, b):
        out.reshape(-1)[i0 * len(b):][:len(g)] = eval_arr(skeleton, g)
    return out


def per_masks(skeleton, n):
    """Boolean masks over D_n of Per(n, 0) and Per(n, 1): the cells that a
    level below n decides, split by the symbol it gives them.  Raises
    DepthExceeded past the built depth, where levels below n are missing."""
    if n > skeleton.depth:
        raise DepthExceeded(f"Per({n}, .) needs depth >= {n}, have "
                            f"{skeleton.depth}")
    lvls = window_levels(skeleton, n)
    vals = window_values(skeleton, n)
    decided = (lvls >= 0) & (lvls < n)
    return decided & (vals == 0), decided & (vals == 1)


def _window(skeleton, n, values):
    what = "window" if values else "level map"
    skeleton.budget.check_window(skeleton.tower.size(n), f"{what} D_{n}")
    return skeleton.cached(("vals" if values else "lvls", n),
                           lambda: _build(skeleton, n, values))


def _build(skeleton, n, values):
    """The values (or levels) over D_n, level by level from D_0.

    Levels below l decide a Gamma_l-periodic pattern, so the array over D_l
    extends to D_{l+1} as a function of the Gamma_l-coset.  On D_{l+1}
    every g is its own reduction mod Gamma_{l+1}, so level l then settles
    the blank cells of D_l and no other; level n settles the rest of D_n
    last.  Each cell is written about once, and levels at or past the
    skeleton's depth only extend.
    """
    T = skeleton.tower
    settles_n = n < skeleton.depth
    if values:
        blank = UNDEFINED
    else:
        # a blank cell carries the level that settles it last, so the map
        # needs no pass at level n
        blank = n if settles_n else -1
    out = np.full(1, blank, dtype=np.uint8 if values else np.int16)
    for l in range(n):
        out = T.extend_arr(out, l)
        if l >= skeleton.depth:
            continue
        one = _blank_plant(skeleton, out, l, l + 1, blank) if values else None
        for _, g in domain_chunks(T, l):
            p = T.index_of_arr(g, l + 1)
            out[p[out[p] == blank]] = 0 if values else l
        if one is not None:
            out[one] = 1
    if values and settles_n:
        one = _blank_plant(skeleton, out, n, n, blank)
        # a settled cell holds 0 or 1, so this turns each blank to 0 and
        # keeps the rest, in place
        np.equal(out, 1, out=out.view(np.bool_))
        if one is not None:
            out[one] = 1
    return out


def _blank_plant(skeleton, out, l, m, blank):
    """The position in out, an array over D_m, of the cell h that step l
    plants, while that cell is blank; else None."""
    kind = skeleton.steps[l]
    if kind[0] != "plant":
        return None
    i = skeleton.tower.index_of(kind[1], m)
    return i if out[i] == blank else None


def window_values(skeleton, n):
    """uint8 array over D_n in enumeration order, UNDEFINED where undecided."""
    return _window(skeleton, n, values=True)


def window_levels(skeleton, n):
    """int16 array of cell levels over D_n; -1 marks beyond-depth cells."""
    return _window(skeleton, n, values=False)


class SymbolWindow:
    """Bit-packed values + defined-mask over D_level."""

    def __init__(self, level, values_u8):
        self.level = level
        self.n_cells = int(values_u8.shape[0])
        nbytes = (self.n_cells + 7) // 8
        self.bits = np.empty(nbytes, dtype=np.uint8)
        self.mask = np.empty(nbytes, dtype=np.uint8)
        # in pieces of CHUNK cells rounded up to whole bytes
        step = -(-_tower.CHUNK // 8) * 8
        for start in range(0, self.n_cells, step):
            vals = values_u8[start:start + step]
            out = slice(start // 8, (start + len(vals) + 7) // 8)
            self.bits[out] = np.packbits(vals == 1, bitorder="little")
            self.mask[out] = np.packbits(vals != UNDEFINED, bitorder="little")

    def values_array(self, start=0, stop=None):
        """uint8 with 0/1 where defined and UNDEFINED elsewhere, over the cells
        start..stop-1 (all by default); unpacks only the bytes they span."""
        stop = self.n_cells if stop is None else stop
        lo, hi = start // 8, -(-stop // 8)
        cut = slice(start - 8 * lo, stop - 8 * lo)
        vals = np.unpackbits(self.bits[lo:hi], bitorder="little")[cut]
        defined = np.unpackbits(self.mask[lo:hi], bitorder="little")[cut]
        vals[defined == 0] = UNDEFINED
        return vals

    def counts(self):
        vals = self.values_array()
        return {"zeros": int((vals == 0).sum()), "ones": int((vals == 1).sum()),
                "undefined": int((vals == UNDEFINED).sum())}

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
            if len(header) < 16 or header[:4] != MAGIC:
                raise NotInDomain(f"{path} is not a window file")
            level = int(np.frombuffer(header[4:8], dtype=np.uint32)[0])
            n_cells = int(np.frombuffer(header[8:16], dtype=np.uint64)[0])
            nbytes = (n_cells + 7) // 8
            if os.fstat(fh.fileno()).st_size != 16 + 2 * nbytes:
                raise NotInDomain(f"{path} does not hold the values and "
                                  f"mask of {n_cells} cells")
            bits = np.frombuffer(fh.read(nbytes), dtype=np.uint8)
            mask = np.frombuffer(fh.read(nbytes), dtype=np.uint8)
        out = SymbolWindow.__new__(SymbolWindow)
        out.level = level
        out.n_cells = n_cells
        out.bits = bits.copy()
        out.mask = mask.copy()
        return out

    def to_csv(self, tower, path):
        k = int(np.prod(tower.domain_arr(self.level, 0, 0).shape[1:]))
        row = "%d," * k + "%s\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# level={self.level}\n# cells={self.n_cells}\n")
            for start, g in domain_chunks(tower, self.level):
                # k coordinates, then the symbol, per row
                flat = [None] * (len(g) * (k + 1))
                cols = g.reshape(len(g), k).T
                for c in range(k):
                    flat[c::k + 1] = cols[c].tolist()
                vals = self.values_array(start, start + len(g))
                flat[k::k + 1] = SYMBOLS[np.minimum(vals, 2)].tolist()
                fh.write(row * len(g) % tuple(flat))

    @staticmethod
    def from_csv(tower, path):
        with open(path, "rb") as fh:
            meta, first = {}, b""
            for line in fh:
                if not line.startswith(b"#"):
                    first = line
                    break
                key, _, val = line[1:].strip().partition(b"=")
                meta[key] = val
            try:
                level, cells = int(meta[b"level"]), int(meta[b"cells"])
                if cells != tower.size(level):
                    raise ValueError
            except (KeyError, ValueError, DepthExceeded):
                raise NotInDomain(f"{path} has a malformed window header") from None
            shape = tower.domain_arr(level, 0, 0).shape[1:]
            k = int(np.prod(shape))
            bad_row = (f"{path} has a row that is not an element ({k} "
                       "integers) and a symbol 0, 1 or ?")
            vals = np.full(cells, UNDEFINED, dtype=np.uint8)
            seen = np.zeros(cells, dtype=bool)
            lines = itertools.chain([first] if first else [], fh)
            while piece := list(itertools.islice(lines, _tower.CHUNK)):
                text = b"".join(piece).replace(b"\r\n", b"\n")
                if not text.endswith(b"\n"):
                    text += b"\n"
                raw = np.frombuffer(text, dtype=np.uint8)
                ends = np.flatnonzero(raw == ord("\n"))
                commas = np.add.reduceat(raw == ord(","), np.concatenate(
                    ([0], ends[:-1] + 1)), dtype=np.intp)
                sym = _VALUE_OF[raw[ends - 1]]
                # k commas per row, the last right before a one-byte symbol
                if ((commas != k).any() or (raw[ends - 2] != ord(",")).any()
                        or (sym == _NO_SYMBOL).any()):
                    raise NotInDomain(bad_row)
                # blank out each ",symbol" and join the rows by the comma
                # that np.fromstring reads between integers
                raw = raw.copy()
                raw[ends - 2] = raw[ends - 1] = ord(" ")
                raw[ends[:-1]] = ord(",")
                coords = raw.tobytes()
                try:
                    # numpy < 2.3 warns at a field that is no integer, and
                    # stops there
                    g = np.fromstring(coords, dtype=np.int64, sep=",")
                    if len(g) != len(ends) * k:
                        raise ValueError
                except (ValueError, DeprecationWarning):
                    bad = re.search(rb"[^,]*[^\d\s,+-][^,]*", coords)
                    raise NotInDomain(
                        f"{bad[0].strip().decode(errors='replace')!r} is not "
                        "a group element" if bad else bad_row) from None
                # a coordinate past int64 reads as its bound, outside D_n
                idx = tower.index_of_arr(g.reshape(-1, *shape), level)
                if _tower.mark_repeats(seen, idx).any():
                    raise NotInDomain(f"{path} lists a cell of D_{level} twice")
                vals[idx] = sym
        if not seen.all():
            raise NotInDomain(f"{path} has a malformed window header")
        return SymbolWindow(level, vals)

    def to_pgm(self, tower, path):
        vals = self.values_array()
        pixels = np.where(vals == UNDEFINED, np.uint8(128),
                          np.where(vals == 1, np.uint8(255), np.uint8(0)))
        shape = tower.shape(self.level)
        height, width = shape if len(shape) == 2 else (1, self.n_cells)
        with open(path, "wb") as fh:
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fh.write(pixels.astype(np.uint8).tobytes())


def materialize_window(skeleton, n):
    """Build the D_n window; raises BudgetExceeded past the window cap."""
    vals = window_values(skeleton, n)
    return SymbolWindow(n, vals)

