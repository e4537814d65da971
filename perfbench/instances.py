"""The tower instances each workload runs, as CLI arguments.

The two presets are fixed inputs.  The benchmark writes the other two
configs itself: a Generic tower that is a seeded relabelling of the cyclic
line tower [3]^6, and a small IntegerLattice tower.  The seed drives only
the relabelling and the eval draws; nothing else about the instances
changes.
"""

import json
import os
import random

LINE_REFERENCE = {"kind": "IntegerLine", "indices": [3] * 6,
                  "style": "NonNegative", "tail": {"kind": "divergent"}}
LATTICE = {"kind": "IntegerLattice", "indices": [[3, 3, 3], [3, 3, 3]],
           "style": "NonNegative", "tail": {"kind": "divergent"}}


class Instance:
    """One tower config plus the depth it is built to.

    `args` are the CLI arguments that select it; `config` is the JSON the
    library loads (None for presets, which the library ships itself).
    `window` is the largest window level the kernels phase builds, `csv`
    the level of its csv round trip, and `pinned` the entry of expected.py
    its outputs must match; `labels`, for a relabelled copy, maps each
    element of the pinned instance to its label here.
    """

    def __init__(self, name, depth, window, csv, preset=None, config=None,
                 pinned=None, labels=None):
        self.name = name
        self.depth = depth
        self.window = window
        self.csv = csv
        self.preset = preset
        self.config = config
        self.pinned = pinned or name
        self.labels = labels
        self.path = None

    def write(self, workdir):
        if self.config is not None:
            self.path = os.path.join(workdir, f"{self.name}.json")
            with open(self.path, "w", encoding="utf-8") as fh:
                json.dump(self.config, fh)

    @property
    def args(self):
        if self.preset is not None:
            return ["--preset", self.preset, "--depth", str(self.depth)]
        return ["--config", self.path, "--depth", str(self.depth)]

    def to_json(self):
        return {"name": self.name, "depth": self.depth,
                "window": self.window, "csv": self.csv,
                "preset": self.preset, "path": self.path,
                "pinned": self.pinned}


def relabelling(size, rng):
    """A permutation of range(size) that fixes 0, the identity's label."""
    rest = list(range(1, size))
    rng.shuffle(rest)
    return [0] + rest


def relabelled_cyclic(moduli, seed):
    """Generic-table copy of the nonneg line tower on `moduli`.

    Level n is Z/N_n with every non-identity element given a seeded label.
    D_n lists the labels of 0..N_n-1 in increasing order, so enumeration
    order, and with it the whole construction, matches the line tower.
    """
    rng = random.Random(seed)
    sizes = [1]
    for q in moduli:
        sizes.append(sizes[-1] * q)
    perms = [[0]] + [relabelling(s, rng) for s in sizes[1:]]
    levels = []
    for n in range(1, len(sizes)):
        size, pi = sizes[n], perms[n]
        op = [[0] * size for _ in range(size)]
        for a in range(size):
            row = op[pi[a]]
            for b in range(size):
                row[pi[b]] = pi[(a + b) % size]
        lvl = {"size": size, "op": op}
        if n > 1:
            proj = [0] * size
            for x in range(size):
                proj[pi[x]] = perms[n - 1][x % sizes[n - 1]]
            lvl["proj"] = proj
        levels.append(lvl)
    top = perms[-1]
    domains = [[top[x] for x in range(s)] for s in sizes]
    return {"kind": "Generic", "style": "NonNegative",
            "tail": {"kind": "divergent"}, "levels": levels,
            "domains": domains}, top


def workload_instances(workload, seed):
    if workload == "small":
        # many small levels: threeadic is nonneg and cells-bound (z-identity);
        # the Generic copy of [3]^6 and the lattice run the pure-python paths
        cfg, labels = relabelled_cyclic([3] * 6, seed)
        return [Instance("threeadic", 10, 10, 10, preset="threeadic"),
                Instance("generic-3x6", 6, 6, 6, config=cfg,
                         pinned="line-3x6", labels=labels),
                Instance("lattice-3x3x3", 3, 3, 3, config=LATTICE)]
    if workload == "irregular":
        # D_5 has 948M cells, so D_4 (3.7M) is the largest window; its csv
        # round trip would take minutes, so csv uses D_3 (29k cells)
        return [Instance("irregular-demo", 5, 4, 3,
                         preset="irregular-demo")]
    raise KeyError(workload)


WORKLOADS = ("small", "irregular")
