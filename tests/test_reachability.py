"""Static guards on the package source.

No orphan API: every top-level function and class, and every method, of the
package is reached from `cli.main` or from module-level code (such as the
check registry), apart from the named exceptions below.

Reachability is by name: a definition is reached once a reached body uses
its name, as a bare name or as an attribute.  A reached class contributes
its bases, decorators and class-level statements, and its dunder methods
count as reached with it; any other method is reached only when a reached
body names it.  Imports do not count, so an export from `__init__` alone
does not keep a definition alive.

One array interface: no comparison of a tower's `kind` appears outside
tower.py; what depends on the kind (the shape of D_n, the essential facet's
candidate shifts) is a tower method.

One budget: no module reads the process environment, and only the functions
named in BUDGET_PARAMS take a `budget`; everything else that needs the caps
reads the skeleton's.  A size is compared against a cap (a Budget's `enum`
or `window`, or a module-level `_*_CAP` constant) only in budgets.py, by the
Budget check the working function calls, apart from the sites named in
CAP_SITES.  Only the functions named in CATCH_SITES catch BudgetExceeded, so
what a check skipped has one home and no computation retreats to a smaller
one when a cap refuses it.

One saturation test: whether reduce(g, l+1) lies in D_l is asked, as an
`in_domain_arr` call on a `reduce_arr` result, only at the sites named in
SATURATION_SITES.

One remainder kernel: no module calls numpy's remainder ufuncs (`mod`,
`remainder`, `fmod`, `divmod`); the line's array forms reduce by the one
floor-quotient kernel in `IntegerLineTower.reduce_arr`.

No scalar loops where arrays do: no module calls `randrange` (a sampled
draw reads the stream's words in bulk), and no loop iterates over a
`domain_arr(...)`, directly or through a name bound to one, to a piece that
`domain_chunks` yields or to what a function returns, or over a `range(...)`
bounded by a level size, outside the sites named in SCALAR_LOOP_SITES.
"""

import ast
import pathlib

import toeplitzlab

SRC = pathlib.Path(toeplitzlab.__file__).parent

ALLOWED = {
    "load_skeleton": "the reader for the build record `eta build --out` "
                     "writes",
    "from_bits": "the reader for `eta window --format bits` output; the "
                 "benchmark round-trips windows through it",
    "from_csv": "the reader for `eta window --format csv` output; the "
                "benchmark round-trips windows through it",
    "index_of": "the benchmark's eval reads a window at an element's D_n "
                "index through it",
}

TOWER_KINDS = {"IntegerLine", "IntegerLattice", "Generic"}

SATURATION_SITES = {
    ("skeleton", "j_mask"): "the saturation test that J-sets, good sets, "
                            "good-relation and each plant step read",
    ("window", "level_scan"): "eval over an array: level l settles the "
                              "undecided elements it saturates",
}

CAP_SITES = {
    ("tower", "validate_tower"): "decom's level selection: it checks the "
                                 "levels within the enumeration cap and "
                                 "names that cap in its scope",
}

CAPS = {"enum", "window"}

CATCH_SITES = {
    ("verify", "_per_unit"): "the one per-unit loop: a refused unit is "
                             "skipped and named in the scope",
    ("verify", "run_check"): "the dispatcher: a check a cap stops is "
                             "Inconclusive",
    ("verify", "check_measure_one_trend"): "the cross-check probe is the "
                                           "first boundary pair the caps "
                                           "allow",
    ("density", "density_methods"): "the enumeration route is listed only "
                                    "when the caps allow it",
    ("cli", "_cmd_analyze_measures"): "the optional mu_m(Z_1) line says "
                                      "it is over budget",
    ("cli", "main"): "a command a cap stops exits 2 with the cap's message",
}

SCALAR_LOOP_SITES = {
    ("factor", "fiber_profile"): "names each coset in the profile it "
                                 "returns",
    ("periods", "invariant_shift"): "essential's candidate shifts: each is "
                                    "one whole-mask comparison, and the "
                                    "first that fixes both masks ends the "
                                    "scan",
    ("tower", "domain_chunks"): "each chunk is one array pass",
}

# (owner, function): the skeleton's builders, which store the budget, and
# the functions that see a tower and no skeleton
BUDGET_PARAMS = [
    ("skeleton", "build_skeleton"),
    ("skeleton", "j_set"),
    ("skeleton", "j_set_recursive"),
    ("skeleton.ToeplitzSkeleton", "__init__"),
    ("tower", "validate_tower"),
    ("tower.GenericTower", "section_arr"),
    ("tower.IntegerLatticeTower", "section_arr"),
    ("tower.IntegerLineTower", "section_arr"),
]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(src):
    """(name -> [(owner, node)] of top-level defs and methods, root
    statements); the owner is the module, or module.Class for a method."""
    defs, roots = {}, []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
                if isinstance(node, ast.ClassDef):
                    for sub in _methods(node):
                        defs.setdefault(sub.name, []).append(
                            (f"{path.stem}.{node.name}", sub))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append(node)
    return defs, roots


def _methods(cls):
    return [sub for sub in cls.body if isinstance(sub, ast.FunctionDef)]


def _names(node):
    """Names a reached definition uses; a class gives everything but its
    non-dunder methods."""
    if isinstance(node, ast.ClassDef):
        parts = [*node.bases, *node.keywords, *node.decorator_list,
                 *(sub for sub in node.body
                   if not isinstance(sub, ast.FunctionDef)
                   or _is_dunder(sub.name))]
        return set().union(*map(_names, parts)) if parts else set()
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def unreachable(src):
    defs, roots = _definitions(src)
    todo = roots + [node for mod, node in defs["main"] if mod == "cli"]
    seen = {"main"} | {name for name in defs if _is_dunder(name)}
    while todo:
        for name in _names(todo.pop()) & set(defs) - seen:
            seen.add(name)
            todo.extend(node for _, node in defs[name])
    return sorted(f"{owner}.{name}" for name, nodes in defs.items()
                  for owner, _ in nodes if name not in seen | set(ALLOWED))


def test_every_definition_is_reachable():
    assert unreachable(SRC) == []
    defs, _ = _definitions(SRC)
    assert set(ALLOWED) <= set(defs)


def _is_kind_comparison(node):
    """A comparison of some `.kind` against a tower kind constant or name."""
    parts = [part for side in (node.left, *node.comparators)
             for part in ast.walk(side)]
    names_kind = any(isinstance(p, ast.Attribute) and p.attr == "kind"
                     for p in parts)
    names_tower_kind = any(
        (isinstance(p, ast.Name) and p.id.startswith("KIND_"))
        or (isinstance(p, ast.Constant) and p.value in TOWER_KINDS)
        for p in parts)
    return names_kind and names_tower_kind


def kind_sites(src):
    """(module, top-level definition) of every tower-kind comparison outside
    tower.py, once per comparison."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "tower":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            out += [(path.stem, getattr(top, "name", None))
                    for node in ast.walk(top)
                    if isinstance(node, ast.Compare)
                    and _is_kind_comparison(node)]
    return sorted(out)


def test_no_kind_branches_outside_the_tower():
    assert kind_sites(SRC) == []


def _calls(node, attr):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr)


def saturation_sites(src):
    """(module, top-level definition) of every `in_domain_arr` call on a
    `reduce_arr` result, passed directly or through a name that a
    `reduce_arr` call binds or fills (`out=`), once per call."""
    out = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            reduced = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Assign) and _calls(node.value,
                                                           "reduce_arr"):
                    reduced |= {t.id for t in node.targets
                                if isinstance(t, ast.Name)}
                if _calls(node, "reduce_arr"):
                    reduced |= {k.value.id for k in node.keywords
                                if k.arg == "out"
                                and isinstance(k.value, ast.Name)}
            out += [(path.stem, getattr(top, "name", None))
                    for node in ast.walk(top)
                    if _calls(node, "in_domain_arr") and node.args
                    and (_calls(node.args[0], "reduce_arr")
                         or getattr(node.args[0], "id", None) in reduced)]
    return sorted(out)


def test_the_saturation_test_is_spelled_only_at_the_named_sites(tmp_path):
    assert saturation_sites(SRC) == sorted(SATURATION_SITES)
    # good_set's own loop, and a reduction bound to a name first
    (tmp_path / "verify.py").write_text(
        "def good_set(skeleton, n, m):\n"
        "    for l in range(n + 1, m):\n"
        "        mask &= ~T.in_domain_arr(T.reduce_arr(g, l + 1), l)\n"
        "def check_good_relation(skeleton):\n"
        "    r = T.reduce_arr(w, l + 1)\n"
        "    bad |= T.in_domain_arr(r, l)\n")
    assert saturation_sites(tmp_path) == [("verify", "check_good_relation"),
                                          ("verify", "good_set")]


def test_no_module_reads_the_environment():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "os"
                  for alias in node.names}
        assert not names & {"environ", "getenv"}, path.name


def test_budget_is_a_parameter_only_where_named():
    defs, _ = _definitions(SRC)
    takers = sorted((owner, name) for name, nodes in defs.items()
                    for owner, node in nodes
                    if isinstance(node, ast.FunctionDef)
                    and "budget" in [a.arg for a in node.args.args])
    assert takers == BUDGET_PARAMS


def _reads_cap(node, aliases):
    return any((isinstance(p, ast.Attribute) and p.attr in CAPS)
               or (isinstance(p, ast.Name) and p.id in aliases)
               for p in ast.walk(node))


def _cap_constants(tree):
    """Module-level names `_*_CAP` bound by an assignment."""
    return {t.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)
            and t.id.startswith("_") and t.id.endswith("_CAP")}


def cap_sites(src):
    """(module, top-level definition) of every comparison against a
    Budget's `enum` or `window`, read directly or through a local name
    bound to one, or against a module-level `_*_CAP` constant, outside
    budgets.py, once per comparison."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "budgets":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        consts = _cap_constants(tree)
        for top in tree.body:
            aliases = consts | {
                t.id for node in ast.walk(top)
                if isinstance(node, ast.Assign)
                and _reads_cap(node.value, consts)
                for t in node.targets if isinstance(t, ast.Name)}
            out += [(path.stem, getattr(top, "name", None))
                    for node in ast.walk(top)
                    if isinstance(node, ast.Compare)
                    and _reads_cap(node, aliases)]
    return sorted(out)


def test_caps_are_compared_only_in_budgets():
    assert cap_sites(SRC) == sorted(CAP_SITES)


def budget_catch_sites(src):
    """(module, top-level definition) of every except clause that names
    BudgetExceeded, once per clause."""
    return sorted((path.stem, top.name)
                  for path in sorted(src.glob("*.py"))
                  for top in ast.parse(path.read_text(encoding="utf-8")).body
                  for node in ast.walk(top)
                  if isinstance(node, ast.ExceptHandler) and node.type
                  and "BudgetExceeded" in _names(node.type))


def test_only_the_named_sites_catch_budget_exceeded():
    assert budget_catch_sites(SRC) == sorted(CATCH_SITES)


def test_the_catch_guard_flags_a_fallback_window(tmp_path):
    # per-eq's old retreat to the D_n window when D_{n+1} was refused
    (tmp_path / "periods.py").write_text(
        "def per_eq_check(skeleton, n):\n"
        "    try:\n"
        "        vals = window_values(skeleton, n + 1)\n"
        "    except BudgetExceeded:\n"
        "        vals = window_values(skeleton, n)\n")
    assert budget_catch_sites(tmp_path) == [("periods", "per_eq_check")]


def _is_domain_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "domain_arr")


def _called(node):
    """The name a call's function goes by, bare or as an attribute."""
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def _is_size(node, sizes):
    """node is a level size: a `size(...)` call, a name in `sizes` (bound
    to one), or arithmetic on one."""
    if isinstance(node, ast.BinOp):
        return _is_size(node.left, sizes) or _is_size(node.right, sizes)
    if isinstance(node, ast.Name):
        return node.id in sizes
    return isinstance(node, ast.Call) and _called(node) == "size"


def _iterates_domain(node, aliases, sizes=frozenset()):
    """node, once unwrapped from zip/enumerate, `.elements(...)`,
    `.tolist()` and subscripts, is a domain_arr call, a name bound to one,
    or a `range(...)` bounded by a level size."""
    if isinstance(node, ast.Subscript):
        return _iterates_domain(node.value, aliases, sizes)
    if isinstance(node, ast.Name):
        return node.id in aliases
    if not isinstance(node, ast.Call):
        return False
    if _is_domain_call(node):
        return True
    if _called(node) == "range":
        return any(_is_size(a, sizes) for a in node.args)
    if _called(node) in ("zip", "enumerate", "elements"):
        return any(_iterates_domain(a, aliases, sizes) for a in node.args)
    return (isinstance(node.func, ast.Attribute) and node.func.attr == "tolist"
            and _iterates_domain(node.func.value, aliases, sizes))


def _bound_names(top, returners):
    """(domains, sizes): the names top binds to a domain_arr call, to the
    domain (alone or first of a tuple) that a function or method in
    `returners` returns, or to the elements of a piece of D_n in a loop
    `for start, g in domain_chunks(...)`, and the names it binds to a level
    size."""
    domains, sizes = set(), set()
    for node in ast.walk(top):
        if (isinstance(node, (ast.For, ast.comprehension))
                and isinstance(node.iter, ast.Call)
                and _called(node.iter) == "domain_chunks"
                and isinstance(node.target, ast.Tuple)
                and isinstance(node.target.elts[-1], ast.Name)):
            domains.add(node.target.elts[-1].id)
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        for t in node.targets:
            if isinstance(t, ast.Name) and _is_domain_call(value):
                domains.add(t.id)
            elif isinstance(t, ast.Name) and _is_size(value, set()):
                sizes.add(t.id)
            elif isinstance(value, ast.Call) and _called(value) in returners:
                first = t.elts[0] if isinstance(t, ast.Tuple) else t
                if isinstance(first, ast.Name):
                    domains.add(first.id)
    return domains, sizes


def _domain_returners(bodies):
    """Names of the functions and methods, in any of the modules, that
    return a domain (as _iterates_domain reads one), alone or first of a
    tuple."""
    out = set()
    for body in bodies:
        for fn in (node for top in body for node in ast.walk(top)
                   if isinstance(node, ast.FunctionDef)):
            aliases = _bound_names(fn, set())[0]
            for node in ast.walk(fn):
                if isinstance(node, ast.Return) and node.value is not None:
                    value = node.value
                    first = (value.elts[0] if isinstance(value, ast.Tuple)
                             else value)
                    if _iterates_domain(first, aliases):
                        out.add(fn.name)
    return out


def scalar_loop_sites(src):
    """(module, top-level definition) of every loop or comprehension over a
    domain or a level-size range, once per loop."""
    out = []
    paths = sorted(src.glob("*.py"))
    bodies = [ast.parse(path.read_text(encoding="utf-8")).body
              for path in paths]
    returners = _domain_returners(bodies)
    for path, body in zip(paths, bodies):
        for top in body:
            aliases, sizes = _bound_names(top, returners)
            out += [(path.stem, getattr(top, "name", None))
                    for node in ast.walk(top)
                    if isinstance(node, (ast.For, ast.comprehension))
                    and _iterates_domain(node.iter, aliases, sizes)]
    return sorted(out)


def randrange_calls(src):
    return sorted(path.stem for path in src.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text("utf-8")))
                  if isinstance(node, ast.Call) and "randrange" in {
                      getattr(node.func, "id", None),
                      getattr(node.func, "attr", None)})


def test_no_scalar_draws_or_domain_loops():
    assert randrange_calls(SRC) == []
    assert scalar_loop_sites(SRC) == sorted(SCALAR_LOOP_SITES)


def test_the_scalar_guards_catch_the_loops_they_name(tmp_path):
    # the per-w good-ds loop and the one-pair-at-a-time chain draw
    (tmp_path / "verify.py").write_text(
        "def check_good_ds(skeleton):\n"
        "    for w in T.domain_arr(nk - 1):\n"
        "        pass\n"
        "    dom = T.domain_arr(nk)\n"
        "    return [g for g, v in zip(T.elements(dom), vals)]\n")
    (tmp_path / "cells.py").write_text(
        "def _chain_atoms(rng, size):\n"
        "    return rng.randrange(size)\n")
    # a domain that a tower method returns is still a domain
    (tmp_path / "tower.py").write_text(
        "class _ArrayForms:\n"
        "    def shift_candidates(self, n):\n"
        "        cands = self.domain_arr(n)\n"
        "        return cands[1:], 'label'\n")
    (tmp_path / "periods.py").write_text(
        "def invariant_shift(T, n):\n"
        "    cands, label = T.shift_candidates(n)\n"
        "    for v in cands:\n"
        "        pass\n")
    assert scalar_loop_sites(tmp_path) == [
        ("periods", "invariant_shift"), *[("verify", "check_good_ds")] * 2]
    assert randrange_calls(tmp_path) == ["cells"]


def test_the_scalar_guard_sees_a_loop_over_a_chunk(tmp_path):
    # the chunk loop itself is one array pass per piece; a loop over the
    # elements of a piece is a scalar loop over the domain
    (tmp_path / "window.py").write_text(
        "def _window(skeleton, n, values):\n"
        "    for start, g in domain_chunks(T, n):\n"
        "        out[start:start + len(g)] = level_scan(skeleton, g, values)\n"
        "def slow_window(skeleton, n):\n"
        "    for _, g in domain_chunks(T, n):\n"
        "        for x in g:\n"
        "            skeleton.eval(x)\n"
        "    return [v for _, h in domain_chunks(T, n) for v in h.tolist()]\n")
    assert scalar_loop_sites(tmp_path) == [("window", "slow_window")] * 2


def test_the_guards_flag_the_old_line_branch_of_the_candidate_shifts(
        tmp_path):
    # per-eq's divisor shifts as a kind branch outside the tower, with a
    # loop over every integer below |D_n|, and its caller's loop through
    # the module helper
    (tmp_path / "periods.py").write_text(
        "def _shift_candidates(tower, n):\n"
        "    T = tower\n"
        "    size = T.size(n)\n"
        "    if T.kind == KIND_LINE:\n"
        "        cands = [d for d in range(1, size) if size % d == 0]\n"
        "        return cands, f'{len(cands)} divisor shifts of {size}'\n"
        "    cands = T.domain_arr(n)\n"
        "    cands = cands[~T.eq_arr(cands, T.zero)]\n"
        "    return cands, f'{len(cands)} nonzero translates'\n"
        "def invariant_shift(tower, n, mask0, mask1):\n"
        "    cands, label = _shift_candidates(tower, n)\n"
        "    for v in cands:\n"
        "        pass\n"
        "def count(T, n):\n"
        "    return sum(1 for g in range(T.size(n) - 1))\n")
    assert kind_sites(tmp_path) == [("periods", "_shift_candidates")]
    assert scalar_loop_sites(tmp_path) == [("periods", "_shift_candidates"),
                                           ("periods", "count"),
                                           ("periods", "invariant_shift")]


REMAINDERS = {"mod", "remainder", "fmod", "divmod"}


def remainder_calls(src):
    """(module, top-level definition) of every call of a numpy remainder
    ufunc, `np.mod(...)` and the like, once per call."""
    return sorted((path.stem, getattr(top, "name", None))
                  for path in sorted(src.glob("*.py"))
                  for top in ast.parse(path.read_text(encoding="utf-8")).body
                  for node in ast.walk(top)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in REMAINDERS
                  and getattr(node.func.value, "id", None) in ("np", "numpy"))


def test_no_remainder_path_beside_the_quotient_kernel(tmp_path):
    assert remainder_calls(SRC) == []
    # the line's reduce_arr before the floor-quotient kernel
    (tmp_path / "tower.py").write_text(
        "class IntegerLineTower:\n"
        "    def reduce_arr(self, g, n, out=None):\n"
        "        m = self.N[n]\n"
        "        if self.style == STYLE_NONNEG:\n"
        "            return np.mod(g, m, out=out)\n"
        "        out = np.add(g, self.half[n], out=out)\n"
        "        np.mod(out, m, out=out)\n"
        "        return np.subtract(out, self.half[n], out=out)\n")
    assert remainder_calls(tmp_path) == [("tower", "IntegerLineTower")] * 2
