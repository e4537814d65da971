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
named in BUDGET_PARAMS take a `budget` (no tower op does); everything else
that needs the caps reads the skeleton's, and no module but cli.py builds a
`Budget` outside a parameter default.  A size is compared against a cap (a
Budget's `enum` or `window`, or a module-level `_*_CAP` constant) only in
budgets.py, by the Budget check the working function calls, apart from the
sites named in CAP_SITES.  Only the functions named in CATCH_SITES catch
BudgetExceeded, so what a check skipped has one home and no computation
retreats to a smaller one when a cap refuses it.

One saturation test: whether reduce(g, l+1) lies in D_l is asked, as an
`in_domain_arr` call on a `reduce_arr` result, only at the sites named in
SATURATION_SITES.

One memo: what is derived from a skeleton is kept only through
`ToeplitzSkeleton.cached`.  No module but skeleton.py names a private
attribute with "cache" in it, and none stores a private attribute on an
object other than `self`, so no second memo hangs off the skeleton.

One statement of each tower rule: a tower class overrides a definition of
`_ArrayForms` (such as the shared coset_index_arr, shift_arr and
section_arr) only where OVERRIDES names the override and its reason.  A
line's style is only its offset lo(n): no IntegerLineTower method but
`__init__`, `config` and `level_of` reads it.

One translate form: outside tower.py no `add_arr` call takes an
`np.expand_dims(...)` or a `None`-subscripted argument, directly or
through a name bound to one; an outer sum of elements is
`translate_arr`'s, section on the left.

One remainder kernel: no module calls numpy's remainder ufuncs (`mod`,
`remainder`, `fmod`, `divmod`); the line's array forms reduce by the one
floor-quotient kernel in `IntegerLineTower.reduce_arr`.

One undecided-cell code: outside window.py no comparison has the constant
255 as an operand; a cell past the built depth is `window.UNDEFINED`.

One door into the commands: only `cli.main` calls `_skeleton`, and every
command handler `_cmd_*` takes the skeleton it built as (sk, args).

Exact numbers print one way: only result.py writes a number as
`{x} ~ {float(x)...}`; every other module prints through its `exact_str`.

No dead errors: every exception class errors.py defines is raised by some
`raise` statement of the package; a class that is only caught or exported
names an outcome that cannot happen.

A command loads only the modules it runs: cli.py imports at module level
only budgets, errors, presets, result, skeleton and tower (the modules every
command's skeleton build needs), and `__init__` imports no submodule; its
public names resolve on first use.

No random numbers and no scalar loops where arrays do: no module imports
the stdlib `random`, calls `randrange` or reaches `numpy.random` (every
check covers its scope exhaustively), and no loop iterates over a
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
    ("skeleton", "level_scan"): "the levels below a bound over an array: "
                                "eval's table over D_L, and eval_arr's "
                                "residual scan for a piece no allowed "
                                "window holds; level l settles the "
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

OVERRIDES = {
    ("IntegerLineTower", "coset_index"): "one remainder: 4,239 -> 116 ns "
        "per call on threeadic and 4,280 -> 122 ns on irregular-demo, "
        "against the shared form's reduce and numpy index_of",
    ("IntegerLineTower", "coset_index_arr"): "one kernel pass: 135 us "
        "against the shared form's 487 us on a 65,536-element int64 chunk",
    ("IntegerLineTower", "extend_arr"): "a tile: D_(l+1)'s k-th element "
        "lies in the coset of D_l's (k mod N_l)-th",
    ("IntegerLineTower", "level_of"): "one local loop over N (or half), no "
        "guarded call per level: 2,410 -> 1,140 ns per call on threeadic "
        "and 3,887 -> 1,922 ns on irregular-demo, against the shared form; "
        "one loop per style, as a single loop over lo(n) cost 855 against "
        "559 ns per call on threeadic",
    ("IntegerLineTower", "section_arr"): "|D_j|/|D_i| steps of an arange, "
        "not a pass over all of D_j",
    ("IntegerLineTower", "shift_arr"): "a roll: D_n is an interval of "
        "Z/N_n",
    ("IntegerLineTower", "shift_candidates"): "the divisors of |D_n| "
        "generate every subgroup of Z/|D_n|",
    ("IntegerLatticeTower", "array"): "an element is a row of coordinates",
    ("IntegerLatticeTower", "coerce"): "an element is a list of integers",
    ("IntegerLatticeTower", "coset_index"): "the line's remainder per "
        "axis, in row-major order: 11,339 -> 451 ns per call on [[3]*3]*2 "
        "against the shared form",
    ("IntegerLatticeTower", "element"): "an element is a tuple",
    ("IntegerLatticeTower", "elements"): "an element is a tuple",
    ("IntegerLatticeTower", "eq_arr"): "rows are equal in every coordinate",
    ("IntegerLatticeTower", "extend_arr"): "a tile per axis: the shared "
        "gathers slowed the D_3 window of [[3]*3]*2 from 0.33-0.36 to "
        "0.56 ms",
    ("IntegerLatticeTower", "format_element"): "comma-separated "
        "coordinates",
    ("IntegerLatticeTower", "level_of"): "a per-axis test that stops at the "
        "first axis outside D_i: 8,255 -> 3,147 ns per call on [[3]*3]*2 "
        "against the shared form",
    ("IntegerLatticeTower", "parse_element"): "comma-separated "
        "coordinates",
    ("IntegerLatticeTower", "shape"): "one size per axis",
    ("IntegerLatticeTower", "shift_arr"): "a roll per axis, for the same "
        "window as extend_arr",
    ("GenericTower", "add_arr"): "the group law is the op table",
    ("GenericTower", "sub_arr"): "the op table with the inverse column",
    ("GenericTower", "coerce"): "a label lies in 0..|G|-1",
    ("GenericTower", "coset_index"): "reads the coset tables' lists "
        "through reduce: 5,586 -> 228 ns per call on the Generic copy of "
        "[3]^6 against the shared form",
    ("GenericTower", "level_of"): "walks the coset tables' lists: 2,038 -> "
        "1,139 ns per call on the Generic copy of [3]^6 against the shared "
        "form",
    ("GenericTower", "parse_element"): "through coerce's range check",
    ("GenericTower", "section_arr"): "read from the coset table: the "
        "skeleton reads sections of a broken tower before decom fails it, "
        "where reduce_arr raises NotInDomain",
}

# (owner, function): the skeleton's builders, which store the budget, and
# the functions that see a tower and no skeleton and walk a whole domain;
# no tower op takes one
BUDGET_PARAMS = [
    ("skeleton", "build_skeleton"),
    ("skeleton", "j_set"),
    ("skeleton", "j_set_recursive"),
    ("skeleton.ToeplitzSkeleton", "__init__"),
    ("tower", "validate_tower"),
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


def budget_builds(src):
    """The modules other than cli.py that call Budget(...) outside a
    parameter default."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defaults = {id(d) for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    for d in node.args.defaults}
        if path.stem != "cli" and any(
                isinstance(node, ast.Call) and "Budget" in _names(node.func)
                and id(node) not in defaults for node in ast.walk(tree)):
            out.append(path.stem)
    return out


def test_only_the_cli_builds_a_budget(tmp_path):
    assert budget_builds(SRC) == []
    (tmp_path / "verify.py").write_text(
        "def good_set(skeleton, n, m, budget=Budget()):\n"
        "    return T.section_arr(n + 1, m, Budget(enum=T.size(m)))\n")
    (tmp_path / "skeleton.py").write_text(
        "def j_set(tower, n, budget=Budget()):\n    pass\n")
    assert budget_builds(tmp_path) == ["verify"]


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


def random_imports(src):
    return sorted(path.stem for path in src.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text("utf-8")))
                  if isinstance(node, ast.Import)
                  and any(a.name.split(".")[0] == "random" for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "random")


def numpy_random_uses(src):
    return sorted(path.stem for path in src.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text("utf-8")))
                  if isinstance(node, ast.Attribute) and node.attr == "random"
                  and getattr(node.value, "id", None) in ("np", "numpy")
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.startswith("numpy.random"))


def test_no_scalar_draws_or_domain_loops():
    assert random_imports(SRC) == []
    assert numpy_random_uses(SRC) == []
    assert randrange_calls(SRC) == []
    assert scalar_loop_sites(SRC) == sorted(SCALAR_LOOP_SITES)


def test_the_scalar_guards_catch_the_loops_they_name(tmp_path):
    # the per-w good-ds loop, the one-pair-at-a-time chain draw and the
    # sampled chain atoms
    (tmp_path / "verify.py").write_text(
        "def check_good_ds(skeleton):\n"
        "    for w in T.domain_arr(nk - 1):\n"
        "        pass\n"
        "    dom = T.domain_arr(nk)\n"
        "    return [g for g, v in zip(T.elements(dom), vals)]\n")
    (tmp_path / "cells.py").write_text(
        "import random\n"
        "def _chain_atoms(rng, size):\n"
        "    return rng.randrange(size)\n"
        "def _draw_atoms(seed, size, count):\n"
        "    return np.random.RandomState(seed).randint(size, size=count)\n")
    (tmp_path / "measures.py").write_text(
        "from random import Random\n"
        "from .window import window_values\n")
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
    assert random_imports(tmp_path) == ["cells", "measures"]
    assert numpy_random_uses(tmp_path) == ["cells"]


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


def array_form_overrides(src):
    """(class, method) of every method of a tower class in tower.py that
    overrides a definition of `_ArrayForms`."""
    tree = ast.parse((src / "tower.py").read_text(encoding="utf-8"))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    shared = {sub.name for cls in classes if cls.name == "_ArrayForms"
              for sub in _methods(cls)}
    return sorted((cls.name, sub.name) for cls in classes
                  if "_ArrayForms" in _names(cls) for sub in _methods(cls)
                  if sub.name in shared)


def test_each_override_of_a_shared_form_is_named(tmp_path):
    assert array_form_overrides(SRC) == sorted(OVERRIDES)
    # Generic's copies of the shared forms before they moved up
    (tmp_path / "tower.py").write_text(
        "class _ArrayForms:\n"
        "    def coset_index_arr(self, g, n):\n"
        "        return self.index_of_arr(self.reduce_arr(g, n), n)\n"
        "class GenericTower(_ArrayForms):\n"
        "    def coset_index_arr(self, g, n):\n"
        "        return self.index_of_arr(self.reduce_arr(g, n), n)\n"
        "    def add_arr(self, a, b):\n"
        "        return self._op_arr[a, b]\n")
    assert array_form_overrides(tmp_path) == [("GenericTower",
                                               "coset_index_arr")]


def line_style_readers(src):
    """Methods of IntegerLineTower that read `self.style`."""
    tree = ast.parse((src / "tower.py").read_text(encoding="utf-8"))
    line = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "IntegerLineTower")
    return sorted(sub.name for sub in _methods(line)
                  for node in ast.walk(sub)
                  if isinstance(node, ast.Attribute) and node.attr == "style"
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self")


def test_the_line_style_is_only_its_offset():
    # every op reads lo(n); level_of keeps a loop per style, for the cost
    # OVERRIDES gives
    assert line_style_readers(SRC) == ["__init__", "config", "level_of"]


def _broadcast_operand(node):
    """An `expand_dims(...)` call, or a subscript with a `None` index."""
    if _calls(node, "expand_dims"):
        return True
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice
    parts = index.elts if isinstance(index, ast.Tuple) else [index]
    return any(isinstance(p, ast.Constant) and p.value is None for p in parts)


def outer_sum_sites(src):
    """(module, top-level definition) of every `add_arr` call outside
    tower.py with a broadcast operand, passed directly or through a name
    bound to one, once per call."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "tower":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            bound = {t.id for node in ast.walk(top)
                     if isinstance(node, ast.Assign)
                     and _broadcast_operand(node.value)
                     for t in node.targets if isinstance(t, ast.Name)}
            out += [(path.stem, getattr(top, "name", None))
                    for node in ast.walk(top)
                    if _calls(node, "add_arr")
                    and any(_broadcast_operand(arg)
                            or getattr(arg, "id", None) in bound
                            for arg in node.args)]
    return sorted(out)


def test_every_outer_sum_is_a_translate(tmp_path):
    assert outer_sum_sites(SRC) == []
    # _patch_offsets and _patch_values before they went through the
    # shared form, a tiling spelled by hand, good-ds's difference (not a
    # translate) and the shared form itself
    (tmp_path / "verify.py").write_text(
        "def _patch_offsets(skeleton, n):\n"
        "    gam = np.expand_dims(T.section_arr(n, n + 1), 1)\n"
        "    u = np.expand_dims(skeleton.jset(n), 0)\n"
        "    off = T.add_arr(gam, u)\n"
        "def _patch_values(skeleton, n, m, S):\n"
        "    got = vals[T.index_of_arr(\n"
        "        T.add_arr(np.expand_dims(off, 1), np.expand_dims(S, 0)), m)]\n"
        "def _tiles(tower, sec, dom):\n"
        "    return tower.add_arr(sec[:, None], dom[None]).ravel()\n"
        "def good_ds_witnesses(T, e, ws):\n"
        "    return T.sub_arr(np.expand_dims(e, 0), np.expand_dims(ws, 1))\n")
    (tmp_path / "tower.py").write_text(
        "class _ArrayForms:\n"
        "    def translate_arr(self, sec, cells):\n"
        "        return self.add_arr(np.expand_dims(sec, 1),\n"
        "                            np.expand_dims(cells, 0))\n")
    assert outer_sum_sites(tmp_path) == [("verify", "_patch_offsets"),
                                         ("verify", "_patch_values"),
                                         ("verify", "_tiles")]


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


def undefined_literals(src):
    """(module, top-level definition) of every comparison outside window.py
    with the constant 255 as an operand, once per comparison."""
    return sorted((path.stem, getattr(top, "name", None))
                  for path in sorted(src.glob("*.py")) if path.stem != "window"
                  for top in ast.parse(path.read_text(encoding="utf-8")).body
                  for node in ast.walk(top)
                  if isinstance(node, ast.Compare)
                  and any(isinstance(side, ast.Constant) and side.value == 255
                          for side in (node.left, *node.comparators)))


def test_the_undecided_cell_code_is_named_once(tmp_path):
    assert undefined_literals(SRC) == []
    # the window command's row and translate_ones' test before they read
    # window.UNDEFINED; the preset's index 255 is no comparison
    (tmp_path / "cli.py").write_text(
        "def _cmd_eta_window(args):\n"
        "    print(''.join('?' if v == 255 else str(int(v)) for v in vals))\n")
    (tmp_path / "cells.py").write_text(
        "def translate_ones(skeleton, m, l):\n"
        "    if (vals == 255).any():\n"
        "        raise DepthExceeded('undecided')\n")
    (tmp_path / "presets.py").write_text(
        "INDICES = [15, 31, 63, 127, 255]\n")
    assert undefined_literals(tmp_path) == [("cells", "translate_ones"),
                                            ("cli", "_cmd_eta_window")]


def memo_sites(src):
    """(module, top-level definition) of every private "cache" attribute
    named, and every private attribute stored on an object other than
    `self`, outside skeleton.py."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "skeleton":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            out += [(path.stem, getattr(top, "name", None))
                    for node in ast.walk(top)
                    if isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and ("cache" in node.attr
                         or (isinstance(node.ctx, ast.Store)
                             and getattr(node.value, "id", None) != "self"))]
    return sorted(out)


def test_only_the_skeleton_keeps_a_memo(tmp_path):
    assert memo_sites(SRC) == []
    # the window and decom memos before they moved into `cached`
    (tmp_path / "window.py").write_text(
        "def _window(skeleton, n, values):\n"
        "    cache = skeleton._wincache\n"
        "    if key not in cache:\n"
        "        cache[key] = _build(skeleton, n, values)\n")
    (tmp_path / "verify.py").write_text(
        "def check_decom(skeleton):\n"
        "    if skeleton._decom is None:\n"
        "        skeleton._decom = validate_tower(skeleton.tower)\n"
        "    return skeleton._decom\n")
    assert memo_sites(tmp_path) == [("verify", "check_decom"),
                                    ("window", "_window")]


def unraised_errors(src):
    """The exception classes errors.py defines that no `raise` statement of
    the package names, bare or called."""
    tree = ast.parse((src / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                raised |= _names(exc.func if isinstance(exc, ast.Call)
                                 else exc)
    return sorted(defined - raised)


def test_every_error_class_is_raised(tmp_path):
    assert unraised_errors(SRC) == []
    # an error class whose last raise went, caught but never raised
    (tmp_path / "errors.py").write_text(
        "class NotInDomain(ValueError):\n"
        "    pass\n"
        "class NonAbelianUnsupported(TypeError):\n"
        "    pass\n")
    (tmp_path / "periods.py").write_text(
        "def per_set(skeleton, n, symbol):\n"
        "    raise errors.NotInDomain(f'symbol {symbol!r}')\n")
    (tmp_path / "verify.py").write_text(
        "def run_check(skeleton, name):\n"
        "    try:\n"
        "        res = fn(skeleton)\n"
        "    except NonAbelianUnsupported as exc:\n"
        "        raise\n")
    assert unraised_errors(tmp_path) == ["NonAbelianUnsupported"]


def exact_formats(src):
    """(module, top-level definition) of every f-string that writes a
    number as `{x} ~ {float(x)...}`, outside result.py."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "result":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            out += [(path.stem, getattr(top, "name", None))
                    for node in ast.walk(top)
                    if isinstance(node, ast.JoinedStr)
                    for text, value in zip(node.values, node.values[1:])
                    if isinstance(text, ast.Constant)
                    and text.value.endswith(" ~ ")
                    and isinstance(value, ast.FormattedValue)
                    and isinstance(value.value, ast.Call)
                    and getattr(value.value.func, "id", None) == "float"]
    return sorted(out)


def test_exact_numbers_are_formatted_only_in_result(tmp_path):
    assert exact_formats(SRC) == []
    # the CLI's own formatter and the density report's lines before they
    # moved to result.exact_str; result.py itself may spell the form
    (tmp_path / "cli.py").write_text(
        "def _fmt_q(x):\n"
        "    return f'{x} ~ {float(x):.9f}'\n")
    (tmp_path / "density.py").write_text(
        "class DensityReport:\n"
        "    def render(self):\n"
        "        lines.append(f'  d_{n} = {d} ~ {float(d):.9f}')\n")
    (tmp_path / "result.py").write_text(
        "def exact_str(value):\n"
        "    return f'{value} ~ {float(value):.9f}'\n")
    assert exact_formats(tmp_path) == [("cli", "_fmt_q"),
                                       ("density", "DensityReport")]


def skeleton_doors(src):
    """The cli.py functions that call `_skeleton`, and the `_cmd_*`
    handlers whose parameters are not (sk, args)."""
    tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    tops = [top for top in tree.body if isinstance(top, ast.FunctionDef)]
    builders = sorted(top.name for top in tops
                      if any(isinstance(node, ast.Call)
                             and "_skeleton" in _names(node.func)
                             for node in ast.walk(top)))
    odd = sorted(top.name for top in tops if top.name.startswith("_cmd_")
                 and [a.arg for a in top.args.args] != ["sk", "args"])
    return builders, odd


def test_main_builds_the_one_skeleton(tmp_path):
    assert skeleton_doors(SRC) == (["main"], [])
    # each handler built its own skeleton, and main passed it the args alone
    (tmp_path / "cli.py").write_text(
        "def _cmd_tower_validate(args):\n"
        "    sk = _skeleton(args)\n"
        "    return _emit_result(run_check(sk, 'decom'), args.as_json)\n"
        "def _cmd_verify(sk, args):\n"
        "    return _emit_result(run_all(sk), args.as_json)\n"
        "def main(argv=None):\n"
        "    return args.fn(args)\n")
    assert skeleton_doors(tmp_path) == (["_cmd_tower_validate"],
                                        ["_cmd_tower_validate"])


CLI_EAGER = {"budgets", "errors", "presets", "result", "skeleton", "tower"}


def eager_imports(src):
    """(module, package module it imports at module level) of cli.py and
    `__init__.py`; a relative `from . import x` names x."""
    out = []
    for stem in ("__init__", "cli"):
        tree = ast.parse((src / f"{stem}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                out += ([(stem, node.module)] if node.module
                        else [(stem, alias.name) for alias in node.names])
    return sorted(out)


def test_a_command_loads_only_the_modules_it_runs(tmp_path):
    # the verifier's modules load in the handlers that run them, and the
    # package resolves its public names on first use
    eager = eager_imports(SRC)
    assert {mod for stem, mod in eager if stem == "cli"} <= CLI_EAGER
    assert [mod for stem, mod in eager if stem == "__init__"] == []
    # the eager forms: the package re-exporting a submodule's names, and
    # the CLI importing the verifier for its registry names
    (tmp_path / "__init__.py").write_text(
        "from .budgets import Budget\n"
        "from . import window\n")
    (tmp_path / "cli.py").write_text(
        "from .tower import build_tower\n"
        "from .verify import REGISTRY_NAMES, run_check\n"
        "def _cmd_periods_show(sk, args):\n"
        "    from .periods import per_set\n")
    assert eager_imports(tmp_path) == [("__init__", "budgets"),
                                       ("__init__", "window"),
                                       ("cli", "tower"), ("cli", "verify")]
