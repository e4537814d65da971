"""No orphan API: every top-level function and class of the package is
reached from `cli.main` or from module-level code (such as the check
registry), apart from the named exceptions below.

Reachability is by name: a definition is reached once a reached body uses
its name, as a bare name or as an attribute.  Imports do not count, so an
export from `__init__` alone does not keep a definition alive.
"""

import ast
import pathlib

import toeplitzlab

SRC = pathlib.Path(toeplitzlab.__file__).parent

ALLOWED = {
    "containment_case": "the per-cell rule oracle that the corollary-chain "
                        "tests compare the array walk against",
    "load_skeleton": "the reader for the build record `eta build --out` "
                     "writes",
}


def _definitions(src):
    """(name -> [(module, node)] of top-level defs, root statements)."""
    defs, roots = {}, []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append(node)
    return defs, roots


def _names(node):
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def unreachable(src):
    defs, roots = _definitions(src)
    todo = roots + [node for mod, node in defs["main"] if mod == "cli"]
    seen = {"main"}
    while todo:
        for name in _names(todo.pop()) & set(defs) - seen:
            seen.add(name)
            todo.extend(node for _, node in defs[name])
    return sorted(f"{mod}.{name}" for name, nodes in defs.items()
                  for mod, _ in nodes if name not in seen | set(ALLOWED))


def test_every_definition_is_reachable():
    assert unreachable(SRC) == []
    defs, _ = _definitions(SRC)
    assert set(ALLOWED) <= set(defs)
