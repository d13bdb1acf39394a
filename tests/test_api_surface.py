"""Every public name of ``nklab`` has a user.

A name in a module's ``__all__`` must resolve, and must be used by the
package outside its own definition, by the benchmark harness in
``perfbench/`` or by the README -- or be on :data:`KEEP` with the reason
it stays.  Uses inside the package are resolved through the AST: a name
counts where it is imported from its module, read as ``alias.name`` off an
imported module, or read in its own module where no local variable or
parameter shadows it.  ``perfbench`` and the README reach the package
only through module objects, so there an attribute not read off another
library's module, a name imported from ``nklab`` or a name string
(``perfbench`` wraps functions by name) counts.  A :data:`KEEP` entry
whose name has a user is stale, so the list only shrinks.
"""
import ast
import importlib
import re
from pathlib import Path

import nklab

_SRC = Path(nklab.__file__).resolve().parent
_ROOT = _SRC.parent.parent
_MODULES = {p.stem: p for p in sorted(_SRC.glob("*.py"))}

#: (module, name) -> why a public name that nothing above uses stays
KEEP = {
    ("__init__", "__version__"): "the package version, for tools that read it",
}


def _public(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return [e.value for e in node.value.elts]
    return []


def _bound(scope):
    """Names a function, lambda or comprehension binds locally."""
    if isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return {n.id for g in scope.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
    a = scope.args
    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
    names |= {x.arg for x in (a.vararg, a.kwarg) if x is not None}
    body = scope.body if isinstance(scope.body, list) else [scope.body]
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        todo.extend(ast.iter_child_nodes(node))
    return names


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
           ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _package_uses(stem, tree):
    """(module, name) pairs that module ``stem`` uses, outside each name's
    own top-level definition."""
    aliases, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    aliases[a.asname or a.name] = a.name
                else:
                    uses.add((node.module, a.name))

    def walk(node, shadowed, owner):
        for child in ast.iter_child_nodes(node):
            inner, own = shadowed, owner
            if isinstance(child, _SCOPES):
                inner = shadowed | _bound(child)
            if node is tree and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                own = child.name
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id not in shadowed and child.id != owner:
                    uses.add((stem, child.id))
            if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                    and child.value.id in aliases and child.value.id not in shadowed):
                uses.add((aliases[child.value.id], child.attr))
            walk(child, inner, own)

    walk(tree, frozenset(), None)
    return uses


def _outside_names():
    """Names ``perfbench`` and the README reach the package by."""
    names = set()
    sources = [p.read_text() for p in sorted((_ROOT / "perfbench").glob("*.py"))]
    readme = (_ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    for text in sources:
        tree = ast.parse(text)
        # modules of other libraries, such as numpy's ``np.__version__``
        foreign = {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for a in node.names
                   if a.name.split(".")[0] != "nklab"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if getattr(node.value, "id", None) not in foreign:
                    names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "nklab":
                    names.update(a.name for a in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    # inline code such as `reduction.sekigawa_terms_at` or `gauge_search(ctx)`
    for span in re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", readme):
        names.add(span.rsplit(".", 1)[-1])
    return names


def _surface():
    trees = {stem: ast.parse(p.read_text()) for stem, p in _MODULES.items()}
    uses = set()
    for stem, tree in trees.items():
        if stem != "__init__":      # its imports are re-exports, not uses
            uses |= _package_uses(stem, tree)
    reexported = {a.name: node.module for node in trees["__init__"].body
                  if isinstance(node, ast.ImportFrom) for a in node.names}
    return trees, uses, reexported


_TREES, _USES, _REEXPORTED = _surface()
_OUTSIDE = _outside_names()


def _used(stem, name):
    """Whether the package, ``perfbench`` or the README uses ``stem.name``."""
    home = _REEXPORTED.get(name, stem) if stem == "__init__" else stem
    return (home, name) in _USES or name in _OUTSIDE


def test_scan_sees_the_package():
    assert ("calculus", "covd") in _USES           # from .calculus import covd
    assert ("jets", "jj") in _USES                 # J.jj
    assert ("suites", "_SOURCES") in _USES         # a read in its own module
    assert ("findiff", "flat") not in _USES        # a local variable there
    assert {"run", "SUITES", "jpartial", "sample_points"} <= _OUTSIDE


def test_keep_list_names_public_names():
    for stem, name in KEEP:
        assert name in _public(_TREES[stem]), (stem, name)


def test_keep_list_holds_only_names_without_another_user():
    # an entry whose name the package, perfbench or the README now uses is stale
    assert [f"{stem}.{name}" for stem, name in KEEP if _used(stem, name)] == []


def test_every_public_name_has_a_user():
    unused = []
    for stem, tree in _TREES.items():
        module = importlib.import_module("nklab" if stem == "__init__" else f"nklab.{stem}")
        for name in _public(tree):
            assert hasattr(module, name), f"{stem}.{name} does not resolve"
            if (stem, name) in KEEP or _used(stem, name):
                continue
            unused.append(f"{stem}.{name}")
    assert unused == []
