"""The package holds only what the program runs.

Every public function and class in ``src/kinterp``, and every public method
or property of those classes, is referenced somewhere in the package, in
``perfbench`` or in ``scripts`` outside its own definition.  A module-level
name counts when it is imported by name, read as an attribute of its module
(``nc.linear``) or used as a bare name in its own module; a method or
property counts by attribute name.  Tests do not count: a name that only
tests reach belongs in ``tests/oracles.py``.  The top level counts as module
``__init__``, whose names ``from . import X`` and ``from kinterp import X``
import.  Dunder methods and ``cli.main``, the console entry point, are
exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kinterp"
CALLERS = [PACKAGE, ROOT / "perfbench", ROOT / "scripts"]
EXEMPT = {"cli.main"}


def _module_aliases(tree: ast.AST, modules: set[str]) -> dict[str, str]:
    """Local names bound to a package module, e.g. ``nc`` -> ``numcore``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                leaf = alias.name.split(".")[-1]
                if leaf in modules and (alias.asname or isinstance(node, ast.ImportFrom)):
                    aliases[alias.asname or alias.name] = leaf
    return aliases


def _references(tree: ast.AST, module: str | None, aliases: dict[str, str]) -> Counter:
    """Each way ``tree`` names something: ("attr", name), ("import", module,
    name), ("module-attr", module, name) and, in package module ``module``,
    ("bare", module, name)."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs["attr", node.attr] += 1
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                refs["module-attr", aliases[node.value.id], node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "kinterp").split(".")[-1]
            for alias in node.names:
                refs["import", "__init__" if source == "kinterp" else source, alias.name] += 1
        elif isinstance(node, ast.Name) and module is not None:
            refs["bare", module, node.id] += 1
    return refs


def _definitions(tree: ast.Module):
    """(qualified name, method name or None, node) of each public top-level
    function or class, and of each public method or property of such a class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, None, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_public_name_is_reached_by_the_program():
    files = [path for folder in CALLERS for path in sorted(folder.glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in files}
    modules = {path.stem for path in files if path.parent == PACKAGE}
    refs = Counter()
    for path, tree in trees.items():
        module = path.stem if path.parent == PACKAGE else None
        refs += _references(tree, module, _module_aliases(tree, modules))

    unreached = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        module = path.stem
        aliases = _module_aliases(tree, modules)
        for qualname, method, node in _definitions(tree):
            if f"{module}.{qualname}" in EXEMPT:
                continue
            if method is not None:
                keys = [("attr", method)]
            else:
                name = qualname
                keys = [
                    ("import", module, name),
                    ("module-attr", module, name),
                    ("bare", module, name),
                ]
            inside = _references(node, module, aliases)
            if not any(refs[key] > inside[key] for key in keys):
                unreached.append(f"{module}.{qualname}")
    assert not unreached, f"public names that only tests reach: {sorted(unreached)}"
