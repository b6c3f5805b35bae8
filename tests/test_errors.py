"""The error taxonomy carries no dead classes.

Every class in ``errors.py`` other than the ``KInterpError`` base is raised
somewhere in the package, and the package exports exactly those classes.
"""

import ast
from pathlib import Path

import kinterp

PACKAGE = Path(kinterp.__file__).parent


def _error_classes() -> set[str]:
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _raised_names() -> set[str]:
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return raised


def test_every_error_class_is_raised():
    unraised = _error_classes() - {"KInterpError"} - _raised_names()
    assert not unraised, f"error classes never raised: {sorted(unraised)}"


def test_package_exports_exactly_the_error_classes():
    classes = _error_classes()
    exported = {name for name in kinterp.__all__ if name.endswith("Error")}
    assert exported == classes
    assert all(isinstance(getattr(kinterp, name), type) for name in classes)
