"""The error taxonomy carries no dead classes.

The package's ``__init__.py`` defines the error classes; every one other than
the ``KInterpError`` base is raised somewhere in the package, and the top
level exports exactly those classes and ``__version__``, without loading
NumPy.
"""

import ast
import subprocess
import sys
from pathlib import Path

import kinterp

PACKAGE = Path(kinterp.__file__).parent


def _error_classes() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
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
    assert set(kinterp.__all__) == classes | {"__version__"}
    assert all(isinstance(getattr(kinterp, name), type) for name in classes)


def test_importing_the_package_loads_no_numpy():
    """So the CLI can set NumPy's environment before NumPy loads."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kinterp; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
