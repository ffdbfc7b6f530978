"""The package imports nothing at run time beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import dqes

ALLOWED = {"numpy", "dqes"}


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_are_stdlib_or_numpy():
    modules = sorted(Path(dqes.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = set().union(*(absolute_imports(path) for path in modules))
    assert "numpy" in found
    assert found - set(sys.stdlib_module_names) <= ALLOWED


def test_the_guard_sees_a_third_party_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import os\nfrom scipy.linalg import eigh\nfrom . import paulis\n")
    assert absolute_imports(module) == {"os", "scipy"}
