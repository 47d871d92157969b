"""The demos import only names the package still exports.

Each demo is parsed, not run: all six together take under a minute (24 to
53 s on a 2-core host), so CI runs them in a step of their own.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_imports(path: Path):
    """(module, name) for every ``from metainfluence[.sub] import name`` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "metainfluence":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    missing = [
        f"{module}.{name}"
        for module, name in package_imports(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports names that do not exist: {missing}"
