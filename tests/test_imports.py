"""Every module-level import in the package is used (stdlib ast, no linter)."""

import ast
from pathlib import Path

import pytest

import cvqsim

MODULES = sorted(Path(cvqsim.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_import():
    source = ("from dataclasses import dataclass, field\n"
              "import numpy as np\n"
              "import os.path\n"
              "@dataclass\nclass A:\n    x: int = 0\n"
              "y = np.zeros(os.sep)\n")
    assert _unused_imports(source) == [(1, "field")]
