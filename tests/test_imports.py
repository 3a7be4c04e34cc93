"""Every module-level import in the package is used (stdlib ast, no
linter), and importing the package never loads scipy."""

import ast
import os
import subprocess
import sys
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


def test_package_does_not_import_scipy():
    # cli and telegates first: that is what `cvq` loads before a job runs
    names = ["cli", "telegates"] + [p.stem for p in MODULES
                                    if p.stem != "__init__"]
    code = ("import importlib, sys\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module('cvqsim.' + name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cvqsim.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
