"""Every module-level import in the package is used (stdlib ast, no
linter), every public function has a caller in the package or a stated
reason to exist, every private module-level function has a caller, only
cli writes JSON (apart from stated exceptions), and importing the
package never loads scipy."""

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


# Public functions that nothing in the package calls, each with the
# reason it stays.  Anything else without a caller is dead API.
UNCALLED_API = {
    "dsl.pretty_print": "the DSL's canonical text form, parse(pretty_print(p)) == p",
    "gaussian.homodyne": "measurement that keeps the conditioned state",
    "loop.certificate_variances": "evaluates generate_entangled's certificates",
    "loop.generate_entangled": "perfbench entry point (loop job)",
    "tdm.csv_sink": "perfbench entry point (recorded stream job)",
    "tdm.emitted_covariance": "perfbench entry point",
    "telegates.channel_fidelity": "perfbench entry point",
    "telegates.tele_cubic": "perfbench entry point",
    "telegates.tele_squeeze": "reference for the loop's squeeze_tele tests",
    "telegates.teleport": "reference for the DSL and acceptance teleporter tests",
}


def _uncalled_functions(sources: dict) -> set:
    """`module.function` for each module-level function that no
    module of `sources` (module name -> text) references: by bare name
    in its own module, as `alias.function` through `from . import
    module as alias`, or in `from .module import function`."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defined = {(mod, node.name) for mod, tree in trees.items()
               for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    refs = set()
    for mod, tree in trees.items():
        alias = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for name in node.names:
                    if node.module is None:
                        alias[name.asname or name.name] = name.name
                    else:
                        refs.add((node.module, name.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add((mod, node.id))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in alias):
                refs.add((alias[node.value.id], node.attr))
    return {f"{mod}.{name}" for mod, name in defined - refs}


def test_every_public_function_has_a_caller_or_a_reason():
    uncalled = _uncalled_functions({p.stem: p.read_text() for p in MODULES})
    # a private helper has no reason to exist without a caller
    assert sorted(name for name in uncalled
                  if name.split(".")[1].startswith("_")) == [], "dead helper"
    assert sorted(uncalled - UNCALLED_API.keys()) == [], "dead API"
    assert sorted(UNCALLED_API.keys() - uncalled) == [], "stale allowlist"


def test_guard_flags_an_uncalled_function():
    sources = {
        "a": "def used(): pass\ndef local(): pass\ndef dead(): pass\n"
             "def _private(): pass\nx = local\n",
        "b": "from . import a as alias\nfrom .a import local\n"
             "y = alias.used\ndef dead(): pass\n",
    }
    assert _uncalled_functions(sources) == {"a.dead", "a._private",
                                            "b.dead"}


# Modules that call json.dump or json.dumps, each with the reason.  The
# output format is decided once, by cli's renderer.
JSON_WRITERS = {
    "cli": "the one output renderer",
    "tdm": "StreamStats.to_json is perfbench's stream_recorded entry point",
}


def _json_writers(sources: dict) -> set:
    """The modules of `sources` (module name -> text) that use
    `json.dump` or `json.dumps`."""
    return {mod for mod, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and node.attr in ("dump", "dumps")
            and isinstance(node.value, ast.Name) and node.value.id == "json"}


def test_only_cli_writes_json():
    writers = _json_writers({p.stem: p.read_text() for p in MODULES})
    assert sorted(writers) == sorted(JSON_WRITERS)


def test_guard_flags_a_json_writer():
    sources = {"a": "import json\nx = json.dumps({}, indent=2)\n",
               "b": "import json\ndef f(fh):\n    json.dump({}, fh)\n",
               "c": "import json\ny = json.loads('{}')\n"}
    assert _json_writers(sources) == {"a", "b"}


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
