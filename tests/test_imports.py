"""Every module-level import in the package is used (stdlib ast, no
linter), every public function and every method has a caller in the
package or a stated reason to exist, every private module-level function
has a caller, only
cli writes JSON (apart from stated exceptions), importing the package
never loads scipy, and each `cvq` command loads only its own modules."""

import ast
import json
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
    "gaussian.beam_splitter": "pure single-gate API; the reference the "
                              "in-place runner is tested against",
    "gaussian.loss": "pure single-gate API; the reference the in-place "
                     "runner is tested against",
    "gaussian.phase_shift": "pure single-gate API; the reference the "
                            "in-place runner is tested against",
    "loop.certificate_variances": "evaluates generate_entangled's certificates",
    "loop.generate_entangled": "perfbench entry point (loop job)",
    "tdm.csv_sink": "perfbench entry point (recorded stream job)",
    "tdm.emitted_covariance": "perfbench entry point",
    "telegates.channel_fidelity": "perfbench entry point",
    "telegates.tele_cubic": "perfbench entry point",
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
                    if node.module is None:     # a module, or a name
                        alias[name.asname or name.name] = name.name
                        refs.add(("__init__", name.name))   # of the root
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
        "__init__": "def rooted(): pass\ndef unused(): pass\n",
        "c": "from . import rooted\n",
    }
    assert _uncalled_functions(sources) == {"a.dead", "a._private",
                                            "b.dead", "__init__.unused"}


# Methods of package classes that nothing in the package calls, each
# with the reason it stays.
UNCALLED_METHODS = {
    "cli._Parser.error": "overrides argparse.ArgumentParser.error, which "
                         "argparse calls",
    "gaussian.GaussianState.validate": "physicality check for the trust "
                                       "boundaries (ROADMAP item 7)",
    "tdm.StreamStats.ratios": "the README's stream example",
    "tdm.StreamStats.to_json": "perfbench entry point (recorded stream job)",
}


def _uncalled_methods(sources: dict) -> set:
    """`module.Class.method` for each non-dunder method of a module-level
    class in `sources` (module name -> text) whose name appears nowhere
    in `sources` as an attribute or as the name string of a `getattr`.
    Names are matched alone, so a method is called when any object's
    attribute of that name is."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defined = {(mod, node.name, item.name) for mod, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, ast.FunctionDef)
               and not (item.name.startswith("__")
                        and item.name.endswith("__"))}
    refs = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                refs.add(node.args[1].value)
    return {f"{mod}.{cls}.{name}" for mod, cls, name in defined
            if name not in refs}


def test_every_method_has_a_caller_or_a_reason():
    uncalled = _uncalled_methods({p.stem: p.read_text() for p in MODULES})
    assert sorted(uncalled - UNCALLED_METHODS.keys()) == [], "dead method"
    assert sorted(UNCALLED_METHODS.keys() - uncalled) == [], "stale allowlist"


def test_guard_flags_an_uncalled_method():
    sources = {
        "a": "class A:\n"
             "    def __init__(self): pass\n"
             "    def used(self): pass\n"
             "    @property\n    def size(self): return 0\n"
             "    def by_name(self): pass\n"
             "    def dead(self): pass\n"
             "    def _private(self): pass\n"
             "def validate(x): pass\n",
        "b": "from .a import A, validate\n"
             "class B:\n    def validate(self): pass\n"
             "x = A().used()\ny = A().size\n"
             "z = getattr(A(), 'by_name')\nvalidate(x)\n",
    }
    # a module-level function of the same name does not call the method
    assert _uncalled_methods(sources) == {"a.A.dead", "a.A._private",
                                          "b.B.validate"}


# Modules that call json.dump or json.dumps, each with the reason.  The
# output format is decided once, by cli's renderer.
JSON_WRITERS = {
    "cli": "the one output renderer",
    "tdm": "StreamStats.to_json is perfbench's stream_recorded entry point",
}


def _json_writers(sources: dict) -> set:
    """The modules of `sources` (module name -> text) that use
    `json.dump`, `json.dumps` or `json.JSONEncoder`."""
    return {mod for mod, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and node.attr in ("dump", "dumps", "JSONEncoder")
            and isinstance(node.value, ast.Name) and node.value.id == "json"}


def test_only_cli_writes_json():
    writers = _json_writers({p.stem: p.read_text() for p in MODULES})
    assert sorted(writers) == sorted(JSON_WRITERS)


def test_guard_flags_a_json_writer():
    sources = {"a": "import json\nx = json.dumps({}, indent=2)\n",
               "b": "import json\ndef f(fh):\n    json.dump({}, fh)\n",
               "c": "import json\ny = json.loads('{}')\n",
               "d": "import json\nENC = json.JSONEncoder(sort_keys=True)\n"}
    assert _json_writers(sources) == {"a", "b", "d"}


def test_package_does_not_import_scipy():
    # cli and telegates first: the import that perfbench times as set-up
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


# What each `cvq` command loads, in a fresh interpreter.  cli imports a
# module only inside the command that runs it, so a command pays for no
# other command's code; a top-level import coming back shows up here.
_FOOTPRINT = """
import json, sys
from cvqsim import cli
argv = json.loads(sys.argv[1])
code = cli.main(argv) if argv else 0
print(json.dumps([code,
                  sorted(m.partition(".")[2] for m in sys.modules
                         if m.startswith("cvqsim.")),
                  "numpy" in sys.modules, "numpy.random" in sys.modules,
                  [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""

GAUSSIAN_RUN = "mode a; sq a 3dB x; report cov;\n"
HOMODYNE_RUN = "mode a b; sq a 3dB x; hom a theta=0 -> m; report cov;\n"
SCHEDULE = "schedule { data 2; ps 0 0.3; }\n"

FOOTPRINTS = {
    "import": ([], [], False),
    "stream": (["stream", "--spec", "1d", "--pulses", "100",
                "--squeezing", "10dB"], ["tdm"], False),
    "gkp": (["gkp", "--delta", "0.3"], ["fock", "gaussian", "gkp"], True),
    "budget": (["budget", "--loss-db-km", "0.2", "--length-m", "100",
                "--pulse-ns", "50"], ["budget"], False),
    "run": (["run", "{dir}/run.cvq", "--seed", "1"],
            ["dsl", "fock", "gaussian"], True),
    "loop": (["loop", "{dir}/loop.cvq", "--seed", "1"],
             ["dsl", "fock", "gaussian", "loop"], True),
    "run_schedule": (["run", "{dir}/loop.cvq", "--seed", "1"],
                     ["dsl", "fock", "gaussian", "loop"], True),
}


def _footprint(argv, tmp_path) -> tuple:
    """(exit code, cvqsim modules, numpy loaded, numpy.random loaded,
    which of dataclasses and inspect are loaded) after `cli.main(argv)`
    in a fresh interpreter."""
    (tmp_path / "run.cvq").write_text(GAUSSIAN_RUN)
    (tmp_path / "hom.cvq").write_text(HOMODYNE_RUN)
    (tmp_path / "loop.cvq").write_text(SCHEDULE)
    argv = [a.format(dir=tmp_path) for a in argv]
    if argv:
        argv += ["--out", str(tmp_path / "out.json")]
    env = dict(os.environ, PYTHONPATH=str(Path(cvqsim.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(argv)],
                          env=env, capture_output=True, text=True, check=True)
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("command", FOOTPRINTS)
def test_each_command_loads_only_its_modules(command, tmp_path):
    argv, modules, numpy = FOOTPRINTS[command]
    code, loaded, has_numpy, _, stdlib = _footprint(argv, tmp_path)
    assert code == 0
    assert loaded == sorted(["cli"] + modules)
    assert has_numpy is numpy
    if not numpy:       # nor the slowest stdlib imports of the numpy side
        assert stdlib == []


def test_run_without_hom_never_loads_numpy_random(tmp_path):
    proc = subprocess.run([sys.executable, "-c", "import numpy, sys; "
                           "print('numpy.random' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    if proc.stdout.strip() == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert _footprint(FOOTPRINTS["run"][0], tmp_path)[3] is False
    # SCHEDULE has no homodyne, so the loop draws nothing
    assert _footprint(FOOTPRINTS["loop"][0], tmp_path)[3] is False
    hom = ["run", "{dir}/hom.cvq", "--seed", "1"]
    assert _footprint(hom, tmp_path)[3] is True


# With numpy made unimportable, the streaming path must still run end to
# end: `cvq stream` with and without loss, a recorded stream through
# csv_sink, and the forms of a wide 2D network.
_WITHOUT_NUMPY = """
import io, json, sys
sys.modules["numpy"] = None         # any `import numpy` now fails
from cvqsim import cli, tdm
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv + ["--out", sys.argv[2]]) == 0, argv
buf = io.StringIO()
tdm.stream_1d(50, 1.0, sink=tdm.csv_sink(buf))
assert len(buf.getvalue().splitlines()) == 50
assert len(tdm.derive_squeezed_forms(tdm.network_2d(0.7, 40))) == 4
"""

STREAMS = [["stream", "--spec", "1d", "--pulses", "1000", "--squeezing",
            "15dB"],
           ["stream", "--spec", "1d", "--pulses", "999", "--squeezing",
            "15dB", "--eta", "0.9"],
           ["stream", "--spec", "2d", "--width", "5", "--pulses", "500",
            "--squeezing", "10dB"],
           ["stream", "--spec", "2d", "--width", "40", "--pulses", "45",
            "--squeezing", "0.7r", "--eta", "0.7"]]


def test_streaming_runs_without_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cvqsim.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY,
                           json.dumps(STREAMS), str(tmp_path / "out.json")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
