"""Golden outputs: what each `cvq` subcommand prints, checked in.

    python tests/golden.py --write      # regenerate tests/golden/*.json

Each case in CASES is one `cvq` invocation, run in process through
`cli.main`, or one library call where `cvq` has no command for it (a
recorded stream).  Its golden file, tests/golden/<name>.json, holds the
argv, the program text, the exit code, and stdout and stderr decoded:
JSON as its value, with the top-level `timings` removed, CSV as its
lines.  JSON floats are written by repr, so regenerating from unchanged
code rewrites every file byte for byte, and `git diff` after a
regeneration shows exactly which outputs moved.

tests/test_golden.py compares a fresh run with each file: structure,
strings, integers and booleans exactly, floats within GOLDEN_RTOL
relative, since BLAS builds differ in the last bits.  Same-seed bit
identity is TestDeterminism's job in tests/test_cli.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

DIR = Path(__file__).with_name("golden")
GOLDEN_RTOL = 1e-12
PROGRAM = "{program}"     # replaced in argv by the path of the case's program

_R10 = "1.151292546497023r"     # 10 dB

_GAUSSIAN_REPORTS = """\
mode a b;
sq a 0.6r x;
sq b 0.4r p;
disp a dx=0.3 dp=-0.2;
bs a b t=0.3;
ps b 0.7;
loss b 0.9;
report cov;
report form c=[1.0, 0.0, -1.0, 0.5];
report fidelity vacuum;
hom b theta=0.0 -> mb;
report fidelity coherent dx=0.3 dp=-0.2;
"""

_FOCK_REPORTS = """\
mode a b;
sq a 0.3r x;
disp a dx=0.3 dp=-0.2;
bs a b t=0.3;
ps b 0.7;
cubic a gamma=0.05;
cphase a b;
report cov;
report form c=[1.0, 0.0, -1.0, 0.5];
report fidelity vacuum;
hom b theta=0.0 -> mb;
report fidelity coherent dx=0.3 dp=-0.2;
"""

_EPR = f"""\
mode a b;
sq a {_R10} x;
sq b {_R10} p;
bs a b t=0.5;
hom a theta=0.0 -> m0;
report cov;
"""

# the unit-gain teleporter of tests/dslgen.py's teleport_text at r = 0.5,
# of a coherent input
_TELEPORT = """\
mode in a b;
disp in dx=0.4 dp=-0.3;
sq a 0.5r x;
sq b 0.5r p;
bs a b t=0.5;
bs in a t=0.5;
hom a theta=0.0 -> mx;
hom in theta=1.5707963267948966 -> mp;
ff mx b gx=-1.4142135623730951 gp=0.0;
ff mp b gx=0.0 gp=1.4142135623730951;
report cov;
"""

_SQZ_SCHEDULE = """\
schedule {
  data 2; anc 2; squeeze 10dB;
  sqz 0 0.8;
  sqz 1 1.3;
  ps 0 0.3;
  disp 1 dx=0.2 dp=0.1;
  bs 0 1 t=0.5;
}
"""

# (argv, program text or None); PROGRAM in argv names the program's file
CASES = {
    "run_gaussian_reports": (["run", PROGRAM, "--seed", "1"],
                             _GAUSSIAN_REPORTS),
    "run_fock_reports": (["run", PROGRAM, "--seed", "1", "--backend", "fock",
                          "--cutoff", "25"], _FOCK_REPORTS),
    "run_gaussian_shots": (["run", PROGRAM, "--seed", "5", "--shots", "3"],
                           _EPR),
    "run_fock_shots": (["run", PROGRAM, "--seed", "5", "--shots", "3",
                        "--backend", "fock", "--cutoff", "30"],
                       _EPR.replace(_R10, "0.4r")),
    "run_gaussian_teleport": (["run", PROGRAM, "--seed", "2"], _TELEPORT),
    "run_fock_teleport": (["run", PROGRAM, "--seed", "2", "--backend", "fock",
                           "--cutoff", "20"], _TELEPORT),
    # item 5's reflection, at the default cutoff
    "run_fock_default_cutoff": (["run", PROGRAM, "--seed", "1", "--backend",
                                 "fock"],
                                "mode a; sq a 1.2r x; disp a dx=1.5 dp=0.0; "
                                "report cov;\n"),
    "loop_sqz": (["loop", PROGRAM, "--seed", "3"], _SQZ_SCHEDULE),
    "run_sqz_schedule": (["run", PROGRAM, "--seed", "3"], _SQZ_SCHEDULE),
    "stream_1d_eta": (["stream", "--spec", "1d", "--pulses", "1000",
                       "--squeezing", "10dB", "--eta", "0.9"], None),
    "stream_2d_eta": (["stream", "--spec", "2d", "--width", "4", "--pulses",
                       "500", "--squeezing", "8dB", "--eta", "0.95"], None),
    "stream_recorded_csv": (None, None),
    "gkp_delta_0.3": (["gkp", "--delta", "0.3"], None),
    "gkp_delta_0.2": (["gkp", "--delta", "0.2"], None),
    "gkp_curve": (["gkp", "--curve", "0.2,0.4", "--samples", "500",
                   "--seed", "3"], None),
    "budget_json": (["budget", "--loss-db-km", "0.2", "--length-m", "100",
                     "--pulse-ns", "50"], None),
    "budget_csv": (["budget", "--loss-db-km", "0.2", "--length-m", "1000",
                    "--pulse-ns", "50", "--format", "csv"], None),
    "error_parse": (["run", PROGRAM, "--seed", "1"], "mode a;\nsq a 3 x;\n"),
    "error_validation": (["run", PROGRAM, "--seed", "1"],
                         "mode a b;\nbs a b t=1.5;\n"),
    "error_leakage": (["run", PROGRAM, "--seed", "1", "--backend", "fock"],
                      "mode q0; sq q0 15dB x; report cov;\n"),
    "error_zero_variance": (["run", PROGRAM, "--seed", "1"],
                            "mode q0 q1; sq q0 400dB x; bs q0 q1 t=1.0;\n"
                            "  hom q0 theta=0 -> m0; report cov;\n"),
    "error_fock_schedule": (["run", PROGRAM, "--seed", "1", "--backend",
                             "fock"], _SQZ_SCHEDULE),
}


def _recorded_csv() -> tuple:
    """A lossless 2D stream of 30 steps, every slot through tdm.csv_sink."""
    from cvqsim import tdm
    out = io.StringIO()
    tdm.stream_2d(30, 3, 0.8, sink=tdm.csv_sink(out))
    return 0, out.getvalue(), ""


def _decode(text: str):
    """JSON as its value without the top-level timings; other text as
    its lines."""
    if text.startswith("{"):
        value = json.loads(text)
        value.pop("timings", None)
        return value
    return text.splitlines()


def run_case(name: str) -> dict:
    argv, program = CASES[name]
    if argv is None:
        code, out, err = _recorded_csv()
    else:
        from cvqsim import cli
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "program.cvq"
            if program is not None:
                path.write_text(program)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main([str(path) if a == PROGRAM else a
                                 for a in argv])
            out, err = out.getvalue(), err.getvalue()
    return {"argv": argv, "program": program, "exit": code,
            "stdout": _decode(out), "stderr": _decode(err)}


def mismatches(got, want, where="$"):
    """Where got differs from want: floats within GOLDEN_RTOL relative
    (a CSV cell that reads as a float included), all else exactly."""
    if isinstance(want, str) and isinstance(got, str) and "," in want:
        cells = got.split(","), want.split(",")
        if len(cells[0]) == len(cells[1]):
            return [m for i, (a, b) in enumerate(zip(*cells))
                    for m in mismatches(_cell(a), _cell(b), f"{where}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        if math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=0.0):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want
                for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(got, want))
                for m in mismatches(a, b, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _cell(text: str):
    """A CSV cell: a float if it has a point or an exponent, else text."""
    if any(c in text for c in ".eEn"):
        try:
            return float(text)
        except ValueError:
            pass
    return text


def write() -> None:
    DIR.mkdir(exist_ok=True)
    for old in DIR.glob("*.json"):
        old.unlink()
    for name in CASES:
        record = run_case(name)
        (DIR / f"{name}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    # the checkout's own source, whatever is installed
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write()
