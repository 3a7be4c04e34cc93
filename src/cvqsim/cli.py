"""Command line front end.

Subcommands: run (execute a .cvq program), stream (cluster-state
streaming), loop (schedule programs on the loop processor), gkp (code
states and error curves), budget (fiber arithmetic).

Each subcommand returns a dict, or CSV text for `budget --format csv`
and `gkp --curve`; `main` writes a dict as one line of key-sorted compact
JSON, the same bytes to stdout or to --out, and a NaN or infinity in it
is a runtime error.

Exit codes: 0 success, 1 usage error, 2 runtime or physics error.  The
latter writes a structured JSON diagnostic to stderr so harnesses can
tell a typo from a leakage budget violation; it is one such line, and
any warnings the command raised are in it.  Any subcommand that samples
takes a mandatory --seed, a non-negative integer; identical inputs and
seed give identical output bytes (the timings field aside).  A reader
that closes stdout before the output is written ends the command
quietly: nothing goes to stderr and the exit code is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import budget as bd
from . import dsl
from . import fock as fk
from . import gaussian as g
from . import gkp
from . import tdm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here wants
    # 1 for usage problems, so route through an exception instead
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _seed(text: str) -> int:
    if not text.isdecimal():        # numpy seeds are non-negative
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _squeezing(text: str) -> float:
    """A squeezing amount with its unit, e.g. 15dB or 0.8r, as r."""
    for suffix, to_r in (("dB", g.squeezing_db_to_r), ("r", float)):
        if text.endswith(suffix):
            try:
                return float(to_r(float(text[:-len(suffix)])))
            except ValueError:
                break
    raise argparse.ArgumentTypeError(
        f"needs a number with a dB or r suffix, e.g. 15dB, got {text!r}")


def _sigmas(text: str) -> list:
    """Comma-separated shift sigmas, at least one."""
    try:
        sigmas = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        sigmas = []
    if not sigmas:
        raise argparse.ArgumentTypeError(
            f"needs comma-separated numbers, got {text!r}")
    return sigmas


def _build_parser() -> _Parser:
    parser = _Parser(prog="cvq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute a .cvq program")
    p_run.add_argument("program", help="path to a .cvq file")
    p_run.add_argument("--backend", choices=("gaussian", "fock"),
                       default="gaussian")
    p_run.add_argument("--seed", type=_seed, required=True)
    p_run.add_argument("--shots", type=int, default=1)
    p_run.add_argument("--cutoff", type=int, default=fk.DEFAULT_CUTOFF)
    p_run.add_argument("--out")

    p_loop = sub.add_parser("loop", help="run a schedule program")
    p_loop.add_argument("program", help=".cvq file with a schedule block")
    p_loop.add_argument("--seed", type=_seed, required=True)
    p_loop.add_argument("--out")

    p_stream = sub.add_parser("stream", help="stream a cluster state")
    p_stream.add_argument("--spec", choices=("1d", "2d"), required=True)
    p_stream.add_argument("--pulses", type=int, required=True)
    p_stream.add_argument("--width", type=int)
    p_stream.add_argument("--squeezing", type=_squeezing, required=True,
                          help="e.g. 15dB or 0.8r")
    p_stream.add_argument("--eta", type=float,
                          help="per-slot transmission, default lossless")
    p_stream.add_argument("--out")

    p_gkp = sub.add_parser("gkp", help="code-state report or error curve")
    p_gkp.add_argument("--delta", type=float)
    p_gkp.add_argument("--cutoff", type=int, default=100)
    p_gkp.add_argument("--curve", type=_sigmas,
                       help="comma-separated shift sigmas")
    p_gkp.add_argument("--samples", type=int, default=100000)
    p_gkp.add_argument("--seed", type=_seed)
    p_gkp.add_argument("--out")

    p_budget = sub.add_parser("budget", help="fiber loss and capacity")
    p_budget.add_argument("--loss-db-km", type=float, required=True)
    p_budget.add_argument("--length-m", type=float, required=True)
    p_budget.add_argument("--pulse-ns", type=float, required=True)
    p_budget.add_argument("--velocity", type=float,
                          default=bd.GROUP_VELOCITY_SILICA)
    p_budget.add_argument("--format", choices=("json", "csv"),
                          default="json")
    p_budget.add_argument("--out")
    return parser


def _render(payload) -> str:
    # compact: an indented dump takes json's pure-Python encoder
    if isinstance(payload, str):
        return payload
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        sys.stdout.flush()          # a closed reader raises here, not at exit
        return
    base = os.environ.get("CVQ_OUT_DIR")
    if base and not os.path.isabs(out_path):
        out_path = os.path.join(base, out_path)
    with open(out_path, "w") as fh:
        fh.write(text)


def _load_program(path: str) -> dsl.CircuitProgram:
    with open(path) as fh:
        text = fh.read()
    program = dsl.parse(text)
    if isinstance(program, dsl.ParseError):
        raise _ProgramError(program)
    return program


class _ProgramError(Exception):
    def __init__(self, err: dsl.ParseError):
        super().__init__(err.message)
        self.err = err


def _shot_seed(seed: int, shot: int) -> int:
    return int(np.random.SeedSequence([seed, shot])
               .generate_state(1, dtype=np.uint64)[0])


def _cmd_run(args) -> dict:
    program = _load_program(args.program)
    if args.shots <= 0:
        raise _UsageError("--shots must be >= 1")
    if args.shots == 1:
        return dsl.run(program, args.backend, args.seed,
                       cutoff=args.cutoff).to_dict()
    shots = []
    total = 0.0
    for i in range(args.shots):
        rep = dsl.run(program, args.backend, _shot_seed(args.seed, i),
                      cutoff=args.cutoff)
        total += rep.timings["run_s"]
        shots.append({"shot": i, "seed": rep.seed,
                      "outcomes": rep.outcomes, "reports": rep.reports})
    return {"backend": args.backend, "seed": args.seed, "shots": shots,
            "timings": {"run_s": total}}


def _cmd_loop(args) -> dict:
    program = _load_program(args.program)
    ops = [i.op for i in program.instructions]
    if ops != ["schedule"]:
        raise ValueError("loop subcommand needs a single schedule block")
    return dsl.run(program, "gaussian", args.seed).to_dict()


def _cmd_stream(args) -> dict:
    if args.spec == "2d":
        if args.width is None:
            raise _UsageError("--spec 2d needs --width")
        stats = tdm.stream_2d(args.pulses, args.width, args.squeezing,
                              loss=args.eta)
    else:
        if args.width is not None:
            raise _UsageError("--width only applies to --spec 2d")
        stats = tdm.stream_1d(args.pulses, args.squeezing, loss=args.eta)
    return stats.to_dict()


def _cmd_gkp(args) -> dict | str:
    if args.curve:
        if args.seed is None:
            raise _UsageError("--curve samples shifts and needs --seed")
        return gkp.error_curve_csv(args.curve, samples=args.samples,
                                   rng_seed=args.seed)
    if args.delta is None:
        raise _UsageError("gkp needs --delta or --curve")
    params = gkp.GkpParams(args.delta, args.cutoff)
    zero = gkp.gkp_state(0, params)
    one = gkp.gkp_state(1, params)
    return {
        "delta": args.delta,
        "cutoff": args.cutoff,
        "squeezing_db": gkp.squeezing_db_of(args.delta),
        "threshold_db": gkp.THRESHOLD_DB,
        "threshold_margin_db": gkp.threshold_margin(args.delta),
        "sites": {"zero": len(gkp.lattice_sites(0, params)[0]),
                  "one": len(gkp.lattice_sites(1, params)[0])},
        "synthesis_leakage": {"zero": gkp.synthesis_leakage(0, params),
                              "one": gkp.synthesis_leakage(1, params)},
        "logical_overlap": abs(fk.overlap(zero, one)),
        "lattice_mass": {"zero": gkp.lattice_mass(zero),
                         "one": gkp.lattice_mass(one)},
    }


def _cmd_budget(args) -> dict | str:
    rep = bd.report(bd.BudgetInput(args.loss_db_km, args.length_m,
                                   args.pulse_ns * 1e-9, args.velocity))
    return rep.to_csv() if args.format == "csv" else rep.to_dict()


_COMMANDS = {"run": _cmd_run, "loop": _cmd_loop, "stream": _cmd_stream,
             "gkp": _cmd_gkp, "budget": _cmd_budget}


def _diagnostic(exc, caught) -> dict:
    entry = {"type": type(exc).__name__, "message": str(exc)}
    if hasattr(exc, "line"):        # positioned by dsl.run
        entry.update({"line": exc.line, "column": exc.column})
    if isinstance(exc, _ProgramError):
        entry.update({"type": "ParseError", "message": exc.err.message,
                      "line": exc.err.line, "column": exc.err.column,
                      "token": exc.err.token})
    payload = {"error": entry}
    if caught:
        payload["warnings"] = [
            {"category": w.category.__name__, "message": str(w.message),
             "location": f"{w.filename}:{w.lineno}"} for w in caught]
    return payload


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:      # --help and friends
        return int(exc.code or 0)
    # Warnings are held back while the command runs: a failed command
    # folds them into its diagnostic, so stderr stays one JSON line.
    usage = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            text = _render(_COMMANDS[args.subcommand](args))
        except _UsageError as exc:
            usage = str(exc)
        except FileNotFoundError as exc:
            usage = f"cvq: {exc}"
        except (ValueError, RuntimeError, _ProgramError) as exc:
            sys.stderr.write(_render(_diagnostic(exc, caught)))
            return EXIT_RUNTIME
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno,
                             w.file, w.line)
    if usage is not None:
        print(usage, file=sys.stderr)
        return EXIT_USAGE
    try:
        _emit(text, args.out)
    except BrokenPipeError:
        # the reader stopped early; point stdout at devnull so the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
