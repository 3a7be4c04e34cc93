"""Command line front end.

Subcommands: run (execute a .cvq program), stream (cluster-state
streaming), loop (schedule programs on the loop processor), gkp (code
states and error curves), budget (fiber arithmetic).

Each subcommand returns a dict, or CSV text for `budget --format csv`
and `gkp --curve`; `main` writes a dict as one line of key-sorted compact
JSON, the same bytes to stdout or to --out, and a NaN or infinity in it
is a runtime error.  The line is written in pieces, a covariance one row
at a time, so the whole document is never one string in memory; every
float is checked before the first piece, so a command that fails, in
its run or in that check, writes nothing to stdout or --out.

Exit codes: 0 success, 1 usage error, 2 runtime or physics error.  The
latter writes a structured JSON diagnostic to stderr so harnesses can
tell a typo from a leakage budget violation; it is one such line, and
any warnings the command raised are in it.  Any subcommand that samples
takes a mandatory --seed, a non-negative integer; identical inputs and
seed give identical output bytes (the timings field aside).  A reader
that closes stdout before the output is written ends the command
quietly: nothing goes to stderr and the exit code is 0.

Each `cvq` call is a fresh process whose start-up is mostly imports, so
the top of this module imports the standard library and the package's
numpy-free root only, and each subcommand imports what it runs and reads
its defaults when it runs: `run` loads dsl, gaussian and fock (a
`schedule` adds loop), `loop` what a schedule run loads, `gkp`
gaussian, fock and gkp, and `stream` tdm alone and `budget` budget
alone, both without numpy.  A `dsl.ParseError` is the error `run` and
`loop` report, and `dsl.run` picks the Fock cutoff when --cutoff is unset.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import warnings

from . import squeezing_db_to_r

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
    for suffix, to_r in (("dB", squeezing_db_to_r), ("r", float)):
        if text.endswith(suffix):
            try:
                return to_r(float(text[:-len(suffix)]))
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
    p_run.add_argument("--cutoff", type=int)    # None: dsl.run's default
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
    p_budget.add_argument("--velocity", type=float)  # GROUP_VELOCITY_SILICA
    p_budget.add_argument("--format", choices=("json", "csv"),
                          default="json")
    p_budget.add_argument("--out")
    return parser


# the C encoder of json.dumps(..., sort_keys=True, allow_nan=False); an
# indented dump would take json's pure-Python encoder
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)
_CONTAINERS = (dict, list, tuple)


def _render(payload):
    """The output text of a command's result, as an iterable of pieces.

    CSV text is one piece.  A dict becomes exactly
    json.dumps(payload, sort_keys=True, allow_nan=False) + "\n", but in
    pieces (_pieces), so the whole text is never one string in memory.
    Every float is checked before the first piece is made: a NaN or an
    infinity raises ValueError here, before anything is written.
    """
    if isinstance(payload, str):
        return (payload,)
    if not _finite(payload):
        raise ValueError("Out of range float values are not JSON compliant")
    return itertools.chain(_pieces(payload), "\n")


def _finite(obj) -> bool:
    """False if a float anywhere in obj, dict keys included, is NaN or
    infinite."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return _finite(list(obj)) and _finite(list(obj.values()))
    if isinstance(obj, (list, tuple)):
        try:
            # a NaN or an infinity makes the sum one; an overflow of
            # finite items falls through to the item-by-item check
            if math.isfinite(sum(obj)):
                return True
        except (TypeError, OverflowError):  # not all numbers, or a huge int
            pass
        return all(map(_finite, obj))
    return True


def _pieces(obj):
    """json's text of obj: a dict that holds a container, or a list whose
    first item is one, piece by piece, in json's order and with its
    separators; anything else in one piece from the C encoder.  Where it
    splits changes only the pieces, never their text; the first item
    alone decides for a list, so a row of floats is not scanned twice."""
    if isinstance(obj, dict) and any(isinstance(v, _CONTAINERS)
                                     for v in obj.values()):
        sep = "{"
        for key, value in sorted(obj.items()):
            yield sep + _key(key) + ": "
            yield from _pieces(value)
            sep = ", "
        yield "}"
    elif isinstance(obj, (list, tuple)) and obj and isinstance(
            obj[0], _CONTAINERS):
        sep = "["
        for value in obj:
            yield sep
            yield from _pieces(value)
            sep = ", "
        yield "]"
    else:
        yield _ENCODER.encode(obj)


def _key(key) -> str:
    """A dict key as json writes it: a string, or the text of a float,
    int, bool or None key, quoted."""
    if not isinstance(key, str):
        if not isinstance(key, (int, float, type(None))):
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _ENCODER.encode(key)
    return _ENCODER.encode(key)


def _emit(parts, out_path) -> None:
    if out_path is None:
        sys.stdout.writelines(parts)
        sys.stdout.flush()          # a closed reader raises here, not at exit
        return
    base = os.environ.get("CVQ_OUT_DIR")
    if base and not os.path.isabs(out_path):
        out_path = os.path.join(base, out_path)
    with open(out_path, "w") as fh:
        fh.writelines(parts)


def _load_program(path: str):
    from . import dsl
    with open(path) as fh:
        text = fh.read()
    program = dsl.parse(text)
    if isinstance(program, dsl.ParseError):
        raise program
    return program


def _shot_seed(seed: int, shot: int) -> int:
    import numpy as np
    return int(np.random.SeedSequence([seed, shot])
               .generate_state(1, dtype=np.uint64)[0])


def _cmd_run(args) -> dict:
    from . import dsl
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
    from . import dsl
    program = _load_program(args.program)
    ops = [i.op for i in program.instructions]
    if ops != ["schedule"]:
        raise ValueError("loop subcommand needs a single schedule block")
    return dsl.run(program, "gaussian", args.seed).to_dict()


def _cmd_stream(args) -> dict:
    from . import tdm
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
    from . import fock, gkp
    if args.curve:
        if args.seed is None:
            raise _UsageError("--curve samples shifts and needs --seed")
        return gkp.error_curve_csv(args.curve, samples=args.samples,
                                   rng_seed=args.seed)
    if args.delta is None:
        raise _UsageError("gkp needs --delta or --curve")
    zero, one = gkp.logicals(gkp.GkpParams(args.delta, args.cutoff))
    return {
        "delta": args.delta,
        "cutoff": args.cutoff,
        "squeezing_db": gkp.squeezing_db_of(args.delta),
        "threshold_db": gkp.THRESHOLD_DB,
        "threshold_margin_db": gkp.threshold_margin(args.delta),
        "sites": {"zero": len(zero.sites), "one": len(one.sites)},
        "synthesis_leakage": {"zero": zero.leakage, "one": one.leakage},
        "logical_overlap": abs(fock.overlap(zero.state, one.state)),
        "lattice_mass": {"zero": gkp.lattice_mass(zero.state),
                         "one": gkp.lattice_mass(one.state)},
    }


def _cmd_budget(args) -> dict | str:
    from . import budget as bd
    velocity = (bd.GROUP_VELOCITY_SILICA if args.velocity is None
                else args.velocity)
    rep = bd.report(bd.BudgetInput(args.loss_db_km, args.length_m,
                                   args.pulse_ns * 1e-9, velocity))
    return rep.to_csv() if args.format == "csv" else rep.to_dict()


_COMMANDS = {"run": _cmd_run, "loop": _cmd_loop, "stream": _cmd_stream,
             "gkp": _cmd_gkp, "budget": _cmd_budget}


def _diagnostic(exc, caught) -> dict:
    # a dsl.ParseError has all four fields; dsl.run positions its errors
    entry = {"type": type(exc).__name__, "message": str(exc)}
    entry.update({k: getattr(exc, k) for k in ("message", "line", "column",
                                               "token") if hasattr(exc, k)})
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
            parts = _render(_COMMANDS[args.subcommand](args))
        except _UsageError as exc:
            usage = str(exc)
        except FileNotFoundError as exc:
            usage = f"cvq: {exc}"
        except (ValueError, RuntimeError) as exc:
            sys.stderr.writelines(_render(_diagnostic(exc, caught)))
            return EXIT_RUNTIME
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno,
                             w.file, w.line)
    if usage is not None:
        print(usage, file=sys.stderr)
        return EXIT_USAGE
    try:
        _emit(parts, args.out)
    except BrokenPipeError:
        # the reader stopped early; point stdout at devnull so the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
