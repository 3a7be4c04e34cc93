"""Line-oriented circuit language: parse, print, validate, run.

Programs are sequences of `;`-terminated statements with `#` comments.
Besides plain gate lists over named modes there are two block forms,
`network { ... }` for streaming cluster generation and `schedule { ... }`
for the loop processor; a block must be the whole program.

parse() is total: malformed input comes back as a ParseError value with
a 1-based line/column, never as a raised exception.  Squeezing amounts
accept a dB or r suffix and are converted to r at parse time; angles are
radians, always.

The op table `_OPS` is the one place an op is defined: its argument
grammar, the backends it runs on, its range checks and its Gaussian and
Fock actions.  parse, pretty_print, validate and run all read it, and
the `network` and `schedule` entries carry the tables of their block
entries.

run returns a RunReport of plain data (to_dict); cli renders it as text.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from . import fock as fk
from . import gaussian as g
from . import loop as lp
from . import tdm

# ancilla / input squeezing for blocks that do not set `squeeze ...;`
DEFAULT_BLOCK_SQUEEZE_DB = 15.0


@dataclass(frozen=True)
class ParseError:
    """Positioned syntax or reference error; line/column are 1-based."""

    line: int
    column: int
    message: str
    token: str = ""

    def __str__(self):
        return f"{self.line}:{self.column}: {self.message}"


@dataclass(frozen=True)
class Instruction:
    op: str
    args: tuple
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CircuitProgram:
    """Parsed program: declarations and ordered instructions."""

    modes: tuple
    outcomes: tuple
    instructions: tuple


@dataclass(frozen=True)
class ValidationError:
    line: int
    column: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.column}: {self.message}"


@dataclass
class RunReport:
    backend: str
    seed: int
    outcomes: list
    reports: list
    timings: dict

    def to_dict(self) -> dict:
        return {"backend": self.backend, "seed": self.seed,
                "outcomes": self.outcomes, "reports": self.reports,
                "timings": self.timings}


# ---------------------------------------------------------------------------
# tokenizer

_NUM_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SUFFIX_RE = re.compile(r"[A-Za-z0-9_]*")
_PUNCT1 = ";{}[]=,"


@dataclass(frozen=True)
class _Token:
    kind: str       # id | num | punct | eof
    text: str
    line: int
    column: int
    value: float = 0.0
    suffix: str = ""


class _Bail(Exception):
    def __init__(self, err: ParseError):
        super().__init__(str(err))
        self.err = err


def _fail(line, column, message, token="") -> None:
    raise _Bail(ParseError(line, column, message, token))


def _tokenize(text: str) -> list:
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            toks.append(_Token("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT1:
            toks.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or ch == "." or ch in "+-":
            m = _NUM_RE.match(text, i)
            if m is None:
                _fail(line, col, f"unexpected character {ch!r}", ch)
            lit = m.group(0)
            sm = _SUFFIX_RE.match(text, m.end())
            suffix = sm.group(0)
            if suffix not in ("", "r", "dB"):
                _fail(line, col, f"unknown number suffix {suffix!r}",
                      lit + suffix)
            value = float(lit)
            if not math.isfinite(value):
                _fail(line, col, "number out of range", lit)
            toks.append(_Token("num", lit + suffix, line, col,
                               value=value, suffix=suffix))
            adv = (m.end() - i) + len(suffix)
            i += adv
            col += adv
            continue
        m = _ID_RE.match(text, i)
        if m is not None:
            toks.append(_Token("id", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        _fail(line, col, f"unexpected character {ch!r}", ch)
    toks.append(_Token("eof", "", line, max(col, 1)))
    return toks


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.modes = []
        self.outcomes = []
        self.consumed = set()

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, tok: _Token, message: str) -> None:
        _fail(tok.line, tok.column, message, tok.text)

    def expect_punct(self, p: str) -> _Token:
        t = self.advance()
        if t.kind != "punct" or t.text != p:
            self.fail(t, f"expected {p!r}")
        return t

    def expect_id(self, what="identifier") -> _Token:
        t = self.advance()
        if t.kind != "id":
            self.fail(t, f"expected {what}")
        return t

    def expect_num(self, what="number") -> _Token:
        t = self.advance()
        if t.kind != "num":
            self.fail(t, f"expected {what}")
        if t.suffix:
            self.fail(t, f"unexpected suffix {t.suffix!r} on {what}")
        return t

    def expect_squeeze(self, what="squeeze value") -> float:
        """A number with mandatory dB or r suffix, returned as r."""
        t = self.advance()
        if t.kind != "num":
            self.fail(t, f"expected {what}")
        if t.suffix == "r":
            return t.value
        if t.suffix == "dB":
            return float(g.squeezing_db_to_r(t.value))
        self.fail(t, f"{what} needs a dB or r suffix")

    def expect_int(self, what="integer") -> int:
        t = self.expect_num(what)
        if t.value != int(t.value):
            self.fail(t, f"expected {what}")
        return int(t.value)

    def kwarg(self, key: str) -> float:
        t = self.expect_id(f"{key}=<value>")
        if t.text != key:
            self.fail(t, f"expected {key}=<value>")
        self.expect_punct("=")
        return self.expect_num(f"value of {key}").value

    def mode_ref(self) -> str:
        t = self.expect_id("mode name")
        if t.text not in self.modes:
            self.fail(t, f"undeclared mode {t.text}")
        if t.text in self.consumed:
            self.fail(t, f"mode {t.text} consumed")
        return t.text

    # -- statements ---------------------------------------------------------

    def program(self) -> CircuitProgram:
        instructions = []
        while True:
            t = self.peek()
            if t.kind == "eof":
                break
            if t.kind == "punct" and t.text == ";":
                self.advance()          # stray terminator, harmless
                continue
            instructions.append(self.statement())
        return CircuitProgram(modes=tuple(self.modes),
                              outcomes=tuple(self.outcomes),
                              instructions=tuple(instructions))

    def statement(self) -> Instruction:
        t = self.advance()
        if t.kind != "id":
            self.fail(t, "expected op name")
        op = _OPS.get(t.text)
        if op is None:
            self.fail(t, f"unknown op {t.text!r}")
        if op.entries is None:
            args = self.fields(op, ())
            self.expect_punct(";")
        else:
            args = self.block(t.text, op.entries)
            if self.peek().kind == "punct" and self.peek().text == ";":
                self.advance()          # optional after a block
        return Instruction(t.text, args, t.line, t.column)

    def fields(self, op, built: tuple) -> tuple:
        """Read op's arguments, in grammar order, onto `built`."""
        for arg in op.args:
            value = arg.read(self, built)
            built += value if arg.rest else (value,)
        return built

    def block(self, name, entries) -> tuple:
        self.expect_punct("{")
        built, seen = [], set()
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == "}":
                self.advance()
                return tuple(built)
            if t.kind == "eof":
                self.fail(t, "expected '}'")
            t = self.advance()
            if t.kind != "id":
                self.fail(t, f"expected {name} entry")
            entry = entries.get(t.text)
            if entry is None:
                self.fail(t, f"unknown {name} entry {t.text!r}")
            if entry.loop is None:      # a setting, not a gate
                if t.text in seen:
                    self.fail(t, f"duplicate {name} entry {t.text}")
                seen.add(t.text)
            built.append(self.fields(entry, (t.text,)))
            self.expect_punct(";")


# ---------------------------------------------------------------------------
# argument kinds

def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))    # plain repr round-trips exactly
    return str(v)


@dataclass(frozen=True)
class _Arg:
    """How one argument reads and prints.  read(parser, built) gets the
    arguments read so far (in a block, after the entry name); a `rest`
    kind reads and prints all the remaining arguments as one tuple."""

    read: object
    show: object = _fmt
    rest: bool = False


def _read_declared(p, built) -> tuple:
    names = []
    while p.peek().kind == "id":
        t = p.advance()
        if t.text in p.modes:
            p.fail(t, f"mode {t.text} already declared")
        p.modes.append(t.text)
        names.append(t.text)
    if not names:
        p.fail(p.peek(), "expected mode name")
    return tuple(names)


def _read_quadrature(p, built) -> str:
    t = p.expect_id("x or p")
    if t.text not in ("x", "p"):
        p.fail(t, "expected x or p")
    return t.text


def _read_measured(p, built) -> str:
    """`-> name`: declares an outcome and consumes the measured mode."""
    p.expect_punct("->")
    t = p.expect_id("outcome name")
    if t.text in p.outcomes:
        p.fail(t, f"outcome {t.text} already declared")
    p.outcomes.append(t.text)
    p.consumed.add(built[0])
    return t.text


def _read_outcome(p, built) -> str:
    t = p.expect_id("outcome name")
    if t.text not in p.outcomes:
        p.fail(t, f"undeclared outcome {t.text}")
    return t.text


def _read_report(p, built) -> tuple:
    t = p.expect_id("report kind")
    if t.text == "cov":
        return ("cov",)
    if t.text == "form":
        key = p.expect_id("c=[...]")
        if key.text != "c":
            p.fail(key, "expected c=[...]")
        p.expect_punct("=")
        p.expect_punct("[")
        coeffs = [p.expect_num("coefficient").value]
        while p.peek().text == ",":
            p.advance()
            coeffs.append(p.expect_num("coefficient").value)
        p.expect_punct("]")
        return ("form", tuple(coeffs))
    if t.text == "fidelity":
        target = p.expect_id("fidelity target")
        if target.text == "vacuum":
            return ("fidelity", "vacuum")
        if target.text == "coherent":
            return ("fidelity", "coherent", p.kwarg("dx"), p.kwarg("dp"))
        p.fail(target, f"unknown fidelity target {target.text!r}")
    p.fail(t, f"unknown report kind {t.text!r}")


def _show_report(a) -> str:
    if a[0] == "form":
        return "form c=[" + ", ".join(_fmt(c) for c in a[1]) + "]"
    if a[0] == "fidelity" and a[1] == "coherent":
        return f"fidelity coherent dx={_fmt(a[2])} dp={_fmt(a[3])}"
    return " ".join(a)


def _other_mode(what) -> _Arg:
    """A second mode, distinct from the first."""
    def read(p, built):
        t = p.peek()
        if p.mode_ref() == built[0]:
            p.fail(t, f"{what} needs two distinct modes")
        return t.text
    return _Arg(read)


def _num(what) -> _Arg:
    return _Arg(lambda p, built: p.expect_num(what).value)


def _key(key) -> _Arg:
    """`key=number`."""
    return _Arg(lambda p, built: p.kwarg(key), lambda v: f"{key}={_fmt(v)}")


_MODE = _Arg(lambda p, built: p.mode_ref())
_SQUEEZE = _Arg(lambda p, built: p.expect_squeeze(), lambda v: _fmt(v) + "r")
_SLOT = _Arg(lambda p, built: p.expect_int("slot index"))
_COUNT = _Arg(lambda p, built: p.expect_int(f"{built[0]} value"))
_DECLARED = _Arg(_read_declared, " ".join, rest=True)
_REPORT = _Arg(_read_report, _show_report, rest=True)
_QUADRATURE = _Arg(_read_quadrature)
_MEASURED = _Arg(_read_measured, lambda v: "-> " + v)
_OUTCOME = _Arg(_read_outcome)


# ---------------------------------------------------------------------------
# checks: each yields the messages of the range checks an op fails

def _unit(i, what):
    """Argument i lies in [0, 1]."""
    return lambda a, *_: () if 0 <= a[i] <= 1 else (f"{what} out of [0, 1]",)


def _check_declared(a, backend, modes):
    if backend == "fock" and modes.index(a[-1]) >= fk.MAX_MODES:
        yield f"fock backend is limited to {fk.MAX_MODES} modes"


def _settings(entries, args) -> dict:
    """A block's settings, the entries that are not gates, by name."""
    return {e[0]: e[1] for e in args if entries[e[0]].loop is None}


def _check_network(args, *_):
    s = _settings(_NETWORK, args)
    dim = s.get("dim")
    if dim not in (1, 2):
        yield "network needs dim 1 or dim 2"
    if "pulses" not in s:
        yield "network needs pulses"
    elif s["pulses"] < 2:
        yield "network needs at least 2 pulses"
    if dim == 2 and s.get("width", 0) < 2:
        yield "dim 2 network needs width >= 2"
    if dim == 1 and "width" in s:
        yield "width only applies to dim 2"


def _check_schedule(args, *rest):
    s = _settings(_SCHEDULE, args)
    n_data = s.get("data", 0)
    if n_data < 1:
        yield "schedule needs data >= 1"
    if s.get("anc", 0) < 0:
        yield "anc must be >= 0"
    n_anc = 0
    for e in args:
        entry = _SCHEDULE[e[0]]
        for kind, v in zip(entry.args, e[1:]):
            if kind is _SLOT and not 0 <= v < max(n_data, 1):
                yield f"slot {v} out of range"
        yield from entry.check(e[1:], *rest)
        n_anc += entry.ancilla
    if n_anc > s.get("anc", 0):
        yield f"{n_anc} sqz gates need anc >= {n_anc}"


# ---------------------------------------------------------------------------
# actions: each maps (run, args) to the backend's next state

_VACUUM = {"gaussian": lambda n, cutoff: g.vacuum(n),
           "fock": lambda n, cutoff: fk.vacuum_fock(n, cutoff)}


class _Run:
    """One execution: backend state, mode indices, outcomes and reports.

    run[name] is a mode's index in the state; measured modes leave live().
    """

    def __init__(self, program, backend, seed, cutoff):
        n = len(program.modes)
        self.state = _VACUUM[backend](n, cutoff) if n else None
        self.index = {m: i for i, m in enumerate(program.modes)}
        self.gone = set()
        self.seed, self.rng = seed, g.as_rng(seed)
        self.outcomes, self.reports = [], []
        self.measured = {}      # outcome id -> (mode, theta, value); fock: value
        self.wall = None        # a block's own time, when it keeps one

    def __getitem__(self, name):
        return self.index[name]

    def remove(self, name):
        self.gone.add(name)
        # fock collapse really deletes the mode; shift the survivors
        dropped = self.index.pop(name)
        for k in self.index:
            if self.index[k] > dropped:
                self.index[k] -= 1

    def live(self):
        return sorted((m for m in self.index if m not in self.gone),
                      key=self.index.get)


def _keep(r, a):
    return r.state


def _signed(a) -> float:
    return a[1] if a[2] == "x" else -a[1]


def _hom_gaussian(r, a):
    """Gaussian runs use affine measurement semantics.

    A homodyne freezes the measured quadrature inside the joint state
    instead of collapsing it; a later ff is the exact row operation
    x_t += gx * q, p_t += gp * q, applied with gaussian.apply_local.
    Reported moments are therefore the channel output, independent of
    the sampled outcomes (which are logged for reproducibility only).
    Each outcome is drawn conditioned on the earlier ones, whose frozen
    quadratures are still in the state, so outcomes follow their joint
    distribution.
    """
    k = r[a[0]]
    value = g.sample_quadrature(r.state, k, a[1], r.rng, r.measured.values())
    r.measured[a[2]] = (k, a[1], value)
    r.gone.add(a[0])
    r.outcomes.append({"id": a[2], "value": value})
    return r.state


def _ff_gaussian(r, a):
    k, theta, _ = r.measured[a[0]]
    ff = g.feedforward_matrix(2, 1, 0, theta, a[2], a[3])
    return g.apply_local(r.state, (k, r[a[1]]), ff)


def _hom_fock(r, a):
    value, state = fk.homodyne_fock(r.state, r[a[0]], a[1], r.rng)
    r.remove(a[0])
    r.measured[a[2]] = value
    r.outcomes.append({"id": a[2], "value": value})
    return state


def _ff_fock(r, a):
    v = r.measured[a[0]]
    return fk.displace_fock(r.state, r[a[1]], a[2] * v, a[3] * v)


def _report(r, a, backend):
    live = r.live()
    if backend == "gaussian":
        state = moments = g.remove_modes(r.state, [r[m] for m in r.gone])
    else:
        state = r.state
        moments = g.GaussianState(*fk.covariance_of(state))
    if not all(np.isfinite(m).all() for m in (moments.mean, moments.cov)):
        raise ValueError("reported moments are not finite")
    if a[0] == "cov":
        entry = {"type": "cov", "modes": live, **moments.to_dict()}
    elif a[0] == "form":
        if len(a[1]) != moments.mean.size:
            raise ValueError(f"form needs {moments.mean.size} coefficients, "
                             f"got {len(a[1])}")
        mean, variance = g.quad_stats(moments, a[1])
        entry = {"type": "form", "c": list(a[1]),
                 "mean": mean, "variance": variance}
    elif a[1] == "vacuum":
        entry = {"type": "fidelity", "target": "vacuum"}
        target = (g.vacuum(len(live)) if backend == "gaussian"
                  else fk.vacuum_fock(state.n_modes, state.cutoff))
    else:
        if len(live) != 1:
            raise ValueError("fidelity coherent needs exactly one live mode")
        dx, dp = a[2], a[3]
        entry = {"type": "fidelity", "target": "coherent", "dx": dx, "dp": dp}
        target = (g.coherent(dx, dp) if backend == "gaussian" else
                  fk.coherent_fock((dx + 1j * dp) / math.sqrt(2.0),
                                   state.cutoff))
    if a[0] == "fidelity":
        fidelity = g.fidelity if backend == "gaussian" else fk.fidelity_fock
        entry["value"] = float(fidelity(state, target))
    if backend == "fock":
        entry["leakage"] = state.leakage()
    r.reports.append(entry)
    return r.state


def _run_network(r, args):
    s = _settings(_NETWORK, args)
    sq = s.get("squeeze", g.squeezing_db_to_r(DEFAULT_BLOCK_SQUEEZE_DB))
    if s["dim"] == 1:
        stats = tdm.stream_1d(s["pulses"], sq)
    else:
        stats = tdm.stream_2d(s["pulses"], s["width"], sq)
    payload = stats.to_dict()
    r.wall = payload.pop("timings")["stream_s"]
    payload["type"] = "stream"
    r.reports.append(payload)


def _run_schedule(r, args):
    s = _settings(_SCHEDULE, args)
    sq = s.get("squeeze", g.squeezing_db_to_r(DEFAULT_BLOCK_SQUEEZE_DB))
    config = lp.LoopConfig(n_data=s["data"], m_anc=s.get("anc", 0))
    gates = [_SCHEDULE[e[0]].loop(e[1:], sq) for e in args
             if _SCHEDULE[e[0]].loop is not None]
    prog = lp.compile_gates(config, gates)
    state = g.vacuum(config.length)
    for slot, orientation in prog.ancilla_prep:
        state = g.squeeze(state, slot, sq if orientation == "x" else -sq)
    final, log = lp.simulate(config, prog, state, rng_seed=r.seed)
    r.outcomes += [{"id": e["id"], "value": e["outcome"], "slot": e["slot"],
                    "pulse": e["pulse"], "basis": e["basis"]}
                   for e in log.outcomes]
    r.reports.append({"type": "loop", "survivors": log.survivors,
                      **final.to_dict()})


# ---------------------------------------------------------------------------
# the op table

@dataclass(frozen=True)
class _Op:
    """One op or block entry.  `args` are its argument kinds in order;
    `gaussian` and `fock` its actions, None where validate reports
    `unsupported`; check(args, backend, modes) yields range errors.  A
    block op has its `entries`.  A schedule gate has loop(args, r), its
    loop gate for ancilla squeezing r (`ancilla` if it uses one); an
    entry without `loop` is a setting, allowed once per block."""

    args: tuple = ()
    gaussian: object = None
    fock: object = None
    check: object = lambda *_: ()
    unsupported: str = ""
    entries: dict | None = None
    loop: object = None
    ancilla: bool = False


_NETWORK = {"dim": _Op((_COUNT,)), "width": _Op((_COUNT,)),
            "pulses": _Op((_COUNT,)), "squeeze": _Op((_SQUEEZE,))}

_SCHEDULE = {
    "data": _Op((_COUNT,)), "anc": _Op((_COUNT,)), "squeeze": _Op((_SQUEEZE,)),
    "ps": _Op((_SLOT, _num("angle")), loop=lambda a, r: ("phase",) + a),
    "bs": _Op((_SLOT, _SLOT, _key("t")), check=_unit(2, "transmissivity"),
              loop=lambda a, r: ("bs",) + a),
    "sqz": _Op((_SLOT, _num("scale factor")),
               check=lambda a, *_: () if a[1] > 0 else
               ("scale factor must be positive",),
               loop=lambda a, r: ("squeeze_tele",) + a + (r,), ancilla=True),
    "disp": _Op((_SLOT, _key("dx"), _key("dp")),
                loop=lambda a, r: ("displace",) + a),
}

_NON_GAUSSIAN = "non-Gaussian op on Gaussian backend"

_OPS = {
    "mode": _Op((_DECLARED,), _keep, _keep, check=_check_declared),
    "sq": _Op((_MODE, _SQUEEZE, _QUADRATURE),
              lambda r, a: g.squeeze(r.state, r[a[0]], _signed(a)),
              lambda r, a: fk.squeeze_fock(r.state, r[a[0]], _signed(a))),
    "ps": _Op((_MODE, _num("angle")),
              lambda r, a: g.phase_shift(r.state, r[a[0]], a[1]),
              lambda r, a: fk.phase_fock(r.state, r[a[0]], a[1])),
    "bs": _Op((_MODE, _other_mode("beam splitter"), _key("t")),
              lambda r, a: g.beam_splitter(r.state, r[a[0]], r[a[1]], a[2]),
              lambda r, a: fk.beam_splitter_fock(r.state, r[a[0]], r[a[1]],
                                                 a[2]),
              check=_unit(2, "transmissivity")),
    "disp": _Op((_MODE, _key("dx"), _key("dp")),
                lambda r, a: g.displace(r.state, r[a[0]], a[1], a[2]),
                lambda r, a: fk.displace_fock(r.state, r[a[0]], a[1], a[2])),
    "loss": _Op((_MODE, _num("transmission")),
                lambda r, a: g.loss(r.state, r[a[0]], a[1]),
                check=_unit(1, "transmission"),
                unsupported="loss channel not supported on fock backend"),
    "hom": _Op((_MODE, _key("theta"), _MEASURED), _hom_gaussian, _hom_fock),
    "ff": _Op((_OUTCOME, _MODE, _key("gx"), _key("gp")),
              _ff_gaussian, _ff_fock),
    "cubic": _Op((_MODE, _key("gamma")),
                 fock=lambda r, a: fk.apply_cubic(r.state, r[a[0]], a[1]),
                 unsupported=_NON_GAUSSIAN),
    "cphase": _Op((_MODE, _other_mode("controlled phase")),
                  fock=lambda r, a: fk.controlled_phase(r.state, r[a[0]],
                                                        r[a[1]]),
                  unsupported=_NON_GAUSSIAN),
    "report": _Op((_REPORT,), lambda r, a: _report(r, a, "gaussian"),
                  lambda r, a: _report(r, a, "fock")),
    "network": _Op(gaussian=_run_network, fock=_run_network,
                   check=_check_network, entries=_NETWORK),
    "schedule": _Op(gaussian=_run_schedule, fock=_run_schedule,
                    check=_check_schedule, entries=_SCHEDULE),
}


# ---------------------------------------------------------------------------
# parse, print, validate, run: all read the table

def parse(text: str):
    """Parse program text; returns CircuitProgram or ParseError."""
    if not isinstance(text, str):
        return ParseError(1, 1, "input must be text")
    try:
        return _Parser(_tokenize(text)).program()
    except _Bail as bail:
        return bail.err
    except RecursionError:
        return ParseError(1, 1, "input too deeply nested")


def _show(name, op, args) -> str:
    return " ".join([name] + [arg.show(args[i:] if arg.rest else args[i])
                              for i, arg in enumerate(op.args)]) + ";"


def pretty_print(program: CircuitProgram) -> str:
    """Canonical text form; parse(pretty_print(p)) == p."""
    lines = []
    for ins in program.instructions:
        op = _OPS[ins.op]
        if op.entries is None:
            lines.append(_show(ins.op, op, ins.args))
            continue
        lines.append(ins.op + " {")
        lines += ["  " + _show(e[0], op.entries[e[0]], e[1:])
                  for e in ins.args]
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate(program: CircuitProgram, backend: str) -> list:
    """Backend-capability and range checks; empty list means ok."""
    if backend not in _VACUUM:
        return [ValidationError(0, 0, f"unknown backend {backend!r}")]
    blocks = [i for i in program.instructions if _OPS[i.op].entries]
    if blocks and len(program.instructions) != 1:
        return [ValidationError(blocks[0].line, blocks[0].column,
                                f"{blocks[0].op} block must be the whole "
                                "program")]
    errors = []
    for ins in program.instructions:
        op = _OPS[ins.op]
        if not program.modes and op.entries is None:
            messages = ["no mode declared"]
        elif getattr(op, backend):
            messages = op.check(ins.args, backend, program.modes)
        else:
            messages = [op.unsupported]
        errors += [ValidationError(ins.line, ins.column, m) for m in messages]
    return errors


def run(program: CircuitProgram, backend: str, seed: int,
        cutoff: int = fk.DEFAULT_CUTOFF) -> RunReport:
    """Validate and execute; raises ValueError on an invalid program.

    A ValueError raised while an instruction runs carries the
    instruction's position in its `line` and `column` attributes.
    """
    errors = validate(program, backend)
    if errors:
        raise ValueError("invalid program: "
                         + "; ".join(str(e) for e in errors))
    start = time.perf_counter()
    r = _Run(program, backend, seed, cutoff)
    for ins in program.instructions:
        op = _OPS[ins.op]
        try:
            r.state = getattr(op, backend)(r, ins.args)
        except ValueError as exc:
            exc.line, exc.column = ins.line, ins.column
            raise
    elapsed = time.perf_counter() - start if r.wall is None else r.wall
    return RunReport(backend=backend, seed=int(seed), outcomes=r.outcomes,
                     reports=r.reports, timings={"run_s": elapsed})
