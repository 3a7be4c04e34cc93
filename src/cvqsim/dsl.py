"""Line-oriented circuit language: parse, print, validate, run.

Programs are sequences of `;`-terminated statements with `#` comments.
Besides plain gate lists over named modes there are two block forms,
`network { ... }` for streaming cluster generation and `schedule { ... }`
for the loop processor; a block must be the whole program.

parse() is total: malformed input comes back as a ParseError value with
a 1-based line/column, never as a raised exception.  Squeezing amounts
accept a dB or r suffix and are converted to r at parse time; angles are
radians, always.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field

from . import fock as fk
from . import gaussian as g
from . import loop as lp
from . import tdm

FILE_EXTENSION = ".cvq"

# ancilla / input squeezing for blocks that do not set `squeeze ...;`
DEFAULT_BLOCK_SQUEEZE_DB = 15.0

_GATE_OPS = ("mode", "sq", "ps", "bs", "disp", "loss", "hom", "ff",
             "cubic", "cphase", "report")
_BLOCK_OPS = ("network", "schedule")


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
    """Parsed program: declarations, ordered instructions, metadata."""

    modes: tuple
    outcomes: tuple
    instructions: tuple
    backend_hint: str | None = None
    seed: int | None = None


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


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
        handler = getattr(self, "op_" + t.text, None)
        if t.text not in _GATE_OPS + _BLOCK_OPS or handler is None:
            self.fail(t, f"unknown op {t.text!r}")
        args = handler()
        if t.text not in _BLOCK_OPS:
            self.expect_punct(";")
        elif self.peek().kind == "punct" and self.peek().text == ";":
            self.advance()              # optional after a block
        return Instruction(t.text, args, t.line, t.column)

    def op_mode(self) -> tuple:
        names = []
        while self.peek().kind == "id":
            t = self.advance()
            if t.text in self.modes:
                self.fail(t, f"mode {t.text} already declared")
            self.modes.append(t.text)
            names.append(t.text)
        if not names:
            self.fail(self.peek(), "expected mode name")
        return tuple(names)

    def op_sq(self) -> tuple:
        m = self.mode_ref()
        r = self.expect_squeeze()
        t = self.expect_id("x or p")
        if t.text not in ("x", "p"):
            self.fail(t, "expected x or p")
        return (m, r, t.text)

    def op_ps(self) -> tuple:
        m = self.mode_ref()
        theta = self.expect_num("angle").value
        return (m, theta)

    def op_bs(self) -> tuple:
        m1 = self.mode_ref()
        t2 = self.expect_id("mode name")
        if t2.text == m1:
            self.fail(t2, "beam splitter needs two distinct modes")
        self.pos -= 1
        m2 = self.mode_ref()
        return (m1, m2, self.kwarg("t"))

    def op_disp(self) -> tuple:
        m = self.mode_ref()
        return (m, self.kwarg("dx"), self.kwarg("dp"))

    def op_loss(self) -> tuple:
        m = self.mode_ref()
        eta = self.expect_num("transmission").value
        return (m, eta)

    def op_hom(self) -> tuple:
        m = self.mode_ref()
        theta = self.kwarg("theta")
        self.expect_punct("->")
        t = self.expect_id("outcome name")
        if t.text in self.outcomes:
            self.fail(t, f"outcome {t.text} already declared")
        self.outcomes.append(t.text)
        self.consumed.add(m)
        return (m, theta, t.text)

    def op_ff(self) -> tuple:
        t = self.expect_id("outcome name")
        if t.text not in self.outcomes:
            self.fail(t, f"undeclared outcome {t.text}")
        m = self.mode_ref()
        return (t.text, m, self.kwarg("gx"), self.kwarg("gp"))

    def op_cubic(self) -> tuple:
        m = self.mode_ref()
        return (m, self.kwarg("gamma"))

    def op_cphase(self) -> tuple:
        m1 = self.mode_ref()
        t2 = self.expect_id("mode name")
        if t2.text == m1:
            self.fail(t2, "controlled phase needs two distinct modes")
        self.pos -= 1
        return (m1, self.mode_ref())

    def op_report(self) -> tuple:
        t = self.expect_id("report kind")
        if t.text == "cov":
            return ("cov",)
        if t.text == "form":
            key = self.expect_id("c=[...]")
            if key.text != "c":
                self.fail(key, "expected c=[...]")
            self.expect_punct("=")
            self.expect_punct("[")
            coeffs = [self.expect_num("coefficient").value]
            while self.peek().text == ",":
                self.advance()
                coeffs.append(self.expect_num("coefficient").value)
            self.expect_punct("]")
            return ("form", tuple(coeffs))
        if t.text == "fidelity":
            target = self.expect_id("fidelity target")
            if target.text == "vacuum":
                return ("fidelity", "vacuum")
            if target.text == "coherent":
                return ("fidelity", "coherent",
                        self.kwarg("dx"), self.kwarg("dp"))
            self.fail(target, f"unknown fidelity target {target.text!r}")
        self.fail(t, f"unknown report kind {t.text!r}")

    def _block_entries(self, name, int_keys, gate_parsers=()) -> tuple:
        self.expect_punct("{")
        entries = []
        seen = set()
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == "}":
                self.advance()
                return tuple(entries)
            if t.kind == "eof":
                self.fail(t, "expected '}'")
            t = self.advance()
            if t.kind != "id":
                self.fail(t, f"expected {name} entry")
            if t.text in int_keys:
                if t.text in seen:
                    self.fail(t, f"duplicate {name} entry {t.text}")
                seen.add(t.text)
                entries.append((t.text, self.expect_int(f"{t.text} value")))
            elif t.text == "squeeze":
                if "squeeze" in seen:
                    self.fail(t, f"duplicate {name} entry squeeze")
                seen.add("squeeze")
                entries.append(("squeeze", self.expect_squeeze()))
            elif t.text in gate_parsers:
                entries.append(getattr(self, "gate_" + t.text)())
            else:
                self.fail(t, f"unknown {name} entry {t.text!r}")
            self.expect_punct(";")

    def op_network(self) -> tuple:
        return self._block_entries("network", ("dim", "width", "pulses"))

    def op_schedule(self) -> tuple:
        return self._block_entries("schedule", ("data", "anc"),
                                   ("ps", "bs", "sqz", "disp"))

    # schedule gates address loop slots by integer index

    def gate_ps(self) -> tuple:
        slot = self.expect_int("slot index")
        return ("ps", slot, self.expect_num("angle").value)

    def gate_bs(self) -> tuple:
        i = self.expect_int("slot index")
        j = self.expect_int("slot index")
        return ("bs", i, j, self.kwarg("t"))

    def gate_sqz(self) -> tuple:
        slot = self.expect_int("slot index")
        return ("sqz", slot, self.expect_num("scale factor").value)

    def gate_disp(self) -> tuple:
        slot = self.expect_int("slot index")
        return ("disp", slot, self.kwarg("dx"), self.kwarg("dp"))


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


# ---------------------------------------------------------------------------
# printing

def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))    # plain repr round-trips exactly
    return str(v)


def pretty_print(program: CircuitProgram) -> str:
    """Canonical text form; parse(pretty_print(p)) == p."""
    lines = []
    for ins in program.instructions:
        a = ins.args
        if ins.op == "mode":
            lines.append("mode " + " ".join(a) + ";")
        elif ins.op == "sq":
            lines.append(f"sq {a[0]} {_fmt(a[1])}r {a[2]};")
        elif ins.op == "ps":
            lines.append(f"ps {a[0]} {_fmt(a[1])};")
        elif ins.op == "bs":
            lines.append(f"bs {a[0]} {a[1]} t={_fmt(a[2])};")
        elif ins.op == "disp":
            lines.append(f"disp {a[0]} dx={_fmt(a[1])} dp={_fmt(a[2])};")
        elif ins.op == "loss":
            lines.append(f"loss {a[0]} {_fmt(a[1])};")
        elif ins.op == "hom":
            lines.append(f"hom {a[0]} theta={_fmt(a[1])} -> {a[2]};")
        elif ins.op == "ff":
            lines.append(f"ff {a[0]} {a[1]} gx={_fmt(a[2])} gp={_fmt(a[3])};")
        elif ins.op == "cubic":
            lines.append(f"cubic {a[0]} gamma={_fmt(a[1])};")
        elif ins.op == "cphase":
            lines.append(f"cphase {a[0]} {a[1]};")
        elif ins.op == "report":
            if a[0] == "cov":
                lines.append("report cov;")
            elif a[0] == "form":
                body = ", ".join(_fmt(c) for c in a[1])
                lines.append(f"report form c=[{body}];")
            elif a[1] == "vacuum":
                lines.append("report fidelity vacuum;")
            else:
                lines.append(f"report fidelity coherent "
                             f"dx={_fmt(a[2])} dp={_fmt(a[3])};")
        elif ins.op in _BLOCK_OPS:
            lines.append(ins.op + " {")
            for entry in a:
                if entry[0] in ("dim", "width", "pulses", "data", "anc",
                                "squeeze"):
                    tail = (_fmt(entry[1]) + "r"
                            if entry[0] == "squeeze" else _fmt(entry[1]))
                    lines.append(f"  {entry[0]} {tail};")
                elif entry[0] == "ps":
                    lines.append(f"  ps {entry[1]} {_fmt(entry[2])};")
                elif entry[0] == "bs":
                    lines.append(f"  bs {entry[1]} {entry[2]} "
                                 f"t={_fmt(entry[3])};")
                elif entry[0] == "sqz":
                    lines.append(f"  sqz {entry[1]} {_fmt(entry[2])};")
                else:
                    lines.append(f"  disp {entry[1]} dx={_fmt(entry[2])} "
                                 f"dp={_fmt(entry[3])};")
            lines.append("}")
        else:
            raise ValueError(f"unknown op {ins.op!r}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# validation

def _block_dict(args) -> dict:
    return {k: v for k, v, *_ in (e + (None,) for e in args)
            if k in ("dim", "width", "pulses", "data", "anc", "squeeze")}


def validate(program: CircuitProgram, backend: str) -> list:
    """Backend-capability and range checks; empty list means ok."""
    errors = []

    def err(ins, message):
        errors.append(ValidationError(ins.line, ins.column, message))

    if backend not in ("gaussian", "fock"):
        return [ValidationError(0, 0, f"unknown backend {backend!r}")]

    blocks = [i for i in program.instructions if i.op in _BLOCK_OPS]
    if blocks and len(program.instructions) != 1:
        err(blocks[0], f"{blocks[0].op} block must be the whole program")
        return errors

    n_declared = 0
    for ins in program.instructions:
        a = ins.args
        if ins.op == "mode":
            n_declared += len(a)
            if backend == "fock" and n_declared > fk.MAX_MODES:
                err(ins, f"fock backend is limited to {fk.MAX_MODES} modes")
        elif ins.op in ("cubic", "cphase") and backend == "gaussian":
            err(ins, "non-Gaussian op on Gaussian backend")
        elif ins.op == "loss":
            if backend == "fock":
                err(ins, "loss channel not supported on fock backend")
            elif not 0.0 <= a[1] <= 1.0:
                err(ins, "transmission out of [0, 1]")
        elif ins.op == "bs" and not 0.0 <= a[2] <= 1.0:
            err(ins, "transmissivity out of [0, 1]")
        elif ins.op == "network":
            entries = _block_dict(a)
            dim = entries.get("dim")
            if dim not in (1, 2):
                err(ins, "network needs dim 1 or dim 2")
            if "pulses" not in entries:
                err(ins, "network needs pulses")
            elif entries["pulses"] < 2:
                err(ins, "network needs at least 2 pulses")
            if dim == 2 and entries.get("width", 0) < 2:
                err(ins, "dim 2 network needs width >= 2")
            if dim == 1 and "width" in entries:
                err(ins, "width only applies to dim 2")
        elif ins.op == "schedule":
            entries = _block_dict(a)
            n_data = entries.get("data", 0)
            if n_data < 1:
                err(ins, "schedule needs data >= 1")
            if entries.get("anc", 0) < 0:
                err(ins, "anc must be >= 0")
            n_sqz = 0
            for entry in a:
                if entry[0] in ("ps", "bs", "sqz", "disp"):
                    slots = entry[1:2] if entry[0] != "bs" else entry[1:3]
                    for s in slots:
                        if not 0 <= s < max(n_data, 1):
                            err(ins, f"slot {s} out of range")
                if entry[0] == "bs" and not 0.0 <= entry[3] <= 1.0:
                    err(ins, "transmissivity out of [0, 1]")
                if entry[0] == "sqz":
                    n_sqz += 1
                    if entry[2] <= 0:
                        err(ins, "scale factor must be positive")
            if n_sqz > entries.get("anc", 0):
                err(ins, f"{n_sqz} sqz gates need anc >= {n_sqz}")
    return errors


# ---------------------------------------------------------------------------
# execution

class _ModeMap:
    """Mode name -> state index; measured modes drop out of live()."""

    def __init__(self, names):
        self.index = {m: i for i, m in enumerate(names)}
        self.gone = set()

    def __getitem__(self, name):
        return self.index[name]

    def remove(self, name):
        self.gone.add(name)
        # fock collapse really deletes the mode; shift the survivors
        dropped = self.index.pop(name)
        for k in self.index:
            if self.index[k] > dropped:
                self.index[k] -= 1

    def freeze(self, name):
        self.gone.add(name)

    def live(self):
        return sorted((m for m in self.index if m not in self.gone),
                      key=self.index.get)


def _report_entry(kind_args, moments, live, state=None, backend=""):
    a = kind_args
    if a[0] == "cov":
        return {"type": "cov", "modes": live,
                "mean": moments.mean.tolist(), "cov": moments.cov.tolist()}
    if a[0] == "form":
        if len(a[1]) != moments.mean.size:
            raise ValueError(f"form needs {moments.mean.size} coefficients, "
                             f"got {len(a[1])}")
        mean, variance = g.quad_stats(moments, a[1])
        return {"type": "form", "c": list(a[1]),
                "mean": mean, "variance": variance}
    # fidelity targets
    if a[1] == "vacuum":
        if backend == "gaussian":
            value = g.fidelity(state, g.vacuum(len(live)))
        else:
            value = fk.fidelity_fock(state,
                                     fk.vacuum_fock(state.n_modes,
                                                    state.cutoff))
        return {"type": "fidelity", "target": "vacuum", "value": float(value)}
    if len(live) != 1:
        raise ValueError("fidelity coherent needs exactly one live mode")
    dx, dp = a[2], a[3]
    if backend == "gaussian":
        value = g.fidelity(state, g.coherent(dx, dp))
    else:
        alpha = (dx + 1j * dp) / math.sqrt(2.0)
        value = fk.fidelity_fock(state, fk.coherent_fock(alpha, state.cutoff))
    return {"type": "fidelity", "target": "coherent", "dx": dx, "dp": dp,
            "value": float(value)}


def _run_gates_gaussian(program, rng):
    """Run on Gaussian moments with affine measurement semantics.

    A homodyne freezes the measured quadrature inside the joint state
    instead of collapsing it; a later ff is the exact row operation
    x_t += gx * q, p_t += gp * q, applied with gaussian.apply_local.
    Reported moments are therefore the channel output, independent of
    the sampled outcomes (which are logged for reproducibility only).
    """
    outcomes, reports = [], []
    n = len(program.modes)
    if n == 0:
        return outcomes, reports
    st = g.vacuum(n)
    idx = _ModeMap(program.modes)
    frozen = {}                         # outcome id -> (mode index, angle)
    for ins in program.instructions:
        a = ins.args
        if ins.op == "mode":
            pass
        elif ins.op == "sq":
            st = g.squeeze(st, idx[a[0]], a[1] if a[2] == "x" else -a[1])
        elif ins.op == "ps":
            st = g.phase_shift(st, idx[a[0]], a[1])
        elif ins.op == "bs":
            st = g.beam_splitter(st, idx[a[0]], idx[a[1]], a[2])
        elif ins.op == "disp":
            st = g.displace(st, idx[a[0]], a[1], a[2])
        elif ins.op == "loss":
            st = g.loss(st, idx[a[0]], a[1])
        elif ins.op == "hom":
            k = idx[a[0]]
            value = g.sample_quadrature(st, k, a[1], rng)
            frozen[a[2]] = (k, a[1])
            idx.freeze(a[0])
            outcomes.append({"id": a[2], "value": value})
        elif ins.op == "ff":
            k, theta = frozen[a[0]]
            ff = g.feedforward_matrix(2, 1, 0, theta, a[2], a[3])
            st = g.apply_local(st, (k, idx[a[1]]), ff)
        elif ins.op == "report":
            live_state = g.remove_modes(st, [idx[m] for m in idx.gone])
            reports.append(_report_entry(a, live_state, idx.live(),
                                         state=live_state, backend="gaussian"))
        else:
            raise ValueError(f"op {ins.op!r} not runnable on gaussian")
    return outcomes, reports


def _run_gates_fock(program, rng, cutoff):
    outcomes, reports = [], []
    n = len(program.modes)
    if n == 0:
        return outcomes, reports
    st = fk.vacuum_fock(n, cutoff)
    idx = _ModeMap(program.modes)
    values = {}
    for ins in program.instructions:
        a = ins.args
        if ins.op == "mode":
            pass
        elif ins.op == "sq":
            st = fk.squeeze_fock(st, idx[a[0]], a[1] if a[2] == "x" else -a[1])
        elif ins.op == "ps":
            st = fk.phase_fock(st, idx[a[0]], a[1])
        elif ins.op == "bs":
            st = fk.beam_splitter_fock(st, idx[a[0]], idx[a[1]], a[2])
        elif ins.op == "disp":
            st = fk.displace_fock(st, idx[a[0]], a[1], a[2])
        elif ins.op == "cubic":
            st = fk.apply_cubic(st, idx[a[0]], a[1])
        elif ins.op == "cphase":
            st = fk.controlled_phase(st, idx[a[0]], idx[a[1]])
        elif ins.op == "hom":
            value, st = fk.homodyne_fock(st, idx[a[0]], a[1], rng)
            idx.remove(a[0])
            values[a[2]] = value
            outcomes.append({"id": a[2], "value": value})
        elif ins.op == "ff":
            v = values[a[0]]
            st = fk.displace_fock(st, idx[a[1]], a[2] * v, a[3] * v)
        elif ins.op == "report":
            moments = g.GaussianState(*fk.covariance_of(st))
            entry = _report_entry(a, moments, idx.live(),
                                  state=st, backend="fock")
            entry["leakage"] = st.leakage()
            reports.append(entry)
        else:
            raise ValueError(f"op {ins.op!r} not runnable on fock")
    return outcomes, reports


def _run_network(args):
    entries = _block_dict(args)
    r = entries.get("squeeze", g.squeezing_db_to_r(DEFAULT_BLOCK_SQUEEZE_DB))
    if entries["dim"] == 1:
        stats = tdm.stream_1d(entries["pulses"], r)
    else:
        stats = tdm.stream_2d(entries["pulses"], entries["width"], r)
    payload = json.loads(stats.to_json())
    wall = payload.pop("timings")["stream_s"]
    payload["type"] = "stream"
    return [], [payload], wall


def _run_schedule(args, seed):
    entries = _block_dict(args)
    r = entries.get("squeeze", g.squeezing_db_to_r(DEFAULT_BLOCK_SQUEEZE_DB))
    config = lp.LoopConfig(n_data=entries["data"],
                           m_anc=entries.get("anc", 0))
    gates = []
    for entry in args:
        if entry[0] == "ps":
            gates.append(("phase", entry[1], entry[2]))
        elif entry[0] == "bs":
            gates.append(("bs", entry[1], entry[2], entry[3]))
        elif entry[0] == "sqz":
            gates.append(("squeeze_tele", entry[1], entry[2], r))
        elif entry[0] == "disp":
            gates.append(("displace", entry[1], entry[2], entry[3]))
    prog = lp.compile_gates(config, gates)
    state = g.vacuum(config.length)
    for slot, orientation in prog.ancilla_prep:
        state = g.squeeze(state, slot, r if orientation == "x" else -r)
    final, log = lp.simulate(config, prog, state, rng_seed=seed)
    outcomes = [{"id": e["id"], "value": e["outcome"], "slot": e["slot"],
                 "pulse": e["pulse"], "basis": e["basis"]}
                for e in log.outcomes]
    report = {"type": "loop", "survivors": log.survivors,
              "mean": final.mean.tolist(), "cov": final.cov.tolist()}
    return outcomes, [report]


def run(program: CircuitProgram, backend: str, seed: int,
        cutoff: int = fk.DEFAULT_CUTOFF) -> RunReport:
    """Validate and execute; raises ValueError on an invalid program."""
    errors = validate(program, backend)
    if errors:
        raise ValueError("invalid program: "
                         + "; ".join(str(e) for e in errors))
    start = time.perf_counter()
    wall = None
    if program.instructions and program.instructions[0].op == "network":
        outcomes, reports, wall = _run_network(program.instructions[0].args)
    elif program.instructions and program.instructions[0].op == "schedule":
        outcomes, reports = _run_schedule(program.instructions[0].args, seed)
    elif backend == "gaussian":
        outcomes, reports = _run_gates_gaussian(program, g.as_rng(seed))
    else:
        outcomes, reports = _run_gates_fock(program, g.as_rng(seed), cutoff)
    elapsed = time.perf_counter() - start if wall is None else wall
    return RunReport(backend=backend, seed=int(seed), outcomes=outcomes,
                     reports=reports, timings={"run_s": elapsed})
