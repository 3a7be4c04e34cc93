"""Random .cvq program generator plus a fuzz-case factory.

Shared by the parser unit tests and the acceptance suite: round-trip
checks need syntactically valid programs with reference discipline
(declare before use, never touch a measured mode), fuzz checks need
arbitrarily hostile input.
"""

from __future__ import annotations

import math

import numpy as np

from cvqsim import gaussian as g


def _num(rng, lo=-2.0, hi=2.0, nd=6):
    return float(np.round(rng.uniform(lo, hi), nd))


def _sq_literal(rng):
    if rng.uniform() < 0.5:
        return f"{float(np.round(rng.uniform(0.5, 16.0), 3))}dB"
    return f"{float(np.round(rng.uniform(0.05, 1.6), 6))}r"


def gates_text(rng, n_ops=None, allow_nongaussian=True,
               allow_measure=True, n_modes=None) -> str:
    n = int(n_modes if n_modes is not None else rng.integers(1, 5))
    names = [f"q{i}" for i in range(n)]
    stmts = [f"mode {' '.join(names)};"]
    live = list(names)
    outcomes = []
    ops = ["sq", "ps", "disp", "loss", "report_cov", "report_form",
           "report_fid"]
    if allow_nongaussian:
        ops += ["cubic"]
    for _ in range(int(n_ops if n_ops is not None else rng.integers(0, 12))):
        pool = list(ops)
        if len(live) >= 2:
            pool += ["bs", "bs"]
            if allow_nongaussian:
                pool.append("cphase")
            if allow_measure:
                pool.append("hom")
        if outcomes and live:
            pool.append("ff")
        op = pool[rng.integers(0, len(pool))]
        if not live:
            break
        m = live[rng.integers(0, len(live))]
        if op == "sq":
            quad = "x" if rng.uniform() < 0.5 else "p"
            stmts.append(f"sq {m} {_sq_literal(rng)} {quad};")
        elif op == "ps":
            stmts.append(f"ps {m} {_num(rng, -3.1, 3.1)};")
        elif op == "disp":
            stmts.append(f"disp {m} dx={_num(rng)} dp={_num(rng)};")
        elif op == "loss":
            stmts.append(f"loss {m} {_num(rng, 0.1, 1.0)};")
        elif op == "bs" or op == "cphase":
            m2 = m
            while m2 == m:
                m2 = live[rng.integers(0, len(live))]
            if op == "bs":
                stmts.append(f"bs {m} {m2} t={_num(rng, 0.0, 1.0)};")
            else:
                stmts.append(f"cphase {m} {m2};")
        elif op == "cubic":
            stmts.append(f"cubic {m} gamma={_num(rng, -0.2, 0.2)};")
        elif op == "hom":
            oid = f"m{len(outcomes)}"
            theta = 0.0 if rng.uniform() < 0.5 else _num(rng, -3.1, 3.1)
            stmts.append(f"hom {m} theta={theta} -> {oid};")
            outcomes.append(oid)
            live.remove(m)
        elif op == "ff":
            src = outcomes[rng.integers(0, len(outcomes))]
            stmts.append(f"ff {src} {m} gx={_num(rng)} gp={_num(rng)};")
        elif op == "report_cov":
            stmts.append("report cov;")
        elif op == "report_form":
            c = ", ".join(str(_num(rng)) for _ in range(2 * len(live)))
            stmts.append(f"report form c=[{c}];")
        else:
            stmts.append("report fidelity vacuum;")
    return _scramble(stmts, rng)


def gaussian_pair_text(rng, n_ops=6) -> str:
    """2-mode measurement-free Gaussian program with squeezing <= 1.2,
    mild enough for a cutoff-80 Fock run to track the moments to 1e-4.

    Squeezers come first (one per mode) so later passive mixing cannot
    compound them past the cutoff's comfort zone."""
    stmts = ["mode q0 q1;"]
    for m in ("q0", "q1"):
        if rng.uniform() < 0.85:
            r = float(np.round(rng.uniform(0.1, 1.2), 6))
            quad = "x" if rng.uniform() < 0.5 else "p"
            stmts.append(f"sq {m} {r}r {quad};")
    for _ in range(n_ops):
        kind = rng.integers(0, 3)
        m = f"q{rng.integers(0, 2)}"
        if kind == 0:
            stmts.append(f"ps {m} {_num(rng, -3.1, 3.1)};")
        elif kind == 1:
            stmts.append(f"bs q0 q1 t={_num(rng, 0.0, 1.0)};")
        else:
            stmts.append(f"disp {m} dx={_num(rng, -1.0, 1.0)} "
                         f"dp={_num(rng, -1.0, 1.0)};")
    stmts.append("report cov;")
    return "\n".join(stmts) + "\n"


def schedule_text(rng, min_data=2) -> str:
    """A schedule block of min_data to 4 data pulses and 0 to 2 ancillas."""
    data = int(rng.integers(min_data, 5))
    anc = int(rng.integers(0, 3))
    body = [f"data {data};", f"anc {anc};"]
    if rng.uniform() < 0.5:
        body.append(f"squeeze {_sq_literal(rng)};")
    n_sqz = 0
    for _ in range(int(rng.integers(0, 6))):
        kind = rng.integers(0, 4)
        i = int(rng.integers(0, data))
        if kind == 0:
            body.append(f"ps {i} {_num(rng, -3.1, 3.1)};")
        elif kind == 1 and data >= 2:
            j = i
            while j == i:
                j = int(rng.integers(0, data))
            body.append(f"bs {i} {j} t={_num(rng, 0.0, 1.0)};")
        elif kind == 2:
            body.append(f"disp {i} dx={_num(rng)} dp={_num(rng)};")
        elif n_sqz < anc:
            body.append(f"sqz {i} {float(np.round(rng.uniform(0.5, 1.8), 4))};")
            n_sqz += 1
    return "schedule {\n  " + "\n  ".join(body) + "\n}\n"


def random_input(rng, mode: str, mixed: bool = False) -> tuple:
    """(statements preparing `mode`, the state they prepare): the state of
    oracles.random_pure_state(1, rng), or of random_mixed_state(1, rng)
    if `mixed`, from the same draws in the same order."""
    r, theta = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0, 2 * np.pi))
    dx, dp = float(rng.normal(0, 1)), float(rng.normal(0, 1))
    text = (f"sq {mode} {abs(r)}r {'x' if r >= 0 else 'p'}; "
            f"ps {mode} {theta}; disp {mode} dx={dx} dp={dp};")
    state = g.displace(g.phase_shift(g.squeeze(g.vacuum(1), 0, r), 0, theta),
                       0, dx, dp)
    if mixed:
        eta = float(rng.uniform(0.3, 1.0))
        text += f" loss {mode} {eta};"
        state = g.loss(state, 0, eta)
    return text, state


def teleport_text(prep: str, r: float, gain: float = 1.0,
                  reports: str = "report cov;") -> str:
    """The EPR teleporter of mode `in` onto mode `out`, as a program.

    `prep` prepares `in`; two ancillas squeezed by r in x and in p meet
    on a 50:50 splitter, `in` meets one half on a second, x and p are
    read, and the feedforward displaces `out` by sqrt(2) gain times the
    readings.  At unit gain the channel adds exp(-2r) of variance per
    quadrature.
    """
    root2g = math.sqrt(2.0) * gain
    return f"""
        mode in a1 out;
        {prep}
        sq a1 {r}r x; sq out {r}r p;
        bs a1 out t=0.5;
        bs in a1 t=0.5;
        hom a1 theta=0.0 -> mx;
        hom in theta={math.pi / 2.0} -> mp;
        ff mx out gx={-root2g} gp=0.0;
        ff mp out gx=0.0 gp={root2g};
        {reports}
    """


def _scramble(stmts, rng) -> str:
    """Glue statements with random layout noise; semantics unchanged."""
    out = []
    for s in stmts:
        if rng.uniform() < 0.2:
            out.append("# " + "".join(chr(rng.integers(33, 127))
                                      for _ in range(rng.integers(0, 12)))
                       + "\n")
        sep = [" ", "\n", "  ", "\n\n", "\t"][rng.integers(0, 5)]
        out.append(s + sep)
    return "".join(out)


def random_program_text(rng) -> str:
    if rng.uniform() < 0.2:
        return schedule_text(rng)
    return gates_text(rng)


_VOCAB = ["mode", "sq", "ps", "bs", "hom", "ff", "disp", "loss", "cubic",
          "cphase", "report", "network", "schedule", "form", "fidelity",
          "q0", "q1", "m0", "zz", "x", "p", "c", "t", "theta", "gx",
          "15dB", "0.5r", "1e999", "-", "->", "=", ";", ",", "{", "}",
          "[", "]", "#", "0.5", "-1", "3.14", ".", "..", "1e", "dB",
          "\n", "\t", "_", "é", "θ"]


def fuzz_case(rng) -> str:
    kind = rng.integers(0, 5)
    if kind == 0:                      # printable ascii noise
        k = int(rng.integers(0, 80))
        return "".join(map(chr, rng.integers(32, 127, size=k)))
    if kind == 1:                      # wider unicode incl. controls
        k = int(rng.integers(0, 40))
        return "".join(map(chr, rng.integers(0, 0x2500, size=k)))
    if kind == 2:                      # mutated valid program
        text = list(random_program_text(rng))
        for _ in range(int(rng.integers(1, 6))):
            if not text:
                break
            j = int(rng.integers(0, len(text)))
            action = rng.integers(0, 3)
            if action == 0:
                del text[j]
            elif action == 1:
                text.insert(j, chr(rng.integers(32, 127)))
            else:
                text[j] = chr(rng.integers(32, 127))
        return "".join(text)
    if kind == 3:                      # token soup
        k = int(rng.integers(0, 30))
        return " ".join(_VOCAB[i]
                        for i in rng.integers(0, len(_VOCAB), size=k))
    k = int(rng.integers(1, 200))      # pathological repetition
    atom = ["{", "}", ";", "[", "mode q0 ", "-", "->", "9" * 40,
            "sq q0 ", "#", "\x00", "q" * 50 + " "][rng.integers(0, 12)]
    return atom * k
