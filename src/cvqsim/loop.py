"""Nested-loop pulse processor.

The machine stores n_data + m_anc pulses in a long outer loop; a short
inner loop of one slot sits behind a variable beam splitter (VBS).  One
pulse arrives at the coupler per slot, so slot arithmetic is mod L with
L the outer length.  With one port empty, a fully reflective VBS
captures the arriving pulse or releases the inner one; with both ports
occupied, any setting T < 1 is gaussian.beamsplitter_matrix(T), T = 0
included.  Holding a pulse inside for k slots lets it meet the pulse k
positions behind it, which is how non-adjacent pairs interact.  A phase
shifter (VPS) acts on the inner content, an EOM displaces outgoing
pulses, and a homodyne detector with feedforward closes the loop for
measurement-induced gates.

simulate is event-driven: it jumps from one step's slot to the next,
or to the arrival of a pulse that a feedforward waits for, and counts
the outer passes and inner-loop slots of the skipped slots
arithmetically, so its cost grows with the steps, not the slots.  Loss
is lazy: each pulse keeps the transmission it accrued since an
operation last touched it, and that becomes one loss just before the
next operation on it (pure-loss channels compose and commute with
operations on other pulses).  The gates, feedforward and losses between
two reads of the state compose into one pending Gaussian channel,
applied by a single gaussian.apply_local before a displacement of a
pulse the channel touches, when its noise factor is full, and at the
end.  A homodyne draw reads its moments through the pending channel,
so a gate's splitter and feedforward compose before they act.

Measurement semantics match the circuit language's: a homodyne plus its
declared feedforward gains defines a deterministic affine channel, so
the engine freezes the measured quadrature as a classical record,
applies feedforward as an exact row operation
(gaussian.feedforward_matrix), and traces the measured pulse out at the
end.  Outcomes are still sampled for the log, each conditioned on the
earlier ones (gaussian.sample_quadrature), and logged in the circuit
language's record, the reading under "value".  The squeeze_tele gate is
the measurement-induced squeezer of Filip, Marek & Andersen (PRA 71,
042308, 2005), with its settings from squeeze_gadget.

compile_gates writes phase, beam-splitter and squeeze_tele gates as one
circulation each; its program carries the pulses it runs on, the
vacuum with each squeeze_tele ancilla squeezed.  generate_entangled
takes a linear cluster's squeezers and passive network in closed form
from the path graph's eigenmodes, and decomposes the network by a
triangular Givens sweep (Reck et al., PRL 73, 58, 1994), checked by
applying each gate to the rows it touches.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import gaussian as g
from .gaussian import as_rng


class LoopScheduleError(RuntimeError):
    """A schedule step addresses a pulse that is not where it expects."""


@dataclass(frozen=True)
class LoopConfig:
    n_data: int
    m_anc: int = 0
    eta_outer: float = 1.0    # transmission per outer circulation
    eta_inner: float = 1.0    # transmission per slot held in the inner loop

    def __post_init__(self):
        for count in (self.n_data, self.m_anc):
            if not isinstance(count, (int, np.integer)) or count < 0:
                raise ValueError(
                    f"pulse counts must be non-negative integers, got {count!r}")
        if self.n_data + self.m_anc < 1:
            raise ValueError("need at least one pulse slot")
        for eta in (self.eta_outer, self.eta_inner):
            if not 0.0 <= eta <= 1.0:
                raise ValueError("transmissions must lie in [0, 1]")

    @property
    def length(self) -> int:
        return self.n_data + self.m_anc


class ScheduleStep(NamedTuple):
    """Control settings for one slot; unset fields mean pass-through."""

    slot: int
    switch_out: bool = False
    vbs_T: float = 1.0
    vps_theta: float = 0.0
    eom: tuple | None = None
    homodyne: float | None = None     # measurement basis angle
    outcome_id: str | None = None
    ff: tuple | None = None           # (source id, gain_x, gain_p, target slot)


@dataclass(frozen=True)
class LoopProgram:
    """A schedule and input_state, the pulses to load before it runs."""

    steps: tuple
    outcome_ids: tuple = ()
    input_state: object = None        # the loaded pulses, ancillas prepared
    certificates: tuple = ()          # (name, terms, expected_var)


@dataclass
class LoopRunLog:
    outcomes: list                    # {id, slot, pulse, basis, value}
    outer_passes: dict
    inner_slots: dict
    survivors: list


def simulate(config: LoopConfig, program: LoopProgram,
             input_state: g.GaussianState, rng_seed=0):
    """Run a schedule against preloaded pulses.

    Returns (final state over surviving pulses in slot order, LoopRunLog).
    Measured pulses are consumed; their feedforward contributions are
    applied exactly, so the result is the channel output of the circuit.
    The run jumps from event to event: a step's slot, or the arrival of
    a pulse that a feedforward waits for.
    """
    length = config.length
    if input_state.n_modes != length:
        raise ValueError(
            f"input must have {length} modes, got {input_state.n_modes}")
    steps = sorted(program.steps, key=lambda s: s.slot)
    if [s.slot for s in steps] != [s.slot for s in program.steps]:
        raise ValueError("program slots must be monotone")
    slots = set()
    for step in steps:
        if not isinstance(step.slot, (int, np.integer)) or step.slot < 0:
            raise ValueError(f"slot {step.slot!r} is not a non-negative integer")
        if step.slot in slots:
            raise LoopScheduleError(f"slot conflict at {step.slot}")
        if not 0.0 <= step.vbs_T <= 1.0:
            raise ValueError("vbs_T out of [0, 1]")
        slots.add(step.slot)
    declared = set(program.outcome_ids)
    written = {}                      # outcome id -> slot of its homodyne
    for step in steps:
        if step.homodyne is not None and step.outcome_id is None:
            raise ValueError(f"homodyne at slot {step.slot} needs an outcome id")
        if step.outcome_id is not None and step.outcome_id not in declared:
            raise ValueError(f"undeclared outcome id {step.outcome_id!r}")
        if step.homodyne is not None:
            if step.outcome_id in written:
                raise ValueError(
                    f"outcome id {step.outcome_id!r} written twice, at slots "
                    f"{written[step.outcome_id]} and {step.slot}")
            written[step.outcome_id] = step.slot
        if step.ff is not None and step.ff[0] not in declared:
            raise ValueError(f"feedforward references unknown id {step.ff[0]!r}")

    rng = None                        # built at the first homodyne draw
    run = _Pulses(config, input_state)
    outer = list(range(length))       # pulse id per outer slot, None if gone
    inner = None
    measured = {}                     # outcome id -> (pulse, basis)
    read = []                         # measured pulses, in order
    given = []                        # (index in read, basis, value)
    waiting = {}                      # target slot -> [(src, gx, gp)]
    outcomes = []

    k = now = 0                       # next step; every slot before now passed
    while True:
        due = [now + (s - now) % length for s in waiting
               if outer[s] is not None] if waiting else None
        t_ff = min(due) if due else None
        if k < len(steps) and (t_ff is None or steps[k].slot <= t_ff):
            step = steps[k]
            k += 1
            t = step.slot
        elif t_ff is not None:
            step = None
            t = t_ff
        else:
            break
        s = t % length
        pulse = outer[s]

        if t == t_ff:
            run.touch(pulse, s, t)
            for src, gx, gp in waiting.pop(s):
                src_pulse, basis = measured[src]
                run.compose((src_pulse, pulse), g.feedforward_matrix(
                    2, 1, 0, basis, gx, gp))

        if step is not None:
            if step.vps_theta != 0.0:
                if inner is None:
                    raise LoopScheduleError(
                        f"slot {t}: phase scheduled on empty inner loop")
                run.touch(inner, _INNER, t)
                run.compose((inner,), g.rotation_matrix(step.vps_theta))
            if step.vbs_T < 1.0 and inner is not None and pulse is not None:
                run.touch(inner, _INNER, t)
                run.touch(pulse, s, t)
                run.compose((inner, pulse), g.beamsplitter_matrix(step.vbs_T))
            elif step.vbs_T == 0.0:
                # one port empty: a capture or a release
                if pulse is not None:
                    run.settle(pulse, s, t)
                if inner is not None:
                    run.settle(inner, _INNER, t)
                outer[s], inner = inner, pulse
                pulse = outer[s]
            elif step.vbs_T < 1.0:
                raise LoopScheduleError(
                    f"slot {t}: beam splitter needs both ports occupied")
            if step.eom is not None:
                if pulse is None:
                    raise LoopScheduleError(
                        f"slot {t}: EOM addresses a consumed slot")
                run.touch(pulse, s, t)
                if pulse in run.touched:
                    run.flush()
                run.state = g.displace(run.state, pulse, step.eom[0],
                                       step.eom[1])
            if step.homodyne is not None:
                if pulse is None:
                    raise LoopScheduleError(
                        f"slot {t}: homodyne addresses a consumed slot")
                run.touch(pulse, s, t)
                theta = step.homodyne
                if rng is None:
                    rng = as_rng(rng_seed)
                value = g.sample_quadrature(run.marginal(read + [pulse]),
                                            len(read), theta, rng, given)
                measured[step.outcome_id] = (pulse, theta)
                given.append((len(read), theta, value))
                read.append(pulse)
                outcomes.append({"id": step.outcome_id, "slot": t,
                                 "pulse": pulse, "basis": theta,
                                 "value": value})
                outer[s] = None
                pulse = None
            if step.ff is not None:
                src, gx, gp, target = step.ff
                if src not in measured:
                    raise LoopScheduleError(
                        f"slot {t}: feedforward from unmeasured {src!r}")
                if not 0 <= target < length:
                    raise ValueError(f"feedforward target {target} out of range")
                waiting.setdefault(target, []).append((src, gx, gp))
            if step.switch_out:
                if pulse is None:
                    raise LoopScheduleError(
                        f"slot {t}: switch-out of a consumed slot")
                run.settle(pulse, s, t)
                outer[s] = None
        now = t + 1
    if waiting:
        raise LoopScheduleError(
            f"feedforward target slots never arrive: {sorted(waiting)}")

    for s, pulse in enumerate(outer):
        if pulse is not None:
            run.settle(pulse, s, now - 1)
    if inner is not None:
        run.settle(inner, _INNER, now - 1)
    for pulse in range(length):
        run.lose(pulse)
    run.flush()
    st = g.remove_modes(run.state, read) if read else run.state
    survivors = sorted(set(range(length)).difference(read))
    return st, LoopRunLog(outcomes=outcomes, outer_passes=run.outer_passes,
                          inner_slots=run.inner_slots, survivors=survivors)


_INNER = -1                           # where a pulse held in the inner loop is


class _Pulses:
    """The moments of a run, each pulse's accrued loss, and the channel
    not yet applied.

    mark[p] is the first slot whose passage p has not been counted;
    settle(p, where, t) counts p's outer passes (where = its outer slot)
    or inner-loop slots (where = _INNER) through slot t at once, and
    folds them into tau[p], the transmission p accrued since an
    operation last touched it.  touch() composes that as one loss just
    before the next operation; this is exact, since pure-loss channels
    compose, L(a) L(b) = L(ab), and commute with operations on other
    pulses.  Gates and losses are composed into one Gaussian channel
    V -> X V X^T + F F^T, with X the identity and F zero outside the
    rows of `touched`: a gate multiplies their rows of X and F, and a
    loss scales its pulse's rows and adds two columns to F, its vacuum
    noise.  flush() applies the channel as one g.apply_local, before a
    displacement of a touched pulse, when F is full, and at the end;
    marginal() reads the pulses a homodyne draw needs through it,
    X_R m and X_R V X_R^T + F_R F_R^T on their rows R.
    """

    def __init__(self, config: LoopConfig, state: g.GaussianState):
        length = config.length
        self.length = length
        self.eta_outer, self.eta_inner = config.eta_outer, config.eta_inner
        self.state = state
        self.mark = list(range(1, length + 1))   # a first arrival is no pass
        self.tau = [1.0] * length
        self.outer_passes = dict.fromkeys(range(length), 0)
        self.inner_slots = dict.fromkeys(range(length), 0)
        # X and the noise factor F side by side, so one product updates a
        # gate's rows of both; F holds the noise of 2 L losses
        width = 2 * length
        self.xf = np.hstack([np.eye(width), np.zeros((width, 2 * width))])
        self.x, self.f = self.xf[:, :width], self.xf[:, width:]
        self.columns = 0              # columns of F in use
        self.touched = set()

    def settle(self, pulse: int, where: int, t: int) -> None:
        start = self.mark[pulse]
        if t < start:
            return
        self.mark[pulse] = t + 1
        if where == _INNER:
            n = t + 1 - start
            self.inner_slots[pulse] += n
            self.tau[pulse] *= self.eta_inner ** n
        else:
            n = (t - where) // self.length - (start - 1 - where) // self.length
            self.outer_passes[pulse] += n
            self.tau[pulse] *= self.eta_outer ** n

    def touch(self, pulse: int, where: int, t: int) -> None:
        self.settle(pulse, where, t)
        self.lose(pulse)

    def lose(self, pulse: int) -> None:
        """Compose the loss pulse accrued since it was last touched."""
        if self.tau[pulse] == 1.0:
            return
        scale, noise = g.loss_channel(self.tau[pulse])
        self.tau[pulse] = 1.0
        if self.columns == self.f.shape[1]:
            self.flush()
        q = 2 * pulse
        self.xf[q:q + 2] *= scale
        c = self.columns
        self.f[q, c] = self.f[q + 1, c + 1] = math.sqrt(noise)
        self.columns += 2
        self.touched.add(pulse)

    def compose(self, pulses, block: np.ndarray) -> None:
        """Follow the pending channel by `block` on the pulses."""
        rows = [q for p in pulses for q in (2 * p, 2 * p + 1)]
        used = self.x.shape[1] + self.columns
        self.xf[rows, :used] = block @ self.xf[rows, :used]
        self.touched.update(pulses)

    def marginal(self, pulses) -> g.GaussianState:
        """The moments of `pulses`, in that order, read through the
        pending channel without applying it."""
        rows = [q for p in pulses for q in (2 * p, 2 * p + 1)]
        x, f = self.x[rows], self.f[rows, :self.columns]
        return g.GaussianState(x @ self.state.mean,
                               x @ self.state.cov @ x.T + f @ f.T)

    def flush(self) -> None:
        if not self.touched:
            return
        modes = sorted(self.touched)
        rows = [q for p in modes for q in (2 * p, 2 * p + 1)]
        f = self.f[rows, :self.columns]
        block = np.ix_(rows, rows)
        self.state = g.apply_local(self.state, modes, self.x[block],
                                   f @ f.T if self.columns else None)
        self.x[block] = np.eye(len(rows))
        self.f[rows, :self.columns] = 0.0
        self.columns = 0
        self.touched.clear()


# ---------------------------------------------------------------------------
# Gate compilation


def squeeze_gadget(y: float) -> tuple:
    """Settings of the measurement-induced squeezing gate S(y).

    Returns (transmissivity T, ancilla orientation, measured angle,
    (gx, gp)).  For y < 1 the input meets an x-squeezed ancilla on a
    beam splitter of transmissivity y^2 and the reflected arm is
    measured in p; otherwise the ancilla is p-squeezed, T = 1/y^2 and
    the measurement is in x.  The feedforward gain -sqrt((1-T)/T)
    cancels the input contribution in the measured quadrature exactly,
    leaving exp(-2 r_anc)-suppressed ancilla noise in the conjugate one
    only.
    """
    if y <= 0:
        raise ValueError("squeeze factor y must be positive")
    transmissivity = y * y if y < 1.0 else 1.0 / (y * y)
    ff = (-math.sqrt((1.0 - transmissivity) / transmissivity)
          if transmissivity > 0.0 else -math.inf)
    if not math.isfinite(ff):
        raise ValueError(f"squeeze factor {y!r} is out of range: y^2 "
                         "under- or overflows")
    if y < 1.0:
        return transmissivity, "x", math.pi / 2, (0.0, ff)
    return transmissivity, "p", 0.0, (ff, 0.0)


def compile_gates(config: LoopConfig, gates) -> LoopProgram:
    """Schedule a gate list sequentially on the loop hardware.

    Supported gates: ("phase", i, theta), ("bs", i, j, T),
    ("displace", i, dx, dp), ("squeeze_tele", i, y, r_anc).  Gates run
    one after another; each capture/hold/release pattern spans one full
    circulation of the touched pulse, and squeeze_tele additionally
    consumes one ancilla slot.  The program's input_state is the vacuum
    with each such ancilla squeezed by its gate's r_anc, in x or in p as
    squeeze_gadget says.
    """
    length = config.length
    steps = {}
    outcome_ids = []
    ancillas = []                     # (slot, signed squeezing r)
    next_anc = config.n_data
    cursor = 0

    def put(slot, **kwargs):
        if slot in steps:
            raise LoopScheduleError(f"slot conflict at {slot}")
        steps[slot] = ScheduleStep(slot=slot, **kwargs)

    def circulate(i, k, **act):
        """Capture pulse i at its next arrival (at or after the cursor),
        put act k slots later, release pulse i one circulation on and
        move the cursor past the release; return the act's slot.  An
        act that falls on the release (k == length, a one-pulse loop)
        shares its step: simulate acts on the inner pulse before the
        swap releases it."""
        nonlocal cursor
        t1 = cursor + (i - cursor) % length
        put(t1, vbs_T=0.0)
        if k == length:
            put(t1 + length, vbs_T=0.0, **act)
        else:
            put(t1 + k, **act)
            put(t1 + length, vbs_T=0.0)
        cursor = t1 + length + 1
        return t1 + k

    for gate in gates:
        kind = gate[0]
        if kind == "phase":
            _, i, theta = gate
            _check_slot(i, length)
            circulate(i, 1, vps_theta=theta)
        elif kind == "bs":
            _, i, j, t_bs = gate
            _check_slot(i, length)
            _check_slot(j, length)
            if i == j:
                raise ValueError("beam splitter needs two distinct slots")
            if not 0.0 <= t_bs <= 1.0:
                raise ValueError("transmissivity out of [0, 1]")
            circulate(i, (j - i) % length, vbs_T=t_bs)
        elif kind == "displace":
            _, i, dx, dp = gate
            _check_slot(i, length)
            cursor += (i - cursor) % length
            put(cursor, eom=(dx, dp))
            cursor += 1
        elif kind == "squeeze_tele":
            _, i, y, r_anc = gate
            _check_slot(i, length)
            t_bs, orientation, theta, gains = squeeze_gadget(y)
            if next_anc >= length:
                raise LoopScheduleError("out of ancilla slots")
            anc = next_anc
            next_anc += 1
            ancillas.append((anc, r_anc if orientation == "x" else -r_anc))
            oid = f"m{len(outcome_ids)}"
            outcome_ids.append(oid)
            t_h = circulate(i, (anc - i) % length, vbs_T=t_bs) + length
            put(t_h, homodyne=theta, outcome_id=oid,
                ff=(oid, gains[0], gains[1], i))
            cursor = t_h + length + 1
        else:
            raise ValueError(f"unknown gate kind {kind!r}")

    state = g.vacuum(length)
    for anc, r in ancillas:
        state = g.squeeze(state, anc, r)
    return LoopProgram(steps=tuple(steps[k] for k in sorted(steps)),
                       outcome_ids=tuple(outcome_ids), input_state=state)


def _check_slot(i: int, length: int):
    if not 0 <= i < length:
        raise ValueError(f"slot {i} out of range for loop of length {length}")


# ---------------------------------------------------------------------------
# Programmable entangled-state generation


def _unitary_to_gates(u: np.ndarray) -> list:
    """Decompose a unitary into phase and beam-splitter gates.

    Nulls the lower triangle with phased Givens rotations; the result is
    a gate list in application order whose composition reproduces u.
    """
    n = u.shape[0]
    work = u.astype(complex).copy()
    rots = []
    for c in range(n - 1):
        row_c = work[c, c:]           # columns left of c are zero already
        for j in range(c + 1, n):
            row_j = work[j, c:]
            if row_j[0] == 0:
                continue
            alpha = cmath.phase(row_c[0]) - cmath.phase(row_j[0])
            theta = math.atan2(abs(row_j[0]), abs(row_c[0]))
            ct, st = math.cos(theta), math.sin(theta)
            row_j *= cmath.exp(1j * alpha)
            rc = ct * row_c + st * row_j
            row_j *= ct
            row_j -= st * row_c
            row_c[:] = rc
            rots.append((c, j, theta, alpha))
    gates = []
    for i in range(n):
        beta = cmath.phase(work[i, i])
        if beta != 0:
            gates.append(("phase", i, beta))
    for c, j, theta, alpha in reversed(rots):
        gates.append(("bs", j, c, math.cos(theta) ** 2))
        if alpha != 0:
            gates.append(("phase", j, -alpha))
    _assert_gates_match(gates, u)
    return gates


def _assert_gates_match(gates, u):
    """Apply the gates to the identity, each to the rows it touches, and
    raise unless the product is u."""
    m = np.eye(u.shape[0], dtype=complex)
    for gate in gates:
        if gate[0] == "phase":
            m[gate[1]] *= cmath.exp(1j * gate[2])
        else:
            _, i, j, t = gate
            a, c = math.sqrt(t), math.sqrt(1 - t)
            row_i, row_j = m[i], m[j]
            new_i = a * row_i + c * row_j
            row_j *= a
            row_j -= c * row_i
            row_i[:] = new_i
    if np.abs(m - u).max() > 1e-8:
        raise RuntimeError("gate decomposition failed to reproduce the target")


def _path_eigenmodes(n: int, r: float):
    """The n-mode linear cluster's input state (mode k squeezed by rho_k)
    and network W diag(e^(i phi_k)), as generate_entangled says."""
    k = np.arange(1, n + 1)
    w = math.sqrt(2 / (n + 1)) * np.sin(np.outer(k, k) * math.pi / (n + 1))
    state, phases = g.vacuum(n), []
    for mode, lam in enumerate(2 * np.cos(k * math.pi / (n + 1))):
        # S_k S_k^T = [[a, b], [b, d]] has determinant 1: its larger
        # eigenvalue is a sum of positive terms; phi_k turns p onto its axis
        a, b = math.exp(2 * r), lam * math.exp(2 * r)
        d = lam * b + math.exp(-2 * r)
        state = g.squeeze(state, mode,
                          math.log((a + d + math.hypot(a - d, 2 * b)) / 2) / 2)
        phases.append(math.atan2(2 * b, a - d) / 2 + math.pi / 2)
    return state, w * np.exp(1j * np.array(phases))


def generate_entangled(kind: str, n: int, r: float) -> LoopProgram:
    """Build a loop program whose output passes the kind's certificate.

    The returned program carries the required input state (squeezed
    pulses) and the certificate forms; run it with simulate() and check
    certificate_variances() of the result.

    EPR and GHZ squeeze every input by r.  CLUSTER_LINEAR is the CZ
    chain on r-squeezed modes.  It acts on each eigenmode k of the path
    graph's adjacency A = W diag(lam) W^T, lam_k = 2 cos(k pi/(n+1)),
    W_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)), alone, as S_k = [[1, 0],
    [lam_k, 1]] diag(e^r, e^-r) (van Loock, Weedbrook & Gu, PRA 76,
    032321, 2007): one squeezer of variance factor e^(2 rho_k), the
    larger eigenvalue of S_k S_k^T, then one phase phi_k.  So the
    cluster consumes more than r: its strongest input, about
    (1 + lam_1^2) e^(2r), tends to r + 10 log10 5 = r + 7.0 dB as n
    grows (21.98 dB of input for a 15 dB cluster of 64 modes).
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if kind == "EPR":
        n = 2
        state = g.vacuum(2)
        state = g.squeeze(state, 0, r)
        state = g.squeeze(state, 1, -r)
        gates = [("bs", 0, 1, 0.5)]
        certs = (
            ("x0-x1", ((0, 0, 1.0), (1, 0, -1.0)), math.exp(-2 * r)),
            ("p0+p1", ((0, 1, 1.0), (1, 1, 1.0)), math.exp(-2 * r)),
        )
    elif kind == "GHZ":
        if n < 2:
            raise ValueError("GHZ needs n >= 2")
        state = g.vacuum(n)
        state = g.squeeze(state, 0, -r)        # shared momentum direction
        for k in range(1, n):
            state = g.squeeze(state, k, r)
        target = np.full(n, 1.0 / math.sqrt(n))
        u = np.eye(n)
        diff = target - u[:, 0]
        norm = np.linalg.norm(diff)
        if norm > 1e-12:
            hh = diff / norm
            u = u - 2.0 * np.outer(hh, hh @ u)
        gates = _unitary_to_gates(u.astype(complex))
        certs = tuple(
            [("p_sum", tuple((k, 1, 1.0) for k in range(n)),
              n * math.exp(-2 * r) / 2)]
            + [(f"x{i}-x{j}", ((i, 0, 1.0), (j, 0, -1.0)), math.exp(-2 * r))
               for i in range(n) for j in range(i + 1, n)]
        )
    elif kind == "CLUSTER_LINEAR":
        if n < 2:
            raise ValueError("cluster needs n >= 2")
        state, u = _path_eigenmodes(n, r)
        gates = _unitary_to_gates(u)
        certs = []
        for i in range(n):
            terms = [(i, 1, 1.0)]
            if i > 0:
                terms.append((i - 1, 0, -1.0))
            if i < n - 1:
                terms.append((i + 1, 0, -1.0))
            certs.append((f"null{i}", tuple(terms), math.exp(-2 * r) / 2))
        certs = tuple(certs)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return replace(compile_gates(LoopConfig(n_data=n), gates),
                   input_state=state, certificates=certs)


def certificate_variances(state: g.GaussianState, certificates) -> dict:
    out = {}
    for name, terms, _expected in certificates:
        row = np.zeros(2 * state.n_modes)
        for mode, quad, coef in terms:
            row[2 * mode + quad] += coef
        out[name] = g.quad_stats(state, row)[1]
    return out
