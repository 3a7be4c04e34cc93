"""Nested-loop pulse processor.

The machine stores n_data + m_anc pulses in a long outer loop; a short
inner loop of one slot sits behind a variable beam splitter (VBS).  One
pulse arrives at the coupler per slot, so slot arithmetic is mod L with
L the outer length.  Setting the VBS fully reflective moves the
arriving pulse into the inner loop (and releases whatever was there);
holding a pulse inside for k slots lets it meet the pulse k positions
behind it, which is how non-adjacent pairs interact.  A phase shifter
(VPS) acts on the inner content, an EOM displaces outgoing pulses, and
a homodyne detector with feedforward closes the loop for
measurement-induced gates.

Measurement semantics match the teleportation gates module: a homodyne
plus its declared feedforward gains defines a deterministic affine
channel, so the engine freezes the measured quadrature as a classical
record, applies feedforward as an exact row operation
(gaussian.feedforward_matrix through apply_local), and traces the
measured pulse out at the end.  Outcomes are still sampled for the log,
each conditioned on the earlier ones (gaussian.sample_quadrature), so a
run's outcomes follow their joint distribution.  The squeeze_tele gate
takes its settings from telegates.squeeze_gadget.

compile_gates writes phase, beam-splitter and squeeze_tele gates as one
circulation each.  generate_entangled decomposes its passive network by
a triangular Givens sweep (Reck et al., PRL 73, 58, 1994), checked by
applying each gate to the rows it touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian as g
from .gaussian import as_rng
from .telegates import squeeze_gadget


class LoopScheduleError(RuntimeError):
    """A schedule step addresses a pulse that is not where it expects."""


@dataclass(frozen=True)
class LoopConfig:
    n_data: int
    m_anc: int = 0
    eta_outer: float = 1.0    # transmission per outer circulation
    eta_inner: float = 1.0    # transmission per slot held in the inner loop

    def __post_init__(self):
        if self.n_data + self.m_anc < 1:
            raise ValueError("need at least one pulse slot")
        for eta in (self.eta_outer, self.eta_inner):
            if not 0.0 <= eta <= 1.0:
                raise ValueError("transmissions must lie in [0, 1]")

    @property
    def length(self) -> int:
        return self.n_data + self.m_anc


@dataclass(frozen=True)
class ScheduleStep:
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
    steps: tuple
    outcome_ids: tuple = ()
    input_state: object = None        # prepared injection pattern, if any
    certificates: tuple = ()          # (name, terms, expected_var)
    ancilla_prep: tuple = ()          # (slot, orientation) requirements


@dataclass
class LoopRunLog:
    outcomes: list
    outer_passes: dict
    inner_slots: dict
    survivors: list


def simulate(config: LoopConfig, program: LoopProgram,
             input_state: g.GaussianState, rng_seed=0):
    """Run a schedule against preloaded pulses.

    Returns (final state over surviving pulses in slot order, LoopRunLog).
    Measured pulses are consumed; their feedforward contributions are
    applied exactly, so the result is the channel output of the circuit.
    """
    length = config.length
    if input_state.n_modes != length:
        raise ValueError(
            f"input must have {length} modes, got {input_state.n_modes}")
    steps = sorted(program.steps, key=lambda s: s.slot)
    if [s.slot for s in steps] != [s.slot for s in program.steps]:
        raise ValueError("program slots must be monotone")
    by_slot = {}
    for step in steps:
        if step.slot < 0:
            raise ValueError("negative slot")
        if step.slot in by_slot:
            raise LoopScheduleError(f"slot conflict at {step.slot}")
        if not 0.0 <= step.vbs_T <= 1.0:
            raise ValueError("vbs_T out of [0, 1]")
        by_slot[step.slot] = step
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

    rng = as_rng(rng_seed)
    st = input_state
    outer = list(range(length))       # pulse id per outer slot, None if gone
    inner = None
    seen = [False] * length
    measured = {}                     # outcome id -> (pulse, basis)
    given = []                        # (pulse, basis, value) per homodyne
    consumed = [False] * length
    pending = {}                      # target slot -> [(src, gx, gp)]
    outcomes = []
    outer_passes = {p: 0 for p in range(length)}
    inner_slots = {p: 0 for p in range(length)}

    duration = steps[-1].slot + 1 if steps else 0
    t = 0
    drain = 0
    while t < duration or (pending and drain < length):
        if t >= duration:
            drain += 1
        s = t % length
        pulse = outer[s]

        if pulse is not None:
            if seen[pulse]:
                outer_passes[pulse] += 1
                if config.eta_outer < 1.0:
                    st = g.loss(st, pulse, config.eta_outer)
            seen[pulse] = True
            for src, gx, gp in pending.pop(s, ()):
                src_pulse, basis = measured[src]
                ff = g.feedforward_matrix(2, 1, 0, basis, gx, gp)
                st = g.apply_local(st, (src_pulse, pulse), ff)

        if inner is not None:
            inner_slots[inner] += 1
            if config.eta_inner < 1.0:
                st = g.loss(st, inner, config.eta_inner)

        step = by_slot.get(t)
        if step is not None:
            if step.vps_theta != 0.0:
                if inner is None:
                    raise LoopScheduleError(
                        f"slot {t}: phase scheduled on empty inner loop")
                st = g.phase_shift(st, inner, step.vps_theta)
            if step.vbs_T == 0.0:
                outer[s], inner = inner, outer[s]
                pulse = outer[s]
            elif step.vbs_T < 1.0:
                if inner is None or pulse is None:
                    raise LoopScheduleError(
                        f"slot {t}: beam splitter needs both ports occupied")
                st = g.beam_splitter(st, inner, pulse, step.vbs_T)
            if step.eom is not None:
                if pulse is None:
                    raise LoopScheduleError(
                        f"slot {t}: EOM addresses a consumed slot")
                st = g.displace(st, pulse, step.eom[0], step.eom[1])
            if step.homodyne is not None:
                if pulse is None:
                    raise LoopScheduleError(
                        f"slot {t}: homodyne addresses a consumed slot")
                theta = step.homodyne
                value = g.sample_quadrature(st, pulse, theta, rng, given)
                measured[step.outcome_id] = (pulse, theta)
                given.append((pulse, theta, value))
                consumed[pulse] = True
                outcomes.append({"id": step.outcome_id, "slot": t,
                                 "pulse": pulse, "basis": theta,
                                 "outcome": value})
                outer[s] = None
                pulse = None
            if step.ff is not None:
                src, gx, gp, target = step.ff
                if src not in measured:
                    raise LoopScheduleError(
                        f"slot {t}: feedforward from unmeasured {src!r}")
                if not 0 <= target < length:
                    raise ValueError(f"feedforward target {target} out of range")
                pending.setdefault(target, []).append((src, gx, gp))
            if step.switch_out:
                if pulse is None:
                    raise LoopScheduleError(
                        f"slot {t}: switch-out of a consumed slot")
                outer[s] = None
        t += 1
    if pending:
        raise LoopScheduleError(
            f"feedforward target slots never arrive: {sorted(pending)}")

    drop = [p for p in range(length) if consumed[p]]
    if drop:
        st = g.remove_modes(st, drop)
    survivors = [p for p in range(length) if not consumed[p]]
    return st, LoopRunLog(outcomes=outcomes, outer_passes=outer_passes,
                          inner_slots=inner_slots, survivors=survivors)


# ---------------------------------------------------------------------------
# Gate compilation


def compile_gates(config: LoopConfig, gates) -> LoopProgram:
    """Schedule a gate list sequentially on the loop hardware.

    Supported gates: ("phase", i, theta), ("bs", i, j, T),
    ("displace", i, dx, dp), ("squeeze_tele", i, y, r_anc).  Gates run
    one after another; each capture/hold/release pattern spans one full
    circulation of the touched pulse, and squeeze_tele additionally
    consumes one ancilla slot (listed in the returned ancilla_prep).
    """
    length = config.length
    steps = {}
    outcome_ids = []
    ancilla_prep = []
    next_anc = config.n_data
    cursor = 0

    def put(slot, **kwargs):
        if slot in steps:
            raise LoopScheduleError(f"slot conflict at {slot}")
        steps[slot] = ScheduleStep(slot=slot, **kwargs)

    def circulate(i, k, **act):
        """Capture pulse i at its next arrival (at or after the cursor),
        put act k slots later, release pulse i one circulation on and
        move the cursor past the release; return the act's slot."""
        nonlocal cursor
        t1 = cursor + (i - cursor) % length
        put(t1, vbs_T=0.0)
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
            ancilla_prep.append((anc, orientation))
            if y == 1.0:
                continue
            oid = f"m{len(outcome_ids)}"
            outcome_ids.append(oid)
            t_h = circulate(i, (anc - i) % length, vbs_T=t_bs) + length
            put(t_h, homodyne=theta, outcome_id=oid,
                ff=(oid, gains[0], gains[1], i))
            cursor = t_h + length + 1
        else:
            raise ValueError(f"unknown gate kind {kind!r}")

    ordered = tuple(steps[k] for k in sorted(steps))
    return LoopProgram(steps=ordered, outcome_ids=tuple(outcome_ids),
                       ancilla_prep=tuple(ancilla_prep))


def _check_slot(i: int, length: int):
    if not 0 <= i < length:
        raise ValueError(f"slot {i} out of range for loop of length {length}")


# ---------------------------------------------------------------------------
# Programmable entangled-state generation


def _passive_to_unitary(q: np.ndarray) -> np.ndarray:
    u = q[0::2, 0::2] + 1j * q[1::2, 0::2]
    if not (np.allclose(q[0::2, 1::2], -q[1::2, 0::2], atol=1e-9)
            and np.allclose(q[1::2, 1::2], q[0::2, 0::2], atol=1e-9)):
        raise ValueError("matrix is not passive")
    return u


def _unitary_to_gates(u: np.ndarray, tol: float = 1e-11) -> list:
    """Decompose a unitary into phase and beam-splitter gates.

    Nulls the lower triangle with phased Givens rotations; the result is
    a gate list in application order whose composition reproduces u.
    """
    n = u.shape[0]
    work = u.astype(complex).copy()
    rots = []
    for c in range(n - 1):
        for j in range(c + 1, n):
            if abs(work[j, c]) < tol:
                continue
            alpha = float(np.angle(work[c, c]) - np.angle(work[j, c]))
            work[j, :] *= np.exp(1j * alpha)
            theta = float(np.arctan2(abs(work[j, c]), abs(work[c, c])))
            ct, st = math.cos(theta), math.sin(theta)
            rc = ct * work[c, :] + st * work[j, :]
            work[j, :] = -st * work[c, :] + ct * work[j, :]
            work[c, :] = rc
            rots.append((c, j, theta, alpha))
    gates = []
    for i in range(n):
        beta = float(np.angle(work[i, i]))
        if abs(beta) > tol:
            gates.append(("phase", i, beta))
    for c, j, theta, alpha in reversed(rots):
        gates.append(("bs", j, c, math.cos(theta) ** 2))
        if abs(alpha) > tol:
            gates.append(("phase", j, -alpha))
    _assert_gates_match(gates, u)
    return gates


def _assert_gates_match(gates, u):
    """Apply the gates to the identity, each to the rows it touches, and
    raise unless the product is u."""
    m = np.eye(u.shape[0], dtype=complex)
    for gate in gates:
        if gate[0] == "phase":
            m[gate[1]] *= np.exp(1j * gate[2])
        else:
            _, i, j, t = gate
            a, c = math.sqrt(t), math.sqrt(1 - t)
            m[[i, j]] = np.array([[a, c], [-c, a]]) @ m[[i, j]]
    if np.abs(m - u).max() > 1e-8:
        raise RuntimeError("gate decomposition failed to reproduce the target")


def _factor_pure_state(cov: np.ndarray):
    """Split a pure covariance into squeezers plus a passive network.

    Returns (r_list, q) with q orthogonal-symplectic so that applying
    squeeze(r_k) per mode to vacuum followed by q reproduces cov.
    """
    n = cov.shape[0] // 2
    # eigenvalues of the symmetric square root of 2 cov, on its eigenvectors
    vals, vecs = np.linalg.eigh(2.0 * cov)
    vals = np.sqrt(vals)
    jmat = g.symplectic_form(n)
    order = np.argsort(vals)[::-1]
    cols = []
    lambdas = []
    used = np.zeros((2 * n, 0))
    for idx in order:
        lam = vals[idx]
        if lam < 1.0 - 1e-9 or len(lambdas) == n:
            continue
        v = vecs[:, idx].copy()
        if used.shape[1]:
            v -= used @ (used.T @ v)
            norm = np.linalg.norm(v)
            if norm < 0.5:
                continue
            v /= norm
        partner = -jmat @ v
        cols.extend([v, partner])
        lambdas.append(lam)
        used = np.column_stack([used, v, partner])
    if len(lambdas) != n:
        raise RuntimeError("could not pair squeezing directions")
    q = np.column_stack(cols)
    d = np.diag([x for lam in lambdas for x in (lam, 1.0 / lam)])
    if np.abs(q @ d @ d @ q.T / 2 - cov).max() > 1e-8:
        raise RuntimeError("pure-state factorization failed")
    rs = [-math.log(lam) for lam in lambdas]
    return rs, q


def _cluster_target(n: int, r: float) -> np.ndarray:
    """Covariance of the n-mode linear cluster built from CZ gates."""
    v0 = np.diag([x for _ in range(n)
                  for x in (math.exp(2 * r) / 2, math.exp(-2 * r) / 2)])
    c = np.eye(2 * n)
    for i in range(n - 1):
        c[2 * i + 1, 2 * (i + 1)] += 1.0       # p_i += x_{i+1}
        c[2 * (i + 1) + 1, 2 * i] += 1.0       # p_{i+1} += x_i
    return c @ v0 @ c.T


def generate_entangled(kind: str, n: int, r: float) -> LoopProgram:
    """Build a loop program whose output passes the kind's certificate.

    The returned program carries the required input state (squeezed
    pulses) and the certificate forms; run it with simulate() and check
    certificate_variances() of the result.
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
        rs, q = _factor_pure_state(_cluster_target(n, r))
        state = g.vacuum(n)
        for k, rk in enumerate(rs):
            state = g.squeeze(state, k, rk)
        gates = _unitary_to_gates(_passive_to_unitary(q))
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
    program = compile_gates(LoopConfig(n_data=n), gates)
    return LoopProgram(steps=program.steps, outcome_ids=program.outcome_ids,
                       input_state=state, certificates=certs,
                       ancilla_prep=program.ancilla_prep)


def certificate_variances(state: g.GaussianState, certificates) -> dict:
    out = {}
    for name, terms, _expected in certificates:
        row = np.zeros(2 * state.n_modes)
        for mode, quad, coef in terms:
            row[2 * mode + quad] += coef
        out[name] = g.quad_stats(state, row)[1]
    return out
