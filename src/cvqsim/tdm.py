"""Time-multiplexed cluster-state streaming with constant memory.

A network is a fixed per-slot pipeline: every pulse slot, one fresh
squeezed pulse enters per arm, the arms pass through an ordered list of
beam splitters and fiber delays, and one pulse per arm is emitted.  A
delay of d slots is a queue: the pulse entering it now comes back out d
slots later, meeting pulses from a different time bin at the splitters
behind it.  Running the same pipeline every slot entangles neighbouring
time bins into 1D or 2D cluster states of unbounded length.

The pipeline has one model: the slot map, built by _run_slot, which
pushes a row stack [arm quadratures; delay contents] through the stages
with gaussian.beamsplitter_matrix for every splitter and a roll of the
queue rows for every delay; _stage_plan builds those row indices and
matrices once per network.  derive_squeezed_forms pushes each squeezed
input row through it slot by slot, and emitted_covariance steps the
one-slot matrix it makes; no whole-run matrix is built or inverted.

The engine never stores emitted pulses, nor the delay-line state.  Each
form is one squeezed input quadrature read back through the passive
network, so its variance is that input's e^{-2r}/2 in every slot, exact
by construction: a stream run computes only the forms' support, their
coefficients and the boundary slots, and costs O(1) whatever the number
of pulses; with a sink, which receives one record per slot, it costs
O(n_pulses).  csv_sink writes one row per slot but formats each distinct
row once: a repeated slot repeats the previous row's text with only its
slot number changed.  emitted_covariance, the one slot-by-slot recursion
of the delay-line covariance, is the tests' reference for them.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import gaussian as g

BS_DEFAULT_T = 0.5
# largest squeezing r whose anti-squeezed variance e^{2r}/2 is a float
_MAX_SQUEEZE_R = math.log(sys.float_info.max) / 2


@dataclass(frozen=True)
class NetworkSpec:
    """Per-slot optical pipeline.

    squeezers: one (orientation, r) pair per arm, orientation "x" or "p".
    stages: ordered tuple of ("bs", arm_i, arm_j, T) and
        ("delay", arm, length) entries, applied top to bottom each slot.
    """

    squeezers: tuple
    stages: tuple

    def __post_init__(self):
        if len(self.squeezers) not in (2, 4):
            raise ValueError("expected 2 or 4 squeezers")
        for orient, r in self.squeezers:
            if orient not in ("x", "p"):
                raise ValueError(f"unknown squeezer orientation {orient!r}")
            if not 0 <= r <= _MAX_SQUEEZE_R:
                raise ValueError(
                    f"squeezer r must be in [0, {_MAX_SQUEEZE_R:.6g}]: "
                    "e^(2r) must be a finite float")
        arms = self.n_arms
        for s in self.stages:
            if s[0] == "bs":
                _, i, j, t = s
                if not (0 <= i < arms and 0 <= j < arms and i != j):
                    raise ValueError(f"bad beam splitter arms {i}, {j}")
                if not 0.0 <= t <= 1.0:
                    raise ValueError("transmissivity out of [0, 1]")
            elif s[0] == "delay":
                _, arm, d = s
                if not 0 <= arm < arms:
                    raise ValueError(f"bad delay arm {arm}")
                if d < 1 or d != int(d):
                    raise ValueError("delay length must be a positive integer")
            else:
                raise ValueError(f"unknown stage kind {s[0]!r}")

    @property
    def n_arms(self) -> int:
        return len(self.squeezers)

    @property
    def delays(self):
        return [s for s in self.stages if s[0] == "delay"]

    @property
    def max_delay(self) -> int:
        return max((s[2] for s in self.delays), default=0)

    @property
    def n_delay_slots(self) -> int:
        return sum(s[2] for s in self.delays)


def network_1d(r: float) -> NetworkSpec:
    """Two squeezers, one 1-slot delay: linear (dual-rail) cluster chain."""
    return NetworkSpec(
        squeezers=(("x", r), ("p", r)),
        stages=(("bs", 0, 1, BS_DEFAULT_T),
                ("delay", 0, 1),
                ("bs", 0, 1, BS_DEFAULT_T)),
    )


def network_2d(r: float, width: int) -> NetworkSpec:
    """Four squeezers, delays of 1 and `width` slots: 2D cluster lattice."""
    if width < 2:
        raise ValueError("width must be >= 2")
    return NetworkSpec(
        squeezers=(("x", r), ("p", r), ("x", r), ("p", r)),
        stages=(("bs", 0, 1, BS_DEFAULT_T),
                ("bs", 2, 3, BS_DEFAULT_T),
                ("delay", 1, 1),
                ("delay", 3, width),
                ("bs", 0, 2, BS_DEFAULT_T),
                ("bs", 1, 3, BS_DEFAULT_T)),
    )


@dataclass(frozen=True)
class NullifierForm:
    """Linear combination of emitted quadratures with known variance.

    terms: tuple of (slot_offset, arm, quad, coef) with quad 0 for x and
    1 for p; offsets are relative to the form's anchor slot.
    expected_var is the lossless variance, e^{-2r}/2 in every slot;
    vacuum_var the value the same form takes on unsqueezed inputs.
    """

    name: str
    terms: tuple
    expected_var: float
    vacuum_var: float

    @property
    def support(self) -> int:
        return max(t[0] for t in self.terms) + 1


def _fresh_cov(spec: NetworkSpec) -> np.ndarray:
    diag = []
    for orient, r in spec.squeezers:
        lo, hi = math.exp(-2 * r) / 2, math.exp(2 * r) / 2
        diag += [lo, hi] if orient == "x" else [hi, lo]
    return np.diag(diag)


def _stage_plan(spec: NetworkSpec) -> tuple:
    """Row indices and actions of every stage, for _run_slot.

    A bs stage is ("bs", rows, B): its two arms' four rows and
    gaussian.beamsplitter_matrix(T).  A delay stage is ("delay", rows,
    src): the arm's two rows and its queue's rows (queues in stage order,
    each oldest pulse first), and the same rows rolled by one pulse, so
    the oldest pulse leaves on the arm and the arm's pulse joins the back.
    """
    plan = []
    offset = 2 * spec.n_arms
    for s in spec.stages:
        if s[0] == "bs":
            _, i, j, t = s
            rows = np.array([2 * i, 2 * i + 1, 2 * j, 2 * j + 1])
            plan.append(("bs", rows, g.beamsplitter_matrix(t)))
        else:
            _, arm, d = s
            rows = np.array([2 * arm, 2 * arm + 1, *range(offset, offset + 2 * d)])
            plan.append(("delay", rows, np.roll(rows, -2)))
            offset += 2 * d
    return tuple(plan)


def _run_slot(plan: tuple, z: np.ndarray) -> np.ndarray:
    """Push the row stack z = [arm quadratures; delay contents] through
    one slot of a _stage_plan, in place, and return it."""
    for kind, rows, action in plan:
        if kind == "bs":
            z[rows] = action @ z[rows]
        else:
            z[rows] = z[action]
    return z


def _slot_matrix(spec: NetworkSpec) -> np.ndarray:
    """One-slot map M: [fresh arms; delay contents] -> [emitted; delay']."""
    return _run_slot(_stage_plan(spec),
                     np.eye(2 * (spec.n_arms + spec.n_delay_slots)))


def derive_squeezed_forms(spec: NetworkSpec) -> tuple:
    """Propagate each squeezed input quadrature to the emitted basis.

    Every stage is a beam splitter or a delay, so the map S of any run
    of slots (z_out = S z_in) is orthogonal, and the combination
    c = S^{-T} e_q = S e_q of emitted quadratures reproduces the squeezed
    input quadrature q exactly: its variance is e^{-2r}/2 regardless of
    the network.  S e_q is e_q pushed forward slot by slot through
    _run_slot, reading the emitted arm rows after each slot, so it never
    reaches an earlier slot.  Whenever c touches several slots it
    certifies inter-slot entanglement.  expected_var is exact only while
    S is orthogonal on the row, so a form whose sum(c^2) is not 1 within
    1e-12 raises RuntimeError.
    """
    plan = _stage_plan(spec)
    a2 = 2 * spec.n_arms
    forms = []
    for arm, (orient, r) in enumerate(spec.squeezers):
        z = np.zeros(a2 + 2 * spec.n_delay_slots)
        z[2 * arm + (0 if orient == "x" else 1)] = 1.0
        terms = []
        for offset in range(spec.max_delay + 2):
            _run_slot(plan, z)
            for idx in np.nonzero(np.abs(z[:a2]) > 1e-10)[0]:
                terms.append((offset, *divmod(int(idx), 2), float(z[idx])))
            z[:a2] = 0.0                # no fresh input after slot 0
        if np.abs(z[a2:]).max(initial=0.0) > 1e-10:
            raise RuntimeError("nullifier support leaks into the delay line")
        norm = sum(t[3] ** 2 for t in terms)
        if abs(norm - 1.0) > 1e-12:
            raise RuntimeError(f"nullifier {orient}{arm} has squared norm "
                               f"{norm!r}: the slot map is not orthogonal")
        forms.append(NullifierForm(
            name=f"{orient}{arm}",
            terms=tuple(terms),             # (offset, arm, quad) order
            expected_var=math.exp(-2 * r) / 2,
            vacuum_var=norm / 2,
        ))
    return tuple(forms)


@dataclass
class StreamStats:
    """Result of a streaming run; variances are exact, not sampled.

    variances holds each form's variance, the same in every slot: its
    expected_var, through the loss map when there is one; count the
    non-boundary slots, each of which evaluates every form.
    When count is 0, to_dict gives each form mean_var 0.0 and min_var
    and max_var None.
    """

    variances: dict
    count: int
    vacuum_vars: dict
    expected_vars: dict
    n_slots: int
    boundary_slots: int
    peak_active_modes: int
    wall_time_s: float

    def ratios(self) -> dict:
        """Variance normalized by the vacuum value per form; empty when
        every evaluated slot is a boundary slot."""
        if not self.count:
            return {}
        return {name: var / self.vacuum_vars[name]
                for name, var in self.variances.items()}

    def to_dict(self) -> dict:
        n = self.count
        return {
            "n_slots": self.n_slots,
            "boundary_slots": self.boundary_slots,
            "peak_active_modes": self.peak_active_modes,
            "forms": {
                name: {
                    "count": n,
                    "mean_var": var if n else 0.0,
                    "min_var": var if n else None,
                    "max_var": var if n else None,
                    "vacuum_var": self.vacuum_vars[name],
                    "expected_var": self.expected_vars[name],
                }
                for name, var in self.variances.items()
            },
            "timings": {"stream_s": self.wall_time_s},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _stream(spec: NetworkSpec, n_slots: int, sink=None,
            loss=None) -> StreamStats:
    """Stream n_slots slots of spec.  Each form reports its expected_var;
    loss is a transmission applied to every form (a form of vacuum
    variance v becomes eta var + (1 - eta) v).  A sink, when given,
    receives one record {"slot", "boundary", "forms"} per slot."""
    if loss is not None and not 0.0 < loss <= 1.0:
        raise ValueError("loss transmission must be in (0, 1]")
    start = time.perf_counter()
    forms = derive_squeezed_forms(spec)
    vals = {}
    for form in forms:
        var = form.expected_var
        if loss is not None:
            var = loss * var + (1 - loss) * form.vacuum_var
        vals[form.name] = var
    n_eval = max(0, n_slots - max(f.support for f in forms) + 1)
    boundary = min(n_eval, spec.max_delay)
    if sink is not None:
        for k in range(n_eval):
            sink({"slot": k, "boundary": k < boundary, "forms": dict(vals)})

    return StreamStats(
        variances=vals,
        count=n_eval - boundary,
        vacuum_vars={f.name: f.vacuum_var for f in forms},
        expected_vars={f.name: f.expected_var for f in forms},
        n_slots=n_slots,
        boundary_slots=boundary,
        peak_active_modes=spec.n_arms + spec.n_delay_slots,
        wall_time_s=time.perf_counter() - start,
    )


def stream_1d(n_pulses: int, r: float, sink=None, loss=None) -> StreamStats:
    """Stream the 1D chain for n_pulses slots; see _stream for semantics."""
    if n_pulses < 2:
        raise ValueError("need at least 2 pulses")
    return _stream(network_1d(r), n_pulses, sink=sink, loss=loss)


def stream_2d(n_steps: int, width: int, r: float, sink=None,
              loss=None) -> StreamStats:
    """Stream the 2D lattice: n_steps rows of `width` sites."""
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    return _stream(network_2d(r, width), n_steps, sink=sink, loss=loss)


def emitted_covariance(spec: NetworkSpec, n_slots: int):
    """Joint covariance of every emitted pulse, stepping the delay-line
    covariance slot by slot.

    This is the only recursion of the delay-line state and the only user
    of the one-slot matrix.  Equality with a dense whole-network
    simulation checks the slot map end to end, and the form variances it
    gives are the reference for the expected_var that _stream reports.
    Returns (cov, index_map) with index_map[(slot, arm)] -> mode.
    """
    m = _slot_matrix(spec)
    a2 = 2 * spec.n_arms
    of, ow = m[:a2, :a2], m[:a2, a2:]
    wf, ww = m[a2:, :a2], m[a2:, a2:]
    v_f = _fresh_cov(spec)

    total = a2 * n_slots
    cov = np.zeros((total, total))
    # cross[j] = Cov(emitted slot j, current delay content)
    cross = {}
    v_w = 0.5 * np.eye(2 * spec.n_delay_slots)
    for k in range(n_slots):
        sl = slice(a2 * k, a2 * (k + 1))
        cov[sl, sl] = of @ v_f @ of.T + ow @ v_w @ ow.T
        for j, r_j in cross.items():
            block = r_j @ ow.T
            sj = slice(a2 * j, a2 * (j + 1))
            cov[sj, sl] = block
            cov[sl, sj] = block.T
        # the delay pipeline is feed-forward (ww nilpotent), so each
        # correlation dies after a few slots; drop it once exactly zero
        for j in list(cross):
            cross[j] = cross[j] @ ww.T
            if not cross[j].any():
                del cross[j]
        cross[k] = of @ v_f @ wf.T + ow @ v_w @ ww.T
        v_w = wf @ v_f @ wf.T + ww @ v_w @ ww.T
    index_map = {(k, arm): a2 * k // 2 + arm
                 for k in range(n_slots) for arm in range(spec.n_arms)}
    return cov, index_map


def csv_sink(fh):
    """Sink writing one CSV row per slot: slot, boundary, then form vars.

    The columns are the first record's form names, sorted.  A row's tail
    (boundary and variances) is formatted only when it differs from the
    previous record's, so each steady-state slot costs one comparison
    and one write.  Only the last tail is kept, so memory stays constant
    whether or not the run reaches steady state.  Rows holding a zero
    are never reused, because 0.0 == -0.0 yet they print differently.
    """
    names = None
    last_boundary, last_forms, last_tail = None, None, ""

    def sink(record):
        nonlocal names, last_boundary, last_forms, last_tail
        forms, boundary = record["forms"], record["boundary"]
        if names is None:
            names = sorted(forms)
            fh.write(f"slot,boundary,{','.join(names)}\n")
        if boundary != last_boundary or forms != last_forms:
            values = [forms[n] for n in names]
            vals = ",".join(f"{v:.12g}" for v in values)
            last_tail = f",{int(boundary)},{vals}\n"
            last_boundary = boundary
            last_forms = None if 0 in values else dict(forms)
        fh.write(f"{record['slot']}{last_tail}")
    return sink
