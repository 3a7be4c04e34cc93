"""Independent reference implementations used as test oracles.

Everything in this file deliberately avoids the production code paths it
is used to check: linear maps are applied as dense whole-state products,
conditioning is done with explicit block partitioning and pseudoinverses,
fidelities with grid quadrature over Wigner functions, network
streaming with a dense whole-network state, the loop processor by
visiting every slot, one gate and one loss at a time, and the linear
cluster by its CZ gates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

from cvqsim import fock as fk
from cvqsim import gaussian as g
from cvqsim.gaussian import as_rng
from cvqsim.loop import LoopRunLog, LoopScheduleError, squeeze_gadget
from cvqsim.tdm import NetworkSpec


def embed(block: np.ndarray, modes, n_modes: int) -> np.ndarray:
    """Embed a 2k x 2k block acting on `modes` into the 2n x 2n identity."""
    s = np.eye(2 * n_modes)
    idx = [q for m in modes for q in (2 * m, 2 * m + 1)]
    s[np.ix_(idx, idx)] = block
    return s


def apply_dense(state: g.GaussianState, s: np.ndarray) -> g.GaussianState:
    """Apply a full 2n x 2n linear map with two dense products."""
    cov = s @ state.cov @ s.T
    return g.GaussianState(s @ state.mean, (cov + cov.T) / 2.0)


def random_pure_state(n_modes: int, rng: np.random.Generator,
                      r_max: float = 1.5) -> g.GaussianState:
    """Random pure Gaussian state built from squeezers, phases, BS, displacements."""
    st = g.vacuum(n_modes)
    for m in range(n_modes):
        st = g.squeeze(st, m, rng.uniform(-r_max, r_max))
        st = g.phase_shift(st, m, rng.uniform(0, 2 * np.pi))
    for _ in range(2 * n_modes):
        i, j = rng.choice(n_modes, size=2, replace=False) if n_modes > 1 else (0, 0)
        if n_modes > 1:
            st = g.beam_splitter(st, int(i), int(j), rng.uniform(0.1, 0.9))
    for m in range(n_modes):
        st = g.displace(st, m, rng.normal(0, 1), rng.normal(0, 1))
    return st


def random_mixed_state(n_modes: int, rng: np.random.Generator) -> g.GaussianState:
    st = random_pure_state(n_modes, rng)
    for m in range(n_modes):
        st = g.loss(st, m, rng.uniform(0.3, 1.0))
    return st


def condition_oracle(state: g.GaussianState, mode: int, theta: float,
                     outcome: float) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force conditioning of the joint normal on q_theta = outcome.

    Builds the stacked vector (R, q) with an explicit coefficient matrix,
    applies the partitioned-Gaussian formula with a pseudoinverse, and
    returns (mean, cov) of R, the quadratures of all unmeasured modes.
    """
    n = state.n_modes
    rows = []
    for i in range(2 * n):
        if i // 2 != mode:
            e = np.zeros(2 * n)
            e[i] = 1.0
            rows.append(e)
    c = np.zeros(2 * n)
    c[2 * mode] = np.cos(theta)
    c[2 * mode + 1] = np.sin(theta)
    rows.append(c)
    f = np.array(rows)
    mu = f @ state.mean
    sig = f @ state.cov @ f.T
    k = len(rows) - 1
    sig_rr = sig[:k, :k]
    sig_rq = sig[:k, k:]
    sig_qq = sig[k:, k:]
    inv = np.linalg.pinv(sig_qq)
    mean = mu[:k] + (sig_rq @ inv @ np.array([outcome - mu[k]])).ravel()
    cov = sig_rr - sig_rq @ inv @ sig_rq.T
    return mean, cov


def overlap_wigner_grid(a: g.GaussianState, b: g.GaussianState,
                        half_width: float = 12.0, n_pts: int = 801) -> float:
    """Tr(rho_a rho_b) for single-mode Gaussians by direct Wigner quadrature.

    Tr(rho1 rho2) = 2 pi  integral W1 W2 dx dp.
    """
    assert a.n_modes == b.n_modes == 1
    xs = np.linspace(-half_width, half_width, n_pts)
    dx = xs[1] - xs[0]
    gx, gp = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gp.ravel()], axis=1)

    def wig(st):
        d = pts - st.mean
        vinv = np.linalg.inv(st.cov)
        expo = -0.5 * np.einsum("ni,ij,nj->n", d, vinv, d)
        return np.exp(expo) / (2 * np.pi * np.sqrt(np.linalg.det(st.cov)))

    return float(2 * np.pi * np.sum(wig(a) * wig(b)) * dx * dx)


def expm_unitary(gen: np.ndarray) -> np.ndarray:
    """exp(gen) of an anti-Hermitian generator by Pade scaling and squaring."""
    return scipy.linalg.expm(gen)


def sqrtm_real(m: np.ndarray) -> np.ndarray:
    """Principal square root of a real positive-definite matrix."""
    return scipy.linalg.sqrtm(m).real


def bs_block_generator(cutoff: int, total: int, theta: float) -> np.ndarray:
    """theta (a1^dag a2 - a1 a2^dag) on the block {|k, total-k>}.

    Each element <k', total-k'| . |k, total-k> is taken from the dense
    truncated ladder matrices, mode by mode.
    """
    lower = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    ks = np.arange(max(0, total - cutoff + 1), min(total, cutoff - 1) + 1)
    one, two = np.ix_(ks, ks), np.ix_(total - ks, total - ks)
    return theta * (lower.T[one] * lower[two] - lower[one] * lower.T[two])


def displacement_element(m: int, n: int, alpha: complex) -> complex:
    """<m|D(alpha)|n> of the untruncated displacement (Cahill & Glauber,
    Phys. Rev. 177, 1857 (1969)): for m >= n,
    sqrt(n!/m!) alpha^(m-n) e^(-|alpha|^2/2) L_n^(m-n)(|alpha|^2), and
    <m|D(alpha)|n> = conj(<n|D(-alpha)|m>) otherwise.
    """
    if m < n:
        return np.conj(displacement_element(n, m, -alpha))
    x, k = abs(alpha) ** 2, m - n
    # generalized Laguerre L_n^(k)(x) by its three-term recurrence
    prev, cur = 0.0, 1.0
    for j in range(n):
        prev, cur = cur, ((2 * j + 1 + k - x) * cur - (j + k) * prev) / (j + 1)
    ratio = math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)))
    return ratio * alpha ** k * math.exp(-x / 2) * cur


def homodyne_fock_full_pdf(state, mode: int, theta: float, rng_seed):
    """fock.homodyne_fock with the density formed from all amplitudes.

    pdf(x) = sum over the other modes of |sum_n psi_n(x) amps[n, ...]|^2,
    built as the (grid, cutoff**(modes - 1)) matrix psi.T @ amps.  The
    grid is placed, as in homodyne_fock, from the mean Tr(rho x) and the
    variance Tr(rho x^2) - mean^2 of the mode's reduced density matrix
    rho, here formed from the rotated state; the draw and the projection
    are those of homodyne_fock.
    Returns (outcome, post-state amplitudes, pdf, grid).
    """
    rng = g.as_rng(rng_seed)
    work = fk.phase_fock(state, mode, -theta) if theta != 0.0 else state
    moved = np.ascontiguousarray(
        np.moveaxis(work.amps, mode, 0)).reshape(work.cutoff, -1)
    flat = moved.view(float)
    rho = flat @ flat.T  # Re(moved moved^dag)
    x = fk.position_op(work.cutoff)
    xrho = x @ rho
    mu = np.trace(xrho)
    sigma = np.sqrt(np.trace(x @ xrho) - mu ** 2)
    span = fk.HOMODYNE_GRID_SIGMAS
    xs = np.linspace(mu - span * sigma, mu + span * sigma,
                     fk.HOMODYNE_GRID_POINTS)
    psi = fk.hermite_functions(xs, work.cutoff)
    pdf = np.sum(np.abs(psi.T @ moved) ** 2, axis=1)
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    idx = int(np.argmin(np.abs(xs - np.interp(rng.uniform(), cdf, xs))))
    post = np.tensordot(psi[:, idx], np.moveaxis(work.amps, mode, 0),
                        axes=([0], [0]))
    return float(xs[idx]), post / np.linalg.norm(post), pdf, xs


def random_network(rng) -> NetworkSpec:
    """A random tdm network: 2 or 4 arms, 1-7 stages, splitters at
    T = 0, 1/2, 1 or uniform, delays of 1-4 slots."""
    n_arms = int(rng.choice([2, 4]))
    squeezers = tuple((str(rng.choice(["x", "p"])), float(rng.uniform(0, 4)))
                      for _ in range(n_arms))
    stages = []
    for _ in range(int(rng.integers(1, 8))):
        if rng.random() < 0.5:
            i, j = (int(a) for a in rng.choice(n_arms, 2, replace=False))
            t = rng.choice([0.0, 0.5, 1.0, float(rng.uniform())])
            stages.append(("bs", i, j, float(t)))
        else:
            stages.append(("delay", int(rng.integers(n_arms)),
                           int(rng.integers(1, 5))))
    return NetworkSpec(squeezers=squeezers, stages=tuple(stages))


def unroll_network(spec: NetworkSpec, n_slots: int):
    """A tdm network over n_slots slots as one gate list on numbered pulses.

    One pulse per arm per slot, pulse slot * n_arms + arm, squeezed as
    the spec says; then one vacuum pulse per unit of delay, which primes
    the delay's queue.  A delay is a FIFO of pulse ids and each bs stage
    one ("bs", pulse_i, pulse_j, T) gate, stages in spec order within a
    slot.  Returns (input state, gates, emitted), emitted[(slot, arm)]
    the pulse that arm emits in that slot.
    """
    n_arms = spec.n_arms
    n_fresh = n_arms * n_slots
    st = g.vacuum(n_fresh + spec.n_delay_slots)
    for slot in range(n_slots):
        for arm, (orient, r) in enumerate(spec.squeezers):
            st = g.squeeze(st, slot * n_arms + arm, r if orient == "x" else -r)
    queues, primer = {}, n_fresh
    for stage_id, s in enumerate(spec.stages):
        if s[0] == "delay":
            queues[stage_id] = list(range(primer, primer + s[2]))
            primer += s[2]
    gates, emitted = [], {}
    for slot in range(n_slots):
        current = [slot * n_arms + arm for arm in range(n_arms)]
        for stage_id, s in enumerate(spec.stages):
            if s[0] == "bs":
                _, ai, aj, t = s
                gates.append(("bs", current[ai], current[aj], t))
            else:
                queues[stage_id].append(current[s[1]])
                current[s[1]] = queues[stage_id].pop(0)
        for arm in range(n_arms):
            emitted[(slot, arm)] = current[arm]
    return st, gates, emitted


def dense_network_run(spec: NetworkSpec, n_slots: int):
    """Dense whole-network TDM oracle.

    Creates one mode per (arm, slot) plus one vacuum mode per unit of
    initial delay occupancy (unroll_network's pulses), then applies each
    splitter to the whole state in turn, delays being the re-indexing of
    modes.  Returns the final GaussianState over emitted modes, in mode
    order, plus the index map {(slot, arm): mode}.
    """
    st, gates, emitted = unroll_network(spec, n_slots)
    for _, i, j, t in gates:
        st = g.beam_splitter(st, i, j, t)
    keep = set(emitted.values())
    st = g.remove_modes(st, [i for i in range(st.n_modes) if i not in keep])
    rank = {old: new for new, old in enumerate(sorted(keep))}
    return st, {key: rank[old] for key, old in emitted.items()}


def dsl_gaussian_dense(program, seed):
    """Dense replay of a gate-list program on the Gaussian backend.

    Every gate is an embedded whole-state matrix applied with
    apply_dense, loss is a dense contraction plus vacuum noise, a
    homodyne freezes its full-width quadrature row, and ff applies the
    whole-state operator I + rows: x_t += gx c, p_t += gp c.  Each
    homodyne outcome is drawn from the normal law of its row given the
    earlier frozen rows at their recorded values (dense Gaussian
    conditioning), so outcomes follow their joint distribution.  Returns
    (outcomes, reports) in the runner's format; fidelity reports are
    left out.
    """
    n = len(program.modes)
    index = {m: i for i, m in enumerate(program.modes)}
    st = g.vacuum(n)
    rng = g.as_rng(seed)
    rows, frozen, outcomes, reports = {}, set(), [], []
    for ins in program.instructions:
        a = ins.args
        if ins.op == "sq":
            r = a[1] if a[2] == "x" else -a[1]
            s = embed(np.diag([np.exp(-r), np.exp(r)]), (index[a[0]],), n)
            st = apply_dense(st, s)
        elif ins.op == "ps":
            c, s_ = np.cos(a[1]), np.sin(a[1])
            s = embed(np.array([[c, -s_], [s_, c]]), (index[a[0]],), n)
            st = apply_dense(st, s)
        elif ins.op == "bs":
            t, rk = np.sqrt(a[2]), np.sqrt(1.0 - a[2])
            blk = np.kron(np.array([[t, rk], [-rk, t]]), np.eye(2))
            st = apply_dense(st, embed(blk, (index[a[0]], index[a[1]]), n))
        elif ins.op == "disp":
            mean = st.mean.copy()
            mean[2 * index[a[0]]:2 * index[a[0]] + 2] += (a[1], a[2])
            st = g.GaussianState(mean, st.cov)
        elif ins.op == "loss":
            k = index[a[0]]
            st = apply_dense(st, embed(np.sqrt(a[1]) * np.eye(2), (k,), n))
            cov = st.cov.copy()
            cov[2 * k, 2 * k] += (1.0 - a[1]) / 2
            cov[2 * k + 1, 2 * k + 1] += (1.0 - a[1]) / 2
            st = g.GaussianState(st.mean, cov)
        elif ins.op == "hom":
            k = index[a[0]]
            c = np.zeros(2 * n)
            c[2 * k], c[2 * k + 1] = np.cos(a[1]), np.sin(a[1])
            mu, var = c @ st.mean, c @ st.cov @ c
            if rows:
                f = np.array(list(rows.values()))
                seen = np.array([o["value"] for o in outcomes])
                cross = f @ st.cov @ c
                gain = np.linalg.solve(f @ st.cov @ f.T, cross)
                mu += gain @ (seen - f @ st.mean)
                var -= gain @ cross
            value = float(rng.normal(mu, np.sqrt(max(var, 0.0))))
            rows[a[2]] = c
            frozen.add(k)
            outcomes.append({"id": a[2], "value": value})
        elif ins.op == "ff":
            t = index[a[1]]
            op = np.eye(2 * n)
            op[2 * t] += a[2] * rows[a[0]]
            op[2 * t + 1] += a[3] * rows[a[0]]
            st = apply_dense(st, op)
        elif ins.op == "report" and a[0] in ("cov", "form"):
            keep = [q for q in range(2 * n) if q // 2 not in frozen]
            mean, cov = st.mean[keep], st.cov[np.ix_(keep, keep)]
            if a[0] == "cov":
                reports.append({"type": "cov", "mean": mean, "cov": cov})
            else:
                c = np.array(a[1])
                reports.append({"type": "form", "mean": c @ mean,
                                "variance": c @ cov @ c})
    return outcomes, reports


def csv_reference(records) -> str:
    """CSV text for tdm records, formatted record by record.

    The header holds the first record's form names, sorted; every row is
    slot, boundary as 0/1, then each form's variance at .12g.  Nothing is
    reused between rows, so tdm.csv_sink must match it byte for byte.
    """
    lines = []
    for i, record in enumerate(records):
        names = sorted(record["forms"])
        if i == 0:
            lines.append(f"slot,boundary,{','.join(names)}\n")
        vals = ",".join(f"{record['forms'][n]:.12g}" for n in names)
        lines.append(f"{record['slot']},{int(record['boundary'])},{vals}\n")
    return "".join(lines)


def loop_slot_walk(config, program, input_state: g.GaussianState, rng_seed=0):
    """The loop engine one slot at a time: loop.simulate's reference.

    Every slot of the schedule is visited; each gate is applied on its
    own, and loss is applied at every outer pass and every inner-loop
    slot.  Same signature and result as loop.simulate.

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
            if step.vbs_T < 1.0 and inner is not None and pulse is not None:
                st = g.beam_splitter(st, inner, pulse, step.vbs_T)
            elif step.vbs_T == 0.0:
                outer[s], inner = inner, outer[s]
                pulse = outer[s]
            elif step.vbs_T < 1.0:
                raise LoopScheduleError(
                    f"slot {t}: beam splitter needs both ports occupied")
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


def cluster_target(n: int, r: float) -> np.ndarray:
    """Covariance of the n-mode linear cluster built from CZ gates:
    p_i += x_(i-1) + x_(i+1) on x-antisqueezed, p-squeezed vacua."""
    v0 = np.diag([x for _ in range(n)
                  for x in (math.exp(2 * r) / 2, math.exp(-2 * r) / 2)])
    c = np.eye(2 * n)
    for i in range(n - 1):
        c[2 * i + 1, 2 * (i + 1)] += 1.0       # p_i += x_{i+1}
        c[2 * (i + 1) + 1, 2 * i] += 1.0       # p_{i+1} += x_i
    return c @ v0 @ c.T


def tensor(a: g.GaussianState, b: g.GaussianState) -> g.GaussianState:
    """Product state of two uncorrelated states, modes of `a` first."""
    na, nb = 2 * a.n_modes, 2 * b.n_modes
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((na + nb, na + nb))
    cov[:na, :na] = a.cov
    cov[na:, na:] = b.cov
    return g.GaussianState(mean, cov)


class SqueezeReport(NamedTuple):
    output: g.GaussianState
    outcomes: list
    added_noise_x: float
    added_noise_p: float
    fidelity_vs_ideal: float


def tele_squeeze(state: g.GaussianState, y: float, r_anc: float,
                 rng_seed=0) -> SqueezeReport:
    """Measurement-induced squeezing gate S(y): x -> y x, p -> p / y.

    One ancilla, one beam splitter, one homodyne and one feedforward
    displacement, set by squeeze_gadget(y).  y = 1 bypasses the gadget.
    The loop's squeeze_tele reference: the circuit is composed into one
    map before it touches the state, so the antisqueezed ancilla
    variance cancels even at r_anc = 12.  The loop composes the same
    way, since its homodyne draws through the pending channel.
    """
    if state.n_modes != 1:
        raise ValueError("tele_squeeze expects a single-mode input")
    transmissivity, orientation, theta, (gx, gp) = squeeze_gadget(y)
    if y == 1.0:
        return SqueezeReport(output=state, outcomes=[], added_noise_x=0.0,
                             added_noise_p=0.0, fidelity_vs_ideal=1.0)
    ideal = g.squeeze(state, 0, -math.log(y))

    prep = tensor(state, g.vacuum(1))
    prep = g.squeeze(prep, 1, r_anc if orientation == "x" else -r_anc)

    work = g.beam_splitter(prep, 0, 1, transmissivity)
    m = g.sample_quadrature(work, 1, theta, rng_seed)

    # complete the output quadrature of the measured basis with the
    # reading; compose first: applying the splitter and the feedforward
    # one after the other cancels against the antisqueezed ancilla
    # variance and loses precision
    total = (g.feedforward_matrix(2, 0, 1, theta, gx, gp)
             @ g.beamsplitter_matrix(transmissivity))
    out = g.remove_modes(g.apply_local(prep, (0, 1), total), (1,))

    return SqueezeReport(
        output=out,
        outcomes=[m],
        added_noise_x=float(out.cov[0, 0] - ideal.cov[0, 0]),
        added_noise_p=float(out.cov[1, 1] - ideal.cov[1, 1]),
        fidelity_vs_ideal=g.fidelity(ideal, out),
    )
