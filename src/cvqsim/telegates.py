"""Measurement-induced (teleportation-based) gates.

Three gadgets are provided:

* `teleport`: the two-ancilla EPR teleporter with homodyne Bell
  measurement and displacement feedforward, on the Gaussian backend.
* `tele_squeeze`: single-ancilla measurement-induced squeezing, one
  beam splitter + one homodyne + one feedforward displacement.  Its
  settings come from `squeeze_gadget`, which the loop compiler uses for
  its squeeze_tele gate too.
* `tele_cubic`: gate teleportation of the cubic phase gate on the Fock
  backend; gamma = 0 is identity teleportation.

Semantics. A homodyne-plus-feedforward gadget defines a deterministic
channel: completing each measured quadrature with its feedforward term
turns the whole gadget into a linear map on quadrature operators, and
the output state is obtained by propagating moments through that map
and discarding the measured modes.  The Gaussian gadgets here return
exactly that channel output, which is why the unit-gain teleporter adds
exactly exp(-2 r) of variance per quadrature with no dependence on the
measurement record.  Homodyne outcomes are still sampled, each by
gaussian.sample_quadrature conditioned on the readings before it (the
true pre-feedforward joint), and reported for traceability.

On the Fock backend the same completion is applied algebraically before
any state is built: at unit gain the teleporter's output operators are
x - sqrt(2) e^{-r} v_x and p + sqrt(2) e^{-r} v_p with v the ancilla
vacuum quadratures, i.e. the channel is a random displacement with
variance exp(-2 r_env) per quadrature.  `tele_cubic` commutes the cubic
of the resource state through the displacement feedforward; the
quadratic/linear phase corrections cancel exactly and the net circuit
action is the cubic gate applied after the teleportation noise.  This
reduction is what keeps a strongly squeezed resource simulable at a
modest cutoff: no intermediate state ever leaves the representable
region, while the channel it generates is reproduced exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock as fk
from . import gaussian as g
from .gaussian import as_rng

MAX_CUBIC_GAMMA = 0.3


class FeedforwardRangeError(RuntimeError):
    """A feedforward correction exceeds its configured range."""


@dataclass
class TeleReport:
    """Result of a teleportation-based gate.

    Attributes:
        output: the surviving mode after feedforward.
        outcomes: sampled homodyne readings, in measurement order.
        gain: feedforward gain that was applied.
        added_noise_x / added_noise_p: variance added on top of the
            ideal gate output (both >= 0).
        fidelity_vs_ideal: fidelity between output and the ideal gate
            applied directly to the input.
        leakage: Fock truncation leakage of the output, None for
            Gaussian-backend gates.
    """

    output: object
    outcomes: list
    gain: float
    added_noise_x: float
    added_noise_p: float
    fidelity_vs_ideal: float
    leakage: float | None = None


# ---------------------------------------------------------------------------
# Gaussian backend


def teleport(state: g.GaussianState, r_anc: float, gain: float = 1.0,
             rng_seed=0) -> TeleReport:
    """Teleport a single-mode Gaussian state through a finite-squeezing EPR pair.

    Circuit: x-squeezed and p-squeezed ancillas meet on a 50:50 beam
    splitter (EPR pair), the input meets one half on a second 50:50
    splitter, x is read on one port and p on the other, and the other
    EPR half is displaced by (-sqrt2 g m_x, +sqrt2 g m_p).

    At gain 1 the channel output is the input with exactly exp(-2 r_anc)
    of extra variance on each quadrature; for a coherent input the
    fidelity is 1/(1 + exp(-2 r_anc)).
    """
    if state.n_modes != 1:
        raise ValueError("teleport expects a single-mode input")
    if r_anc < 0:
        raise ValueError("ancilla squeezing must be >= 0")
    if not 0.0 <= gain <= 2.0:
        raise ValueError("gain must lie in [0, 2]")
    rng = as_rng(rng_seed)

    prep = g.tensor(state, g.vacuum(2))
    prep = g.squeeze(prep, 1, r_anc)
    prep = g.squeeze(prep, 2, -r_anc)
    prep = g.beam_splitter(prep, 1, 2, 0.5)

    # sampled Bell readings (for the report only; the channel output is
    # outcome-independent at any fixed gain)
    work = g.beam_splitter(prep, 0, 1, 0.5)
    m_x = g.sample_quadrature(work, 1, 0.0, rng)
    m_p = g.sample_quadrature(work, 0, np.pi / 2, rng, [(1, 0.0, m_x)])

    # complete the measured quadratures with their feedforward terms:
    # x_B picks up -sqrt2 g m_x, p_B picks up +sqrt2 g m_p.  The map is
    # composed before it touches the state: applying the Bell splitter
    # and the feedforward one after the other cancels against the
    # antisqueezed ancilla variances and loses precision.
    bell = np.eye(6)
    bell[:4, :4] = g.beamsplitter_matrix(0.5)
    root2g = math.sqrt(2.0) * gain
    total = (g.feedforward_matrix(3, 2, 1, 0.0, -root2g, 0.0)
             @ g.feedforward_matrix(3, 2, 0, np.pi / 2, 0.0, root2g) @ bell)
    out = g.remove_modes(g.apply_local(prep, (0, 1, 2), total), (0, 1))

    ideal = state if gain == 1.0 else g.GaussianState(
        gain * state.mean, gain * gain * state.cov)
    return TeleReport(
        output=out,
        outcomes=[m_x, m_p],
        gain=gain,
        added_noise_x=float(out.cov[0, 0] - ideal.cov[0, 0]),
        added_noise_p=float(out.cov[1, 1] - ideal.cov[1, 1]),
        fidelity_vs_ideal=g.fidelity(state, out),
    )


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
    if y < 1.0:
        transmissivity = y * y
        ff = -math.sqrt((1.0 - transmissivity) / transmissivity)
        return transmissivity, "x", math.pi / 2, (0.0, ff)
    transmissivity = 1.0 / (y * y)
    ff = -math.sqrt((1.0 - transmissivity) / transmissivity)
    return transmissivity, "p", 0.0, (ff, 0.0)


def tele_squeeze(state: g.GaussianState, y: float, r_anc: float,
                 rng_seed=0) -> TeleReport:
    """Measurement-induced squeezing gate S(y): x -> y x, p -> p / y.

    One ancilla, one beam splitter, one homodyne and one feedforward
    displacement, set by squeeze_gadget(y).  y = 1 bypasses the gadget.
    """
    if state.n_modes != 1:
        raise ValueError("tele_squeeze expects a single-mode input")
    transmissivity, orientation, theta, (gx, gp) = squeeze_gadget(y)
    if y == 1.0:
        return TeleReport(output=state, outcomes=[], gain=0.0,
                          added_noise_x=0.0, added_noise_p=0.0,
                          fidelity_vs_ideal=1.0)
    ideal = g.squeeze(state, 0, -math.log(y))

    prep = g.tensor(state, g.vacuum(1))
    prep = g.squeeze(prep, 1, r_anc if orientation == "x" else -r_anc)

    work = g.beam_splitter(prep, 0, 1, transmissivity)
    m = g.sample_quadrature(work, 1, theta, rng_seed)

    # complete the output quadrature of the measured basis with the
    # reading; compose first, for the same precision reason as in teleport
    total = (g.feedforward_matrix(2, 0, 1, theta, gx, gp)
             @ g.beamsplitter_matrix(transmissivity))
    out = g.remove_modes(g.apply_local(prep, (0, 1), total), (1,))

    return TeleReport(
        output=out,
        outcomes=[m],
        gain=gx + gp,          # the one nonzero gain
        added_noise_x=float(out.cov[0, 0] - ideal.cov[0, 0]),
        added_noise_p=float(out.cov[1, 1] - ideal.cov[1, 1]),
        fidelity_vs_ideal=g.fidelity(ideal, out),
    )


# ---------------------------------------------------------------------------
# Fock backend


def _bell_reading_stats(state: fk.FockState, r_env: float):
    """Mean/variance of the two Bell homodyne readings for this input."""
    mean, cov = fk.covariance_of(state)
    half_var = math.cosh(2.0 * r_env) / 2.0   # EPR marginal variance
    mu_x, mu_p = -mean[0] / math.sqrt(2.0), mean[1] / math.sqrt(2.0)
    var_x = (cov[0, 0] + half_var) / 2.0
    var_p = (cov[1, 1] + half_var) / 2.0
    return (mu_x, var_x), (mu_p, var_p)


def tele_cubic(state: fk.FockState, gamma: float, r_env: float,
               rng_seed=0, shear_limit: float | None = None,
               leakage_budget: float | None = None) -> TeleReport:
    """Teleportation-based cubic phase gate exp(i gamma x^3).

    The resource is an EPR pair whose output half carries the cubic
    phase; the input and the other half are Bell-measured and the
    surviving mode receives the displacement feedforward plus the
    outcome-dependent quadratic/linear phase (shear) corrections that
    arise from commuting the cubic past the displacement.

    Those corrections cancel the commutator exactly, so the gadget's
    net action is the cubic gate applied after the teleportation
    channel.  The implementation evaluates that net form: the residual
    feedforward noise, a displacement with variance exp(-2 r_env) per
    quadrature, is sampled and applied to the input, then the cubic
    gate acts.  Nothing wider than the input itself is ever represented,
    so the cutoff requirement is set by the input, not the resource.

    As r_env grows the output converges to apply_cubic of the input;
    gamma = 0 is identity teleportation.

    Raises:
        FeedforwardRangeError: the outcome-dependent shear coefficient
            exceeds shear_limit (when one is configured).
        LeakageError: output leakage exceeds leakage_budget (when set).
    """
    if state.n_modes != 1:
        raise ValueError("tele_cubic expects a single-mode input")
    if abs(gamma) > MAX_CUBIC_GAMMA:
        raise ValueError(f"|gamma| must be <= {MAX_CUBIC_GAMMA}")
    if r_env <= 0:
        raise ValueError("r_env must be positive")
    rng = as_rng(rng_seed)

    (mu_x, var_x), (mu_p, var_p) = _bell_reading_stats(state, r_env)
    m_x = float(rng.normal(mu_x, math.sqrt(var_x)))
    m_p = float(rng.normal(mu_p, math.sqrt(var_p)))

    # shear correction strength for the sampled record: quadratic phase
    # coefficient 3 gamma |dx| with dx = -sqrt2 m_x
    shear = 3.0 * abs(gamma) * math.sqrt(2.0) * abs(m_x)
    if shear_limit is not None and shear > shear_limit:
        raise FeedforwardRangeError(
            f"shear correction {shear:.3f} exceeds limit {shear_limit:.3f}")

    noise_var = math.exp(-2.0 * r_env)
    dx = float(rng.normal(0.0, math.sqrt(noise_var)))
    dp = float(rng.normal(0.0, math.sqrt(noise_var)))

    out = fk.displace_fock(state, 0, dx, dp)
    if gamma != 0.0:
        out = fk.apply_cubic(out, 0, gamma, leakage_budget=None)
        ideal = fk.apply_cubic(state, 0, gamma, leakage_budget=None)
    else:
        ideal = state
    leak = out.leakage()
    if leakage_budget is not None and leak > leakage_budget:
        raise fk.LeakageError(
            f"output leakage {leak:.3e} exceeds {leakage_budget:.1e}")

    return TeleReport(
        output=out,
        outcomes=[m_x, m_p],
        gain=1.0,
        added_noise_x=noise_var,
        added_noise_p=noise_var,
        fidelity_vs_ideal=fk.fidelity_fock(ideal, out),
        leakage=leak,
    )


def channel_fidelity(state: fk.FockState, gamma: float, r_env: float,
                     nodes: int = 16) -> float:
    """Noise-averaged fidelity of the teleportation-based cubic gate.

    Deterministic companion to tele_cubic: integrates the per-shot
    fidelity over the Gaussian feedforward-residual displacement by
    Gauss-Hermite quadrature instead of sampling it.  For a coherent
    input this equals 1/(1 + exp(-2 r_env)).
    """
    if state.n_modes != 1:
        raise ValueError("channel_fidelity expects a single-mode input")
    sigma = math.exp(-r_env)
    xs, ws = np.polynomial.hermite_e.hermegauss(nodes)
    ws = ws / math.sqrt(2.0 * math.pi)
    # the cubic gate is exactly unitary on the truncated space, so the
    # per-displacement fidelity does not depend on gamma
    total = 0.0
    for dx, wx in zip(sigma * xs, ws):
        for dp, wp in zip(sigma * xs, ws):
            shifted = fk.displace_fock(state, 0, dx, dp)
            total += wx * wp * fk.fidelity_fock(state, shifted)
    return float(total)
