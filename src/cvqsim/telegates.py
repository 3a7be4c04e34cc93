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
random displacement D with variance exp(-2 r_env) per quadrature.  That
completion is applied algebraically before any state is built, so no
Bell reading is drawn, and the cubic's quadratic/linear phase
corrections cancel exactly: the net action is the cubic gate after D.
The cubic gate is exactly unitary on the truncated space, so the
fidelity with the ideal gate output is F(psi, D psi) whatever gamma,
the one term both functions evaluate.  No intermediate state is wider
than the input, so a strongly squeezed resource needs no more cutoff.
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
        added_noise_x / added_noise_p: variance added on top of the
            ideal gate output (both >= 0).
        fidelity_vs_ideal: fidelity between output and the ideal gate
            applied directly to the input, F(psi, D psi).
        leakage: Fock truncation leakage of the output.
    """

    output: object
    added_noise_x: float
    added_noise_p: float
    fidelity_vs_ideal: float
    leakage: float


def _displaced(state: fk.FockState, dx: float, dp: float):
    """(D psi, F(psi, D psi)) for one feedforward residual (dx, dp)."""
    shifted = fk.displace_fock(state, 0, dx, dp)
    return shifted, fk.fidelity_fock(state, shifted)


def tele_cubic(state: fk.FockState, gamma: float, r_env: float,
               rng_seed=0) -> TeleReport:
    """Teleportation-based cubic phase gate exp(i gamma x^3).

    The resource is an EPR pair whose output half carries the cubic
    phase; the input and the other half are Bell-measured and the
    surviving mode receives the displacement feedforward plus the
    shear corrections that commuting the cubic past it requires.  The
    gadget runs in its net form (module docstring): the residual
    displacement is sampled and applied to the input, then the cubic
    gate acts once.  As r_env grows the output converges to
    apply_cubic of the input.  The output's leakage is reported, not
    checked against a budget.
    """
    if state.n_modes != 1:
        raise ValueError("tele_cubic expects a single-mode input")
    if abs(gamma) > MAX_CUBIC_GAMMA:
        raise ValueError(f"|gamma| must be <= {MAX_CUBIC_GAMMA}")
    if r_env <= 0:
        raise ValueError("r_env must be positive")
    rng = as_rng(rng_seed)

    noise_var = math.exp(-2.0 * r_env)
    dx = float(rng.normal(0.0, math.sqrt(noise_var)))
    dp = float(rng.normal(0.0, math.sqrt(noise_var)))

    out, fidelity = _displaced(state, dx, dp)
    if gamma != 0.0:
        out = fk.apply_cubic(out, 0, gamma)

    return TeleReport(
        output=out,
        added_noise_x=noise_var,
        added_noise_p=noise_var,
        fidelity_vs_ideal=fidelity,
        leakage=out.leakage(),
    )


def channel_fidelity(state: fk.FockState, gamma: float, r_env: float,
                     nodes: int = 16) -> float:
    """Noise-averaged fidelity of the teleportation-based cubic gate.

    Deterministic companion to tele_cubic: integrates its per-shot
    fidelity F(psi, D psi), which does not depend on gamma, over the
    Gaussian feedforward-residual displacement by Gauss-Hermite
    quadrature instead of sampling it.  For a coherent input this
    equals 1/(1 + exp(-2 r_env)).
    """
    if state.n_modes != 1:
        raise ValueError("channel_fidelity expects a single-mode input")
    sigma = math.exp(-r_env)
    xs, ws = np.polynomial.hermite_e.hermegauss(nodes)
    ws = ws / math.sqrt(2.0 * math.pi)
    total = 0.0
    for dx, wx in zip(sigma * xs, ws):
        for dp, wp in zip(sigma * xs, ws):
            total += wx * wp * _displaced(state, dx, dp)[1]
    return float(total)
