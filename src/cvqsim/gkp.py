"""Approximate GKP qubits on the truncated Fock backend.

A logical |j> lives on the x-lattice sqrt(pi)*(2s+j).  The finite-energy
approximation used here is the standard peak-sum form (Gottesman, Kitaev
& Preskill 2001): x-squeezed peaks of width delta at the lattice sites,
weighted by a Gaussian envelope exp(-delta^2 mu^2 / 2).  Each peak's
Fock amplitudes below the cutoff come from their exact three-term
recurrence (Tzitrin et al. 2020), with no grid, quadrature or Fock
gate, so a state and its leakage are exact to rounding.  Logical X
and Z are quadrature displacements by sqrt(pi).  Error correction is a
classical rounding decision on a homodyne record
(monte_carlo_error_prob), with ties at half-spacing resolved toward the
even sublattice so results are deterministic.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fock
from .fock import FockState
from .gaussian import as_rng

ROOT_PI = math.sqrt(math.pi)
THRESHOLD_DB = 20.5
MIN_PEAK_WEIGHT = 1e-8
SYNTHESIS_BUDGET = 1e-4


@dataclass(frozen=True)
class GkpParams:
    delta: float
    cutoff: int = 100

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be finite and positive")
        if self.cutoff < 8:
            raise ValueError("cutoff too small for a lattice state")


class Logical(NamedTuple):
    """One logical: the peak positions and envelope weights entering the
    state sum, the sum projected to the cutoff and normalized, and its
    leakage, the norm lost beyond the cutoff, 1 - |P psi|^2 / |psi|^2,
    clamped at 0."""

    sites: np.ndarray
    weights: np.ndarray
    state: FockState
    leakage: float


def _peak(mu: float, delta: float, cutoff: int) -> np.ndarray:
    """Fock amplitudes, below the cutoff, of the unit peak at mu.

    They obey ((1 + delta^2) a + (1 - delta^2) a^dag) c = sqrt(2) mu c:
    fock.gaussian_recurrence at s = 2, t = tanh(-ln delta) and x =
    mu / (1 + delta^2) = mu (1 + t) / 2 (no power of delta overflows), with
    log envelope ln c_0 = ln sech(ln delta) / 2 - mu^2 (1 + t) / 4, so a
    far peak does not underflow to 0.  The peak at -mu is (-1)^n times it.
    """
    r = -math.log(delta)
    t = math.tanh(r)
    log_c0 = ((math.log(2.0) - abs(r) - math.log1p(math.exp(-2.0 * abs(r)))) / 2.0
              - mu ** 2 * (1.0 + t) / 4.0)
    return fock.gaussian_recurrence(np.array([mu * (1.0 + t) / 2.0]), 2.0, t,
                                    1.0, [log_c0], cutoff)[:, 0]


def _synthesis(delta: float, cutoff: int):
    """The Logical of |0> and of |1> (None if unfit).

    Each unit peak (pi delta^2)^(-1/4) exp(-(x - mu)^2 / (2 delta^2)) is
    built below the cutoff by its exact Fock recurrence (_peak), so its
    mass there is peak @ peak.  The leakage is the norm deficit against
    the exact w^T G w, with the Gram matrix
    G = exp(-(mu - nu)^2 / (4 delta^2)).

    Sites grow outward while the envelope weight is at least
    MIN_PEAK_WEIGHT, up to the first peak with less than half its mass
    below the cutoff; outer pairs are then dropped until the leakage
    fits the budget.  A logical whose first peak fails the half-mass
    test keeps no site, at O(cutoff) cost.
    """
    mirror = (-1.0) ** np.arange(cutoff)
    records = []
    for j in (0, 1):
        groups = []             # (site, weight, peak) per +-pair
        for m in itertools.count(j, 2):
            peak = _peak(m * ROOT_PI, delta, cutoff)
            if peak @ peak < 0.5:
                break
            w = math.exp(-delta ** 2 * (m * ROOT_PI) ** 2 / 2.0)
            if w < MIN_PEAK_WEIGHT:
                break
            groups.append([(0.0, w, peak)] if m == 0 else
                          [(m * ROOT_PI, w, peak), (-m * ROOT_PI, w, mirror * peak)])

        while groups:
            mus, weights, peaks = map(np.array, zip(*itertools.chain(*groups)))
            amps = weights @ peaks
            gram = np.exp(-np.subtract.outer(mus, mus) ** 2 / (4.0 * delta ** 2))
            kept = float(amps @ amps) / float(weights @ gram @ weights)
            if 1.0 - kept <= SYNTHESIS_BUDGET * 0.95:
                break
            groups.pop()
        records.append(None)
        if groups:
            order = np.argsort(mus)
            records[j] = Logical(mus[order], weights[order],
                                 FockState(amps / np.linalg.norm(amps)),
                                 max(0.0, 1.0 - kept))
    return tuple(records)


def logicals(params: GkpParams) -> tuple:
    """The Logical of |0> and of |1>, from one synthesis."""
    records = _synthesis(params.delta, params.cutoff)
    if None in records:
        raise ValueError(f"cutoff {params.cutoff} too small for delta {params.delta}")
    return records


def lattice_mass(state: FockState) -> float:
    """Fraction of x-quadrature mass within sqrt(pi)/4 of any lattice point."""
    half = math.sqrt(2.0 * state.cutoff) + 4.0
    xs = np.linspace(-half, half, 4001)
    dens = np.abs(state.amps @ fock.hermite_functions(xs, state.cutoff)) ** 2
    frac = xs / ROOT_PI
    dist = np.abs(frac - np.round(frac)) * ROOT_PI
    total = np.trapezoid(dens, xs)
    near = np.trapezoid(np.where(dist <= ROOT_PI / 4.0, dens, 0.0), xs)
    return float(near / total)


def logical_error_prob(sigma: float) -> float:
    """Probability a N(0, sigma) shift decodes to a logical flip.

    Sums the two-sided tails erfc(lo/sqrt 2) - erfc(hi/sqrt 2) of the
    odd cells, which keeps full relative precision where a difference
    of two CDFs near 1 would cancel to 0.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and >= 0")
    if sigma == 0.0:
        return 0.0

    p = 0.0
    k = 1
    while True:
        lo = (k - 0.5) * ROOT_PI / sigma
        hi = (k + 0.5) * ROOT_PI / sigma
        term = math.erfc(lo / math.sqrt(2.0)) - math.erfc(hi / math.sqrt(2.0))
        p += term
        if term <= 1e-17 * p and lo > 1.0:
            break
        k += 2
    return min(p, 0.5)


def monte_carlo_error_prob(sigma: float, samples: int, rng_seed
                           ) -> tuple[float, float]:
    """(flip fraction p, plug-in standard error sqrt(p(1 - p) / samples)).

    With no flip (or only flips) the standard error reads 0.0; that is
    no bound on the true rate.
    """
    if not (0 <= sigma < math.inf and samples >= 1):
        raise ValueError("sigma must be finite and >= 0, samples >= 1")
    rng = as_rng(rng_seed)
    shifts = rng.normal(0.0, sigma, size=samples)
    k = np.round(shifts / ROOT_PI)
    p = float(np.mean(k % 2 != 0))
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return p, stderr


def squeezing_db_of(delta: float) -> float:
    """Effective squeezing: peak variance delta^2/2 against vacuum 1/2."""
    if not 0 < delta < math.inf:
        raise ValueError("delta must be finite and positive")
    return -20.0 * math.log10(delta)


def threshold_margin(delta: float) -> float:
    """Signed dB distance to the 20.5 dB reference; negative means below."""
    return squeezing_db_of(delta) - THRESHOLD_DB


def error_curve_csv(sigmas, samples: int, rng_seed) -> str:
    out = io.StringIO()
    out.write("sigma,p_closed_form,p_monte_carlo,stderr\n")
    for i, sigma in enumerate(sigmas):
        closed = logical_error_prob(float(sigma))
        mc, se = monte_carlo_error_prob(float(sigma), samples, [rng_seed, i])
        out.write(f"{sigma},{closed!r},{mc!r},{se!r}\n")
    return out.getvalue()
