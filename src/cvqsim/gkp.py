"""Approximate GKP qubits on the truncated Fock backend.

A logical |j> lives on the x-lattice sqrt(pi)*(2s+j).  The finite-energy
approximation used here is the standard peak-sum form: x-squeezed peaks
of width delta at the lattice sites, weighted by a Gaussian envelope
exp(-delta^2 mu^2 / 2).  Logical X and Z are quadrature displacements by
sqrt(pi).  Error correction is a classical rounding decision on a
homodyne record (monte_carlo_error_prob), with ties at half-spacing
resolved toward the even sublattice so results are deterministic.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock
from .fock import FockState
from .gaussian import as_rng

ROOT_PI = math.sqrt(math.pi)
THRESHOLD_DB = 20.5
MIN_PEAK_WEIGHT = 1e-8
SYNTHESIS_BUDGET = 1e-4
TAIL_BOX_MARGIN = 120


@dataclass(frozen=True)
class GkpParams:
    delta: float
    cutoff: int = 100

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be finite and positive")
        if self.cutoff < 8:
            raise ValueError("cutoff too small for a lattice state")


@lru_cache(maxsize=64)
def _peak_vector(mu: float, r: float, box: int) -> np.ndarray:
    """Displaced x-squeezed peak as a unit Fock vector in a large box."""
    st = fock.displace_fock(fock.squeezed_vacuum_fock(r, box), 0, mu, 0.0)
    amps = st.amps.copy()
    amps.setflags(write=False)
    return amps


@lru_cache(maxsize=64)
def _selected_sites(j: int, delta: float, cutoff: int):
    """Peaks kept in the sum, chosen so truncation stays inside budget.

    Collects lattice sites outward from the center, then drops outer
    pairs until the summed state's mass beyond the cutoff fits the
    synthesis budget.  Outer peaks at strong squeezing carry heavy
    anti-squeezed tails, so this is what actually limits the lattice
    extent, not the raw envelope weight.
    """
    r = -math.log(delta)
    box = cutoff + TAIL_BOX_MARGIN
    groups = []
    m = j
    while True:
        w = math.exp(-delta ** 2 * (m * ROOT_PI) ** 2 / 2.0)
        if w < MIN_PEAK_WEIGHT:
            break
        mus = (0.0,) if m == 0 else (m * ROOT_PI, -m * ROOT_PI)
        tail = float(np.sum(np.abs(_peak_vector(mus[0], r, box)[cutoff:]) ** 2))
        if tail > 0.5:
            break
        groups.append((mus, w))
        m += 2

    while groups:
        amps = np.zeros(box, dtype=complex)
        for mus, w in groups:
            for mu in mus:
                amps = amps + w * _peak_vector(mu, r, box)
        amps /= np.linalg.norm(amps)
        leak = float(np.sum(np.abs(amps[cutoff:]) ** 2))
        if leak <= SYNTHESIS_BUDGET * 0.95:
            break
        groups.pop()
    if not groups:
        raise ValueError(f"cutoff {cutoff} too small for delta {delta}")

    mus = [mu for group, w in groups for mu in group]
    weights = [w for group, w in groups for _ in group]
    order = np.argsort(mus)
    return tuple(np.asarray(mus)[order]), tuple(np.asarray(weights)[order])


def lattice_sites(j: int, params: GkpParams):
    """Peak positions and envelope weights entering the state sum."""
    if j not in (0, 1):
        raise ValueError("logical index must be 0 or 1")
    mus, weights = _selected_sites(j, params.delta, params.cutoff)
    return np.asarray(mus), np.asarray(weights)


def _synthesize(j: int, params: GkpParams) -> np.ndarray:
    """Normalized big-box amplitude vector of the peak sum."""
    mus, weights = lattice_sites(j, params)
    r = -math.log(params.delta)             # peak x-variance delta^2/2
    box = params.cutoff + TAIL_BOX_MARGIN
    amps = np.zeros(box, dtype=complex)
    for mu, w in zip(mus, weights):
        amps = amps + w * _peak_vector(float(mu), r, box)
    norm = np.linalg.norm(amps)
    if norm <= 0:
        raise ValueError("state collapsed to zero norm")
    return amps / norm


def gkp_state(j: int, params: GkpParams) -> FockState:
    """Logical |j>: the converged peak sum projected to the cutoff."""
    amps = _synthesize(j, params)[:params.cutoff]
    return FockState(amps / np.linalg.norm(amps))


def synthesis_leakage(j: int, params: GkpParams) -> float:
    """Probability mass of the converged state beyond the cutoff."""
    amps = _synthesize(j, params)
    return float(np.sum(np.abs(amps[params.cutoff:]) ** 2))


def x_density(state: FockState, xs: np.ndarray) -> np.ndarray:
    return np.abs(fock.quadrature_wavefunction(state, xs)) ** 2


def lattice_mass(state: FockState, window: float = ROOT_PI / 4.0,
                 grid_points: int = 4001) -> float:
    """Fraction of x-quadrature mass within `window` of any lattice point."""
    half = math.sqrt(2.0 * state.cutoff) + 4.0
    xs = np.linspace(-half, half, grid_points)
    dens = x_density(state, xs)
    frac = xs / ROOT_PI
    dist = np.abs(frac - np.round(frac)) * ROOT_PI
    total = np.trapezoid(dens, xs)
    near = np.trapezoid(np.where(dist <= window, dens, 0.0), xs)
    return float(near / total)


def logical_error_prob(sigma: float) -> float:
    """Probability a N(0, sigma) shift decodes to a logical flip."""
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and >= 0")
    if sigma == 0.0:
        return 0.0

    def cdf(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    p = 0.0
    k = 1
    while True:
        lo = (k - 0.5) * ROOT_PI / sigma
        hi = (k + 0.5) * ROOT_PI / sigma
        term = cdf(hi) - cdf(lo)
        p += 2.0 * term
        if term < 1e-16 and lo > 1.0:
            break
        k += 2
    return min(p, 0.5)


def monte_carlo_error_prob(sigma: float, samples: int, rng_seed
                           ) -> tuple[float, float]:
    """(flip fraction, standard error) from sampled shifts."""
    if not (0 <= sigma < math.inf and samples >= 1):
        raise ValueError("sigma must be finite and >= 0, samples >= 1")
    rng = as_rng(rng_seed)
    shifts = rng.normal(0.0, sigma, size=samples)
    k = np.round(shifts / ROOT_PI)
    p = float(np.mean(k % 2 != 0))
    stderr = math.sqrt(max(p * (1.0 - p), 1e-300) / samples)
    return p, stderr


def squeezing_db_of(delta: float) -> float:
    """Effective squeezing: peak variance delta^2/2 against vacuum 1/2."""
    if not 0 < delta < math.inf:
        raise ValueError("delta must be finite and positive")
    return -20.0 * math.log10(delta)


def threshold_margin(delta: float) -> float:
    """Signed dB distance to the 20.5 dB reference; negative means below."""
    return squeezing_db_of(delta) - THRESHOLD_DB


def error_curve_csv(sigmas, samples: int = 100000, rng_seed=0) -> str:
    out = io.StringIO()
    out.write("sigma,p_closed_form,p_monte_carlo,stderr\n")
    for i, sigma in enumerate(sigmas):
        closed = logical_error_prob(float(sigma))
        mc, se = monte_carlo_error_prob(float(sigma), samples, [rng_seed, i])
        out.write(f"{sigma},{closed:.8f},{mc:.8f},{se:.8f}\n")
    return out.getvalue()
