"""Approximate GKP qubits on the truncated Fock backend.

A logical |j> lives on the x-lattice sqrt(pi)*(2s+j).  The finite-energy
approximation used here is the standard peak-sum form (Gottesman, Kitaev
& Preskill 2001): x-squeezed peaks of width delta at the lattice sites,
weighted by a Gaussian envelope exp(-delta^2 mu^2 / 2), projected by
quadrature onto the Hermite functions below the cutoff (Tzitrin et al.
2020): a state depends on the basis alone, on no Fock gate.  Logical X
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
from functools import lru_cache

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


def _mass_below(mu: float, delta: float, cutoff: int) -> float:
    """Exact mass of the unit peak at mu in the levels below the cutoff.

    Its Fock amplitudes obey ((1 + delta^2) a + (1 - delta^2) a^dag) c =
    sqrt(2) mu c, run here over 1 + delta^2 = 2 / (1 + t) with
    t = tanh(-ln delta), so no power of delta overflows.
    """
    t = math.tanh(-math.log(delta))
    prev = 0.0
    cur = math.sqrt(2.0 / (delta + 1.0 / delta)) * math.exp(-mu ** 2 * (1.0 + t) / 4.0)
    mass = 0.0
    for n in range(cutoff):
        mass += cur * cur
        prev, cur = cur, ((math.sqrt(0.5) * mu * (1.0 + t) * cur
                           - t * math.sqrt(n) * prev) / math.sqrt(n + 1.0))
    return mass


@lru_cache(maxsize=32)
def _synthesis(delta: float, cutoff: int):
    """Sites, weights, amplitudes and leakage of |0> and |1> (None if unfit).

    Each unit peak (pi delta^2)^(-1/4) exp(-(x - mu)^2 / (2 delta^2)) is
    projected onto the Hermite functions below the cutoff by the
    trapezoid rule on one grid for both logicals: out to 8 past the top
    level's turning point t = sqrt(2 cutoff + 1), at a quarter of
    min(delta, 1/t), where halving the spacing changes nothing beyond
    rounding.  The leakage is the norm deficit against the exact
    w^T G w, with the Gram matrix G = exp(-(mu - nu)^2 / (4 delta^2)).

    Sites grow outward while the envelope weight is at least
    MIN_PEAK_WEIGHT, up to the first peak with less than half its mass
    below the cutoff; outer pairs are then dropped until the leakage
    fits the budget.  A logical whose first peak fails the half-mass
    test (by _mass_below) builds no grid, which bounds it: a fitting
    peak has delta above about 0.48 / t.
    """
    fits = [_mass_below(j * ROOT_PI, delta, cutoff) >= 0.5 for j in (0, 1)]
    if not any(fits):
        return None, None
    turn = math.sqrt(2.0 * cutoff + 1.0)
    half = turn + 8.0
    xs = np.linspace(-half, half, int(8.0 * half / min(delta, 1.0 / turn)) + 2)
    basis = fock.hermite_functions(xs, cutoff)
    scale = (math.pi * delta ** 2) ** -0.25 * (xs[1] - xs[0])

    def project(mu):
        return basis @ (scale * np.exp(-(xs - mu) ** 2 / (2.0 * delta ** 2)))

    records = []
    for j in (0, 1):
        groups = []             # (site, weight, projection) per +-pair
        for m in itertools.count(j, 2):
            w = math.exp(-delta ** 2 * (m * ROOT_PI) ** 2 / 2.0)
            if not fits[j] or w < MIN_PEAK_WEIGHT:
                break
            sites = (0.0,) if m == 0 else (m * ROOT_PI, -m * ROOT_PI)
            group = [(mu, w, project(mu)) for mu in sites]
            if group[0][2] @ group[0][2] < 0.5:
                break
            groups.append(group)

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
            records[j] = (mus[order], weights[order], amps / np.linalg.norm(amps))
            for a in records[j]:
                a.setflags(write=False)
            records[j] += (max(0.0, 1.0 - kept),)
    return tuple(records)


def _logical(j: int, params: GkpParams):
    if j not in (0, 1):
        raise ValueError("logical index must be 0 or 1")
    record = _synthesis(params.delta, params.cutoff)[j]
    if record is None:
        raise ValueError(f"cutoff {params.cutoff} too small for delta {params.delta}")
    return record


def lattice_sites(j: int, params: GkpParams):
    """Peak positions and envelope weights entering the state sum."""
    return _logical(j, params)[:2]


def gkp_state(j: int, params: GkpParams) -> FockState:
    """Logical |j>: the peak sum projected to the cutoff, normalized."""
    return FockState(_logical(j, params)[2])


def synthesis_leakage(j: int, params: GkpParams) -> float:
    """Norm lost beyond the cutoff, 1 - |P psi|^2 / |psi|^2, clamped at 0.

    The quadrature's rounding limits its resolution to about 1e-12.
    """
    return _logical(j, params)[3]


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
        out.write(f"{sigma},{closed!r},{mc!r},{se!r}\n")
    return out.getvalue()
