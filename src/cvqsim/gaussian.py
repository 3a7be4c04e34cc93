"""Gaussian states and symplectic operations.

Conventions used throughout the package:

* hbar = 1, so the vacuum variance of each quadrature is 1/2.
* Quadratures are ordered (x0, p0, x1, p1, ...), i.e. interleaved.
* The symplectic form is block diagonal with per-mode blocks
  [[0, 1], [-1, 0]].
* squeeze(r) with r > 0 reduces Var(x) to exp(-2r)/2 and raises
  Var(p) to exp(+2r)/2.  Negative r squeezes p.
* The beam splitter of transmissivity T maps
      x_i -> sqrt(T) x_i + sqrt(1-T) x_j
      x_j -> sqrt(T) x_j - sqrt(1-T) x_i
  and identically for p.
* A phase shift by theta maps x -> cos(theta) x - sin(theta) p,
  p -> sin(theta) x + cos(theta) p.

All operations but update_local are pure functions: they return a new
GaussianState and never mutate their argument.  Every linear update of
the moments, for gates, loss, feedforward and the loop's composed
channels alike, is update_local's arithmetic, with feedforward blocks
built by feedforward_matrix; a channel's added noise, such as the
vacuum noise of loss (loss_channel), is its `noise` term.  It rewrites
only the touched rows and columns and symmetrizes only the touched
block, so covariances are symmetric by construction.  apply_local is
the pure form, a copy of the state followed by update_local;
update_local itself writes into the state it is given, for the owner of
a state that no one else reads, such as the circuit language's run,
where it spares a copy of the covariance per gate.  Every
homodyne outcome, in the loop, the DSL and the tests, is drawn by
sample_quadrature, conditioned on the run's earlier outcomes, and
leaves the state as it is; it rejects a zero-variance or non-finite
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Numerical tolerances for state validation.
SYMMETRY_TOL = 1e-10
UNCERTAINTY_TOL = 1e-9

VACUUM_VAR = 0.5


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Omega in interleaved ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state of n modes: mean vector and covariance matrix.

    Attributes:
        mean: length-2n array of quadrature means, interleaved ordering.
        cov: 2n x 2n covariance matrix (symmetrized second moments).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean/cov shape mismatch")
        if mean.size % 2 != 0:
            raise ValueError("quadrature count must be even")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def validate(self) -> None:
        """Check symmetry and the uncertainty relation; raise ValueError if violated.

        The covariance must be symmetric and V + (i/2) Omega must be
        positive semidefinite up to a small numerical tolerance.
        """
        if self.n_modes == 0:
            return
        asym = np.max(np.abs(self.cov - self.cov.T))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariance not symmetric (max deviation {asym:.2e})")
        omega = symplectic_form(self.n_modes)
        herm = self.cov + 0.5j * omega
        eigs = np.linalg.eigvalsh(herm)
        if eigs.min() < -UNCERTAINTY_TOL:
            raise ValueError(
                f"uncertainty relation violated (min eigenvalue {eigs.min():.2e})"
            )

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "cov": self.cov.tolist()}


# ---------------------------------------------------------------------------
# State constructors


def vacuum(n_modes: int) -> GaussianState:
    """The n-mode vacuum: zero mean, covariance I/2."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes) * VACUUM_VAR)


def coherent(dx: float, dp: float) -> GaussianState:
    """Single-mode coherent state with mean (dx, dp)."""
    return displace(vacuum(1), 0, dx, dp)


# ---------------------------------------------------------------------------
# Symplectic matrix builders (single- and two-mode blocks)


def squeeze_matrix(r: float) -> np.ndarray:
    """Single-mode squeezing block: diag(e^-r, e^+r)."""
    return np.diag([np.exp(-r), np.exp(r)])


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def beamsplitter_matrix(transmissivity: float) -> np.ndarray:
    """Two-mode beam splitter block in interleaved ordering."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    t = math.sqrt(transmissivity)
    r = math.sqrt(1.0 - transmissivity)
    return np.array([t, 0.0, r, 0.0,          # same mixing for x and p
                     0.0, t, 0.0, r,
                     -r, 0.0, t, 0.0,
                     0.0, -r, 0.0, t]).reshape(4, 4)


def feedforward_matrix(n_local: int, target: int, source: int, theta: float,
                       gx: float, gp: float) -> np.ndarray:
    """Feedforward block on n_local modes: x_t += gx q, p_t += gp q.

    q = cos(theta) x_s + sin(theta) p_s is the measured quadrature of
    the local mode `source`; `target` is the local mode that receives the
    correction.  The result is the identity plus (gx, gp) (x) (cos, sin)
    in the target rows, for use as an apply_local block.
    """
    m = np.eye(2 * n_local)
    m[2 * target:2 * target + 2, 2 * source:2 * source + 2] += np.outer(
        [gx, gp], [np.cos(theta), np.sin(theta)])
    return m


# ---------------------------------------------------------------------------
# Operations


def apply_local(state: GaussianState, modes, block: np.ndarray,
                noise: np.ndarray | None = None) -> GaussianState:
    """update_local on a copy of the state; the argument is unchanged."""
    out = GaussianState(state.mean.copy(), state.cov.copy())
    update_local(out, modes, block, noise)
    return out


def update_local(state: GaussianState, modes, block: np.ndarray,
                 noise: np.ndarray | None = None) -> None:
    """Apply a 2k x 2k linear map to the quadratures of `modes`, in place.

    `block` acts on (x_m0, p_m0, x_m1, p_m1, ...) in the order of `modes`
    and need not be symplectic (feedforward blocks are not).  With
    R = block @ cov[idx, :], R replaces the rows and the columns idx and
    only the 2k x 2k block idx x idx is symmetrized, so the covariance
    stays symmetric by construction.  `noise`, a 2k x 2k matrix, is added
    to that block before it is symmetrized: the map V -> B V B^T + N of
    a Gaussian channel such as loss.  state.mean and state.cov are
    rewritten where they are, in O(k n) work, so the caller must own
    them: no other state or report may share their arrays.
    """
    for m in modes:
        _check_mode(state, m)
    idx = [q for m in modes for q in (2 * m, 2 * m + 1)]
    block = np.asarray(block, dtype=float)
    mean, cov = state.mean, state.cov
    mean[idx] = block @ mean[idx]
    rows = block @ cov[idx, :]
    cov[idx, :] = rows
    cov[:, idx] = rows.T
    inner = rows[:, idx] @ block.T
    if noise is not None:
        inner += noise
    cov[np.ix_(idx, idx)] = 0.5 * (inner + inner.T)


def squeeze(state: GaussianState, mode: int, r: float) -> GaussianState:
    """Squeeze one mode: Var(x) -> e^{-2r} Var(x), Var(p) -> e^{+2r} Var(p)."""
    return apply_local(state, (mode,), squeeze_matrix(r))


def phase_shift(state: GaussianState, mode: int, theta: float) -> GaussianState:
    return apply_local(state, (mode,), rotation_matrix(theta))


def beam_splitter(state: GaussianState, mode_i: int, mode_j: int,
                  transmissivity: float) -> GaussianState:
    """Mix two modes on a beam splitter of the given transmissivity."""
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    return apply_local(state, (mode_i, mode_j),
                       beamsplitter_matrix(transmissivity))


def displace(state: GaussianState, mode: int, dx: float, dp: float) -> GaussianState:
    _check_mode(state, mode)
    mean = state.mean.copy()
    mean[2 * mode] += dx
    mean[2 * mode + 1] += dp
    return GaussianState(mean, state.cov)


def loss_channel(eta: float) -> tuple[float, float]:
    """(scale, noise) of the pure-loss channel of transmission eta: each
    quadrature of the mode scales by sqrt(eta), and (1 - eta)/2 of
    vacuum noise is added to each of its two variances."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    return math.sqrt(eta), (1.0 - eta) * VACUUM_VAR


def loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure-loss channel of transmission eta on one mode."""
    scale, noise = loss_channel(eta)
    return apply_local(state, (mode,), np.array([[scale, 0.0], [0.0, scale]]),
                       np.array([[noise, 0.0], [0.0, noise]]))


def quadrature_row(n_modes: int, mode: int, theta: float) -> np.ndarray:
    """Coefficients of cos(theta) x + sin(theta) p of one mode, full width."""
    c = np.zeros(2 * n_modes)
    c[2 * mode] = np.cos(theta)
    c[2 * mode + 1] = np.sin(theta)
    return c


def sample_quadrature(state: GaussianState, mode: int, theta: float,
                      rng, given=()) -> float:
    """Draw one homodyne outcome of cos(theta) x + sin(theta) p of a mode.

    `given` lists a run's earlier outcomes as (mode, theta, value) whose
    quadratures are still in the state, unchanged: a homodyne that
    freezes its quadrature instead of collapsing the state.  The draw is
    conditioned on them, so a run's outcomes follow their joint normal
    distribution; with nothing given it is one draw from the marginal.
    The marginal is quad_stats of the full-width row; the conditioning
    reads only the measured modes' 2 x 2 blocks.  The state is left as
    it is.  A non-finite or (numerically) zero variance raises
    ValueError, since a draw would be meaningless or only return the
    mean.
    """
    _check_mode(state, mode)
    mu, var = quad_stats(state, quadrature_row(state.n_modes, mode, theta))
    if given:
        given = list(given)
        modes = [m for m, _, _ in given] + [mode]
        idx = [q for m in modes for q in (2 * m, 2 * m + 1)]
        rows = np.zeros((len(modes), len(idx)))
        for k, t in enumerate([t for _, t, _ in given] + [theta]):
            rows[k, 2 * k:2 * k + 2] = np.cos(t), np.sin(t)
        cov = rows @ state.cov[np.ix_(idx, idx)] @ rows.T
        gain = np.linalg.solve(cov[:-1, :-1], cov[:-1, -1])
        seen = np.array([v for _, _, v in given]) - rows[:-1] @ state.mean[idx]
        mu += float(gain @ seen)
        var -= float(gain @ cov[:-1, -1])
    if not (np.isfinite(mu) and np.isfinite(var)):
        raise ValueError("measured quadrature has a non-finite mean or variance")
    if var <= 1e-30:
        raise ValueError("measured quadrature has (numerically) zero variance")
    return float(as_rng(rng).normal(mu, np.sqrt(var)))


def quad_stats(state: GaussianState, form) -> tuple[float, float]:
    """Mean and variance of a linear combination of quadratures."""
    c = np.asarray(form, dtype=float)
    return float(c @ state.mean), float(c @ state.cov @ c)


def purity(state: GaussianState) -> float:
    """Tr(rho^2) = 2^-n / sqrt(det V)."""
    n = state.n_modes
    det = np.linalg.det(state.cov)
    return float(1.0 / (2.0 ** n * np.sqrt(det)))


def is_pure(state: GaussianState) -> bool:
    return bool(abs(purity(state) - 1.0) < 1e-9)


def fidelity(a: GaussianState, b: GaussianState) -> float:
    """Fidelity between two Gaussian states, one of them pure.

    With either argument pure (any mode count), F = <psi| rho |psi>
    follows from the Gaussian overlap integral.  A DSL fidelity target,
    vacuum or coherent, is always pure.

    Raises:
        ValueError: both states mixed, at any mode count.
    """
    if a.n_modes != b.n_modes:
        raise ValueError("states must have the same number of modes")
    if is_pure(a) or is_pure(b):
        return _overlap(a, b)
    raise ValueError("fidelity of two mixed states is not supported")


def _overlap(a: GaussianState, b: GaussianState) -> float:
    """Tr(rho_a rho_b); equals fidelity when one argument is pure."""
    vsum = a.cov + b.cov
    delta = a.mean - b.mean
    expo = -0.5 * delta @ np.linalg.solve(vsum, delta)
    det = np.linalg.det(vsum)
    return float(np.exp(expo) / np.sqrt(det))


# ---------------------------------------------------------------------------
# Mode bookkeeping


def remove_modes(state: GaussianState, modes) -> GaussianState:
    """Trace out the given modes (drop their rows and columns)."""
    drop = set(modes)
    for m in drop:
        _check_mode(state, m)
    keep = [i for i in range(2 * state.n_modes) if i // 2 not in drop]
    return GaussianState(state.mean[keep], state.cov[np.ix_(keep, keep)])


# ---------------------------------------------------------------------------
# Helpers


def as_rng(rng_seed) -> np.random.Generator:
    """Accept an integer seed, a SeedSequence, or a Generator."""
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    return np.random.default_rng(rng_seed)


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes}-mode state")
