"""Truncated Fock-space backend for up to three modes.

States are dense complex amplitude tensors with one axis per mode, each
of length `cutoff`.  The backend covers pure states only; measurements
sample and project.  Quadrature conventions match the Gaussian backend:
x = (a + a^dag)/sqrt(2), p = -i (a - a^dag)/sqrt(2), vacuum variance 1/2.

Non-Gaussian gates (cubic phase, controlled phase) live here.  Gaussian
gates are also provided so that circuits can be cross-checked against
the symplectic backend via `covariance_of`.

Truncation policy: every unitary is a spectral function of a truncated
Hermitian generator (x for displacements and phase gates,
i(a^2 - a^dag^2)/2 for squeezing, one block per photon number for the
beam splitter), eigendecomposed once per cutoff and cached; a gate is
then a diagonal of phases between two cached eigenvector matrices.  The
result is an exact unitary of the truncated space, so norms are
preserved to machine precision and truncation error shows up as state
distortion, tracked by `leakage`.

Memory: the beam splitter and the homodyne each hold one state-sized
scratch array; the homodyne adds O(cutoff x grid) for its density.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import as_rng

DEFAULT_CUTOFF = 60
DEFAULT_LEAKAGE_BUDGET = 1e-4
NORM_TOL = 1e-6
MAX_MODES = 3

HOMODYNE_GRID_POINTS = 2048
HOMODYNE_GRID_SIGMAS = 8.0
HOMODYNE_MASS_TOL = 1e-6


class LeakageError(RuntimeError):
    """Raised when probability mass near the cutoff exceeds the budget."""


@dataclass(frozen=True)
class FockState:
    """Pure state of up to three modes as a complex amplitude tensor."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex)
        if a.ndim > MAX_MODES:
            raise ValueError(f"at most {MAX_MODES} modes supported")
        if a.ndim > 0 and len(set(a.shape)) != 1:
            raise ValueError("all modes must share one cutoff")
        object.__setattr__(self, "amps", a)

    @property
    def n_modes(self) -> int:
        return self.amps.ndim

    @property
    def cutoff(self) -> int:
        return self.amps.shape[0] if self.amps.ndim else 0

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def validate(self) -> None:
        if self.n_modes and abs(self.norm() - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {self.norm():.8f} deviates from 1")

    def leakage(self) -> float:
        """Largest per-mode probability mass in the top 10% of levels."""
        if self.n_modes == 0:
            return 0.0
        prob = np.abs(self.amps) ** 2
        edge = int(np.ceil(0.9 * self.cutoff))
        worst = 0.0
        for axis in range(self.n_modes):
            marg = np.sum(prob, axis=tuple(i for i in range(self.n_modes)
                                           if i != axis))
            worst = max(worst, float(marg[edge:].sum()))
        return worst


def _renormalized(amps: np.ndarray) -> np.ndarray:
    n = np.sqrt(np.sum(np.abs(amps) ** 2))
    if n <= 0:
        raise ValueError("state collapsed to zero norm")
    return amps / n


# ---------------------------------------------------------------------------
# Constructors


def fock_basis(ns, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Product number state |n1, n2, ...>."""
    ns = tuple(int(n) for n in (ns if np.iterable(ns) else [ns]))
    if any(n < 0 or n >= cutoff for n in ns):
        raise ValueError("occupation out of range")
    amps = np.zeros((cutoff,) * len(ns), dtype=complex)
    amps[ns] = 1.0
    return FockState(amps)


def vacuum_fock(n_modes: int, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    return fock_basis((0,) * n_modes, cutoff)


def coherent_fock(alpha: complex, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Single-mode coherent state, built by displacing the vacuum.

    alpha = (dx + i dp)/sqrt(2) gives mean quadratures (dx, dp).
    """
    dx = np.sqrt(2.0) * np.real(alpha)
    dp = np.sqrt(2.0) * np.imag(alpha)
    return displace_fock(vacuum_fock(1, cutoff), 0, dx, dp)


# ---------------------------------------------------------------------------
# Mode operators


@lru_cache(maxsize=32)
def annihilation(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff, cutoff))
    for n in range(1, cutoff):
        a[n - 1, n] = np.sqrt(n)
    return a


@lru_cache(maxsize=32)
def position_op(cutoff: int) -> np.ndarray:
    a = annihilation(cutoff)
    return (a + a.T) / np.sqrt(2.0)


@lru_cache(maxsize=32)
def momentum_op(cutoff: int) -> np.ndarray:
    a = annihilation(cutoff)
    return -1j * (a - a.T) / np.sqrt(2.0)


@lru_cache(maxsize=32)
def _position_eigh(cutoff: int):
    # Spectral decomposition of the truncated x operator; eigenvalues are
    # the Gauss-Hermite style grid the phase gates act on.
    lam, vec = np.linalg.eigh(position_op(cutoff))
    return lam, vec


@lru_cache(maxsize=32)
def _squeeze_eigh(cutoff: int):
    # Spectral decomposition of H = i(a^2 - a^dag^2)/2, so that the
    # squeezer exp(r (a^2 - a^dag^2)/2) is exp(-i r H).
    a = annihilation(cutoff)
    return np.linalg.eigh(0.5j * (a @ a - a.T @ a.T))


def apply_single_mode(state: FockState, mode: int, u: np.ndarray) -> FockState:
    """Apply a cutoff x cutoff matrix to one mode of the state."""
    _check_mode(state, mode)
    amps = np.tensordot(u, state.amps, axes=([1], [mode]))
    amps = np.moveaxis(amps, 0, mode)
    return FockState(amps)


# ---------------------------------------------------------------------------
# Gaussian gates in Fock space


def displace_fock(state: FockState, mode: int, dx: float, dp: float) -> FockState:
    """D(alpha) = exp(i (dp x - dx p)) with alpha = (dx + i dp)/sqrt(2).

    dp x - dx p = s R x R^dag with s = |(dx, dp)|, R = exp(i phi n) and
    phi = atan2(-dx, dp), also between truncated operators, so
    D = R exp(i s x) R^dag is built on the cached spectrum of x.
    """
    lam, vec = _position_eigh(state.cutoff)
    s = np.hypot(dx, dp)
    rot = np.exp(1j * np.arctan2(-dx, dp) * np.arange(state.cutoff))
    u = ((vec * np.exp(1j * s * lam)) @ vec.T) * np.outer(rot, rot.conj())
    return apply_single_mode(state, mode, u)


def squeeze_fock(state: FockState, mode: int, r: float) -> FockState:
    """r > 0: x variance shrinks by e^{-2r}, matching the Gaussian backend."""
    mu, w = _squeeze_eigh(state.cutoff)
    u = (w * np.exp(-1j * r * mu)) @ w.conj().T
    return apply_single_mode(state, mode, u)


def phase_fock(state: FockState, mode: int, theta: float) -> FockState:
    """Rotation x -> cos(theta) x - sin(theta) p, i.e. exp(i theta n)."""
    n = np.arange(state.cutoff)
    return _apply_diag_single(state, mode, np.exp(1j * theta * n))


def _apply_diag_single(state: FockState, mode: int, diag: np.ndarray) -> FockState:
    _check_mode(state, mode)
    shape = [1] * state.n_modes
    shape[mode] = state.cutoff
    return FockState(state.amps * diag.reshape(shape))


_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


@lru_cache(maxsize=8)  # each entry holds O(cutoff^3) real numbers
def _bs_block_eighs(cutoff: int):
    """Real spectral forms of the beam-splitter blocks.

    The beam-splitter generator theta (a1^dag a2 - a1 a2^dag) conserves
    n1 + n2, so it restricts to theta K_N on the block {|k, N-k>}, with
    K_N real antisymmetric and independent of theta.  With D = diag(i^m)
    over the block's positions m, i K_N = D T_N D^H for the real
    symmetric tridiagonal T_N = v diag(mu) v^T, so
    exp(theta K_N) = D v exp(-i theta mu) v^T D^H.

    Returns (blocks, mu, phase): per N, the flat indices k cutoff + N - k
    of its amplitudes, its eigenvectors v and its eigenvalues' slice of
    mu; phase holds i^m at every flat index.
    """
    blocks, mus = [], []
    phase = np.empty(cutoff * cutoff, dtype=complex)
    start = 0
    for total in range(2 * cutoff - 1):
        k = np.arange(max(0, total - cutoff + 1), min(total, cutoff - 1) + 1)
        rows = k * cutoff + total - k
        phase[rows] = _I_POWERS[np.arange(k.size) % 4]
        amp = np.sqrt((k[:-1] + 1) * (total - k[:-1]))
        mu, v = np.linalg.eigh(np.diag(amp, -1) + np.diag(amp, 1))
        blocks.append((rows, v, slice(start, start + k.size)))
        mus.append(mu)
        start += k.size
    return blocks, np.concatenate(mus), phase


def beam_splitter_fock(state: FockState, mode_i: int, mode_j: int,
                       transmissivity: float) -> FockState:
    """Beam splitter with the same sign convention as the Gaussian backend.

    On |1, 0> the transmitted amplitude is sqrt(T) and the reflected
    amplitude on the second mode is -sqrt(1-T).  Each photon-number block
    applies exp(theta K_N) = D v exp(-i theta mu) v^T D^H through the
    cached real spectral form (_bs_block_eighs): D is one elementwise
    phase over the whole state, and v acts by real matrix products on
    the block's float view, so no per-angle matrix is built or kept.
    Scratch memory is one state-sized array: every block is written
    back into it and the phases are applied in place.
    """
    _check_mode(state, mode_i)
    _check_mode(state, mode_j)
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    d = state.cutoff
    theta = float(np.arctan2(np.sqrt(1.0 - transmissivity), np.sqrt(transmissivity)))

    blocks, mu, phase = _bs_block_eighs(d)
    moved = np.moveaxis(state.amps, (mode_i, mode_j), (0, 1))
    work = np.multiply(moved, phase.conj().reshape((d, d) + (1,) * (moved.ndim - 2)),
                       order="C").reshape(d * d, -1)
    spin = np.exp(-1j * theta * mu)[:, None]
    for rows, v, part in blocks:
        vec = (v.T @ work[rows].view(float)).view(complex)
        vec *= spin[part]
        work[rows] = (v @ vec.view(float)).view(complex)
    work *= phase[:, None]
    return FockState(np.moveaxis(work.reshape(moved.shape), (0, 1), (mode_i, mode_j)))


# ---------------------------------------------------------------------------
# Non-Gaussian gates


def apply_x_phase(state: FockState, mode: int, coeffs,
                  leakage_budget: float | None = DEFAULT_LEAKAGE_BUDGET) -> FockState:
    """Apply exp(i sum_k coeffs[k] x^k) to one mode.

    Realized as a spectral function of the truncated x operator, hence
    exactly unitary.  coeffs[0] is a global phase and is ignored.

    Raises:
        LeakageError: resulting top-level probability mass exceeds the
            budget (pass None to disable the check).
    """
    lam, vec = _position_eigh(state.cutoff)
    poly = np.zeros_like(lam)
    for k, ck in enumerate(coeffs):
        if k == 0 or ck == 0.0:
            continue
        poly = poly + ck * lam ** k
    u = (vec * np.exp(1j * poly)) @ vec.T
    out = apply_single_mode(state, mode, u)
    if leakage_budget is not None and out.leakage() > leakage_budget:
        raise LeakageError(
            f"leakage {out.leakage():.2e} exceeds budget {leakage_budget:.0e}; "
            "raise the cutoff")
    return out


def apply_cubic(state: FockState, mode: int, gamma: float,
                leakage_budget: float | None = DEFAULT_LEAKAGE_BUDGET) -> FockState:
    """Cubic phase gate exp(i gamma x^3)."""
    return apply_x_phase(state, mode, [0.0, 0.0, 0.0, gamma], leakage_budget)


def controlled_phase(state: FockState, mode_i: int, mode_j: int) -> FockState:
    """exp(i pi n_i n_j): phase (-1)^{n_i n_j} on each basis state, exact."""
    _check_mode(state, mode_i)
    _check_mode(state, mode_j)
    if mode_i == mode_j:
        raise ValueError("controlled phase needs two distinct modes")
    d = state.cutoff
    n = np.arange(d)
    # (-1)^{n_i n_j} is symmetric in the two mode indices
    sign = np.where(np.outer(n, n) % 2 == 1, -1.0, 1.0)
    return FockState(state.amps * sign.reshape(
        [d if k in (mode_i, mode_j) else 1 for k in range(state.n_modes)]))


# ---------------------------------------------------------------------------
# Quadrature wavefunctions and homodyne


def hermite_functions(xs: np.ndarray, cutoff: int) -> np.ndarray:
    """Matrix psi[n, k] = <x_k | n> of normalized Hermite functions.

    Runs the normalized recurrence with the envelope exp(-x^2/2) kept as
    a per-point log scale.  A point whose value passes 2^300 is scaled by
    2^-300 (exactly) and its log scale gains 300 ln 2, so values stay
    finite at any cutoff; a point never rescaled gets exactly the
    recurrence times exp(-x^2/2).
    """
    xs = np.asarray(xs, dtype=float)
    h = np.empty((cutoff, xs.size))
    log_env = -xs ** 2 / 2.0
    env = np.exp(log_env)
    prev, cur = np.zeros(xs.size), np.full(xs.size, np.pi ** -0.25)
    for n in range(cutoff):
        if n:
            prev, cur = cur, (xs * np.sqrt(2.0 / n) * cur
                              - np.sqrt((n - 1) / n) * prev)
        big = np.abs(cur) > 2.0 ** 300
        if big.any():
            cur[big] *= 2.0 ** -300
            prev[big] *= 2.0 ** -300
            log_env[big] += 300.0 * np.log(2.0)
            env = np.exp(log_env)
        h[n] = cur * env
    return h


def quadrature_wavefunction(state: FockState, xs: np.ndarray) -> np.ndarray:
    """Position wavefunction of a single-mode state on a grid."""
    if state.n_modes != 1:
        raise ValueError("wavefunction is defined for single-mode states")
    psi = hermite_functions(xs, state.cutoff)
    return state.amps @ psi


def _quadrature_pdf(rho: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """x-quadrature density of one mode on the grid of psi (cutoff, grid).

    rho is the real part of the mode's reduced density matrix: psi is
    real and the imaginary part of rho antisymmetric, so only Re(rho)
    contributes.
    """
    return np.einsum("ng,ng->g", psi, rho @ psi)


def homodyne_fock(state: FockState, mode: int, theta: float, rng_seed
                  ) -> tuple[float, FockState]:
    """Sample the quadrature cos(theta) x + sin(theta) p of one mode.

    The amplitudes are read mode-first as a matrix M (cutoff x rest),
    rotated by exp(-i theta n) so the measured quadrature becomes x.
    Everything comes from the mode's reduced density matrix rho = M M^dag:
    the mean Tr(rho x) and variance Tr(rho x^2) - mean^2 place a uniform
    grid of HOMODYNE_GRID_POINTS points spanning +- HOMODYNE_GRID_SIGMAS
    standard deviations, on which the exact density is evaluated.  The
    outcome is drawn by inverse CDF over that grid, and M is projected
    onto the sampled quadrature eigenvector (mode removed, renormalized).
    Scratch memory is at most one state-sized array (M) plus
    O(cutoff x grid).

    Raises:
        ValueError: grid does not capture the state (mass deficit).
    """
    _check_mode(state, mode)
    rng = as_rng(rng_seed)
    d = state.cutoff
    moved = np.moveaxis(state.amps, mode, 0)
    if theta != 0.0:
        rot = np.exp(1j * -theta * np.arange(d))
        moved = np.multiply(moved, rot.reshape((d,) + (1,) * (moved.ndim - 1)),
                            order="C")
    m = np.ascontiguousarray(moved).reshape(d, -1)
    flat = m.view(float)
    rho = flat @ flat.T  # Re(M M^dag), without a conjugated copy of M

    x = position_op(d)
    xrho = x @ rho
    mu = np.trace(xrho)
    sigma = np.sqrt(np.trace(x @ xrho) - mu ** 2)
    xs = np.linspace(mu - HOMODYNE_GRID_SIGMAS * sigma,
                     mu + HOMODYNE_GRID_SIGMAS * sigma, HOMODYNE_GRID_POINTS)
    dx = xs[1] - xs[0]

    psi = hermite_functions(xs, d)  # (cutoff, grid)
    pdf = _quadrature_pdf(rho, psi)
    mass = float(np.sum(pdf) * dx)
    if mass < 1.0 - HOMODYNE_MASS_TOL:
        raise ValueError(
            f"homodyne grid captures only {mass:.8f} of the probability mass; "
            "widen the grid or raise the cutoff")

    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    outcome = float(np.interp(rng.uniform(), cdf, xs))

    idx = int(np.argmin(np.abs(xs - outcome)))
    outcome = float(xs[idx])
    projected = (psi[:, idx] @ m).reshape(moved.shape[1:])
    return outcome, FockState(_renormalized(projected))


# ---------------------------------------------------------------------------
# Observables


def overlap(a: FockState, b: FockState) -> complex:
    """<a|b> for states of equal shape."""
    if a.amps.shape != b.amps.shape:
        raise ValueError("states must share mode count and cutoff")
    return complex(np.sum(np.conj(a.amps) * b.amps))


def fidelity_fock(a: FockState, b: FockState) -> float:
    return float(np.abs(overlap(a, b)) ** 2)


def covariance_of(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature mean vector and covariance matrix of a Fock state.

    Output uses the interleaved (x0, p0, x1, p1, ...) ordering of the
    Gaussian backend, enabling cross-backend comparisons.  It holds 2n
    state-sized branches at once (108 MB extra at 3 modes and cutoff
    100), so a one-mode reading should use that mode's reduced density
    matrix instead, as homodyne_fock does.
    """
    n = state.n_modes
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    d = state.cutoff
    x_op = position_op(d)
    p_op = momentum_op(d)
    branches = []  # quadrature-applied copies of |psi>
    for m in range(n):
        for op in (x_op, p_op):
            branches.append(apply_single_mode(state, m, op).amps.ravel())
    flat = state.amps.ravel()
    mean = np.array([np.real(np.vdot(flat, br)) for br in branches])
    k = 2 * n
    cov = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            sym = np.real(np.vdot(branches[i], branches[j]))
            cov[i, j] = cov[j, i] = sym - mean[i] * mean[j]
    return mean, cov


def _check_mode(state: FockState, mode: int) -> None:
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes}-mode state")
