"""GKP logical qubits: synthesis, Paulis, modular correction, error curves."""

import math

import numpy as np
import pytest

from cvqsim import fock, gkp
from cvqsim.gkp import GkpParams, ROOT_PI

P02 = GkpParams(0.2, 100)
P25 = GkpParams(0.25, 100)
P03 = GkpParams(0.3, 100)


def envelope_xx_fidelity(params):
    w = gkp.logicals(params)[0].weights
    return float((np.sum(w[:-1] * w[1:]) / np.sum(w * w)) ** 2)


def envelope_x_swap_fidelity(params):
    (m0, w0, *_), (m1, w1, *_) = gkp.logicals(params)
    amp = 0.0
    for mu, w in zip(np.asarray(m0) + ROOT_PI, w0):
        hits = np.isclose(np.asarray(m1), mu, atol=1e-9)
        if hits.any():
            amp += w * np.asarray(w1)[hits][0]
    amp /= math.sqrt(float(np.sum(np.square(w0)) * np.sum(np.square(w1))))
    return float(amp ** 2)


class TestSynthesis:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            GkpParams(0.0, 100)
        with pytest.raises(ValueError):
            GkpParams(0.2, 4)

    def test_states_are_normalized(self):
        for logical in gkp.logicals(P25):
            assert abs(np.linalg.norm(logical.state.amps) - 1.0) < 1e-12

    def test_density_peaks_sit_on_the_right_sublattice(self):
        even = np.array([0.0, 2 * ROOT_PI, -2 * ROOT_PI])
        odd = np.array([ROOT_PI, -ROOT_PI, 3 * ROOT_PI])
        zero, one = gkp.logicals(P25)

        def density(state, xs):
            return np.abs(state.amps @ fock.hermite_functions(xs, state.cutoff)) ** 2

        d0_even = density(zero.state, even)
        d0_odd = density(zero.state, odd)
        d1_even = density(one.state, even)
        d1_odd = density(one.state, odd)
        assert d0_even.min() > 100 * d0_odd.max()
        assert d1_odd.min() > 100 * d1_even.max()

    def test_logicals_become_orthogonal_as_delta_shrinks(self):
        overlaps = []
        for delta in (0.35, 0.3, 0.25):
            p = GkpParams(delta, 100)
            zero, one = gkp.logicals(p)
            overlaps.append(abs(fock.overlap(zero.state, one.state)))
        assert overlaps[0] > overlaps[1] > overlaps[2]
        zero, one = gkp.logicals(P02)
        assert abs(fock.overlap(zero.state, one.state)) <= 1e-3

    @pytest.mark.parametrize("delta", [0.2, 0.25, 0.3])
    @pytest.mark.parametrize("cutoff", [100, 120])
    def test_synthesis_leakage_budget(self, delta, cutoff):
        params = GkpParams(delta, cutoff)
        for logical in gkp.logicals(params):
            assert logical.leakage < 1e-4

    def test_mass_concentrates_near_the_lattice(self):
        for logical in gkp.logicals(P25):
            assert gkp.lattice_mass(logical.state) > 0.98
        assert gkp.lattice_mass(gkp.logicals(P02)[0].state) > 0.99

    def test_cutoff_too_small_raises(self):
        assert gkp._synthesis(0.2, 40)[0] is None
        with pytest.raises(ValueError, match="too small"):
            gkp.logicals(GkpParams(0.2, 40))

    def test_large_delta_approaches_squeezed_vacuum(self):
        p = GkpParams(1.2, 60)
        state = gkp.logicals(p)[0].state
        ref = fock.squeeze_fock(fock.vacuum_fock(1, 60), 0, -math.log(1.2))
        assert fock.fidelity_fock(state, ref) > 0.99
        # fidelity to plain vacuum: sech(ln delta) = 2 delta / (1 + delta^2)
        fids = []
        for delta in (1.0, 1.5, 2.0):
            state = gkp.logicals(GkpParams(delta, 60))[0].state
            fid = fock.fidelity_fock(state, fock.vacuum_fock(1, 60))
            assert abs(fid - 2 * delta / (1 + delta ** 2)) < 2e-3
            fids.append(fid)
        assert fids[0] > fids[1] > fids[2]


# (|0>, |1>) site counts of the peak sums, as the site policy chose them
# when each peak was built with Fock gates in a larger box, and then by
# quadrature onto the Hermite functions; the Fock recurrence keeps every
# one.  At (0.12, 1000) the outer peaks start below the smallest double.
SITE_COUNTS = {
    (0.2, 100): (1, 2), (0.2, 120): (9, 8), (0.2, 150): (9, 10),
    (0.25, 100): (7, 8), (0.3, 100): (7, 8), (0.35, 100): (7, 8),
    (0.3, 60): (7, 6), (0.3, 200): (11, 12), (0.3, 300): (11, 12),
    (0.5, 40): (5, 4), (0.15, 200): (9, 10), (1.0, 60): (3, 4),
    (1.2, 60): (3, 2), (1.5, 60): (3, 2), (2.0, 60): (1, 2),
    (0.12, 1000): (25, 26),
}


class TestProjection:
    @pytest.mark.parametrize("delta, cutoff", sorted(SITE_COUNTS))
    def test_site_counts_and_leakage(self, delta, cutoff):
        params = GkpParams(delta, cutoff)
        logicals = gkp.logicals(params)
        counts = tuple(len(logical.sites) for logical in logicals)
        assert counts == SITE_COUNTS[delta, cutoff]
        for logical in logicals:
            assert 0.0 <= logical.leakage < 1e-4

    @pytest.mark.parametrize("delta, cutoff", [(0.3, 40), (0.1, 300)])
    def test_cutoffs_below_the_central_peak_raise(self, delta, cutoff):
        assert gkp._synthesis(delta, cutoff)[0] is None
        with pytest.raises(ValueError, match="too small"):
            gkp.logicals(GkpParams(delta, cutoff))

    def test_amplitudes_match_mpmath_quadrature(self):
        # three peaks; the norm deficit at this cutoff is far below 1e-20,
        # so the analytic Gram norm normalizes the projection
        mp = pytest.importorskip("mpmath")
        params = GkpParams(1.0, 60)
        mus, ws, zero, _ = gkp.logicals(params)[0]
        assert len(mus) == 3
        amps = zero.amps
        with mp.workdps(20):
            d = mp.mpf(params.delta)
            peaks = [(mp.mpf(float(m)), mp.mpf(float(w)))
                     for m, w in zip(mus, ws)]
            norm = mp.sqrt(sum(wa * wb * mp.exp(-(a - b) ** 2 / (4 * d * d))
                               for a, wa in peaks for b, wb in peaks))
            for n in (0, 1, 2, 7, 30, 59):
                scale = mp.sqrt(mp.mpf(2) ** n * mp.factorial(n)
                                * mp.sqrt(mp.pi * mp.pi * d * d)) * norm

                def integrand(x):
                    return mp.hermite(n, x) * sum(
                        w * mp.exp(-x * x / 2 - (x - m) ** 2 / (2 * d * d))
                        for m, w in peaks)

                ref = mp.quad(integrand, mp.linspace(-16, 16, 9),
                              method="gauss-legendre") / scale
                assert abs(amps[n] - float(ref)) < 1e-12

    def test_no_fock_gate_is_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("GKP synthesis ran a Fock gate")

        monkeypatch.setattr(fock, "displace_fock", refuse)
        monkeypatch.setattr(fock, "squeeze_fock", refuse)
        monkeypatch.setattr(fock, "hermite_functions", refuse)
        for logical, count in zip(gkp.logicals(P03), SITE_COUNTS[0.3, 100]):
            assert len(logical.sites) == count
            assert abs(np.linalg.norm(logical.state.amps) - 1.0) < 1e-12
            assert 0.0 <= logical.leakage < 1e-7

    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 5e-324, 1e300])
    def test_unfit_delta_raises_before_any_grid(self, delta, monkeypatch):
        # synthesis lays out no grid; a delta too small (or too large) for
        # the cutoff is turned away by its first peak's mass
        def refuse(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(fock, "hermite_functions", refuse)
        assert gkp._synthesis(delta, 100) == (None, None)
        with pytest.raises(ValueError, match="too small"):
            gkp.logicals(GkpParams(delta, 100))

    @pytest.mark.parametrize("delta, cutoff", [(0.2, 100), (0.05, 100),
                                               (0.3, 40), (1.7, 60)])
    def test_central_peak_mass_is_squeezed_vacuum_sum(self, delta, cutoff):
        # sum over 2k < c of tanh(r)^(2k) (2k)! / (4^k k!^2 cosh r)
        r = -math.log(delta)
        ref = sum(math.tanh(r) ** (2 * k) * math.comb(2 * k, k) / 4 ** k
                  for k in range((cutoff + 1) // 2)) / math.cosh(r)
        peak = gkp._peak(0.0, delta, cutoff)
        assert abs(peak @ peak - ref) < 1e-14

    @pytest.mark.parametrize("delta, cutoff", [(0.2, 100), (0.5, 40),
                                               (2.0, 60)])
    def test_peak_mass_matches_the_projection(self, delta, cutoff):
        turn = math.sqrt(2 * cutoff + 1)
        xs = np.arange(-turn - 8, turn + 8, min(delta, 1 / turn) / 4)
        basis = fock.hermite_functions(xs, cutoff)
        for mu in (0.0, ROOT_PI, 3 * ROOT_PI):
            peak = basis @ np.exp(-(xs - mu) ** 2 / (2 * delta ** 2))
            peak *= (math.pi * delta ** 2) ** -0.25 * (xs[1] - xs[0])
            assert np.abs(gkp._peak(mu, delta, cutoff) - peak).max() < 1e-12

    @pytest.mark.parametrize("m", [22, 24])
    def test_far_peak_matches_the_projection(self, m):
        # c_0 = exp(-mu^2 (1 + t) / 4) underflows here; the log scale
        # carries it
        delta, cutoff, mu = 0.12, 1000, m * ROOT_PI
        xs = np.arange(mu - 14 * delta, mu + 14 * delta, delta / 64)
        proj = fock.hermite_functions(xs, cutoff) @ np.exp(
            -(xs - mu) ** 2 / (2 * delta ** 2))
        proj *= (math.pi * delta ** 2) ** -0.25 * (xs[1] - xs[0])
        peak = gkp._peak(mu, delta, cutoff)
        assert np.abs(peak - proj).max() < 1e-12
        assert peak @ peak > 0.5

    @pytest.mark.parametrize("delta, cutoff", [(0.2, 150), (0.3, 100),
                                               (0.5, 40), (2.0, 60)])
    def test_halving_the_grid_spacing_moves_no_amplitude(self, delta, cutoff):
        turn = math.sqrt(2 * cutoff + 1)
        xs = np.arange(-turn - 8, turn + 8, min(delta, 1 / turn) / 8)
        basis = fock.hermite_functions(xs, cutoff)
        params = GkpParams(delta, cutoff)
        for mus, ws, state, _ in gkp.logicals(params):
            psi = sum(w * np.exp(-(xs - m) ** 2 / (2 * delta ** 2))
                      for m, w in zip(mus, ws))
            fine = basis @ psi
            fine /= np.linalg.norm(fine)
            got = state.amps
            assert np.abs(got - fine).max() < 1e-11


def logical_x(state):
    return fock.displace_fock(state, 0, ROOT_PI, 0.0)


def logical_z(state):
    return fock.displace_fock(state, 0, 0.0, ROOT_PI)


class TestPaulis:
    def test_x_swaps_the_logicals(self):
        zero, one = gkp.logicals(P25)
        fid = fock.fidelity_fock(logical_x(zero.state), one.state)
        assert abs(fid - envelope_x_swap_fidelity(P25)) < 1e-3
        assert fid > 0.85

    @pytest.mark.parametrize("delta", [0.25, 0.3, 0.35])
    def test_double_x_matches_envelope_oracle(self, delta):
        params = GkpParams(delta, 100)
        state = gkp.logicals(params)[0].state
        back = logical_x(logical_x(state))
        fid = fock.fidelity_fock(back, state)
        assert abs(fid - envelope_xx_fidelity(params)) < 1e-3

    def test_double_x_error_shrinks_with_delta(self):
        fids = []
        for delta in (0.35, 0.3, 0.25):
            params = GkpParams(delta, 100)
            state = gkp.logicals(params)[0].state
            back = logical_x(logical_x(state))
            fids.append(fock.fidelity_fock(back, state))
        assert fids[0] < fids[1] < fids[2]

    def test_z_preserves_x_density_exactly(self):
        state = gkp.logicals(P25)[0].state
        shifted = logical_z(state)
        _, vecs = np.linalg.eigh(fock.position_op(state.cutoff))
        before = np.abs(vecs.conj().T @ state.amps) ** 2
        after = np.abs(vecs.conj().T @ shifted.amps) ** 2
        assert np.abs(before - after).max() < 1e-12

    def test_z_phases_the_two_logicals_oppositely(self):
        z0, z1 = (logical.state for logical in gkp.logicals(P25))
        ev0 = fock.overlap(z0, logical_z(z0))
        ev1 = fock.overlap(z1, logical_z(z1))
        assert ev0.real > 0.85 and abs(ev0.imag) < 1e-9
        assert ev1.real < -0.85 and abs(ev1.imag) < 1e-9


class TestCorrection:
    def test_error_prob_limits_and_monotonicity(self):
        assert gkp.logical_error_prob(0.0) == 0.0
        assert abs(gkp.logical_error_prob(5.0) - 0.5) < 1e-3
        grid = [gkp.logical_error_prob(s) for s in np.linspace(0.05, 3.0, 30)]
        assert all(b >= a - 1e-15 for a, b in zip(grid, grid[1:]))
        with pytest.raises(ValueError):
            gkp.logical_error_prob(-0.1)

    @pytest.mark.parametrize("sigma, want", [
        (0.2, 9.373853928926e-6), (0.15, 3.459089917567e-9),
        (0.12, 1.521965046406e-13), (0.1, 7.840196524115e-19),
        (0.08, 1.607088713094e-28)])
    def test_small_sigma_tails_match_mpmath(self, sigma, want):
        # a difference of two CDFs near 1 cancelled these to 0 below 0.1
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            cell = mp.sqrt(mp.pi) / (mp.mpf(sigma) * mp.sqrt(2))
            ref = mp.fsum(mp.erfc((k - 0.5) * cell) - mp.erfc((k + 0.5) * cell)
                          for k in range(1, 40, 2))
        assert float(ref) == pytest.approx(want, rel=1e-12)
        assert gkp.logical_error_prob(sigma) == pytest.approx(float(ref),
                                                              rel=1e-13)

    @pytest.mark.parametrize("sigma", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    def test_closed_form_matches_monte_carlo(self, sigma):
        closed = gkp.logical_error_prob(sigma)
        mc, _ = gkp.monte_carlo_error_prob(sigma, 10 ** 6, [17, int(sigma * 10)])
        se = math.sqrt(closed * (1 - closed) / 10 ** 6)
        assert abs(closed - mc) <= 3 * se + 1e-12


class TestReporting:
    def test_squeezing_db(self):
        assert abs(gkp.squeezing_db_of(0.2) + 20 * math.log10(0.2)) < 1e-12
        assert gkp.squeezing_db_of(0.1) > gkp.squeezing_db_of(0.2)

    def test_threshold_margin(self):
        delta_15 = 10.0 ** (-15.0 / 20.0)
        assert abs(gkp.threshold_margin(delta_15) + 5.5) < 1e-9
        delta_at = 10.0 ** (-20.5 / 20.0)
        assert abs(gkp.threshold_margin(delta_at)) < 1e-12

    def test_error_curve_csv(self):
        text = gkp.error_curve_csv([0.2, 0.4], samples=20000, rng_seed=5)
        lines = text.strip().splitlines()
        assert lines[0] == "sigma,p_closed_form,p_monte_carlo,stderr"
        assert len(lines) == 3
        for line, sigma in zip(lines[1:], (0.2, 0.4)):
            parts = line.split(",")
            assert float(parts[0]) == sigma
            assert float(parts[1]) == gkp.logical_error_prob(sigma)
            assert 0.0 <= float(parts[2]) <= 0.5

    def test_no_flip_reads_zero_standard_error(self):
        # a plug-in standard error, not a bound: 0.0 at a zero count
        text = gkp.error_curve_csv([0.15], samples=1000, rng_seed=1)
        assert text.splitlines()[1] == "0.15,3.4590899175671067e-09,0.0,0.0"
