"""Teleportation-based gates: noise laws, feedforward closure, limits."""

import math

import numpy as np
import pytest

from cvqsim import fock as fk
from cvqsim import gaussian as g
from cvqsim import telegates as tg

from oracles import random_mixed_state, random_pure_state


class TestTeleport:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.15, 2.3])
    def test_unit_gain_adds_exactly_exp_minus_2r(self, r):
        rng = np.random.default_rng(11)
        for k in range(12):
            state = (random_pure_state(1, rng) if k % 2 == 0
                     else random_mixed_state(1, rng))
            rep = tg.teleport(state, r, rng_seed=k)
            expected = state.cov + math.exp(-2 * r) * np.eye(2)
            assert np.allclose(rep.output.cov, expected, atol=1e-9)
            assert np.allclose(rep.output.mean, state.mean, atol=1e-9)

    def test_coherent_fidelity_closed_form(self):
        for r in [0.0, 0.5, 1.15, 2.3]:
            for alpha in [(0.0, 0.0), (1.3, -0.4), (-2.0, 2.5)]:
                state = g.coherent(*alpha)
                rep = tg.teleport(state, r, rng_seed=3)
                want = 1.0 / (1.0 + math.exp(-2 * r))
                assert rep.fidelity_vs_ideal == pytest.approx(want, abs=1e-9)

    def test_output_independent_of_measurement_record(self):
        state = g.coherent(0.7, -1.1)
        a = tg.teleport(state, 0.8, rng_seed=1)
        b = tg.teleport(state, 0.8, rng_seed=99)
        assert a.outcomes != b.outcomes
        assert np.array_equal(a.output.mean, b.output.mean)
        assert np.array_equal(a.output.cov, b.output.cov)

    def test_classical_limit_is_two_units_of_vacuum_noise(self):
        rep = tg.teleport(g.vacuum(1), 0.0, rng_seed=0)
        assert np.allclose(rep.output.cov, 1.5 * np.eye(2), atol=1e-12)
        assert rep.fidelity_vs_ideal == pytest.approx(0.5, abs=1e-12)

    def test_added_noise_fields(self):
        rep = tg.teleport(g.vacuum(1), 1.15, rng_seed=0)
        assert rep.added_noise_x == pytest.approx(math.exp(-2.3), abs=1e-12)
        assert rep.added_noise_p == pytest.approx(math.exp(-2.3), abs=1e-12)
        assert rep.added_noise_x >= 0 and rep.added_noise_p >= 0
        assert len(rep.outcomes) == 2

    def test_zero_gain_erases_the_input(self):
        state = g.coherent(3.0, -2.0)
        rep = tg.teleport(state, 1.0, gain=0.0, rng_seed=5)
        assert np.allclose(rep.output.mean, 0.0, atol=1e-12)

    def test_channel_matches_conditional_ensemble(self):
        # Independent route: sample outcomes, condition, apply the same
        # feedforward displacement per shot, then average moments.
        r = 0.8
        state = g.coherent(0.9, 0.4)
        rng = np.random.default_rng(2024)
        means = []
        covs = []
        for _ in range(4000):
            prep = g.tensor(state, g.vacuum(2))
            prep = g.squeeze(prep, 1, r)
            prep = g.squeeze(prep, 2, -r)
            prep = g.beam_splitter(prep, 1, 2, 0.5)
            prep = g.beam_splitter(prep, 0, 1, 0.5)
            m_x, prep = g.homodyne(prep, 1, 0.0, rng)
            m_p, prep = g.homodyne(prep, 0, np.pi / 2, rng)
            out = g.displace(prep, 0, -math.sqrt(2) * m_x, math.sqrt(2) * m_p)
            means.append(out.mean)
            covs.append(out.cov)
        means = np.array(means)
        avg_mean = means.mean(axis=0)
        avg_cov = np.mean(covs, axis=0) + np.cov(means.T, bias=True)
        rep = tg.teleport(state, r, rng_seed=0)
        assert np.allclose(avg_mean, rep.output.mean, atol=0.1)
        assert np.allclose(avg_cov, rep.output.cov, atol=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            tg.teleport(g.vacuum(2), 1.0)
        with pytest.raises(ValueError):
            tg.teleport(g.vacuum(1), -0.1)
        with pytest.raises(ValueError):
            tg.teleport(g.vacuum(1), 1.0, gain=2.5)


class TestTeleSqueeze:
    @pytest.mark.parametrize("y", [0.4, 0.7])
    def test_shrinking_branch_noise_budget(self, y):
        rng = np.random.default_rng(7)
        r = 1.0
        for k in range(8):
            state = random_mixed_state(1, rng)
            rep = tg.tele_squeeze(state, y, r, rng_seed=k)
            excess = (1 - y * y) * math.exp(-2 * r) / 2
            assert rep.added_noise_x == pytest.approx(excess, abs=1e-9)
            assert rep.added_noise_p == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("y", [1.5, 2.5])
    def test_stretching_branch_noise_budget(self, y):
        rng = np.random.default_rng(8)
        r = 1.0
        for k in range(8):
            state = random_mixed_state(1, rng)
            rep = tg.tele_squeeze(state, y, r, rng_seed=k)
            t = 1.0 / (y * y)
            excess = (1 - t) * math.exp(-2 * r) / 2
            assert rep.added_noise_p == pytest.approx(excess, abs=1e-9)
            assert rep.added_noise_x == pytest.approx(0.0, abs=1e-9)

    def test_vacuum_halving_with_ten_db_ancilla(self):
        rep = tg.tele_squeeze(g.vacuum(1), 0.5, 1.1513, rng_seed=0)
        excess = 0.75 * math.exp(-2 * 1.1513) / 2
        assert rep.output.cov[0, 0] == pytest.approx(0.125 + excess, abs=1e-9)
        assert rep.output.cov[1, 1] == pytest.approx(2.0, abs=1e-9)

    def test_matches_dense_propagation_oracle(self):
        # Same circuit, built in the test from scratch as one big matrix.
        rng = np.random.default_rng(21)
        for y in [0.3, 0.8, 1.6, 2.8]:
            state = random_mixed_state(1, rng)
            r = 1.2
            if y < 1:
                t, anc_r = y * y, r
            else:
                t, anc_r = 1.0 / (y * y), -r
            ff = -math.sqrt((1 - t) / t)
            sq = np.kron(np.diag([1.0, 1.0]),
                         np.diag([math.exp(-anc_r), math.exp(anc_r)]))
            sq[0, 0] = sq[1, 1] = 1.0
            a, b = math.sqrt(t), math.sqrt(1 - t)
            bs = np.array([[a, 0, b, 0],
                           [0, a, 0, b],
                           [-b, 0, a, 0],
                           [0, -b, 0, a]])
            ffm = np.eye(4)
            if y < 1:
                ffm[1, 3] = ff
            else:
                ffm[0, 2] = ff
            total = ffm @ bs @ sq
            mean4 = total @ np.concatenate([state.mean, [0, 0]])
            cov4 = total @ np.block([
                [state.cov, np.zeros((2, 2))],
                [np.zeros((2, 2)), 0.5 * np.eye(2)],
            ]) @ total.T
            rep = tg.tele_squeeze(state, y, r, rng_seed=0)
            assert np.allclose(rep.output.mean, mean4[:2], atol=1e-9)
            assert np.allclose(rep.output.cov, cov4[:2, :2], atol=1e-9)

    def test_infinite_squeezing_recovers_unitary_squeeze(self):
        rng = np.random.default_rng(13)
        for k in range(100):
            state = random_pure_state(1, rng)
            y = float(rng.uniform(0.3, 3.0))
            if abs(y - 1) < 0.05:
                continue
            rep = tg.tele_squeeze(state, y, 12.0, rng_seed=k)
            ideal = g.squeeze(state, 0, -math.log(y))
            assert np.allclose(rep.output.cov, ideal.cov, atol=1e-9)
            assert np.allclose(rep.output.mean, ideal.mean, atol=1e-9)
            assert rep.fidelity_vs_ideal >= 1 - 1e-8

    def test_fidelity_improves_with_ancilla_squeezing(self):
        state = g.coherent(1.0, 0.0)
        fids = [tg.tele_squeeze(state, 0.5, r, rng_seed=0).fidelity_vs_ideal
                for r in [0.3, 0.8, 1.5, 2.5]]
        assert all(b > a for a, b in zip(fids, fids[1:]))

    def test_unity_factor_bypasses_gadget(self):
        state = g.coherent(0.3, 0.9)
        rep = tg.tele_squeeze(state, 1.0, 1.0, rng_seed=0)
        assert rep.output is state
        assert rep.outcomes == []

    def test_validation(self):
        with pytest.raises(ValueError):
            tg.tele_squeeze(g.vacuum(1), -0.5, 1.0)
        with pytest.raises(ValueError):
            tg.tele_squeeze(g.vacuum(1), 0.0, 1.0)
        with pytest.raises(ValueError):
            tg.tele_squeeze(g.vacuum(2), 0.5, 1.0)


class TestTeleCubic:
    def test_same_seed_same_outcomes_any_gamma(self):
        state = fk.coherent_fock(0.5, 50)
        a = tg.tele_cubic(state, 0.0, 2.3026, rng_seed=3)
        b = tg.tele_cubic(state, 0.1, 2.3026, rng_seed=3)
        assert a.outcomes == b.outcomes
        assert abs(a.fidelity_vs_ideal - b.fidelity_vs_ideal) < 1e-9

    def test_strong_resource_converges_to_direct_unitary(self):
        state = fk.vacuum_fock(1, 60)
        for seed in range(10):
            rep = tg.tele_cubic(state, 0.1, 3.5, rng_seed=seed)
            assert rep.fidelity_vs_ideal > 0.995

    def test_channel_fidelity_closed_form_for_coherent_input(self):
        state = fk.coherent_fock(0.4, 60)
        for r in [0.8, 1.1513, 2.3026]:
            got = tg.channel_fidelity(state, 0.1, r)
            want = 1.0 / (1.0 + math.exp(-2 * r))
            assert got == pytest.approx(want, abs=1e-6)

    def test_channel_fidelity_monotone_in_resource_squeezing(self):
        state = fk.vacuum_fock(1, 60)
        dbs = [5.0, 10.0, 15.0, 20.0]
        fids = [tg.channel_fidelity(state, 0.1, g.squeezing_db_to_r(db))
                for db in dbs]
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert fids[-1] >= 0.99

    def test_sampled_mean_agrees_with_quadrature_mean(self):
        state = fk.vacuum_fock(1, 40)
        r = g.squeezing_db_to_r(10.0)
        fids = [tg.tele_cubic(state, 0.1, r, rng_seed=s).fidelity_vs_ideal
                for s in range(200)]
        want = tg.channel_fidelity(state, 0.1, r)
        se = np.std(fids, ddof=1) / math.sqrt(len(fids))
        assert abs(np.mean(fids) - want) < 3 * se + 1e-3

    def test_added_noise_law_in_fock_moments(self):
        state = fk.coherent_fock(0.6 - 0.2j, 40)
        r = 0.8
        _, cov_in = fk.covariance_of(state)
        seconds = []
        mus = []
        for s in range(400):
            rep = tg.tele_cubic(state, 0.0, r, rng_seed=s)
            mean_o, cov_o = fk.covariance_of(rep.output)
            seconds.append(cov_o + np.outer(mean_o, mean_o))
            mus.append(mean_o)
        mu_bar = np.mean(mus, axis=0)
        ens = np.mean(seconds, axis=0) - np.outer(mu_bar, mu_bar)
        expected = cov_in + math.exp(-2 * r) * np.eye(2)
        assert np.allclose(ens, expected, atol=0.05)

    def test_shear_limit_raises(self):
        state = fk.coherent_fock(1.5, 40)
        with pytest.raises(tg.FeedforwardRangeError):
            tg.tele_cubic(state, 0.2, 1.0, rng_seed=0, shear_limit=1e-6)

    def test_leakage_budget_raises(self):
        state = fk.coherent_fock(0.5, 40)
        with pytest.raises(fk.LeakageError):
            tg.tele_cubic(state, 0.1, 1.0, rng_seed=0, leakage_budget=1e-30)

    def test_deterministic_for_fixed_seed(self):
        state = fk.coherent_fock(0.3 + 0.4j, 40)
        a = tg.tele_cubic(state, 0.1, 1.5, rng_seed=42)
        b = tg.tele_cubic(state, 0.1, 1.5, rng_seed=42)
        assert np.array_equal(a.output.amps, b.output.amps)
        assert a.outcomes == b.outcomes

    def test_validation(self):
        with pytest.raises(ValueError):
            tg.tele_cubic(fk.vacuum_fock(1, 20), 0.5, 1.0)
        with pytest.raises(ValueError):
            tg.tele_cubic(fk.vacuum_fock(1, 20), 0.1, -1.0)
        with pytest.raises(ValueError):
            tg.tele_cubic(fk.vacuum_fock(2, 10), 0.1, 1.0)
