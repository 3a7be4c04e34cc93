"""Teleportation-based gates: noise laws, feedforward closure, limits.

The Gaussian gadgets are tested where `cvq` runs them: the teleporter
as the circuit-language program dslgen.teleport_text, and the squeezer
as the loop's squeeze_tele gate.
"""

import math

import numpy as np
import pytest

import dslgen
import oracles
from cvqsim import dsl, loop
from cvqsim import fock as fk
from cvqsim import gaussian as g
from cvqsim import squeezing_db_to_r
from cvqsim import telegates as tg
from cvqsim.loop import LoopConfig


def teleport(prep, r, seed=0, gain=1.0, reports="report cov;"):
    """The DSL teleporter of the state `prep` makes: its RunReport."""
    program = dsl.parse(dslgen.teleport_text(prep, r, gain, reports))
    return dsl.run(program, "gaussian", seed)


def coherent_fidelity(dx, dp, r):
    reports = f"report fidelity coherent dx={dx} dp={dp};"
    return teleport(f"disp in dx={dx} dp={dp};", r,
                    reports=reports).reports[0]["value"]


class TestTeleport:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.15, 2.3])
    def test_unit_gain_adds_exactly_exp_minus_2r(self, r):
        rng = np.random.default_rng(11)
        for k in range(12):
            prep, state = dslgen.random_input(rng, "in", mixed=k % 2 == 1)
            out = teleport(prep, r, seed=k).reports[0]
            expected = state.cov + math.exp(-2 * r) * np.eye(2)
            assert np.allclose(out["cov"], expected, atol=1e-9)
            assert np.allclose(out["mean"], state.mean, atol=1e-9)

    def test_random_inputs_are_the_oracle_states(self):
        for mixed in (False, True):
            rng, ref_rng = (np.random.default_rng(11) for _ in range(2))
            for _ in range(6):
                _, state = dslgen.random_input(rng, "in", mixed)
                ref = (oracles.random_mixed_state(1, ref_rng) if mixed
                       else oracles.random_pure_state(1, ref_rng))
                assert np.array_equal(state.cov, ref.cov)
                assert np.array_equal(state.mean, ref.mean)

    def test_coherent_fidelity_closed_form(self):
        for r in [0.0, 0.5, 1.15, 2.3]:
            for alpha in [(0.0, 0.0), (1.3, -0.4), (-2.0, 2.5)]:
                want = 1.0 / (1.0 + math.exp(-2 * r))
                assert coherent_fidelity(*alpha, r) == pytest.approx(
                    want, abs=1e-9)

    def test_output_independent_of_measurement_record(self):
        prep = "disp in dx=0.7 dp=-1.1;"
        a = teleport(prep, 0.8, seed=1)
        b = teleport(prep, 0.8, seed=99)
        assert a.outcomes != b.outcomes
        assert a.reports == b.reports

    def test_classical_limit_is_two_units_of_vacuum_noise(self):
        out = teleport("", 0.0).reports[0]
        assert np.allclose(out["cov"], 1.5 * np.eye(2), atol=1e-12)
        assert coherent_fidelity(0.0, 0.0, 0.0) == pytest.approx(0.5,
                                                                 abs=1e-12)

    def test_added_noise_fields(self):
        rep = teleport("", 1.15)
        added = np.diag(rep.reports[0]["cov"]) - 0.5
        assert added == pytest.approx([math.exp(-2.3)] * 2, abs=1e-12)
        assert (added >= 0).all()
        assert len(rep.outcomes) == 2

    def test_zero_gain_erases_the_input(self):
        out = teleport("disp in dx=3.0 dp=-2.0;", 1.0, seed=5,
                       gain=0.0).reports[0]
        assert np.allclose(out["mean"], 0.0, atol=1e-12)

    def test_channel_matches_conditional_ensemble(self):
        # Independent route: sample outcomes, condition, apply the same
        # feedforward displacement per shot, then average moments.
        r = 0.8
        state = g.coherent(0.9, 0.4)
        rng = np.random.default_rng(2024)
        means = []
        covs = []
        for _ in range(4000):
            prep = oracles.tensor(state, g.vacuum(2))
            prep = g.squeeze(prep, 1, r)
            prep = g.squeeze(prep, 2, -r)
            prep = g.beam_splitter(prep, 1, 2, 0.5)
            prep = g.beam_splitter(prep, 0, 1, 0.5)
            m_x = g.sample_quadrature(prep, 1, 0.0, rng)
            prep = g.GaussianState(*oracles.condition_oracle(prep, 1, 0.0, m_x))
            m_p = g.sample_quadrature(prep, 0, np.pi / 2, rng)
            prep = g.GaussianState(*oracles.condition_oracle(prep, 0, np.pi / 2,
                                                             m_p))
            out = g.displace(prep, 0, -math.sqrt(2) * m_x, math.sqrt(2) * m_p)
            means.append(out.mean)
            covs.append(out.cov)
        means = np.array(means)
        avg_mean = means.mean(axis=0)
        avg_cov = np.mean(covs, axis=0) + np.cov(means.T, bias=True)
        out = teleport("disp in dx=0.9 dp=0.4;", r).reports[0]
        assert np.allclose(avg_mean, out["mean"], atol=0.1)
        assert np.allclose(avg_cov, out["cov"], atol=0.1)


def loop_squeeze(state, y, r, seed=0):
    """S(y) on a one-mode state by the loop's squeeze_tele gate:
    (program, output over the surviving pulses, run log)."""
    cfg = LoopConfig(n_data=1, m_anc=1)
    prog = loop.compile_gates(cfg, [("squeeze_tele", 0, y, r)])
    anc = g.remove_modes(prog.input_state, [0])     # the prepared ancilla
    out, log = loop.simulate(cfg, prog, oracles.tensor(state, anc),
                             rng_seed=seed)
    return prog, out, log


def added_noise(state, y, r, seed=0):
    """(x, p) variance the loop's S(y) adds to the ideal squeeze."""
    _, out, _ = loop_squeeze(state, y, r, seed)
    ideal = g.squeeze(state, 0, -math.log(y))
    return out.cov[0, 0] - ideal.cov[0, 0], out.cov[1, 1] - ideal.cov[1, 1]


class TestTeleSqueeze:
    @pytest.mark.parametrize("y", [0.4, 0.7])
    def test_shrinking_branch_noise_budget(self, y):
        rng = np.random.default_rng(7)
        r = 1.0
        for k in range(8):
            state = oracles.random_mixed_state(1, rng)
            noise_x, noise_p = added_noise(state, y, r, seed=k)
            excess = (1 - y * y) * math.exp(-2 * r) / 2
            assert noise_x == pytest.approx(excess, abs=1e-9)
            assert noise_p == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("y", [1.5, 2.5])
    def test_stretching_branch_noise_budget(self, y):
        rng = np.random.default_rng(8)
        r = 1.0
        for k in range(8):
            state = oracles.random_mixed_state(1, rng)
            noise_x, noise_p = added_noise(state, y, r, seed=k)
            t = 1.0 / (y * y)
            excess = (1 - t) * math.exp(-2 * r) / 2
            assert noise_p == pytest.approx(excess, abs=1e-9)
            assert noise_x == pytest.approx(0.0, abs=1e-9)

    def test_vacuum_halving_with_ten_db_ancilla(self):
        _, out, _ = loop_squeeze(g.vacuum(1), 0.5, 1.1513)
        excess = 0.75 * math.exp(-2 * 1.1513) / 2
        assert out.cov[0, 0] == pytest.approx(0.125 + excess, abs=1e-9)
        assert out.cov[1, 1] == pytest.approx(2.0, abs=1e-9)

    def test_matches_dense_propagation_oracle(self):
        # Same circuit, built in the test from scratch as one big matrix.
        rng = np.random.default_rng(21)
        for y in [0.3, 0.8, 1.6, 2.8]:
            state = oracles.random_mixed_state(1, rng)
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
            _, out, _ = loop_squeeze(state, y, r)
            assert np.allclose(out.mean, mean4[:2], atol=1e-9)
            assert np.allclose(out.cov, cov4[:2, :2], atol=1e-9)

    def test_infinite_squeezing_recovers_unitary_squeeze(self):
        rng = np.random.default_rng(13)
        for k in range(100):
            state = oracles.random_pure_state(1, rng)
            y = float(rng.uniform(0.3, 3.0))
            if abs(y - 1) < 0.05:
                continue
            _, out, _ = loop_squeeze(state, y, 12.0, seed=k)
            ideal = g.squeeze(state, 0, -math.log(y))
            assert np.allclose(out.cov, ideal.cov, atol=1e-9)
            assert np.allclose(out.mean, ideal.mean, atol=1e-9)
            assert g.fidelity(ideal, out) >= 1 - 1e-8

    def test_fidelity_improves_with_ancilla_squeezing(self):
        state = g.coherent(1.0, 0.0)
        ideal = g.squeeze(state, 0, -math.log(0.5))
        fids = [g.fidelity(ideal, loop_squeeze(state, 0.5, r)[1])
                for r in [0.3, 0.8, 1.5, 2.5]]
        assert all(b > a for a, b in zip(fids, fids[1:]))

    def test_unity_factor_runs_gadget_at_full_transmission(self):
        # T = 1 and zero feedforward gain: the ancilla is measured and
        # leaves, and the data pulse passes unchanged
        state = g.coherent(0.3, 0.9)
        _, out, log = loop_squeeze(state, 1.0, 1.0)
        assert log.survivors == [0] and len(log.outcomes) == 1
        assert np.array_equal(out.mean, state.mean)
        assert np.array_equal(out.cov, state.cov)

    def test_validation(self):
        cfg = LoopConfig(n_data=1, m_anc=1)
        for y in (-0.5, 0.0):
            with pytest.raises(ValueError):
                loop.compile_gates(cfg, [("squeeze_tele", 0, y, 1.0)])
        prog = loop.compile_gates(cfg, [("squeeze_tele", 0, 0.5, 1.0)])
        with pytest.raises(ValueError):
            loop.simulate(cfg, prog, g.vacuum(3))


class TestTeleCubic:
    def test_same_seed_same_fidelity_any_gamma(self):
        state = fk.coherent_fock(0.5, 50)
        a = tg.tele_cubic(state, 0.0, 2.3026, rng_seed=3)
        b = tg.tele_cubic(state, 0.1, 2.3026, rng_seed=3)
        assert a.fidelity_vs_ideal == b.fidelity_vs_ideal

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
        fids = [tg.channel_fidelity(state, 0.1, squeezing_db_to_r(db))
                for db in dbs]
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert fids[-1] >= 0.99

    def test_sampled_mean_agrees_with_quadrature_mean(self):
        state = fk.vacuum_fock(1, 40)
        r = squeezing_db_to_r(10.0)
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

    def test_deterministic_for_fixed_seed(self):
        state = fk.coherent_fock(0.3 + 0.4j, 40)
        a = tg.tele_cubic(state, 0.1, 1.5, rng_seed=42)
        b = tg.tele_cubic(state, 0.1, 1.5, rng_seed=42)
        assert np.array_equal(a.output.amps, b.output.amps)

    def test_validation(self):
        with pytest.raises(ValueError):
            tg.tele_cubic(fk.vacuum_fock(1, 20), 0.5, 1.0)
        with pytest.raises(ValueError):
            tg.tele_cubic(fk.vacuum_fock(1, 20), 0.1, -1.0)
        with pytest.raises(ValueError):
            tg.tele_cubic(fk.vacuum_fock(2, 10), 0.1, 1.0)
