"""Loop processor: schedule engine, gate compilation, entangled states."""

import math
import time

import numpy as np
import pytest

from cvqsim import gaussian as g
from cvqsim import dsl, loop, squeezing_db_to_r, tdm
from cvqsim.loop import LoopConfig, LoopProgram, LoopScheduleError, ScheduleStep

import oracles

R15 = squeezing_db_to_r(15.0)


def apply_gates_direct(state, gates):
    for gate in gates:
        if gate[0] == "phase":
            state = g.phase_shift(state, gate[1], gate[2])
        elif gate[0] == "bs":
            state = g.beam_splitter(state, gate[1], gate[2], gate[3])
        elif gate[0] == "displace":
            state = g.displace(state, gate[1], gate[2], gate[3])
        else:
            raise AssertionError(gate)
    return state


def random_input(n, rng):
    state = g.vacuum(n)
    for k in range(n):
        state = g.squeeze(state, k, rng.uniform(-0.8, 0.8))
        state = g.displace(state, k, rng.uniform(-1, 1), rng.uniform(-1, 1))
    for _ in range(n):
        i, j = rng.choice(n, size=2, replace=False)
        state = g.beam_splitter(state, int(i), int(j), rng.uniform(0.2, 0.8))
    return state


class TestValidation:
    def test_config_rejects_empty_loop(self):
        with pytest.raises(ValueError):
            LoopConfig(n_data=0, m_anc=0)

    @pytest.mark.parametrize("n_data, m_anc", [(3, -1), (-1, 3), (2.5, 0),
                                               (2, 0.5), ("2", 0)])
    def test_config_rejects_impossible_counts(self, n_data, m_anc):
        with pytest.raises(ValueError, match="non-negative integers"):
            LoopConfig(n_data=n_data, m_anc=m_anc)

    def test_config_rejects_bad_transmission(self):
        with pytest.raises(ValueError):
            LoopConfig(n_data=1, eta_outer=1.2)
        with pytest.raises(ValueError):
            LoopConfig(n_data=1, eta_inner=-0.1)

    def test_input_mode_count_must_match(self):
        cfg = LoopConfig(n_data=3)
        with pytest.raises(ValueError, match="3 modes"):
            loop.simulate(cfg, LoopProgram(steps=()), g.vacuum(2))

    def test_non_monotone_steps_rejected(self):
        cfg = LoopConfig(n_data=2)
        prog = LoopProgram(steps=(ScheduleStep(slot=3), ScheduleStep(slot=1)))
        with pytest.raises(ValueError, match="monotone"):
            loop.simulate(cfg, prog, g.vacuum(2))

    def test_duplicate_slot_is_a_conflict(self):
        cfg = LoopConfig(n_data=2)
        prog = LoopProgram(steps=(ScheduleStep(slot=1), ScheduleStep(slot=1)))
        with pytest.raises(LoopScheduleError, match="conflict"):
            loop.simulate(cfg, prog, g.vacuum(2))

    @pytest.mark.parametrize("slot", [-1, 1.5])
    def test_slot_must_be_a_non_negative_integer(self, slot):
        # a fractional slot never comes round: the slot walk skipped it
        cfg = LoopConfig(n_data=2)
        prog = LoopProgram(steps=(ScheduleStep(slot=slot, eom=(1.0, 0.0)),))
        with pytest.raises(ValueError, match="non-negative integer"):
            loop.simulate(cfg, prog, g.vacuum(2))

    def test_vbs_out_of_range(self):
        cfg = LoopConfig(n_data=2)
        prog = LoopProgram(steps=(ScheduleStep(slot=0, vbs_T=1.5),))
        with pytest.raises(ValueError, match="vbs_T"):
            loop.simulate(cfg, prog, g.vacuum(2))

    def test_homodyne_needs_outcome_id(self):
        cfg = LoopConfig(n_data=1)
        prog = LoopProgram(steps=(ScheduleStep(slot=0, homodyne=0.0),))
        with pytest.raises(ValueError, match="outcome id"):
            loop.simulate(cfg, prog, g.vacuum(1))

    def test_outcome_id_must_be_declared(self):
        cfg = LoopConfig(n_data=1)
        prog = LoopProgram(
            steps=(ScheduleStep(slot=0, homodyne=0.0, outcome_id="m"),))
        with pytest.raises(ValueError, match="undeclared"):
            loop.simulate(cfg, prog, g.vacuum(1))

    def test_outcome_id_written_once(self):
        cfg = LoopConfig(n_data=3)
        prog = LoopProgram(
            steps=(ScheduleStep(slot=0, homodyne=0.0, outcome_id="m"),
                   ScheduleStep(slot=1, homodyne=0.0, outcome_id="m"),
                   ScheduleStep(slot=2, ff=("m", 1.0, 0.0, 2))),
            outcome_ids=("m",))
        with pytest.raises(ValueError,
                           match=r"outcome id 'm' written twice, at slots 0 and 1"):
            loop.simulate(cfg, prog, g.vacuum(3))

    def test_feedforward_source_must_be_declared(self):
        cfg = LoopConfig(n_data=1)
        prog = LoopProgram(
            steps=(ScheduleStep(slot=0, ff=("ghost", 1.0, 0.0, 0)),))
        with pytest.raises(ValueError, match="unknown id"):
            loop.simulate(cfg, prog, g.vacuum(1))

    def test_feedforward_before_measurement(self):
        cfg = LoopConfig(n_data=2)
        prog = LoopProgram(
            steps=(ScheduleStep(slot=0, ff=("m", 1.0, 0.0, 1)),
                   ScheduleStep(slot=1, homodyne=0.0, outcome_id="m")),
            outcome_ids=("m",))
        with pytest.raises(LoopScheduleError, match="unmeasured"):
            loop.simulate(cfg, prog, g.vacuum(2))

    def test_zero_variance_homodyne_rejected(self):
        cfg = LoopConfig(n_data=1)
        prog = LoopProgram(
            steps=(ScheduleStep(slot=0, homodyne=0.0, outcome_id="m"),),
            outcome_ids=("m",))
        state = g.squeeze(g.vacuum(1), 0, squeezing_db_to_r(400.0))
        with pytest.raises(ValueError, match="zero variance"):
            loop.simulate(cfg, prog, state)

    def test_homodyne_on_consumed_slot(self):
        cfg = LoopConfig(n_data=1)
        prog = LoopProgram(
            steps=(ScheduleStep(slot=0, homodyne=0.0, outcome_id="a"),
                   ScheduleStep(slot=1, homodyne=0.0, outcome_id="b")),
            outcome_ids=("a", "b"))
        with pytest.raises(LoopScheduleError, match="consumed"):
            loop.simulate(cfg, prog, g.vacuum(1))

    def test_beam_splitter_needs_both_ports(self):
        cfg = LoopConfig(n_data=2)
        prog = LoopProgram(steps=(ScheduleStep(slot=0, vbs_T=0.5),))
        with pytest.raises(LoopScheduleError, match="both ports"):
            loop.simulate(cfg, prog, g.vacuum(2))

    def test_phase_on_empty_inner_loop(self):
        cfg = LoopConfig(n_data=2)
        prog = LoopProgram(steps=(ScheduleStep(slot=0, vps_theta=0.3),))
        with pytest.raises(LoopScheduleError, match="empty inner"):
            loop.simulate(cfg, prog, g.vacuum(2))

    def test_feedforward_target_never_arrives(self):
        cfg = LoopConfig(n_data=2)
        prog = LoopProgram(
            steps=(ScheduleStep(slot=0, homodyne=0.0, outcome_id="m",
                                ff=("m", 1.0, 0.0, 0)),),
            outcome_ids=("m",))
        with pytest.raises(LoopScheduleError, match="never arrive"):
            loop.simulate(cfg, prog, g.vacuum(2))

    def test_compile_rejects_bad_gates(self):
        cfg = LoopConfig(n_data=2, m_anc=0)
        with pytest.raises(ValueError, match="out of range"):
            loop.compile_gates(cfg, [("phase", 5, 0.1)])
        with pytest.raises(ValueError, match="distinct"):
            loop.compile_gates(cfg, [("bs", 1, 1, 0.5)])
        with pytest.raises(ValueError, match="transmissivity"):
            loop.compile_gates(cfg, [("bs", 0, 1, 1.5)])
        with pytest.raises(ValueError, match="unknown gate"):
            loop.compile_gates(cfg, [("cubic", 0, 0.1)])
        with pytest.raises(ValueError, match="positive"):
            loop.compile_gates(cfg, [("squeeze_tele", 0, -1.0, 1.0)])

    def test_input_state_squeezes_each_ancilla_by_its_r_anc(self):
        # y < 1 takes an x-squeezed ancilla, y > 1 a p-squeezed one; the
        # data pulses are vacuum, and so is every pulse of a program
        # without squeeze_tele
        cfg = LoopConfig(n_data=2, m_anc=3)
        prog = loop.compile_gates(cfg, [("squeeze_tele", 0, 0.6, 0.7),
                                        ("phase", 1, 0.3),
                                        ("squeeze_tele", 1, 1.8, 1.1)])
        lo, hi = math.exp(-1.4) / 2, math.exp(2.2) / 2
        want = [0.5, 0.5, 0.5, 0.5, lo, 1 / (4 * lo), hi, 1 / (4 * hi),
                0.5, 0.5]
        np.testing.assert_allclose(prog.input_state.cov, np.diag(want),
                                   rtol=1e-15, atol=0)
        assert not prog.input_state.mean.any()
        plain = loop.compile_gates(cfg, [("phase", 1, 0.3)]).input_state
        assert np.array_equal(plain.cov, g.vacuum(5).cov)
        assert not plain.mean.any()

    def test_compile_runs_out_of_ancillas(self):
        cfg = LoopConfig(n_data=1, m_anc=1)
        gates = [("squeeze_tele", 0, 0.5, 1.0), ("squeeze_tele", 0, 0.5, 1.0)]
        with pytest.raises(LoopScheduleError, match="ancilla"):
            loop.compile_gates(cfg, gates)


class TestEngine:
    def test_empty_program_is_identity(self):
        cfg = LoopConfig(n_data=2, eta_outer=0.7, eta_inner=0.6)
        state = g.displace(g.squeeze(g.vacuum(2), 0, 0.9), 1, 1.0, -2.0)
        out, log = loop.simulate(cfg, LoopProgram(steps=()), state)
        assert np.array_equal(out.cov, state.cov)
        assert np.array_equal(out.mean, state.mean)
        assert all(v == 0 for v in log.outer_passes.values())

    def test_balanced_bs_leaves_vacuum_unchanged(self):
        cfg = LoopConfig(n_data=2)
        prog = loop.compile_gates(cfg, [("bs", 0, 1, 0.5)])
        out, _ = loop.simulate(cfg, prog, g.vacuum(2))
        assert np.abs(out.cov - g.vacuum(2).cov).max() < 1e-12
        assert np.abs(out.mean).max() < 1e-12

    def test_compiled_gates_match_direct_application(self):
        cfg = LoopConfig(n_data=4)
        gates = [("phase", 1, 0.7), ("bs", 0, 2, 0.3),
                 ("displace", 3, 0.5, -0.2), ("bs", 3, 1, 0.8),
                 ("phase", 0, -1.1), ("bs", 2, 3, 0.5)]
        prog = loop.compile_gates(cfg, gates)
        rng = np.random.default_rng(11)
        state = random_input(4, rng)
        out, log = loop.simulate(cfg, prog, state)
        ref = apply_gates_direct(state, gates)
        assert np.abs(out.cov - ref.cov).max() < 1e-9
        assert np.abs(out.mean - ref.mean).max() < 1e-9
        assert log.survivors == [0, 1, 2, 3]

    def test_random_programs_match_direct(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(2, 7))
            cfg = LoopConfig(n_data=n)
            gates = []
            for _ in range(int(rng.integers(1, 7))):
                kind = rng.choice(["phase", "bs", "displace"])
                if kind == "phase":
                    gates.append(("phase", int(rng.integers(n)),
                                  float(rng.uniform(-3, 3))))
                elif kind == "bs":
                    i, j = rng.choice(n, size=2, replace=False)
                    gates.append(("bs", int(i), int(j),
                                  float(rng.uniform(0.05, 0.95))))
                else:
                    gates.append(("displace", int(rng.integers(n)),
                                  float(rng.uniform(-2, 2)),
                                  float(rng.uniform(-2, 2))))
            state = random_input(n, rng)
            out, _ = loop.simulate(cfg, loop.compile_gates(cfg, gates), state)
            ref = apply_gates_direct(state, gates)
            assert np.abs(out.cov - ref.cov).max() < 1e-9
            assert np.abs(out.mean - ref.mean).max() < 1e-9

    @pytest.mark.parametrize("eta", [(1.0, 1.0), (0.9, 0.8)])
    def test_one_pulse_loop_runs_phase_gates(self, eta):
        # with one pulse a phase falls on its own release slot; the two
        # share a step, the phase acting on the inner pulse before the swap
        cfg = LoopConfig(n_data=1, eta_outer=eta[0], eta_inner=eta[1])
        gates = [("phase", 0, 0.3), ("displace", 0, 0.5, -0.2),
                 ("phase", 0, 0.4)]
        prog = loop.compile_gates(cfg, gates)
        assert [(s.slot, s.vbs_T, s.vps_theta) for s in prog.steps
                if s.eom is None] == [(0, 0.0, 0.0), (1, 0.0, 0.3),
                                      (3, 0.0, 0.0), (4, 0.0, 0.4)]
        state = g.displace(g.squeeze(g.vacuum(1), 0, 0.5), 0, 0.3, -0.2)
        out, log = loop.simulate(cfg, prog, state)
        ref, ref_log = oracles.loop_slot_walk(cfg, prog, state)
        assert log.inner_slots == ref_log.inner_slots == {0: 2}
        _assert_close(out.mean, ref.mean, "mean")
        _assert_close(out.cov, ref.cov, "cov")
        if eta == (1.0, 1.0):
            direct = apply_gates_direct(state, gates)
            assert np.array_equal(out.cov, direct.cov)
            assert np.array_equal(out.mean, direct.mean)

    @staticmethod
    def _squeeze_tele_run(data, seed):
        cfg = LoopConfig(n_data=1, m_anc=1)
        prog = loop.compile_gates(cfg, [("squeeze_tele", 0, 0.6, 1.0)])
        anc = g.squeeze(g.vacuum(1), 0, 1.0)
        return loop.simulate(cfg, prog, oracles.tensor(data, anc),
                             rng_seed=seed)

    def test_teleport_output_independent_of_seed(self):
        data = g.coherent(1.0, 2.0)
        out_a, log_a = self._squeeze_tele_run(data, 1)
        out_b, log_b = self._squeeze_tele_run(data, 2)
        assert np.array_equal(out_a.cov, out_b.cov)
        assert np.array_equal(out_a.mean, out_b.mean)
        values_a = [e["value"] for e in log_a.outcomes]
        values_b = [e["value"] for e in log_b.outcomes]
        assert values_a != values_b

    def test_determinism(self):
        data = g.coherent(0.5, -1.0)
        out_a, log_a = self._squeeze_tele_run(data, 42)
        out_b, log_b = self._squeeze_tele_run(data, 42)
        assert np.array_equal(out_a.cov, out_b.cov)
        assert log_a.outcomes == log_b.outcomes

    def test_epr_outcomes_follow_joint_distribution(self):
        # mix an x- and a p-squeezed pulse, then read x on both: the
        # second reading must be drawn given the first
        r = squeezing_db_to_r(4.0)
        cfg = LoopConfig(n_data=2)
        bs = loop.compile_gates(cfg, [("bs", 0, 1, 0.5)])
        prog = LoopProgram(
            steps=bs.steps + (ScheduleStep(slot=3, homodyne=0.0, outcome_id="m0"),
                              ScheduleStep(slot=4, homodyne=0.0, outcome_id="m1")),
            outcome_ids=("m0", "m1"))
        state = g.squeeze(g.squeeze(g.vacuum(2), 0, r), 1, -r)
        values = []
        for seed in range(1000):
            _, log = loop.simulate(cfg, prog, state, rng_seed=seed)
            assert [e["pulse"] for e in log.outcomes] == [1, 0]
            values.append([e["value"] for e in log.outcomes])
        exact = 0.5 * np.array([[math.cosh(2 * r), math.sinh(2 * r)],
                                [math.sinh(2 * r), math.cosh(2 * r)]])
        assert np.abs(np.cov(np.array(values).T) - exact).max() < 0.1

    @pytest.mark.parametrize("y", [0.55, 1.8])
    def test_squeeze_tele_matches_channel(self, y):
        cfg = LoopConfig(n_data=1, m_anc=1)
        prog = loop.compile_gates(cfg, [("squeeze_tele", 0, y, R15)])
        anc = g.squeeze(g.vacuum(1), 0, R15 if y < 1 else -R15)
        assert np.array_equal(prog.input_state.cov[2:, 2:], anc.cov)
        data = g.squeeze(g.coherent(0.3, 0.9), 0, -0.2)
        out, log = loop.simulate(cfg, prog, oracles.tensor(data, anc),
                                 rng_seed=3)
        ref = oracles.tele_squeeze(data, y, R15)
        assert np.abs(out.cov - ref.output.cov).max() < 1e-9
        assert np.abs(out.mean - ref.output.mean).max() < 1e-9
        assert log.survivors == [0]

    def test_squeeze_tele_on_correlated_state(self):
        # manual affine oracle: BS with ancilla, measure p, complete, trace
        y, r = 0.6, 1.0
        cfg = LoopConfig(n_data=2, m_anc=1)
        gates = [("bs", 0, 1, 0.4), ("squeeze_tele", 1, y, r)]
        prog = loop.compile_gates(cfg, gates)
        rng = np.random.default_rng(5)
        data = random_input(2, rng)
        inp = oracles.tensor(data, g.squeeze(g.vacuum(1), 0, r))
        out, log = loop.simulate(cfg, prog, inp, rng_seed=1)

        ref = g.beam_splitter(inp, 0, 1, 0.4)
        t_bs = y * y
        ref = g.beam_splitter(ref, 1, 2, t_bs)
        a = np.eye(6)
        a[3, 5] = -math.sqrt((1 - t_bs) / t_bs)   # p1 += ff * p2
        mean = a @ ref.mean
        cov = a @ ref.cov @ a.T
        keep = [0, 1, 2, 3]
        ref_mean, ref_cov = mean[keep], cov[np.ix_(keep, keep)]
        assert log.survivors == [0, 1]
        assert np.abs(out.cov - ref_cov).max() < 1e-9
        assert np.abs(out.mean - ref_mean).max() < 1e-9

    def test_outer_loss_accounting_is_exact(self):
        cfg = LoopConfig(n_data=2, eta_outer=0.9)
        inp = g.displace(g.displace(g.vacuum(2), 0, 2.0, 0.0), 1, 0.0, 1.5)
        prog = LoopProgram(steps=(ScheduleStep(slot=5, eom=(0.0, 0.0)),))
        out, log = loop.simulate(cfg, prog, inp)
        assert log.outer_passes == {0: 2, 1: 2}
        for pulse in (0, 1):
            scale = math.sqrt(cfg.eta_outer ** log.outer_passes[pulse])
            expect = inp.mean[2 * pulse:2 * pulse + 2] * scale
            assert np.abs(out.mean[2 * pulse:2 * pulse + 2] - expect).max() < 1e-12

    def test_inner_loss_accounting_is_exact(self):
        cfg = LoopConfig(n_data=2, eta_inner=0.8)
        prog = loop.compile_gates(cfg, [("phase", 0, 0.0)])
        inp = g.displace(g.vacuum(2), 0, 3.0, 0.0)
        out, log = loop.simulate(cfg, prog, inp)
        assert log.inner_slots[0] == cfg.length
        scale = math.sqrt(cfg.eta_inner ** log.inner_slots[0])
        assert abs(out.mean[0] - 3.0 * scale) < 1e-12
        # variance relaxes toward vacuum by the same transmission
        eta = cfg.eta_inner ** log.inner_slots[0]
        assert abs(out.cov[0, 0] - (eta * 0.5 + (1 - eta) * 0.5)) < 1e-12

    def test_switch_out_stops_circulation_loss(self):
        cfg = LoopConfig(n_data=2, eta_outer=0.5)
        steps = (ScheduleStep(slot=2, switch_out=True),
                 ScheduleStep(slot=7, eom=(0.0, 0.0)))
        prog = LoopProgram(steps=steps)
        inp = g.displace(g.vacuum(2), 0, 2.0, 0.0)
        out, log = loop.simulate(cfg, prog, inp)
        # pulse 0 absorbed one circulation before leaving at t=2
        assert log.outer_passes[0] == 1
        assert abs(out.mean[0] - 2.0 * math.sqrt(0.5)) < 1e-12


class TestEntangled:
    def run(self, kind, n, r=R15, seed=0):
        prog = loop.generate_entangled(kind, n, r)
        cfg = LoopConfig(n_data=prog.input_state.n_modes)
        out, _ = loop.simulate(cfg, prog, prog.input_state, rng_seed=seed)
        return out, prog

    def test_epr_certificates(self):
        out, prog = self.run("EPR", 2)
        got = loop.certificate_variances(out, prog.certificates)
        target = math.exp(-2 * R15)
        assert abs(got["x0-x1"] - target) < 1e-9
        assert abs(got["p0+p1"] - target) < 1e-9

    @pytest.mark.parametrize("n", [3, 5])
    def test_ghz_certificates(self, n):
        out, prog = self.run("GHZ", n)
        got = loop.certificate_variances(out, prog.certificates)
        assert abs(got["p_sum"] - n * math.exp(-2 * R15) / 2) < 1e-9
        for i in range(n):
            for j in range(i + 1, n):
                assert abs(got[f"x{i}-x{j}"] - math.exp(-2 * R15)) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cluster_certificates(self, n):
        out, prog = self.run("CLUSTER_LINEAR", n)
        got = loop.certificate_variances(out, prog.certificates)
        for name, _terms, expected in prog.certificates:
            assert abs(got[name] - expected) < 1e-9

    def test_cluster_two_is_epr_up_to_local_rotation(self):
        out, _ = self.run("CLUSTER_LINEAR", 2)
        rotated = g.phase_shift(out, 1, -math.pi / 2)
        epr_prog = loop.generate_entangled("EPR", 2, R15)
        got = loop.certificate_variances(rotated, epr_prog.certificates)
        # x0-x1 maps onto one cluster nullifier, p0+p1 onto the other
        target = math.exp(-2 * R15) / 2
        assert abs(got["x0-x1"] - target) < 1e-9
        assert abs(got["p0+p1"] - target) < 1e-9

    @pytest.mark.parametrize("r", [0.3, R15])
    def test_closed_form_squeezers_match_sqrtm(self, r):
        # the squeezers e^(rho_k) are the top half of the spectrum of
        # sqrt(2 V) for the CZ cluster's covariance V
        target = oracles.cluster_target(64, r)
        out, prog = self.run("CLUSTER_LINEAR", 64, r)
        rhos = 0.5 * np.log(2.0 * np.diag(prog.input_state.cov)[1::2])
        top = np.sort(np.linalg.eigvalsh(oracles.sqrtm_real(2.0 * target)))[64:]
        assert np.abs(np.sort(rhos) - np.log(top)).max() < 1e-10
        assert np.abs(out.cov - target).max() < 1e-10 * np.abs(target).max()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 64])
    @pytest.mark.parametrize("r", [0.0, 0.3, R15])
    def test_cluster_equals_cz_covariance(self, n, r):
        out, _ = self.run("CLUSTER_LINEAR", n, r)
        target = oracles.cluster_target(n, r)
        assert np.abs(out.mean).max() == 0.0
        assert np.abs(out.cov - target).max() < 1e-10 * np.abs(target).max()

    def test_cluster_error_is_rounding_at_64_modes(self):
        # the decomposer skips no rotation or phase that is not exactly
        # zero, so the 64-mode cluster is within rounding of its target
        out, _ = self.run("CLUSTER_LINEAR", 64, R15)
        target = oracles.cluster_target(64, R15)
        assert np.abs(out.cov - target).max() < 1e-13 * np.abs(target).max()

    @staticmethod
    def _input_db(prog):
        """Each input pulse's squeezing in dB, from its variances."""
        var = np.diag(prog.input_state.cov).reshape(-1, 2)
        return 10 * np.log10(2.0 * var.max(axis=1))

    def test_input_squeezing(self):
        db = 10 * math.log10(math.exp(2 * R15))
        for kind, n in (("EPR", 2), ("GHZ", 3), ("GHZ", 6)):
            assert np.abs(self._input_db(
                loop.generate_entangled(kind, n, R15)) - db).max() < 1e-12
        # the cluster consumes more: r + 10 log10 5 dB in the limit
        for n, want in ((2, 18.0), (3, 19.8), (5, 21.0), (16, 21.9),
                        (64, 22.0)):
            got = self._input_db(
                loop.generate_entangled("CLUSTER_LINEAR", n, R15)).max()
            assert abs(got - want) < 0.05, (n, got)
            assert got < 15.0 + 10 * math.log10(5.0)

    def test_zero_squeezing_gives_vacuum_certificates(self):
        out, prog = self.run("GHZ", 3, r=0.0)
        got = loop.certificate_variances(out, prog.certificates)
        assert abs(got["p_sum"] - 1.5) < 1e-9
        assert abs(got["x0-x1"] - 1.0) < 1e-9

    def test_certificates_state_is_pure(self):
        out, _ = self.run("CLUSTER_LINEAR", 3)
        # symplectic eigenvalues of a pure state are all 1/2
        jmat = g.symplectic_form(3)
        eig = np.linalg.eigvals(1j * (out.cov @ jmat))
        assert np.abs(np.sort(np.abs(eig)) - 0.5).max() < 1e-8

    def test_gate_check_rejects_a_wrong_gate_list(self):
        u = loop._path_eigenmodes(4, R15)[1]
        gates = loop._unitary_to_gates(u)
        loop._assert_gates_match(gates, u)
        # the strongest splitter with its sign flipped (arms swapped),
        # and the largest phase dropped
        k = min((n for n, gate in enumerate(gates) if gate[0] == "bs"),
                key=lambda n: gates[n][3])
        _, i, j, t = gates[k]
        assert t < 0.99
        flipped = gates[:k] + [("bs", j, i, t)] + gates[k + 1:]
        k = max((n for n, gate in enumerate(gates) if gate[0] == "phase"),
                key=lambda n: abs(gates[n][2]))
        assert abs(gates[k][2]) > 0.01
        dropped = gates[:k] + gates[k + 1:]
        for wrong in (flipped, dropped):
            with pytest.raises(RuntimeError, match="failed to reproduce"):
                loop._assert_gates_match(wrong, u)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown kind"):
            loop.generate_entangled("W", 3, 1.0)
        with pytest.raises(ValueError):
            loop.generate_entangled("GHZ", 1, 1.0)
        with pytest.raises(ValueError):
            loop.generate_entangled("EPR", 2, -0.5)


def random_schedule(rng, lossy):
    """A random schedule on a loop of 1-6 pulses that mostly runs.

    The generator follows where each pulse is, so most steps address an
    occupied port; every kind of step appears: captures and releases,
    beam splitters, phases, squeeze_tele gadgets (with their ancilla),
    EOM displacements, homodynes with feedforward, and switch-outs.
    Gaps between steps run from one slot to many circulations.
    """
    length = int(rng.integers(1, 7))
    eta = (float(rng.uniform(0.9, 1.0)), float(rng.uniform(0.95, 1.0)))
    cfg = LoopConfig(n_data=length, eta_outer=eta[0] if lossy else 1.0,
                     eta_inner=eta[1] if lossy else 1.0)
    outer, inner = list(range(length)), None
    steps, ids, t = [], [], -1
    for _ in range(int(rng.integers(1, 30))):
        t += int(rng.integers(1, 2 * length + 1)
                 if rng.uniform() < 0.9 else rng.integers(1, 60 * length))
        s = t % length
        kw = {}
        if inner is not None and rng.uniform() < 0.3:
            kw["vps_theta"] = float(rng.uniform(-3, 3))
        kind = rng.choice(["swap", "bs", "none"])
        if kind == "swap":
            # a T = 0 splitter when both ports are occupied; otherwise a
            # capture or a release
            kw["vbs_T"] = 0.0
            if inner is None or outer[s] is None:
                outer[s], inner = inner, outer[s]
        elif kind == "bs" and inner is not None and outer[s] is not None:
            kw["vbs_T"] = float(rng.uniform(0.05, 0.95))
        if outer[s] is not None:
            act = rng.choice(["eom", "hom", "out", "none", "none"])
            if act == "eom":
                kw["eom"] = (float(rng.uniform(-1, 1)),
                             float(rng.uniform(-1, 1)))
            elif act == "hom":
                ids.append(f"m{len(ids)}")
                kw["homodyne"] = float(rng.uniform(0, math.pi))
                kw["outcome_id"] = ids[-1]
                outer[s] = None
                live = [k for k in range(length) if outer[k] is not None]
                if live and rng.uniform() < 0.8:
                    kw["ff"] = (ids[-1], float(rng.uniform(-1, 1)),
                                float(rng.uniform(-1, 1)),
                                int(rng.choice(live)))
            elif act == "out":
                kw["switch_out"] = True
                outer[s] = None
        steps.append(ScheduleStep(slot=t, **kw))
    return cfg, LoopProgram(steps=tuple(steps), outcome_ids=tuple(ids))


def random_squeeze_tele(rng, lossy):
    """compile_gates on phases, beam splitters, displacements and
    squeeze_tele gadgets, so each gadget's homodyne and feedforward run
    as the compiler schedules them."""
    n_data = int(rng.integers(1, 4))
    n_anc = int(rng.integers(1, 3))
    cfg = LoopConfig(n_data=n_data, m_anc=n_anc,
                     eta_outer=0.97 if lossy else 1.0,
                     eta_inner=0.99 if lossy else 1.0)
    gates = []
    for _ in range(int(rng.integers(1, 6))):
        i = int(rng.integers(n_data))
        kind = rng.choice(["phase", "bs", "displace", "squeeze_tele"])
        if kind == "bs" and n_data > 1:
            j = int(rng.choice([k for k in range(n_data) if k != i]))
            gates.append(("bs", i, j, float(rng.uniform(0.1, 0.9))))
        elif kind == "displace":
            gates.append(("displace", i, float(rng.uniform(-1, 1)),
                          float(rng.uniform(-1, 1))))
        elif kind == "squeeze_tele" and n_anc:
            n_anc -= 1
            gates.append(("squeeze_tele", i, float(rng.uniform(0.5, 1.8)),
                          0.8))
        else:
            gates.append(("phase", i, float(rng.uniform(-3, 3))))
    return cfg, loop.compile_gates(cfg, gates)


def _assert_close(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    scale = max(1.0, float(np.abs(want).max())) if want.size else 1.0
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale, what


class TestSlotWalkOracle:
    """The event-driven engine against the slot-by-slot walk it replaced."""

    @pytest.mark.parametrize("lossy", [False, True])
    def test_random_schedules(self, lossy):
        rng = np.random.default_rng(2024 + lossy)
        ran = 0
        for case in range(150):
            make = random_schedule if case % 3 else random_squeeze_tele
            cfg, prog = make(rng, lossy)
            state = random_input(cfg.length, rng) if cfg.length > 1 else (
                g.displace(g.squeeze(g.vacuum(1), 0, 0.4), 0, 0.3, -0.2))
            try:
                want = oracles.loop_slot_walk(cfg, prog, state, rng_seed=case)
            except (ValueError, LoopScheduleError) as exc:
                with pytest.raises(type(exc)) as info:
                    loop.simulate(cfg, prog, state, rng_seed=case)
                assert str(info.value) == str(exc)
                continue
            ran += 1
            out, log = loop.simulate(cfg, prog, state, rng_seed=case)
            ref, ref_log = want
            what = f"case {case}"
            assert log.outer_passes == ref_log.outer_passes, what
            assert log.inner_slots == ref_log.inner_slots, what
            assert log.survivors == ref_log.survivors, what
            assert ([(e["id"], e["slot"], e["pulse"], e["basis"])
                     for e in log.outcomes]
                    == [(e["id"], e["slot"], e["pulse"], e["basis"])
                        for e in ref_log.outcomes]), what
            _assert_close([e["value"] for e in log.outcomes],
                          [e["value"] for e in ref_log.outcomes], what)
            _assert_close(out.mean, ref.mean, what)
            _assert_close(out.cov, ref.cov, what)
        assert ran >= 100

    @pytest.mark.parametrize("kind, n", [("EPR", 2), ("GHZ", 4),
                                         ("CLUSTER_LINEAR", 16)])
    @pytest.mark.parametrize("eta", [(1.0, 1.0), (0.99, 0.999)])
    def test_entangled_programs(self, kind, n, eta):
        prog = loop.generate_entangled(kind, n, R15)
        cfg = LoopConfig(n_data=n, eta_outer=eta[0], eta_inner=eta[1])
        out, log = loop.simulate(cfg, prog, prog.input_state)
        ref, ref_log = oracles.loop_slot_walk(cfg, prog, prog.input_state)
        assert log.outer_passes == ref_log.outer_passes
        assert log.inner_slots == ref_log.inner_slots
        _assert_close(out.mean, ref.mean, kind)
        _assert_close(out.cov, ref.cov, kind)

    def test_time_is_linear_in_steps_not_slots(self):
        # two steps a billion slots apart: the slot walk would visit
        # every slot, the engine jumps between the two
        cfg = LoopConfig(n_data=3, eta_outer=1 - 1e-9, eta_inner=1 - 1e-9)
        last = 10 ** 9 + 2            # slot 0 of the outer loop
        prog = LoopProgram(steps=(ScheduleStep(slot=1, vbs_T=0.0),
                                  ScheduleStep(slot=last, eom=(0.5, 0.0))))
        inp = g.displace(g.vacuum(3), 0, 1.0, 0.0)
        start = time.perf_counter()
        out, log = loop.simulate(cfg, prog, inp)
        assert time.perf_counter() - start < 1.0
        # pulse 1 sits in the inner loop from slot 2 to the end; pulses 0
        # and 2 arrive every third slot after their first arrival
        assert log.inner_slots == {0: 0, 1: last - 1, 2: 0}
        assert log.outer_passes == {0: last // 3, 1: 0, 2: (last - 2) // 3}
        scale = math.sqrt(cfg.eta_outer ** log.outer_passes[0])
        assert abs(out.mean[0] - (scale + 0.5)) < 1e-12


class TestCrossEngine:
    """The loop against tdm and the circuit language on the same optics:
    a tdm network unrolled into one loop gate list, and gate lists
    written as schedule and as circuit text."""

    @staticmethod
    def _emitted(cov, emitted):
        """The block of cov on the emitted pulses, slot-major then arm,
        as tdm.emitted_covariance orders them."""
        rows = [q for key in sorted(emitted)
                for q in (2 * emitted[key], 2 * emitted[key] + 1)]
        return np.asarray(cov)[np.ix_(rows, rows)]

    def _loop_emitted(self, spec, n_slots):
        state, gates, emitted = oracles.unroll_network(spec, n_slots)
        cfg = LoopConfig(n_data=state.n_modes)
        out, _ = loop.simulate(cfg, loop.compile_gates(cfg, gates), state)
        return self._emitted(out.cov, emitted)

    @pytest.mark.parametrize("make, n_slots", [
        (lambda: tdm.network_1d(R15), 8),
        (lambda: tdm.network_1d(R15), 32),
        (lambda: tdm.network_2d(R15, 2), 12),
        (lambda: tdm.network_2d(R15, 3), 12),
    ], ids=["1d-8", "1d-32", "2d_w2-12", "2d_w3-12"])
    def test_loop_equals_tdm(self, make, n_slots):
        spec = make()
        cov, _ = tdm.emitted_covariance(spec, n_slots)
        _assert_close(self._loop_emitted(spec, n_slots), cov, "cov")

    def test_loop_equals_tdm_on_random_networks(self):
        rng = np.random.default_rng(1111)
        with_zero = 0
        for case in range(30):
            spec = oracles.random_network(rng)
            with_zero += any(s[0] == "bs" and s[3] == 0.0 for s in spec.stages)
            cov, _ = tdm.emitted_covariance(spec, 6)
            _assert_close(self._loop_emitted(spec, 6), cov, f"case {case}")
        assert with_zero >= 5

    @pytest.mark.parametrize("t", [0.0, 1e-300, 1.0])
    def test_circuit_runner_equals_loop(self, t):
        # the same gates as a schedule (run by the loop) and as a
        # circuit (run by the Gaussian backend); a T = 0 splitter is
        # beamsplitter_matrix(0) on both, not an exchange of ports
        gates = [("disp", 0, 1.0, 0.5), ("disp", 1, 0.0, 2.0),
                 ("bs", 0, 1, t), ("ps", 1, 0.7), ("disp", 2, -0.3, 0.2),
                 ("bs", 2, 0, t), ("bs", 1, 2, 0.3)]

        def as_text(names):
            return " ".join(
                f"disp {names[a[0]]} dx={a[1]!r} dp={a[2]!r};" if k == "disp"
                else f"ps {names[a[0]]} {a[1]!r};" if k == "ps"
                else f"bs {names[a[0]]} {names[a[1]]} t={a[2]!r};"
                for k, *a in gates)

        sched = "schedule { data 3; " + as_text("012") + " }"
        circuit = "mode a b c; " + as_text("abc") + " report cov;"
        on_loop = dsl.run(dsl.parse(sched), "gaussian", 1).reports[0]
        on_circuit = dsl.run(dsl.parse(circuit), "gaussian", 1).reports[0]
        _assert_close(on_loop["mean"], on_circuit["mean"], "mean")
        _assert_close(on_loop["cov"], on_circuit["cov"], "cov")

    @pytest.mark.parametrize("t", [0.0, 1e-300, 1.0])
    def test_network_at_splitter_endpoints(self, t):
        # tdm, the loop and the circuit language on one network whose
        # splitters sit at an end of their range
        spec = tdm.NetworkSpec(
            squeezers=(("x", R15), ("p", 0.4)),
            stages=(("bs", 0, 1, t), ("delay", 0, 1), ("bs", 1, 0, t)))
        cov, _ = tdm.emitted_covariance(spec, 4)
        _assert_close(self._loop_emitted(spec, 4), cov, "loop")
        state, gates, emitted = oracles.unroll_network(spec, 4)
        lines = [f"mode {' '.join(f'q{p}' for p in range(state.n_modes))};"]
        for slot in range(4):
            for arm, (orient, r) in enumerate(spec.squeezers):
                lines.append(f"sq q{2 * slot + arm} {r!r}r {orient};")
        lines += [f"bs q{i} q{j} t={x!r};" for _, i, j, x in gates]
        lines.append("report cov;")
        rep = dsl.run(dsl.parse("\n".join(lines)), "gaussian", 1).reports[0]
        _assert_close(self._emitted(rep["cov"], emitted), cov, "dsl")
