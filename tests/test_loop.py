"""Loop processor: schedule engine, gate compilation, entangled states."""

import math

import numpy as np
import pytest

from cvqsim import gaussian as g
from cvqsim import loop, telegates
from cvqsim.loop import LoopConfig, LoopProgram, LoopScheduleError, ScheduleStep

import oracles

R15 = g.squeezing_db_to_r(15.0)


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
        state = g.squeeze(g.vacuum(1), 0, g.squeezing_db_to_r(400.0))
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

    @staticmethod
    def _squeeze_tele_run(data, seed):
        cfg = LoopConfig(n_data=1, m_anc=1)
        prog = loop.compile_gates(cfg, [("squeeze_tele", 0, 0.6, 1.0)])
        anc = g.squeeze(g.vacuum(1), 0, 1.0)
        return loop.simulate(cfg, prog, g.tensor(data, anc), rng_seed=seed)

    def test_teleport_output_independent_of_seed(self):
        data = g.coherent(1.0, 2.0)
        out_a, log_a = self._squeeze_tele_run(data, 1)
        out_b, log_b = self._squeeze_tele_run(data, 2)
        assert np.array_equal(out_a.cov, out_b.cov)
        assert np.array_equal(out_a.mean, out_b.mean)
        values_a = [e["outcome"] for e in log_a.outcomes]
        values_b = [e["outcome"] for e in log_b.outcomes]
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
        r = g.squeezing_db_to_r(4.0)
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
            values.append([e["outcome"] for e in log.outcomes])
        exact = 0.5 * np.array([[math.cosh(2 * r), math.sinh(2 * r)],
                                [math.sinh(2 * r), math.cosh(2 * r)]])
        assert np.abs(np.cov(np.array(values).T) - exact).max() < 0.1

    @pytest.mark.parametrize("y", [0.55, 1.8])
    def test_squeeze_tele_matches_channel(self, y):
        cfg = LoopConfig(n_data=1, m_anc=1)
        prog = loop.compile_gates(cfg, [("squeeze_tele", 0, y, R15)])
        assert prog.ancilla_prep == ((1, "x" if y < 1 else "p"),)
        data = g.squeeze(g.coherent(0.3, 0.9), 0, -0.2)
        anc = g.squeeze(g.vacuum(1), 0, R15 if y < 1 else -R15)
        out, log = loop.simulate(cfg, prog, g.tensor(data, anc), rng_seed=3)
        ref = telegates.tele_squeeze(data, y, R15)
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
        inp = g.tensor(data, g.squeeze(g.vacuum(1), 0, r))
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
    def test_pure_state_factor_matches_sqrtm(self, r):
        cov = loop._cluster_target(64, r)
        rs, q = loop._factor_pure_state(cov)
        s0 = oracles.sqrtm_real(2.0 * cov)
        d = np.diag([x for rk in rs for x in (math.exp(-rk), math.exp(rk))])
        assert np.abs(q @ d @ q.T - s0).max() < 1e-10
        top = np.sort(np.linalg.eigvalsh(s0))[64:]
        assert np.abs(np.sort(rs) - np.sort(-np.log(top))).max() < 1e-10
        jmat = g.symplectic_form(64)
        assert np.abs(q.T @ q - np.eye(128)).max() < 1e-10
        assert np.abs(q @ jmat @ q.T - jmat).max() < 1e-10

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
        u = loop._passive_to_unitary(
            loop._factor_pure_state(loop._cluster_target(4, R15))[1])
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
