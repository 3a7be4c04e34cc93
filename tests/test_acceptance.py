"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one visible
pass/fail line per criterion; every tolerance is asserted, the prints
are a convenience summary.
"""

import math
import time

import numpy as np
import pytest

import dslgen
from cvqsim import budget, dsl, fock as fk, gaussian as g, gkp
from cvqsim import squeezing_db_to_r
from cvqsim import loop, tdm, telegates as tg
from oracles import dense_network_run

R15 = squeezing_db_to_r(15.0)


def _announce(n, text):
    print(f"\n[criterion {n:2d}] PASS - {text}")


def test_c01_fiber_budget():
    t0 = time.perf_counter()
    assert budget.transmission(0.2, 100.0) == pytest.approx(0.9954, abs=1e-4)
    assert budget.transmission(0.2, 1000.0) == pytest.approx(0.9550, abs=1e-4)
    assert budget.capacity(100.0, 50e-9) == 10
    assert budget.capacity(1000.0, 50e-9) == 100
    assert budget.capacity(100.0, 50e-9, 2e8) == 10
    assert budget.capacity(1000.0, 50e-9, 2e8) == 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05
    _announce(1, f"fiber budget 0.9954 / 0.9550, loop capacities 10 / 100 "
                 f"({elapsed * 1e3:.2f} ms)")


def test_c02_teleportation_noise_law():
    # the circuit-language teleporter, as `cvq run` runs it
    def teleport(prep, r, reports="report cov;"):
        program = dsl.parse(dslgen.teleport_text(prep, r, reports=reports))
        return dsl.run(program, "gaussian", 0).reports[0]

    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    rs = [0.0, 0.5, 1.15, 2.3]
    for k in range(50):
        prep, state = dslgen.random_input(rng, "in", mixed=k % 2 == 0)
        for r in rs:
            out = teleport(prep, r)
            added = np.array(out["cov"]) - state.cov
            target = math.exp(-2 * r) * np.eye(2)
            assert np.abs(added - target).max() < 1e-9
            assert np.abs(np.array(out["mean"]) - state.mean).max() < 1e-9
    for r in rs:
        fidelity = teleport("disp in dx=0.7 dp=-0.3;", r, reports=(
            "report fidelity coherent dx=0.7 dp=-0.3;"))["value"]
        want = 1.0 / (1.0 + math.exp(-2 * r))
        assert fidelity == pytest.approx(want, abs=1e-9)
        if r == 0.0:
            assert fidelity == pytest.approx(0.5, abs=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(2, f"unit-gain teleportation program adds exp(-2r) per "
                 f"quadrature on 50 random inputs x 4 squeezing levels; "
                 f"coherent fidelity 1/(1+exp(-2r)) ({elapsed:.2f} s)")


def test_c03_stream_1d_million_pulses():
    t0 = time.perf_counter()
    stats = tdm.stream_1d(1_000_000, R15)
    elapsed = time.perf_counter() - t0
    ratios = stats.ratios()
    assert ratios
    for name, ratio in ratios.items():
        assert ratio == pytest.approx(10 ** -1.5, abs=1e-9), name
    assert stats.peak_active_modes <= 4
    assert elapsed < 60.0
    _announce(3, f"1e6-pulse 1D stream at 15 dB: all ratios 10^-1.5, "
                 f"{stats.peak_active_modes} active modes, {elapsed:.2f} s")


def test_c04_stream_2d_window_and_dense_oracle():
    stats = tdm.stream_2d(5000, 5, R15)
    assert stats.peak_active_modes <= 24
    for ratio in stats.ratios().values():
        assert ratio == pytest.approx(10 ** -1.5, abs=1e-9)

    spec = tdm.network_2d(R15, 2)
    n_slots = 4
    cov, _ = tdm.emitted_covariance(spec, n_slots)
    dense, dmap = dense_network_run(spec, n_slots)
    order = [dmap[(k, a)] for k in range(n_slots) for a in range(4)]
    sel = np.array([[2 * i, 2 * i + 1] for i in order]).ravel()
    assert np.abs(cov - dense.cov[np.ix_(sel, sel)]).max() < 1e-9
    _announce(4, f"width-5 x 5000-step 2D stream holds "
                 f"{stats.peak_active_modes} <= 24 modes; width-2 x 4-step "
                 f"covariance matches the dense oracle elementwise")


def test_c05_loop_equivalence_and_certificates():
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(2, 7))
        cfg = loop.LoopConfig(n_data=n)
        gates = []
        for _ in range(int(rng.integers(1, 7))):
            kind = rng.choice(["phase", "bs", "displace"])
            if kind == "phase":
                gates.append(("phase", int(rng.integers(n)),
                              float(rng.uniform(-3, 3))))
            elif kind == "bs":
                # the closed range, both ends included
                i, j = rng.choice(n, size=2, replace=False)
                gates.append(("bs", int(i), int(j), float(
                    rng.choice([0.0, 1.0, rng.uniform()]))))
            else:
                gates.append(("displace", int(rng.integers(n)),
                              float(rng.uniform(-2, 2)),
                              float(rng.uniform(-2, 2))))
        state = g.vacuum(n)
        for k in range(n):
            state = g.squeeze(state, k, float(rng.uniform(-0.8, 0.8)))
            state = g.displace(state, k, float(rng.uniform(-1, 1)),
                               float(rng.uniform(-1, 1)))
        for _ in range(n):
            i, j = rng.choice(n, size=2, replace=False)
            state = g.beam_splitter(state, int(i), int(j),
                                    float(rng.uniform(0.2, 0.8)))
        out, _ = loop.simulate(cfg, loop.compile_gates(cfg, gates), state)
        ref = state
        for gate in gates:
            if gate[0] == "phase":
                ref = g.phase_shift(ref, gate[1], gate[2])
            elif gate[0] == "bs":
                ref = g.beam_splitter(ref, gate[1], gate[2], gate[3])
            else:
                ref = g.displace(ref, gate[1], gate[2], gate[3])
        assert np.abs(out.cov - ref.cov).max() < 1e-9
        assert np.abs(out.mean - ref.mean).max() < 1e-9

    checked = []
    for kind, n in (("EPR", 2), ("GHZ", 3), ("GHZ", 5),
                    ("CLUSTER_LINEAR", 3), ("CLUSTER_LINEAR", 5)):
        prog = loop.generate_entangled(kind, n, R15)
        cfg = loop.LoopConfig(n_data=prog.input_state.n_modes)
        out, _ = loop.simulate(cfg, prog, prog.input_state)
        got = loop.certificate_variances(out, prog.certificates)
        for name, _, expected in prog.certificates:
            assert abs(got[name] - expected) < 1e-9, (kind, n, name)
        checked.append(f"{kind}({n})")
    _announce(5, "100 compiled loop programs match direct application "
                 "within 1e-9; " + ", ".join(checked)
                 + " variance certificates hold at 15 dB")


def test_c06_fock_gaussian_cross_validation():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(6000 + seed)
        program = dsl.parse(dslgen.gaussian_pair_text(rng))
        assert isinstance(program, dsl.CircuitProgram)
        ga = dsl.run(program, "gaussian", 1).reports[-1]
        fo = dsl.run(program, "fock", 1, cutoff=80).reports[-1]
        diff = max(np.abs(np.array(ga["cov"]) - np.array(fo["cov"])).max(),
                   np.abs(np.array(ga["mean"]) - np.array(fo["mean"])).max())
        worst = max(worst, diff)
        assert diff < 1e-4
    _announce(6, f"10 random 2-mode Gaussian programs: fock(D=80) vs "
                 f"gaussian moments agree to {worst:.2e} < 1e-4")


def test_c07_controlled_phase_on_basis_states():
    cutoff = 12
    for k in range(cutoff):
        for l in range(cutoff):
            state = fk.fock_basis((k, l), cutoff)
            out = fk.controlled_phase(state, 0, 1)
            expected = state.amps * ((-1.0) ** (k * l))
            assert np.array_equal(out.amps, expected), (k, l)
    _announce(7, f"controlled phase is exactly (-1)^kl on all "
                 f"{cutoff}x{cutoff} basis states")


def test_c08_cubic_gate_convergence():
    t0 = time.perf_counter()
    state = fk.vacuum_fock(1, 60)
    dbs = [5.0, 10.0, 15.0, 20.0]
    fids = [tg.channel_fidelity(state, 0.1, squeezing_db_to_r(db))
            for db in dbs]
    assert all(b > a for a, b in zip(fids, fids[1:]))
    assert fids[-1] >= 0.99
    # sampled runs at fixed seeds scatter around the channel value
    r20 = squeezing_db_to_r(20.0)
    samples = [tg.tele_cubic(state, 0.1, r20, rng_seed=s).fidelity_vs_ideal
               for s in range(20)]
    se = np.std(samples, ddof=1) / math.sqrt(len(samples))
    assert abs(np.mean(samples) - fids[-1]) < 3 * se + 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _announce(8, f"tele_cubic(gamma=0.1) channel fidelity {fids[-1]:.6f} "
                 f">= 0.99 at 20 dB, monotone over {dbs} dB "
                 f"({elapsed:.1f} s)")


def test_c09_gkp_code():
    for sigma in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        closed = gkp.logical_error_prob(sigma)
        mc, _ = gkp.monte_carlo_error_prob(sigma, 10 ** 6,
                                           [17, int(sigma * 10)])
        se = math.sqrt(closed * (1.0 - closed) / 10 ** 6)
        assert abs(closed - mc) <= 3 * se + 1e-12, sigma

    params = gkp.GkpParams(0.2, 100)
    zero, one = gkp.logicals(params)
    overlap = abs(fk.overlap(zero.state, one.state))
    assert overlap <= 1e-3

    assert gkp.THRESHOLD_DB == 20.5
    margin = gkp.threshold_margin(10.0 ** (-15.0 / 20.0))
    assert margin == pytest.approx(15.0 - gkp.THRESHOLD_DB, abs=1e-12)
    _announce(9, f"closed-form error rate within 3 SE of 1e6-sample MC for "
                 f"sigma 0.1..0.6; |<0|1>| = {overlap:.1e} <= 1e-3 at "
                 f"delta 0.2; 15 dB reported {margin:+.1f} dB against the "
                 f"{gkp.THRESHOLD_DB} dB reference")


def test_c10_parser_contract():
    rng = np.random.default_rng(1010)
    for _ in range(100_000):
        result = dsl.parse(dslgen.fuzz_case(rng))      # must never raise
        assert isinstance(result, (dsl.CircuitProgram, dsl.ParseError))

    for _ in range(200):
        text = dslgen.random_program_text(rng)
        p1 = dsl.parse(text)
        assert isinstance(p1, dsl.CircuitProgram)
        assert dsl.parse(dsl.pretty_print(p1)) == p1

    reuse = dsl.parse("mode q0;\nhom q0 theta=0 -> m0;\nps q0 1.0;")
    assert isinstance(reuse, dsl.ParseError)
    assert reuse.message == "mode q0 consumed"
    assert (reuse.line, reuse.column) == (3, 4)
    _announce(10, "parser total on 1e5 fuzz cases, round-trip stable on 200 "
                  "programs, consumed-mode reuse rejected with position")
