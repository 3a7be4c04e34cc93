import json
import math

import numpy as np
import pytest

from cvqsim import gaussian as g
from cvqsim import squeezing_db_to_r

import oracles

ALG_TOL = 1e-10


class TestConstructors:
    def test_vacuum(self):
        st = g.vacuum(2)
        assert st.n_modes == 2
        np.testing.assert_allclose(st.mean, 0)
        np.testing.assert_allclose(st.cov, np.eye(4) * 0.5)
        st.validate()

    def test_vacuum_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            g.vacuum(0)

    def test_coherent_mean(self):
        st = g.coherent(1.0, -0.5)
        np.testing.assert_allclose(st.mean, [1.0, -0.5])
        np.testing.assert_allclose(st.cov, np.eye(2) * 0.5)


class TestSqueeze:
    def test_squeeze_x(self):
        r = 0.7
        st = g.squeeze(g.vacuum(1), 0, r)
        assert st.cov[0, 0] == pytest.approx(np.exp(-2 * r) / 2, abs=ALG_TOL)
        assert st.cov[1, 1] == pytest.approx(np.exp(2 * r) / 2, abs=ALG_TOL)

    def test_15db_variance(self):
        # 15 dB of squeezing: Var(x) = 0.5 * 10^-1.5
        r = squeezing_db_to_r(15.0)
        st = g.squeeze(g.vacuum(1), 0, r)
        assert st.cov[0, 0] == pytest.approx(0.5 * 10 ** -1.5, abs=1e-12)

    def test_db_conversion_is_numpys_to_the_bit(self):
        # squeezing_db_to_r uses math.log(10.0), so it stays numpy-free;
        # numpy's log gives the same bits
        assert math.log(10.0) == np.log(10.0)
        dbs = np.random.default_rng(20).uniform(-400.0, 400.0, 200_000)
        assert ([squeezing_db_to_r(db) for db in dbs.tolist()]
                == (dbs * np.log(10.0) / 20.0).tolist())

    def test_phase_shift_rotates_squeezing(self):
        st = g.squeeze(g.vacuum(1), 0, 1.0)
        st = g.phase_shift(st, 0, np.pi / 2)
        # squeezed quadrature is now p
        assert st.cov[1, 1] == pytest.approx(np.exp(-2.0) / 2, abs=ALG_TOL)
        assert st.cov[0, 0] == pytest.approx(np.exp(2.0) / 2, abs=ALG_TOL)


class TestBeamSplitter:
    def test_mean_signs(self):
        # coherent (1, 0) in mode 0: transmitted amplitude sqrt(T) stays,
        # reflected amplitude -sqrt(1-T) appears on mode 1
        t = 0.7
        st = oracles.tensor(g.coherent(1.0, 0.0), g.vacuum(1))
        st = g.beam_splitter(st, 0, 1, t)
        np.testing.assert_allclose(
            st.mean, [np.sqrt(t), 0, -np.sqrt(1 - t), 0], atol=ALG_TOL)

    def test_epr_nullifiers(self):
        # x-squeezed + p-squeezed on a 50:50 BS: Var(x1-x2) = Var(p1+p2) = e^-2r
        r = 1.0
        st = g.vacuum(2)
        st = g.squeeze(st, 0, r)
        st = g.squeeze(st, 1, -r)
        st = g.beam_splitter(st, 0, 1, 0.5)
        _, var_xm = g.quad_stats(st, [1, 0, -1, 0])
        _, var_pp = g.quad_stats(st, [0, 1, 0, 1])
        assert var_xm == pytest.approx(np.exp(-2 * r), abs=ALG_TOL)
        assert var_pp == pytest.approx(np.exp(-2 * r), abs=ALG_TOL)
        st.validate()

    def test_symplectic_matrix_is_valid(self):
        assert_symplectic(g.beamsplitter_matrix(0.3))
        assert_symplectic(oracles.embed(g.squeeze_matrix(0.5), (1,), 3))

    def test_bad_transmissivity(self):
        with pytest.raises(ValueError):
            g.beam_splitter(g.vacuum(2), 0, 1, 1.5)


class TestLoss:
    def test_full_transmission_identity(self):
        rng = np.random.default_rng(4)
        st = oracles.random_pure_state(2, rng)
        out = g.loss(st, 0, 1.0)
        np.testing.assert_allclose(out.cov, st.cov, atol=ALG_TOL)
        np.testing.assert_allclose(out.mean, st.mean, atol=ALG_TOL)

    def test_zero_transmission_gives_vacuum(self):
        st = g.squeeze(g.vacuum(1), 0, 1.2)
        out = g.loss(st, 0, 0.0)
        np.testing.assert_allclose(out.cov, np.eye(2) * 0.5, atol=ALG_TOL)

    def test_epr_arm_loss(self):
        # Var(x1 - x2') after loss eta on mode 2, from independent algebra:
        # cosh(2r)/2 (1+eta) + (1-eta)/2 - sqrt(eta) sinh(2r)
        r, eta = 0.8, 0.5
        st = g.vacuum(2)
        st = g.squeeze(st, 0, r)
        st = g.squeeze(st, 1, -r)
        st = g.beam_splitter(st, 0, 1, 0.5)
        st = g.loss(st, 1, eta)
        expected = (np.cosh(2 * r) / 2 * (1 + eta) + (1 - eta) / 2
                    - np.sqrt(eta) * np.sinh(2 * r))
        _, var = g.quad_stats(st, [1, 0, -1, 0])
        assert var == pytest.approx(expected, abs=1e-12)
        st.validate()

    def test_physicality_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            st = oracles.random_pure_state(3, rng)
            st = g.loss(st, int(rng.integers(3)), float(rng.uniform()))
            st.validate()


class TestHomodyne:
    def test_outcome_statistics_vacuum(self):
        rng = np.random.default_rng(42)
        outs = [g.sample_quadrature(g.vacuum(1), 0, 0.0, rng)
                for _ in range(20000)]
        outs = np.array(outs)
        assert abs(outs.mean()) < 0.02
        assert outs.var() == pytest.approx(0.5, rel=0.05)

    def test_deterministic_with_seed(self):
        st = g.squeeze(g.vacuum(2), 0, 0.4)
        o1 = g.sample_quadrature(st, 0, 0.3, 99)
        o2 = g.sample_quadrature(st, 0, 0.3, 99)
        assert o1 == o2

    def test_homodyne_outcome_is_sample_quadrature(self):
        st = oracles.random_pure_state(2, np.random.default_rng(5))
        outcome = g.sample_quadrature(st, 1, 0.4, 17)
        mu, var = g.quad_stats(st, g.quadrature_row(2, 1, 0.4))
        assert outcome == np.random.default_rng(17).normal(mu, np.sqrt(var))

    def test_zero_variance_quadrature_rejected(self):
        st = g.squeeze(g.vacuum(1), 0, squeezing_db_to_r(400.0))
        with pytest.raises(ValueError, match="zero variance"):
            g.sample_quadrature(st, 0, 0.0, 1)

    def test_non_finite_quadrature_rejected(self):
        with np.errstate(over="ignore", invalid="ignore"):
            st = g.squeeze(g.vacuum(1), 0, -400.0)
        with pytest.raises(ValueError, match="non-finite"):
            g.sample_quadrature(st, 0, 0.0, 1)

    def test_draw_given_earlier_outcomes_is_the_conditioned_draw(self):
        # sampling mode b given frozen readings of a (and c) equals sampling
        # the marginal of b in the state conditioned on those readings
        def condition(st, mode, theta, outcome):
            return g.GaussianState(*oracles.condition_oracle(st, mode, theta,
                                                             outcome))

        rng = np.random.default_rng(29)
        for n in (2, 3, 4):
            for _ in range(10):
                st = oracles.random_mixed_state(n, rng)
                a, b, c = (list(rng.permutation(n)) + [None])[:3]
                ta, tb, tc = rng.uniform(0, 2 * np.pi, size=3)
                given = [(int(a), ta, float(rng.normal()))]
                post = condition(st, int(a), ta, given[0][2])
                left = [m for m in range(n) if m != a]
                if c is not None:
                    given.append((int(c), tc, float(rng.normal())))
                    post = condition(post, left.index(c), tc, given[1][2])
                    left.remove(c)
                got = g.sample_quadrature(st, int(b), tb, 31, given)
                want = g.sample_quadrature(post, left.index(b), tb, 31)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_homodyne_conditional_selection_mc(self):
        # statistical cross-check of the conditioning oracle: sample the
        # joint normal, select near the outcome, compare conditional
        # moments loosely
        rng = np.random.default_rng(3)
        st = oracles.random_pure_state(2, rng)
        outcome = 0.4
        post = g.GaussianState(*oracles.condition_oracle(st, 0, 0.0, outcome))
        samples = rng.multivariate_normal(st.mean, st.cov, size=400000)
        sel = samples[np.abs(samples[:, 0] - outcome) < 0.02]
        assert sel.shape[0] > 500
        np.testing.assert_allclose(sel[:, 2:].mean(axis=0), post.mean, atol=0.05)
        np.testing.assert_allclose(np.cov(sel[:, 2:].T), post.cov, atol=0.05)


class TestFidelityPurity:
    def test_vacuum_coherent(self):
        f = g.fidelity(g.vacuum(1), g.coherent(1.0, 0.0))
        assert f == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_identical_pure(self):
        rng = np.random.default_rng(8)
        st = oracles.random_pure_state(2, rng)
        assert g.fidelity(st, st) == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_thermal(self):
        thermal = g.GaussianState(np.zeros(2), np.eye(2) * 0.75)
        assert g.fidelity(g.vacuum(1), thermal) == pytest.approx(0.8, abs=1e-12)

    def test_mixed_mixed_is_refused(self):
        # a DSL fidelity target is pure; two mixed states are refused at
        # any mode count
        rng = np.random.default_rng(19)
        for n_modes in (1, 2):
            a = oracles.random_mixed_state(n_modes, rng)
            b = oracles.random_mixed_state(n_modes, rng)
            with pytest.raises(ValueError, match="two mixed states"):
                g.fidelity(a, b)

    def test_pure_overlap_matches_grid(self):
        rng = np.random.default_rng(23)
        a = oracles.random_pure_state(1, rng)
        b = oracles.random_mixed_state(1, rng)
        f = g.fidelity(a, b)
        assert f == pytest.approx(oracles.overlap_wigner_grid(a, b), abs=1e-6)

    def test_purity(self):
        assert g.purity(g.vacuum(3)) == pytest.approx(1.0, abs=1e-12)
        st = g.loss(g.squeeze(g.vacuum(1), 0, 1.0), 0, 0.7)
        assert g.purity(st) < 1.0
        assert g.is_pure(g.squeeze(g.vacuum(1), 0, 1.0))


class TestBookkeeping:
    def test_remove_and_append(self):
        st = g.squeeze(g.vacuum(3), 1, 0.9)
        st2 = g.remove_modes(st, [0, 2])
        assert st2.n_modes == 1
        assert st2.cov[0, 0] == pytest.approx(np.exp(-1.8) / 2)
        st3 = oracles.tensor(st2, g.vacuum(2))
        assert st3.n_modes == 3
        np.testing.assert_allclose(st3.cov[2:, 2:], np.eye(4) * 0.5)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(2)
        st = oracles.random_mixed_state(2, rng)
        d = json.loads(json.dumps(st.to_dict()))
        assert np.array_equal(d["mean"], st.mean)
        assert np.array_equal(d["cov"], st.cov)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            g.squeeze(g.vacuum(1), 1, 0.1)

    def test_validation_catches_asymmetry(self):
        bad = np.eye(2) * 0.5
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError):
            g.GaussianState(np.zeros(2), bad).validate()

    def test_validation_catches_uncertainty_violation(self):
        with pytest.raises(ValueError):
            g.GaussianState(np.zeros(2), np.eye(2) * 0.1).validate()


def assert_symplectic(s):
    omega = g.symplectic_form(s.shape[0] // 2)
    np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-10)


class TestSymplecticAlgebra:
    def test_random_compositions_stay_symplectic(self):
        rng = np.random.default_rng(31)
        s = np.eye(6)
        for _ in range(30):
            pick = rng.integers(3)
            if pick == 0:
                blk = g.squeeze_matrix(rng.uniform(-1, 1))
                s = oracles.embed(blk, (int(rng.integers(3)),), 3) @ s
            elif pick == 1:
                blk = g.rotation_matrix(rng.uniform(0, 2 * np.pi))
                s = oracles.embed(blk, (int(rng.integers(3)),), 3) @ s
            else:
                i, j = rng.choice(3, size=2, replace=False)
                blk = g.beamsplitter_matrix(rng.uniform())
                s = oracles.embed(blk, (int(i), int(j)), 3) @ s
        assert_symplectic(s)


def dense_feedforward(n, target, source, theta, gx, gp):
    """I + rows: x_t += gx q, p_t += gp q over all 2n quadratures."""
    c = np.zeros(2 * n)
    c[2 * source] = np.cos(theta)
    c[2 * source + 1] = np.sin(theta)
    op = np.eye(2 * n)
    op[2 * target] += gx * c
    op[2 * target + 1] += gp * c
    return op


class TestApplyLocal:
    """apply_local against the dense embed + apply_dense oracle."""

    @staticmethod
    def assert_matches(out, ref):
        np.testing.assert_allclose(out.mean, ref.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.cov, ref.cov, rtol=0, atol=1e-12)
        assert np.array_equal(out.cov, out.cov.T)

    def test_symplectic_blocks(self):
        rng = np.random.default_rng(41)
        for n in range(3, 7):
            for _ in range(10):
                st = oracles.random_mixed_state(n, rng)
                i, j = (int(m) for m in rng.choice(n, size=2, replace=False))
                bs = g.beamsplitter_matrix(rng.uniform())
                rot = g.rotation_matrix(rng.uniform(0, 2 * np.pi))
                two = bs @ np.kron(np.eye(2), g.squeeze_matrix(rng.uniform(-1, 1)))
                for modes, blk in (((i,), g.squeeze_matrix(rng.uniform(-1, 1))),
                                   ((j,), rot), ((i, j), bs), ((j, i), two)):
                    assert_symplectic(blk)
                    ref = oracles.apply_dense(st, oracles.embed(blk, modes, n))
                    self.assert_matches(g.apply_local(st, modes, blk), ref)

    def test_feedforward_blocks(self):
        rng = np.random.default_rng(43)
        for n in range(3, 7):
            for _ in range(10):
                st = oracles.random_mixed_state(n, rng)
                src, tgt = (int(m) for m in rng.choice(n, size=2, replace=False))
                theta = rng.uniform(0, 2 * np.pi)
                gx, gp = rng.normal(0, 1.5, size=2)
                ref = oracles.apply_dense(
                    st, dense_feedforward(n, tgt, src, theta, gx, gp))
                blk = g.feedforward_matrix(2, 1, 0, theta, gx, gp)
                self.assert_matches(g.apply_local(st, (src, tgt), blk), ref)
                blk = g.feedforward_matrix(2, 0, 1, theta, gx, gp)
                self.assert_matches(g.apply_local(st, (tgt, src), blk), ref)
                # source == target: the mode's own quadrature is fed back
                ref = oracles.apply_dense(
                    st, dense_feedforward(n, src, src, theta, gx, gp))
                blk = g.feedforward_matrix(1, 0, 0, theta, gx, gp)
                self.assert_matches(g.apply_local(st, (src,), blk), ref)

    def test_input_not_mutated(self):
        st = oracles.random_mixed_state(3, np.random.default_rng(47))
        mean, cov = st.mean.copy(), st.cov.copy()
        g.apply_local(st, (0, 2), g.beamsplitter_matrix(0.4))
        assert np.array_equal(st.mean, mean) and np.array_equal(st.cov, cov)

    def test_update_local_writes_apply_local_into_the_state(self):
        st = oracles.random_mixed_state(4, np.random.default_rng(49))
        mean, cov = st.mean, st.cov
        scale, noise = g.loss_channel(0.7)
        for modes, blk, nse in (
                ((3, 1), g.beamsplitter_matrix(0.3), None),
                ((2,), scale * np.eye(2), noise * np.eye(2)),
                ((0, 2), g.feedforward_matrix(2, 1, 0, 0.4, 0.8, -0.3), None)):
            want = g.apply_local(st, modes, blk, nse)
            assert g.update_local(st, modes, blk, nse) is None
            assert st.mean is mean and st.cov is cov     # the same arrays
            assert np.array_equal(st.mean, want.mean)
            assert np.array_equal(st.cov, want.cov)
