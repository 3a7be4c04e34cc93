import math
import tracemalloc

import numpy as np
import pytest

from cvqsim import fock as fk
from cvqsim import gaussian as g

import oracles


class TestConstructors:
    def test_fock_basis(self):
        st = fk.fock_basis((1, 0), cutoff=10)
        assert st.n_modes == 2
        assert st.amps[1, 0] == 1.0
        st.validate()

    def test_coherent_poisson(self):
        # |<n|alpha>|^2 = e^{-1}/n! for alpha = 1
        st = fk.coherent_fock(1.0, cutoff=40)
        probs = np.abs(st.amps) ** 2
        expected = np.exp(-1.0) / np.array(
            [math.factorial(n) for n in range(12)], dtype=float)
        np.testing.assert_allclose(probs[:12], expected, atol=1e-10)

    def test_coherent_mean_quadratures(self):
        st = fk.coherent_fock((1.0 + 0.5j) / np.sqrt(2.0), cutoff=40)
        mean, cov = fk.covariance_of(st)
        np.testing.assert_allclose(mean, [1.0, 0.5], atol=1e-9)
        np.testing.assert_allclose(cov, np.eye(2) * 0.5, atol=1e-9)

    def test_squeezed_vacuum_even_levels(self):
        st = fk.squeeze_fock(fk.vacuum_fock(1, 50), 0, 0.8)
        probs = np.abs(st.amps) ** 2
        assert probs[1::2].max() < 1e-20
        mean, cov = fk.covariance_of(st)
        assert cov[0, 0] == pytest.approx(np.exp(-1.6) / 2, abs=1e-6)
        assert cov[1, 1] == pytest.approx(np.exp(1.6) / 2, abs=1e-6)

    def test_cutoff_rejects_too_many_modes(self):
        with pytest.raises(ValueError):
            fk.FockState(np.zeros((3, 3, 3, 3)))


class TestGaussianGatesInFock:
    def test_phase_convention_matches_gaussian(self):
        # x-squeezed state rotated by pi/2 must become p-squeezed
        st = fk.squeeze_fock(fk.vacuum_fock(1, 40), 0, 0.7)
        st = fk.phase_fock(st, 0, np.pi / 2)
        _, cov = fk.covariance_of(st)
        assert cov[1, 1] == pytest.approx(np.exp(-1.4) / 2, abs=1e-6)

    def test_bs_single_photon_amplitudes(self):
        t = 0.6
        st = fk.fock_basis((1, 0), cutoff=12)
        out = fk.beam_splitter_fock(st, 0, 1, t)
        assert out.amps[1, 0] == pytest.approx(np.sqrt(t), abs=1e-10)
        assert out.amps[0, 1] == pytest.approx(-np.sqrt(1 - t), abs=1e-10)

    def test_hong_ou_mandel(self):
        st = fk.fock_basis((1, 1), cutoff=12)
        out = fk.beam_splitter_fock(st, 0, 1, 0.5)
        # photons bunch: no |1,1> component
        assert abs(out.amps[1, 1]) < 1e-10
        assert abs(out.amps[2, 0]) == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_two_mode_circuit_matches_gaussian_backend(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ops = []
            for _ in range(6):
                kind = rng.integers(4)
                if kind == 0:
                    ops.append(("sq", int(rng.integers(2)),
                                float(rng.uniform(-1.2, 1.2))))
                elif kind == 1:
                    ops.append(("ps", int(rng.integers(2)),
                                float(rng.uniform(0, 2 * np.pi))))
                elif kind == 2:
                    ops.append(("bs", float(rng.uniform(0.1, 0.9))))
                else:
                    ops.append(("disp", int(rng.integers(2)),
                                float(rng.uniform(-1, 1)),
                                float(rng.uniform(-1, 1))))
            f_st = fk.vacuum_fock(2, cutoff=80)
            g_st = g.vacuum(2)
            for op in ops:
                if op[0] == "sq":
                    f_st = fk.squeeze_fock(f_st, op[1], op[2])
                    g_st = g.squeeze(g_st, op[1], op[2])
                elif op[0] == "ps":
                    f_st = fk.phase_fock(f_st, op[1], op[2])
                    g_st = g.phase_shift(g_st, op[1], op[2])
                elif op[0] == "bs":
                    f_st = fk.beam_splitter_fock(f_st, 0, 1, op[1])
                    g_st = g.beam_splitter(g_st, 0, 1, op[1])
                else:
                    f_st = fk.displace_fock(f_st, op[1], op[2], op[3])
                    g_st = g.displace(g_st, op[1], op[2], op[3])
            f_st.validate()
            mean, cov = fk.covariance_of(f_st)
            np.testing.assert_allclose(mean, g_st.mean, atol=1e-4)
            np.testing.assert_allclose(cov, g_st.cov, atol=1e-4)

    def test_norm_preserved_through_gates(self):
        st = fk.vacuum_fock(2, cutoff=30)
        st = fk.squeeze_fock(st, 0, 0.8)
        st = fk.beam_splitter_fock(st, 0, 1, 0.3)
        st = fk.displace_fock(st, 1, 0.5, -0.2)
        assert st.norm() == pytest.approx(1.0, abs=1e-12)


class TestNonGaussianGates:
    def test_cubic_momentum_shift(self):
        # Heisenberg: p -> p + 3 gamma x^2, so on vacuum <p> shifts by 3 gamma / 2
        gamma = 0.08
        st = fk.apply_cubic(fk.vacuum_fock(1, cutoff=40), 0, gamma)
        mean, _ = fk.covariance_of(st)
        assert mean[0] == pytest.approx(0.0, abs=1e-8)
        assert mean[1] == pytest.approx(3 * gamma / 2, abs=1e-6)

    def test_cubic_is_unitary(self):
        st = fk.apply_cubic(fk.coherent_fock(0.7, cutoff=50), 0, 0.1)
        assert st.norm() == pytest.approx(1.0, abs=1e-12)

    def test_cubic_leakage_error(self):
        with pytest.raises(fk.LeakageError):
            fk.apply_cubic(fk.coherent_fock(2.0, cutoff=10), 0, 1.5)

    def test_quadratic_x_phase_is_shear(self):
        # exp(i lam x^2) maps p -> p + 2 lam x: covariance transforms with
        # the symplectic shear [[1, 0], [2 lam, 1]]
        lam = 0.3
        st0 = fk.squeeze_fock(fk.vacuum_fock(1, 60), 0, 0.4)
        _, cov0 = fk.covariance_of(st0)
        st = fk.apply_x_phase(st0, 0, [0.0, 0.0, lam], leakage_budget=None)
        _, cov = fk.covariance_of(st)
        shear = np.array([[1.0, 0.0], [2 * lam, 1.0]])
        np.testing.assert_allclose(cov, shear @ cov0 @ shear.T, atol=1e-6)

    def test_linear_x_phase_is_p_displacement(self):
        beta = 0.45
        st = fk.apply_x_phase(fk.vacuum_fock(1, 40), 0, [0.0, beta],
                              leakage_budget=None)
        mean, _ = fk.covariance_of(st)
        np.testing.assert_allclose(mean, [0.0, beta], atol=1e-8)

    def test_cubic_displacement_commutation(self):
        # e^{i g x^3} D(dx) = D(dx) e^{i g (x+dx)^3} up to a global phase
        gam, dx = 0.06, 0.8
        d = 60
        a = fk.apply_cubic(fk.displace_fock(fk.vacuum_fock(1, d), 0, dx, 0.0),
                           0, gam)
        b = fk.displace_fock(
            fk.apply_x_phase(fk.vacuum_fock(1, d), 0,
                             [0.0, 3 * gam * dx ** 2, 3 * gam * dx, gam],
                             leakage_budget=None),
            0, dx, 0.0)
        assert abs(fk.overlap(a, b)) == pytest.approx(1.0, abs=1e-7)

    def test_controlled_phase_basis_signs(self):
        for k in range(3):
            for l in range(3):
                st = fk.controlled_phase(fk.fock_basis((k, l), cutoff=8), 0, 1)
                expect = (-1.0) ** (k * l)
                assert st.amps[k, l] == pytest.approx(expect, abs=1e-15)

    def test_controlled_phase_is_involution(self):
        rng = np.random.default_rng(9)
        amps = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        st = fk.FockState(amps / np.linalg.norm(amps))
        twice = fk.controlled_phase(fk.controlled_phase(st, 0, 1), 0, 1)
        np.testing.assert_allclose(twice.amps, st.amps, atol=1e-15)


class TestMeasurements:
    def test_homodyne_vacuum_statistics(self):
        rng = np.random.default_rng(17)
        outs = np.array([fk.homodyne_fock(fk.vacuum_fock(1, 20), 0, 0.0, rng)[0]
                         for _ in range(4000)])
        assert abs(outs.mean()) < 0.04
        assert outs.var() == pytest.approx(0.5, rel=0.1)

    def test_homodyne_single_photon_variance(self):
        # <x^2> on |1> is 3/2
        rng = np.random.default_rng(23)
        outs = np.array([fk.homodyne_fock(fk.fock_basis(1, 20), 0, 0.0, rng)[0]
                         for _ in range(4000)])
        assert outs.var() == pytest.approx(1.5, rel=0.1)

    def test_homodyne_theta_picks_p(self):
        # p-quadrature of coherent((1+0.5j)/sqrt 2) has mean 0.5
        rng = np.random.default_rng(29)
        st = fk.coherent_fock((1.0 + 0.5j) / np.sqrt(2.0), cutoff=30)
        outs = np.array([fk.homodyne_fock(st, 0, np.pi / 2, rng)[0]
                         for _ in range(2000)])
        assert outs.mean() == pytest.approx(0.5, abs=0.06)

    def test_homodyne_projects_entangled_partner(self):
        # two-mode squeezed state: measuring x on one mode shifts the
        # conditional mean of the partner toward the outcome
        st = fk.vacuum_fock(2, cutoff=40)
        st = fk.squeeze_fock(st, 0, 0.9)
        st = fk.squeeze_fock(st, 1, -0.9)
        st = fk.beam_splitter_fock(st, 0, 1, 0.5)
        out, post = fk.homodyne_fock(st, 0, 0.0, 31)
        mean, _ = fk.covariance_of(post)
        rho = np.tanh(2 * np.arctanh(np.tanh(0.9)))  # x-x correlation coefficient
        assert post.n_modes == 1
        assert np.sign(mean[0]) == np.sign(out)

    def test_homodyne_deterministic(self):
        st = fk.coherent_fock(0.4, cutoff=25)
        o1, _ = fk.homodyne_fock(st, 0, 0.2, 77)
        o2, _ = fk.homodyne_fock(st, 0, 0.2, 77)
        assert o1 == o2

    @staticmethod
    def _mixed_state(n_modes, cutoff):
        st = fk.vacuum_fock(n_modes, cutoff)
        for m in range(n_modes):
            st = fk.squeeze_fock(st, m, 0.3 * (-1) ** m)
            st = fk.displace_fock(st, m, 0.4, -0.2 * m)
        for m in range(n_modes - 1):
            st = fk.beam_splitter_fock(st, m, m + 1, 0.4)
        return fk.apply_cubic(st, 0, 0.05)

    @pytest.mark.parametrize("n_modes", [2, 3])
    def test_homodyne_pdf_from_reduced_density_matrix(self, n_modes):
        st = self._mixed_state(n_modes, 24 if n_modes == 2 else 14)
        for mode in range(n_modes):
            for seed in (3, 4):
                theta = 0.3 * mode
                out, post, pdf, xs = oracles.homodyne_fock_full_pdf(
                    st, mode, theta, seed)
                work = fk.phase_fock(st, mode, -theta) if theta else st
                moved = np.moveaxis(work.amps, mode, 0).reshape(st.cutoff, -1)
                rho = (moved @ moved.conj().T).real
                psi = fk.hermite_functions(xs, st.cutoff)
                np.testing.assert_allclose(
                    fk._quadrature_pdf(rho, psi), pdf, rtol=0, atol=1e-12)
                got, got_post = fk.homodyne_fock(st, mode, theta, seed)
                assert got == out
                np.testing.assert_allclose(got_post.amps, post, atol=1e-12)

    @pytest.mark.parametrize("n_modes, cutoff", [(2, 24), (3, 14)])
    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, 2.5])
    def test_grid_moments_match_covariance_of(self, monkeypatch, n_modes,
                                              cutoff, theta):
        # the grid homodyne_fock places from its reduced density matrix is
        # the one covariance_of's moments of the rotated state would give
        st = self._mixed_state(n_modes, cutoff)
        grids = []

        def spy(xs, n):
            grids.append(xs)
            return real_hermite(xs, n)

        real_hermite = fk.hermite_functions
        monkeypatch.setattr(fk, "hermite_functions", spy)
        for mode in range(n_modes):
            fk.homodyne_fock(st, mode, theta, 1)
            mean, cov = fk.covariance_of(fk.phase_fock(st, mode, -theta))
            lo, hi = grids[-1][0], grids[-1][-1]
            span = fk.HOMODYNE_GRID_SIGMAS
            assert abs((lo + hi) / 2 - mean[2 * mode]) < 1e-12
            assert abs(((hi - lo) / (2 * span)) ** 2
                       - cov[2 * mode, 2 * mode]) < 1e-12

    def test_homodyne_reads_a_strided_state(self):
        # the beam splitter returns a transposed view; reading mode 0 of it
        # mode-first gives rows with a non-unit inner stride
        st = fk.beam_splitter_fock(self._mixed_state(3, 14), 1, 2, 0.3)
        assert not st.amps.flags.c_contiguous
        for mode, theta in [(0, 0.0), (0, 0.4), (2, 0.0)]:
            out, post, _, _ = oracles.homodyne_fock_full_pdf(st, mode, theta, 8)
            got, got_post = fk.homodyne_fock(st, mode, theta, 8)
            assert got == out
            np.testing.assert_allclose(got_post.amps, post, atol=1e-12)

    @pytest.mark.parametrize("call, bound", [
        (lambda st: fk.homodyne_fock(st, 1, 0.7, 3), 4.0),
        (lambda st: fk.beam_splitter_fock(st, 0, 2, 0.3), 1.5),
    ], ids=["homodyne", "beam_splitter"])
    def test_scratch_memory_is_one_state(self, call, bound):
        # the homodyne through covariance_of peaked at 8.0x, the beam
        # splitter with a second output array at 2.1x
        st = self._mixed_state(3, 40)
        call(st)                                   # fills the block cache
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call(st)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound * st.amps.nbytes


class TestHermiteFunctions:
    @pytest.mark.parametrize("n, x", [(799, 40.0), (599, 36.0), (99, 15.0)])
    def test_matches_mpmath(self, n, x):
        # the first two points pass the turning point sqrt(2n + 1), where
        # the unenveloped recurrence would overflow a double
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            xm = mp.mpf(x)
            ref = float(mp.exp(-xm * xm / 2) * mp.hermite(n, xm) / mp.sqrt(
                mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi)))
        got = fk.hermite_functions(np.array([-x, x]), n + 1)[n]
        np.testing.assert_allclose(got, [(-1) ** n * ref, ref],
                                   rtol=1e-12, atol=0)

    def test_plain_recurrence_where_nothing_is_rescaled(self):
        xs = np.linspace(-12.0, 12.0, 801)
        h = np.zeros((100, xs.size))
        h[0] = np.pi ** -0.25
        h[1] = np.sqrt(2.0) * xs * h[0]
        for n in range(2, 100):
            h[n] = (xs * np.sqrt(2.0 / n) * h[n - 1]
                    - np.sqrt((n - 1) / n) * h[n - 2])
        assert np.array_equal(fk.hermite_functions(xs, 100),
                              h * np.exp(-xs ** 2 / 2.0))

    def test_finite_and_orthonormal_at_large_cutoff(self):
        assert np.isfinite(
            fk.hermite_functions(np.linspace(-70, 70, 1001), 1500)).all()
        # products of levels below 800 oscillate slower than 2 sqrt(1601),
        # so a 0.02 trapezoid grid integrates them to rounding
        xs = np.linspace(-50.0, 50.0, 5001)
        h = fk.hermite_functions(xs, 800)
        gram = (h * (xs[1] - xs[0])) @ h.T
        assert np.abs(gram - np.eye(800)).max() < 1e-12


class TestLeakage:
    def test_leakage_small_for_contained_states(self):
        assert fk.coherent_fock(1.0, cutoff=40).leakage() < 1e-10

    def test_leakage_reports_top_levels(self):
        st = fk.fock_basis(19, cutoff=20)
        assert st.leakage() == pytest.approx(1.0)


class TestSpectralGates:
    """Spectral-form gates against matrix exponentials of the generators.

    The Pade oracle's own error grows with the generator norm; the
    parameter ranges keep it under the 1e-12 tolerance.  (Squeezing at
    cutoff 220 near r = 1.27 is the worst case: 9e-13 from the spectral
    form, where expm is unitary only to 2e-12 and the spectral form to
    2e-15.)
    """

    @staticmethod
    def _matrix(gate, cutoff, *args):
        # the gate applied to every basis vector, as columns
        basis = fk.FockState(np.eye(cutoff, dtype=complex))
        return gate(basis, 0, *args).amps

    @pytest.mark.parametrize("cutoff", [20, 60, 100, 220])
    def test_displacement_and_squeezing_match_expm(self, cutoff):
        rng = np.random.default_rng(cutoff)
        a = fk.annihilation(cutoff)
        for _ in range(2):
            dx, dp = rng.uniform(-2.0, 2.0, size=2)
            alpha = (dx + 1j * dp) / math.sqrt(2.0)
            want = oracles.expm_unitary(alpha * a.T - np.conj(alpha) * a)
            got = self._matrix(fk.displace_fock, cutoff, dx, dp)
            assert np.abs(got - want).max() < 1e-12
            r = rng.uniform(-1.5, 1.5)
            want = oracles.expm_unitary((r / 2.0) * (a @ a - a.T @ a.T))
            got = self._matrix(fk.squeeze_fock, cutoff, r)
            assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("cutoff", [20, 60, 100, 220])
    def test_bs_blocks_match_expm(self, cutoff):
        rng = np.random.default_rng(cutoff + 1)
        t = rng.uniform(0.2, 0.8)
        theta = float(np.arctan2(np.sqrt(1.0 - t), np.sqrt(t)))
        # every block up to cutoff 60; above, a stride that keeps the
        # largest block (total = cutoff - 1)
        stride = 1 if cutoff <= 60 else 9
        checked = {tot for total in range(cutoff - 1, -1, -stride)
                   for tot in (total, 2 * cutoff - 2 - total)}
        # block N is {|k, N-k>} for k from lo[N]; probe j puts 1 on
        # k = lo[N] + j in every block that long, so the gate's output
        # holds column j of every block at once
        totals = np.arange(2 * cutoff - 1)
        lo = np.maximum(0, totals - cutoff + 1)
        size = np.minimum(totals, cutoff - 1) - lo + 1
        rows = {tot: lo[tot] + np.arange(size[tot]) for tot in checked}
        got = {tot: np.zeros((ks.size, ks.size), dtype=complex)
               for tot, ks in rows.items()}
        for j in range(cutoff):
            k = lo[size > j] + j
            probe = np.zeros((cutoff, cutoff), dtype=complex)
            probe[k, totals[size > j] - k] = 1.0
            out = fk.beam_splitter_fock(fk.FockState(probe), 0, 1, t).amps
            for tot, ks in rows.items():
                if j < ks.size:
                    got[tot][:, j] = out[ks, tot - ks]
        for tot, block in got.items():
            gen = oracles.bs_block_generator(cutoff, tot, theta)
            assert np.abs(block - oracles.expm_unitary(gen)).max() < 1e-12

    def test_distinct_angles_retain_no_memory(self):
        # the gate keeps only the per-cutoff spectral forms; keeping the
        # block matrices of an angle would cost about 1.2 MB at cutoff 60
        rng = np.random.default_rng(5)
        st = fk.FockState(np.eye(60, dtype=complex) / math.sqrt(60))
        fk.beam_splitter_fock(st, 0, 1, 0.5)       # caches the cutoff's forms
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t in rng.uniform(0.2, 0.8, size=20):
                fk.beam_splitter_fock(st, 0, 1, t)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024

    def test_displacement_matches_cahill_glauber(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            alpha = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            dx, dp = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
            got = self._matrix(fk.displace_fock, 60, dx, dp)[:20, :20]
            want = np.array([[oracles.displacement_element(m, n, alpha)
                              for n in range(20)] for m in range(20)])
            assert np.abs(got - want).max() < 1e-12
