"""Streaming cluster-state networks vs dense whole-network oracles."""

import io
import json
import math

import numpy as np
import pytest

from cvqsim import gaussian as g
from cvqsim import tdm

from oracles import csv_reference, dense_network_run

R15 = g.squeezing_db_to_r(15.0)


def _dense_form_var(form, slot, state, index_map):
    vec = np.zeros(2 * state.n_modes)
    for off, arm, quad, coef in form.terms:
        vec[2 * index_map[(slot + off, arm)] + quad] += coef
    return float(vec @ state.cov @ vec)


class TestNetworkSpec:
    def test_defaults_shapes(self):
        spec = tdm.network_1d(1.0)
        assert spec.n_arms == 2
        assert spec.max_delay == 1
        spec2 = tdm.network_2d(1.0, 5)
        assert spec2.n_arms == 4
        assert spec2.max_delay == 5
        assert spec2.n_delay_slots == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            tdm.NetworkSpec(squeezers=(("x", 1.0),), stages=())
        with pytest.raises(ValueError):
            tdm.NetworkSpec(squeezers=(("y", 1.0), ("x", 1.0)), stages=())
        with pytest.raises(ValueError):
            tdm.NetworkSpec(squeezers=(("x", 1.0), ("p", 1.0)),
                            stages=(("bs", 0, 2, 0.5),))
        with pytest.raises(ValueError):
            tdm.NetworkSpec(squeezers=(("x", 1.0), ("p", 1.0)),
                            stages=(("delay", 0, 0),))
        with pytest.raises(ValueError):
            tdm.network_2d(1.0, 1)


def _custom_two_slot_delay():
    return tdm.NetworkSpec(squeezers=(("x", 1.2), ("p", 0.4)),
                           stages=(("bs", 0, 1, 0.3),
                                   ("delay", 1, 2),
                                   ("bs", 0, 1, 0.6)))


class TestSlotMap:
    # every network this file builds; derive_squeezed_forms pushes rows
    # forward instead of inverting, which holds only for an orthogonal map
    @pytest.mark.parametrize("make", [
        lambda: tdm.network_1d(R15),
        lambda: tdm.network_1d(0.0),
        lambda: tdm.network_2d(1.0, 5),
        *(lambda w=w: tdm.network_2d(0.7, w) for w in (2, 3, 40)),
        lambda: tdm.NetworkSpec(squeezers=(("x", 0.8), ("p", 0.8)),
                                stages=(("bs", 0, 1, 0.5),)),
        _custom_two_slot_delay,
        lambda: tdm.NetworkSpec(squeezers=(("x", 1.2), ("p", 0.4)),
                                stages=(("bs", 0, 1, 0.3), ("delay", 1, 3),
                                        ("delay", 0, 1), ("bs", 1, 0, 0.6))),
        lambda: tdm.NetworkSpec(squeezers=(("x", 0.0), ("p", 0.0)),
                                stages=(("delay", 0, 3),)),
    ])
    def test_slot_matrix_is_orthogonal(self, make):
        m = tdm._slot_matrix(make())
        assert np.abs(m.T @ m - np.eye(len(m))).max() < 1e-12

    def test_support_beyond_the_window_is_rejected(self):
        # two delays in series on one arm emit a pulse 5 slots after it
        # enters, past the max_delay + 2 = 5 slots (offsets 0-4) followed
        spec = tdm.NetworkSpec(squeezers=(("x", 1.0), ("p", 1.0)),
                               stages=(("bs", 0, 1, 0.5), ("delay", 0, 2),
                                       ("delay", 0, 3), ("bs", 0, 1, 0.5)))
        with pytest.raises(RuntimeError, match="leaks into the delay line"):
            tdm.derive_squeezed_forms(spec)


class TestDeriveForms:
    def test_single_splitter_no_delay(self):
        spec = tdm.NetworkSpec(squeezers=(("x", 0.8), ("p", 0.8)),
                               stages=(("bs", 0, 1, 0.5),))
        forms = list(tdm.derive_squeezed_forms(spec))
        assert len(forms) == 2
        for form in forms:
            assert form.support == 1          # no delay, single-slot combos
            assert len(form.terms) == 2       # pairwise +-/sqrt2
            for _, _, _, coef in form.terms:
                assert abs(abs(coef) - 1 / math.sqrt(2)) < 1e-12

    def test_chain_network_couples_adjacent_slots(self):
        forms = list(tdm.derive_squeezed_forms(tdm.network_1d(R15)))
        assert len(forms) == 2
        for form in forms:
            slots = {t[0] for t in form.terms}
            assert slots == {0, 1}
            assert len(form.terms) <= 4
            assert form.expected_var == pytest.approx(
                math.exp(-2 * R15) / 2, abs=1e-15)

    def test_lattice_network_couples_row_neighbours(self):
        spec = tdm.network_2d(R15, 3)
        forms = list(tdm.derive_squeezed_forms(spec))
        assert len(forms) == 4
        max_off = max(t[0] for f in forms for t in f.terms)
        assert max_off == 3                   # one full row of width N
        for form in forms:
            assert len(form.terms) <= 8

    def test_zero_squeezing_vacuum_normalization(self):
        forms = list(tdm.derive_squeezed_forms(tdm.network_1d(0.0)))
        for form in forms:
            assert form.expected_var == pytest.approx(form.vacuum_var,
                                                      abs=1e-12)

    def test_non_orthogonal_slot_map_is_rejected(self, monkeypatch):
        exact = g.beamsplitter_matrix
        monkeypatch.setattr(g, "beamsplitter_matrix",
                            lambda t: 1.01 * exact(t))
        with pytest.raises(RuntimeError, match="squared norm"):
            tdm.derive_squeezed_forms(tdm.network_1d(R15))


class TestStream1D:
    def test_fifteen_db_ratio_exact(self):
        records = []
        stats = tdm.stream_1d(4000, R15, sink=records.append)
        for ratio in stats.ratios().values():
            assert ratio == pytest.approx(10 ** -1.5, abs=1e-9)
        for rec in records:
            assert rec["forms"] == stats.variances  # shift invariance

    def test_zero_squeezing_ratio_one(self):
        stats = tdm.stream_1d(200, 0.0)
        for ratio in stats.ratios().values():
            assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_loss_formula(self):
        eta = 0.9
        stats = tdm.stream_1d(500, R15, loss=eta)
        want = eta * 10 ** -1.5 + (1 - eta)
        for ratio in stats.ratios().values():
            assert ratio == pytest.approx(want, abs=1e-9)

    def test_window_stays_constant(self):
        stats = tdm.stream_1d(3000, R15)
        assert stats.peak_active_modes == 3
        assert stats.peak_active_modes <= 4

    def test_matches_dense_simulation_slot_by_slot(self):
        spec = tdm.network_1d(R15)
        records = []
        tdm.stream_1d(6, R15, sink=records.append)
        forms = list(tdm.derive_squeezed_forms(spec))
        dense, imap = dense_network_run(
            list(spec.stages), 2, 6, list(spec.squeezers))
        assert records                  # includes boundary slots
        for rec in records:
            for form in forms:
                want = _dense_form_var(form, rec["slot"], dense, imap)
                assert rec["forms"][form.name] == pytest.approx(want,
                                                                abs=1e-9)

    def test_boundary_slots_flagged_and_excluded(self):
        records = []
        stats = tdm.stream_1d(50, R15, sink=records.append)
        assert stats.boundary_slots == 1
        assert records[0]["boundary"] is True
        counted = sum(1 for rec in records if not rec["boundary"])
        assert stats.count == counted

    def test_validation(self):
        with pytest.raises(ValueError):
            tdm.stream_1d(1, 1.0)
        with pytest.raises(ValueError):
            tdm.stream_1d(10, 1.0, loss=0.0)


class TestStream2D:
    def test_width_five_window_bound(self):
        stats = tdm.stream_2d(5000, 5, R15)
        assert stats.peak_active_modes == 10
        assert stats.peak_active_modes <= 4 * (5 + 1)
        for ratio in stats.ratios().values():
            assert ratio == pytest.approx(10 ** -1.5, abs=1e-9)

    def test_matches_dense_simulation_width_two(self):
        spec = tdm.network_2d(R15, 2)
        records = []
        tdm.stream_2d(4, 2, R15, sink=records.append)
        forms = list(tdm.derive_squeezed_forms(spec))
        dense, imap = dense_network_run(
            list(spec.stages), 4, 4, list(spec.squeezers))
        checked = 0
        for rec in records:
            for form in forms:
                want = _dense_form_var(form, rec["slot"], dense, imap)
                assert rec["forms"][form.name] == pytest.approx(want,
                                                                abs=1e-9)
                checked += 1
        assert checked > 0

    def test_zero_squeezing_no_cross_slot_covariance(self):
        spec = tdm.network_2d(0.0, 2)
        cov, imap = tdm.emitted_covariance(spec, 4)
        for (ka, aa), ia in imap.items():
            for (kb, ab), ib in imap.items():
                if ka != kb:
                    block = cov[2 * ia:2 * ia + 2, 2 * ib:2 * ib + 2]
                    assert np.abs(block).max() < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            tdm.stream_2d(1, 5, 1.0)


class TestStreamingEqualsDense:
    CASES = [
        (lambda: tdm.network_1d(0.9), 2, 8),
        (lambda: tdm.network_2d(0.7, 2), 4, 5),
        (lambda: tdm.NetworkSpec(squeezers=(("x", 1.2), ("p", 0.4)),
                                 stages=(("bs", 0, 1, 0.3),
                                         ("delay", 1, 2),
                                         ("bs", 0, 1, 0.6))), 2, 7),
        # more slots than the network's memory: the correlations the
        # recursion prunes must be zero in the dense oracle too
        (lambda: tdm.network_2d(0.7, 3), 4, 12),
        # delays on both arms, the longer one first in stage order
        (lambda: tdm.NetworkSpec(squeezers=(("x", 1.2), ("p", 0.4)),
                                 stages=(("bs", 0, 1, 0.3),
                                         ("delay", 1, 3),
                                         ("delay", 0, 1),
                                         ("bs", 1, 0, 0.6))), 2, 9),
    ]

    @pytest.mark.parametrize("make,n_arms,n_slots", CASES)
    def test_joint_covariance(self, make, n_arms, n_slots):
        spec = make()
        cov, imap = tdm.emitted_covariance(spec, n_slots)
        dense, dmap = dense_network_run(
            list(spec.stages), n_arms, n_slots, list(spec.squeezers))
        order = [dmap[(k, a)] for k in range(n_slots) for a in range(n_arms)]
        sel = np.array([[2 * i, 2 * i + 1] for i in order]).ravel()
        assert np.abs(cov - dense.cov[np.ix_(sel, sel)]).max() < 1e-9


class TestSinkAndStats:
    def test_sink_receives_slots_in_order(self):
        slots = []
        tdm.stream_1d(20, 1.0, sink=lambda rec: slots.append(rec["slot"]))
        assert slots == list(range(19))   # last slot starts no new form

    def test_sink_failure_propagates(self):
        def bad_sink(rec):
            raise IOError("disk full")
        with pytest.raises(IOError):
            tdm.stream_1d(20, 1.0, sink=bad_sink)

    def test_csv_sink_writes_rows(self):
        buf = io.StringIO()
        tdm.stream_1d(10, 1.0, sink=tdm.csv_sink(buf))
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("slot,boundary,")
        assert len(lines) == 10           # header + 9 evaluated slots

    def test_json_stats_round_trip(self):
        stats = tdm.stream_1d(100, R15)
        payload = json.loads(stats.to_json())
        assert payload["n_slots"] == 100
        assert payload["peak_active_modes"] == 3
        for body in payload["forms"].values():
            assert body["count"] == 98

    def test_large_run_is_fast(self):
        stats = tdm.stream_1d(100_000, R15)
        assert stats.wall_time_s < 10.0
        for ratio in stats.ratios().values():
            assert ratio == pytest.approx(10 ** -1.5, abs=1e-9)


class _CountingFloat(float):
    """A float that counts how often it is formatted."""

    formats = 0

    def __format__(self, spec):
        _CountingFloat.formats += 1
        return super().__format__(spec)


def _assert_same_csv(text, records):
    # compared as lines: pytest's diff of two long strings takes minutes
    assert text.splitlines() == csv_reference(records).splitlines()
    assert text.endswith("\n")


class TestCsvSink:
    """csv_sink reuses repeated rows; its bytes must not show it."""

    RUNS = [
        pytest.param(lambda s: tdm.stream_1d(3000, R15, sink=s), id="1d"),
        pytest.param(lambda s: tdm.stream_1d(3000, R15, sink=s, loss=0.9),
                     id="1d_loss"),
        pytest.param(lambda s: tdm.stream_2d(3000, 5, R15, sink=s),
                     id="2d_w5"),
        pytest.param(lambda s: tdm.stream_2d(400, 40, 0.7, sink=s, loss=0.8),
                     id="2d_w40_loss"),
        # 60 slots of width 40 end inside the boundary: no steady state
        pytest.param(lambda s: tdm.stream_2d(60, 40, 0.7, sink=s),
                     id="2d_w40_short"),
    ]

    @pytest.mark.parametrize("run", RUNS)
    def test_stream_bytes_match_reference(self, run):
        buf = io.StringIO()
        write = tdm.csv_sink(buf)
        records = []

        def sink(record):
            records.append(record)
            write(record)
        run(sink)
        assert records
        _assert_same_csv(buf.getvalue(), records)

    def test_short_run_never_reaches_steady_state(self):
        # every evaluated slot is a boundary slot
        payload = json.loads(tdm.stream_2d(60, 40, 0.7).to_json())
        assert payload["boundary_slots"] == 20
        for body in payload["forms"].values():
            assert body["count"] == 0
            assert body["min_var"] is None and body["max_var"] is None

    def test_repeats_and_flips_match_reference(self):
        a = {"x0": 0.25, "p1": 1.0 / 3.0}
        b = {"x0": 0.5, "p1": 1e-30}
        zero = {"x0": 0.0, "p1": 2.0}
        neg_zero = {"x0": -0.0, "p1": 2.0}
        seq = [(a, True), (a, True), (b, True), (a, True),
               (a, False), (a, False), (a, True), (zero, False),
               (neg_zero, False), (neg_zero, False), (zero, False)]
        buf = io.StringIO()
        sink = tdm.csv_sink(buf)
        shared = {}                   # one dict, rewritten for every record
        records = []
        for k, (forms, bd) in enumerate(seq):
            shared.clear()
            shared.update(forms)
            sink({"slot": k, "boundary": bd, "forms": shared})
            records.append({"slot": k, "boundary": bd, "forms": dict(forms)})
        _assert_same_csv(buf.getvalue(), records)

    def test_repeated_rows_are_formatted_once(self):
        names = ("x0", "p1", "x2", "p3")
        buf = io.StringIO()
        sink = tdm.csv_sink(buf)
        _CountingFloat.formats = 0
        for k in range(1000):
            sink({"slot": k, "boundary": False,
                  "forms": {n: _CountingFloat(0.125) for n in names}})
        assert _CountingFloat.formats <= len(names)
        assert len(buf.getvalue().splitlines()) == 1001

    def test_sink_mutation_does_not_reach_later_records(self):
        def snapshots(mutate):
            seen = []

            def sink(record):
                seen.append((record["slot"], record["boundary"],
                             dict(record["forms"])))
                if mutate:
                    record["forms"].clear()
                    record["forms"]["x0"] = math.nan
            tdm.stream_1d(50, R15, sink=sink)
            return seen

        assert snapshots(mutate=True) == snapshots(mutate=False)


class TestClosedFormEqualsPerSlot:
    """A sinkless run against the per-slot records of the same run."""

    NETWORKS = [
        pytest.param(lambda: tdm.network_1d(R15), None, id="1d"),
        pytest.param(lambda: tdm.network_1d(R15), 0.9, id="1d_loss"),
        pytest.param(lambda: tdm.network_2d(R15, 2), None, id="2d_w2"),
        pytest.param(lambda: tdm.network_2d(0.8, 5), None, id="2d_w5"),
        pytest.param(_custom_two_slot_delay, None, id="custom_delay2"),
        # vacuum through a bare delay: one form reads a pulse 3 slots
        # later, so a run of up to 6 slots counts no slot
        pytest.param(lambda: tdm.NetworkSpec(
            squeezers=(("x", 0.0), ("p", 0.0)),
            stages=(("delay", 0, 3),)), None, id="vacuum_delay3"),
    ]

    @staticmethod
    def _slot_counts(spec):
        support = max(f.support for f in tdm.derive_squeezed_forms(spec))
        return sorted({2, spec.max_delay, spec.max_delay + 1,
                       support, support + 1, 50})

    @pytest.mark.parametrize("make,loss", NETWORKS)
    def test_exact_equality(self, make, loss):
        spec = make()
        for n_slots in self._slot_counts(spec):
            closed = tdm._stream(spec, n_slots, loss=loss)
            records = []
            per = tdm._stream(spec, n_slots, loss=loss, sink=records.append)
            assert closed.boundary_slots == per.boundary_slots == min(
                spec.max_delay, len(records))
            assert closed.variances == per.variances
            counted = [rec for rec in records if not rec["boundary"]]
            assert closed.count == per.count == len(counted)
            for rec in counted:
                assert rec["forms"] == closed.variances


def _random_network(rng):
    n_arms = int(rng.choice([2, 4]))
    squeezers = tuple((str(rng.choice(["x", "p"])), float(rng.uniform(0, 4)))
                      for _ in range(n_arms))
    stages = []
    for _ in range(int(rng.integers(1, 8))):
        if rng.random() < 0.5:
            i, j = (int(a) for a in rng.choice(n_arms, 2, replace=False))
            t = rng.choice([0.0, 0.5, 1.0, float(rng.uniform())])
            stages.append(("bs", i, j, float(t)))
        else:
            stages.append(("delay", int(rng.integers(n_arms)),
                           int(rng.integers(1, 5))))
    return tdm.NetworkSpec(squeezers=squeezers, stages=tuple(stages))


class TestFormVarianceIsSlotInvariant:
    """_stream reports each form's expected_var, e^{-2r}/2, through the
    loss map; every slot must agree with the form's variance on the
    slot-by-slot delay-line recursion of emitted_covariance."""

    @staticmethod
    def _check(spec, loss):
        forms = tdm.derive_squeezed_forms(spec)
        support = max(f.support for f in forms)
        n_slots = support + spec.max_delay + 2
        records = []
        tdm._stream(spec, n_slots, sink=records.append, loss=loss)
        cov, imap = tdm.emitted_covariance(spec, n_slots)
        assert len(records) == n_slots - support + 1
        assert records[0]["boundary"] == (spec.max_delay > 0)
        # emitted_covariance's rounding scales with the largest
        # anti-squeezed variance: below 7e-17 of it on 441 random networks
        tol = 1e-14 * max(math.exp(2 * r) for _, r in spec.squeezers)
        for rec in records:
            for form in forms:
                vec = np.zeros(cov.shape[0])
                for off, arm, quad, coef in form.terms:
                    vec[2 * imap[(rec["slot"] + off, arm)] + quad] += coef
                want = float(vec @ cov @ vec)
                if loss is not None:
                    want = loss * want + (1 - loss) * form.vacuum_var
                assert rec["forms"][form.name] == pytest.approx(
                    want, rel=1e-12, abs=tol)

    @pytest.mark.parametrize("loss", [None, 0.9])
    def test_streaming_networks(self, loss):
        for make, _, _ in TestStreamingEqualsDense.CASES:
            self._check(make(), loss)

    def test_random_networks(self):
        rng = np.random.default_rng(2011)
        checked = rejected = 0
        for _ in range(600):
            spec = _random_network(rng)
            try:
                tdm.derive_squeezed_forms(spec)
            except RuntimeError as err:
                assert "leaks into the delay line" in str(err)
                with pytest.raises(RuntimeError, match="leaks"):
                    tdm._stream(spec, 10, sink=lambda rec: None)
                rejected += 1
                continue
            for loss in (None, 0.9):
                self._check(spec, loss)
            checked += 1
        assert checked > 400 and rejected > 100


class TestLargeSqueezingIsExact:
    """At large r the reported variance is e^{-2r}/2 itself, not the
    rounding of sums over anti-squeezed variances e^{2r}/2."""

    @pytest.mark.parametrize("r", [17.0, 20.0])
    @pytest.mark.parametrize("make", [tdm.network_1d,
                                      lambda r: tdm.network_2d(r, 5)],
                             ids=["1d", "2d_w5"])
    def test_stats_and_every_record(self, make, r):
        records = []
        stats = tdm._stream(make(r), 100, sink=records.append)
        want = math.exp(-2 * r) / 2
        forms = stats.to_dict()["forms"]
        assert records and forms
        for form in forms.values():
            assert form["expected_var"] == want
            assert math.isclose(form["mean_var"], want, rel_tol=1e-15)
        for rec in records:
            for var in rec["forms"].values():
                assert math.isclose(var, want, rel_tol=1e-15)


class TestCounters:
    def test_billion_pulses_step_only_the_transient(self):
        stats = tdm.stream_1d(10 ** 9, R15)
        assert stats.count == 10 ** 9 - 2
        for ratio in stats.ratios().values():
            assert ratio == pytest.approx(10 ** -1.5, abs=1e-9)

    def test_short_run_never_reaches_steady_state(self):
        stats = tdm.stream_1d(2, R15)
        assert stats.boundary_slots == 1
        assert stats.count == 0
        assert stats.ratios() == {}

    def test_counters_in_json_outside_timings(self):
        payload = json.loads(tdm.stream_2d(500, 5, R15).to_json())
        assert set(payload) == {"n_slots", "boundary_slots",
                                "peak_active_modes", "forms", "timings"}
        assert set(payload["timings"]) == {"stream_s"}
