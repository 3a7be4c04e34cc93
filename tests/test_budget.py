import math

import numpy as np
import pytest

from cvqsim import budget


class TestTransmission:

    def test_reference_spans(self):
        assert budget.transmission(0.2, 100.0) == pytest.approx(0.99540,
                                                                abs=1e-4)
        assert budget.transmission(0.2, 1000.0) == pytest.approx(0.9550,
                                                                 abs=1e-4)

    def test_closed_form(self):
        # 3 dB of total loss is a factor of 10^-0.3
        assert budget.transmission(1.0, 3000.0) == pytest.approx(10 ** -0.3,
                                                                 rel=1e-12)

    def test_zero_length_is_lossless(self):
        for loss in (0.0, 0.2, 17.0):
            assert budget.transmission(loss, 0.0) == 1.0

    def test_multiplicative_in_length(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            loss = rng.uniform(0.01, 2.0)
            l1, l2 = rng.uniform(1.0, 5000.0, size=2)
            combined = budget.transmission(loss, l1 + l2)
            split = budget.transmission(loss, l1) * budget.transmission(loss, l2)
            assert combined == pytest.approx(split, abs=1e-12)

    def test_monotone_decreasing_in_length(self):
        lengths = np.linspace(0.0, 5000.0, 64)
        etas = [budget.transmission(0.2, l) for l in lengths]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            budget.transmission(-0.1, 100.0)
        with pytest.raises(ValueError):
            budget.transmission(0.2, -1.0)


class TestCapacity:

    def test_reference_loops(self):
        assert budget.capacity(100.0, 50e-9, 2e8) == 10
        assert budget.capacity(1000.0, 50e-9, 2e8) == 100

    def test_silica_default_velocity(self):
        assert budget.GROUP_VELOCITY_SILICA == pytest.approx(2e8, rel=1e-3)
        assert budget.capacity(100.0, 50e-9) == 10
        assert budget.capacity(1000.0, 50e-9) == 100

    def test_halved_pulse_width_doubles_capacity(self):
        assert budget.capacity(100.0, 25e-9, 2e8) == 20
        assert budget.capacity(1000.0, 25e-9, 2e8) == 200

    def test_monotone_in_length_antitone_in_width(self):
        caps = [budget.capacity(l, 50e-9, 2e8)
                for l in np.linspace(10.0, 2000.0, 40)]
        assert all(a <= b for a, b in zip(caps, caps[1:]))
        caps_w = [budget.capacity(1000.0, w, 2e8)
                  for w in np.linspace(10e-9, 500e-9, 40)]
        assert all(a >= b for a, b in zip(caps_w, caps_w[1:]))

    def test_sub_single_pulse_loop(self):
        assert budget.capacity(5.0, 50e-9, 2e8) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            budget.capacity(100.0, 0.0, 2e8)
        with pytest.raises(ValueError):
            budget.capacity(100.0, 50e-9, -1.0)


class TestReport:

    def test_composes_the_two_ops(self):
        inp = budget.BudgetInput(0.2, 100.0, 50e-9, 2e8)
        rep = budget.report(inp)
        assert rep.transmission == pytest.approx(0.99540, abs=1e-4)
        assert rep.capacity == 10
        assert rep.circulation_time_s == pytest.approx(5e-7, rel=1e-12)
        assert rep.loss_per_circulation_db == pytest.approx(0.02, rel=1e-12)

    def test_km_loop(self):
        rep = budget.report(budget.BudgetInput(0.2, 1000.0, 50e-9, 2e8))
        assert rep.transmission == pytest.approx(0.9550, abs=1e-4)
        assert rep.capacity == 100

    def test_transmission_matches_per_circulation_db(self):
        rep = budget.report(budget.BudgetInput(0.37, 740.0, 50e-9))
        assert rep.transmission == pytest.approx(
            10 ** (-rep.loss_per_circulation_db / 10.0), rel=1e-12)

    def test_serialization(self):
        rep = budget.report(budget.BudgetInput(0.2, 100.0, 50e-9, 2e8))
        assert rep.to_dict()["capacity"] == 10
        header, row, trailer = rep.to_csv().split("\n")
        assert trailer == ""
        assert header.split(",")[0] == "capacity"
        assert row.split(",")[0] == "10"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            budget.BudgetInput(0.2, -5.0, 50e-9)
        with pytest.raises(ValueError):
            budget.BudgetInput(-0.2, 5.0, 50e-9)
        with pytest.raises(ValueError):
            budget.BudgetInput(0.2, 5.0, 50e-9, group_velocity=0.0)
