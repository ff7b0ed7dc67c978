"""Tests for temporally-correlated stimulus."""

import pytest

from repro.sim.vectors import random_words


class TestCorrelatedStimulus:
    def test_hold_reduces_transitions(self):
        free = random_words(["x"], 4000, seed=1)["x"]
        held = random_words(["x"], 4000, seed=1,
                            hold={"x": 0.9})["x"]

        def flips(w):
            return bin((w ^ (w >> 1)) & ((1 << 3999) - 1)).count("1")

        assert flips(held) < 0.3 * flips(free)

    def test_probability_maintained_under_hold(self):
        w = random_words(["x"], 8000, seed=2, probs={"x": 0.8},
                         hold={"x": 0.7})["x"]
        ones = bin(w).count("1") / 8000
        assert ones == pytest.approx(0.8, abs=0.05)

    def test_zero_hold_matches_default_path(self):
        a = random_words(["x"], 100, seed=3)
        b = random_words(["x"], 100, seed=3, hold={"x": 0.0})
        assert a == b

    def test_correlated_inputs_lower_circuit_activity(self):
        from repro.logic.generators import ripple_carry_adder
        from repro.power.activity import activity_from_simulation

        net = ripple_carry_adder(6)
        # activity_from_simulation has no hold parameter; use words
        # directly through simulate_transitions.
        from repro.sim.functional import simulate_transitions

        free = random_words(net.inputs, 2048, seed=4)
        held = random_words(net.inputs, 2048, seed=4,
                            hold={n: 0.8 for n in net.inputs})
        t_free = sum(simulate_transitions(net, free, 2048).values())
        t_held = sum(simulate_transitions(net, held, 2048).values())
        assert t_held < 0.5 * t_free
