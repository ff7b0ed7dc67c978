"""Unit tests for the exact sequential power estimator ([28])."""

import random

import pytest

from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.opt.seq.encoding import encode_natural
from repro.opt.seq.fsm_benchmarks import load_benchmark
from repro.opt.seq.stg import STG, synthesize_fsm
from repro.power.activity import sequential_activity
from repro.power.sequential import exact_sequential_activity


def counter_fsm(n_states=4):
    stg = STG(1, 1)
    for i in range(n_states):
        s, nxt = f"s{i}", f"s{(i + 1) % n_states}"
        out = "1" if i == n_states - 1 else "0"
        stg.add_transition("1", s, nxt, out)
        stg.add_transition("0", s, s, out)
    return synthesize_fsm(stg, encode_natural(stg))


class TestExactActivity:
    def test_matches_long_simulation(self):
        net = counter_fsm()
        analysis = exact_sequential_activity(net)
        rng = random.Random(0)
        vecs = [{"x0": rng.getrandbits(1)} for _ in range(30000)]
        sim = sequential_activity(net, vecs)
        for name in sim:
            assert analysis.activities[name] == \
                pytest.approx(sim[name], abs=0.02), name

    def test_biased_inputs(self):
        net = counter_fsm()
        analysis = exact_sequential_activity(net, {"x0": 0.9})
        rng = random.Random(1)
        vecs = [{"x0": int(rng.random() < 0.9)} for _ in range(30000)]
        sim = sequential_activity(net, vecs)
        for name in sim:
            assert analysis.activities[name] == \
                pytest.approx(sim[name], abs=0.02), name

    def test_periodic_machine(self):
        """Every cycle of this machine has even length, so plain power
        iteration from the uniform distribution oscillates."""
        stg = STG(1, 1)
        for src, on0, on1, out in [("s0", "s1", "s1", "1"),
                                   ("s1", "s0", "s2", "0"),
                                   ("s2", "s3", "s3", "0"),
                                   ("s3", "s4", "s0", "1"),
                                   ("s4", "s1", "s3", "1")]:
            stg.add_transition("0", src, on0, out)
            stg.add_transition("1", src, on1, out)
        net = synthesize_fsm(stg, encode_natural(stg))
        analysis = exact_sequential_activity(net)
        for latch in net.latches:
            assert analysis.activities[latch.output] == pytest.approx(
                analysis.activities[latch.data])
        rng = random.Random(2)
        vecs = [{"x0": rng.getrandbits(1)} for _ in range(30000)]
        sim = sequential_activity(net, vecs)
        for name in sim:
            assert analysis.activities[name] == \
                pytest.approx(sim[name], abs=0.02), name

    def test_reachable_states_only(self):
        """A 4-state one-hot machine reaches 4 of 16 codes."""
        stg = STG(1, 1)
        for i in range(4):
            stg.add_transition("1", f"s{i}", f"s{(i + 1) % 4}", "0")
            stg.add_transition("0", f"s{i}", f"s{i}", "0")
        net = synthesize_fsm(stg, {f"s{i}": 1 << i for i in range(4)})
        analysis = exact_sequential_activity(net)
        assert analysis.num_states == 4

    def test_stationary_distribution_sums_to_one(self):
        analysis = exact_sequential_activity(counter_fsm())
        assert sum(analysis.stationary) == pytest.approx(1.0)

    def test_frozen_input_freezes_machine(self):
        """With P(advance)=0 the counter never moves: zero activity at
        the state bits."""
        net = counter_fsm()
        analysis = exact_sequential_activity(net, {"x0": 0.0})
        for latch in net.latches:
            assert analysis.activities[latch.output] == \
                pytest.approx(0.0)

    @pytest.mark.parametrize("bad", [1.5, -0.5, float("nan"), None])
    def test_bad_input_probability_rejected(self, bad):
        # Unchecked, 1.5 gave node probabilities of 1.5 and -0.5.
        stg = load_benchmark("detector")
        net = synthesize_fsm(stg, encode_natural(stg))
        with pytest.raises(ValueError, match="'x0'"):
            exact_sequential_activity(net, {"x0": bad})

    def test_state_explosion_guard(self):
        net = Network()
        net.add_input("d")
        prev = "d"
        for k in range(14):
            net.add_latch(prev, f"q{k}")
            prev = f"q{k}"
        net.set_output(prev)
        with pytest.raises(RuntimeError):
            exact_sequential_activity(net, max_states=100)

    def test_gated_latch_supported(self):
        net = Network()
        net.add_inputs(["d", "en"])
        net.add_latch("d", "q", enable="en")
        net.add_gate("o", GateType.BUF, ["q"])
        net.set_output("o")
        analysis = exact_sequential_activity(net, {"en": 0.0, "d": 0.5})
        assert analysis.activities["q"] == pytest.approx(0.0)
