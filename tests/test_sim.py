"""Unit tests for repro.sim (vectors, functional, event-driven)."""

import random

import pytest

from repro.logic.gates import GateType
from repro.logic.generators import parity_tree, ripple_carry_adder
from repro.logic.netlist import Network
from repro.sim.event import EventSimulator
from repro.sim.functional import (sequential_transitions,
                                  simulate_transitions,
                                  verify_equivalence)
from repro.sim.timed import timed_transitions_from_words
from repro.sim.vectors import (counter_bus_stream, exhaustive_words,
                               hamming, random_bus_stream, random_words,
                               stream_transitions, vectors_from_words,
                               words_from_vectors)


class TestVectors:
    def test_random_words_width(self):
        w = random_words(["a", "b"], 100, seed=1)
        assert w["a"] < (1 << 100)
        assert w["a"] != w["b"]

    def test_probability_bias(self):
        w = random_words(["a"], 4000, seed=2, probs={"a": 0.9})
        assert 0.85 < bin(w["a"]).count("1") / 4000 < 0.95

    def test_pack_unpack_roundtrip(self):
        vectors = [{"a": 1, "b": 0}, {"a": 0, "b": 0}, {"a": 1, "b": 1}]
        words = words_from_vectors(vectors)
        assert vectors_from_words(words, 3) == vectors

    def test_bus_stream_correlation(self):
        iid = random_bus_stream(16, 500, seed=3, correlation=0.0)
        corr = random_bus_stream(16, 500, seed=3, correlation=0.9)
        assert stream_transitions(corr) < stream_transitions(iid)

    def test_counter_stream(self):
        s = counter_bus_stream(8, 5, start=254)
        assert s == [254, 255, 0, 1, 2]

    def test_hamming(self):
        assert hamming(0b1010, 0b0110) == 2

    @pytest.mark.parametrize("n", range(11))
    def test_exhaustive_words_match_minterm_loop(self, n):
        names = [f"x{i}" for i in range(n)]
        want = {name: sum(1 << m for m in range(1 << n) if (m >> i) & 1)
                for i, name in enumerate(names)}
        assert exhaustive_words(names) == want


class TestFunctional:
    def test_transition_counts_bounded(self):
        net = ripple_carry_adder(4)
        words = random_words(net.inputs, 65, seed=0)
        tr = simulate_transitions(net, words, 65)
        assert all(0 <= t <= 64 for t in tr.values())

    def test_constant_input_no_transitions(self):
        net = ripple_carry_adder(2)
        words = {name: 0 for name in net.inputs}
        tr = simulate_transitions(net, words, 32)
        assert all(t == 0 for t in tr.values())

    def test_alternating_input(self):
        net = Network()
        net.add_input("a")
        net.add_gate("o", GateType.NOT, ["a"])
        net.set_output("o")
        words = {"a": 0b0101010101}
        tr = simulate_transitions(net, words, 10)
        assert tr["o"] == 9

    def test_verify_equivalence_positive(self):
        a = ripple_carry_adder(3)
        b = ripple_carry_adder(3)
        assert verify_equivalence(a, b, 128)

    def test_verify_equivalence_negative(self):
        a = ripple_carry_adder(2)
        b = ripple_carry_adder(2)
        # Corrupt one gate.
        b.set_function("s0", GateType.XNOR)
        assert not verify_equivalence(a, b, 128)

    def test_verify_different_inputs_raises(self):
        a = ripple_carry_adder(2)
        b = ripple_carry_adder(3)
        with pytest.raises(ValueError):
            verify_equivalence(a, b)

    def test_sequential_transitions_gated_latch(self):
        net = Network()
        net.add_inputs(["d", "en"])
        net.add_latch("d", "q", enable="en")
        net.add_gate("o", GateType.BUF, ["q"])
        net.set_output("o")
        seq = [{"d": k & 1, "en": 0} for k in range(10)]
        tr, _ = sequential_transitions(net, seq)
        assert tr["q"] == 0   # never enabled -> never toggles
        seq = [{"d": k & 1, "en": 1} for k in range(10)]
        tr, _ = sequential_transitions(net, seq)
        assert tr["q"] > 0


class TestEventDriven:
    def test_matches_functional_on_tree(self):
        """On a balanced tree with unit delays there are no glitches, so
        timed and zero-delay counts agree."""
        net = parity_tree(8, balanced=True)
        words = random_words(net.inputs, 64, seed=1)
        func = simulate_transitions(net, words, 64)
        timed = timed_transitions_from_words(net, words, 64)
        assert timed == func

    def test_chain_glitches(self):
        """An unbalanced XOR chain glitches: timed > functional."""
        net = parity_tree(8, balanced=False)
        words = random_words(net.inputs, 128, seed=2)
        func = simulate_transitions(net, words, 128)
        timed = timed_transitions_from_words(net, words, 128)
        assert sum(timed.values()) > sum(func.values())
        # Glitching never *reduces* transitions at any node.
        for name in func:
            assert timed[name] >= func[name]

    def test_final_values_correct(self):
        net = ripple_carry_adder(4)
        sim = EventSimulator(net)
        rng = random.Random(5)
        vec = {}
        for _ in range(20):
            a, b = rng.randrange(16), rng.randrange(16)
            vec = {f"a{i}": (a >> i) & 1 for i in range(4)}
            vec.update({f"b{i}": (b >> i) & 1 for i in range(4)})
            vec["cin"] = 0
            sim.settle(vec)
            s = sum(sim.values[f"s{i}"] << i for i in range(4))
            s += sim.values["c4"] << 4
            assert s == a + b

    def test_custom_delays(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("x", GateType.XOR, ["a", "b"])
        net.add_gate("slow", GateType.BUF, ["a"])
        net.add_gate("y", GateType.XOR, ["slow", "x"])
        net.set_output("y")
        # With matched delays (slow=1), y sees (a@1 xor x@1): glitchy
        # only through skew; with slow=2 the skew grows.
        words = words_from_vectors([{"a": 0, "b": 0}, {"a": 1, "b": 1},
                                    {"a": 0, "b": 0}])
        t1 = timed_transitions_from_words(net, words, 3,
                                          delays={"slow": 1.0})
        t2 = timed_transitions_from_words(net, words, 3,
                                          delays={"slow": 5.0})
        assert t2["y"] >= t1["y"]

    def test_settling_time_reported(self):
        net = parity_tree(4, balanced=False)
        sim = EventSimulator(net)
        sim.settle({f"i{k}": 0 for k in range(4)})
        t = sim.settle({f"i{k}": 1 for k in range(4)})
        assert t >= 1.0
