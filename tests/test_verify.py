"""Tests for the formal equivalence checker — and formal verification
of the sequential optimizations themselves."""

import pytest

from repro.logic.gates import GateType
from repro.logic.generators import comparator, ripple_carry_adder
from repro.logic.netlist import Network
from repro.opt.seq.encoding import encode_anneal, encode_natural
from repro.opt.seq.fsm_benchmarks import load_benchmark
from repro.opt.seq.gated_clock import self_loop_clock_gating
from repro.opt.seq.precompute import precomputed_comparator
from repro.opt.seq.stg import synthesize_fsm
from repro.verify import sequential_equivalent, verify_equivalence_exact


class TestCombinational:
    def test_positive(self):
        assert verify_equivalence_exact(ripple_carry_adder(3),
                                        ripple_carry_adder(3))

    def test_negative(self):
        a = ripple_carry_adder(2)
        b = ripple_carry_adder(2)
        b.set_function("s0", GateType.XNOR)
        assert not verify_equivalence_exact(a, b)


class TestSequentialChecker:
    def simple_counter(self, init=0):
        net = Network()
        net.add_input("en")
        net.add_gate("nq", GateType.XOR, ["q", "en"])
        net.add_latch("nq", "q", init=init)
        net.add_gate("o", GateType.BUF, ["q"])
        net.set_output("o")
        return net

    def test_identical_machines(self):
        res = sequential_equivalent(self.simple_counter(),
                                    self.simple_counter())
        assert res.equivalent
        assert res.joint_states_explored >= 1

    def test_different_init_detected(self):
        res = sequential_equivalent(self.simple_counter(0),
                                    self.simple_counter(1))
        assert not res.equivalent
        assert res.counterexample is not None

    def test_different_function_detected(self):
        a = self.simple_counter()
        b = self.simple_counter()
        b.set_function("nq", GateType.XNOR)
        res = sequential_equivalent(a, b)
        assert not res.equivalent
        # Counterexample names the differing output pair.
        assert res.counterexample["output"] == ("o", "o")

    def test_reordered_outputs_matched_by_name(self):
        stg = load_benchmark("traffic")
        a = synthesize_fsm(stg, encode_natural(stg))
        b = a.copy()
        b.outputs.reverse()
        assert a.outputs != b.outputs
        assert sequential_equivalent(a, b).equivalent
        b.set_function(b.outputs[0],
                       b.nodes[b.outputs[0]].cover.complement())
        res = sequential_equivalent(a, b)
        assert not res.equivalent
        assert res.counterexample["output"] == (b.outputs[0],
                                                b.outputs[0])

    def test_different_inputs_rejected(self):
        a = self.simple_counter()
        b = Network()
        b.add_input("x")
        b.add_latch("x", "q")
        b.set_output("q")
        with pytest.raises(ValueError):
            sequential_equivalent(a, b)

    def test_state_budget(self):
        net = Network()
        net.add_input("d")
        prev = "d"
        for k in range(10):
            net.add_latch(prev, f"q{k}")
            prev = f"q{k}"
        net.set_output(prev)
        with pytest.raises(RuntimeError):
            sequential_equivalent(net, net.copy(), max_joint_states=8)

    def test_state_mismatch_with_equal_behaviour(self):
        """A re-encoded machine is equivalent despite different state
        bits (the product check only compares outputs)."""
        stg = load_benchmark("detector")
        base = synthesize_fsm(stg, encode_natural(stg),
                              name="fsm_nat")
        ann = synthesize_fsm(stg, encode_anneal(stg, iterations=1500),
                             name="fsm_ann")
        res = sequential_equivalent(base, ann)
        assert res.equivalent


class TestFormalVerificationOfOptimizations:
    def test_clock_gating_formally_verified(self):
        stg = load_benchmark("vending")
        gate = self_loop_clock_gating(stg, encode_natural(stg))
        res = sequential_equivalent(gate.baseline, gate.network)
        assert res.equivalent

    def test_precompute_formally_verified(self):
        pre = precomputed_comparator(3)
        res = sequential_equivalent(pre.baseline, pre.network)
        assert res.equivalent

    def test_shared_fsm_formally_verified(self):
        from repro.opt.logic.share import share_product_terms

        stg = load_benchmark("detector")
        base = synthesize_fsm(stg, encode_natural(stg), minimize=False)
        shared = base.copy()
        share_product_terms(shared)
        res = sequential_equivalent(base, shared)
        assert res.equivalent

    def test_broken_gating_caught(self):
        """Sabotage the enable cover: the checker must find the bug."""
        stg = load_benchmark("vending")
        gate = self_loop_clock_gating(stg, encode_natural(stg))
        bad = gate.network
        # Invert the enable: latches load exactly when they must hold.
        bad.set_function("_fa_n", bad.nodes["_fa_n"].cover.complement())
        res = sequential_equivalent(gate.baseline, bad)
        assert not res.equivalent
