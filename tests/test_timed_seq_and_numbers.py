"""Tests for clocked timed simulation, number representation activity,
and straight-line program prediction."""

import random

import pytest

from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.opt.datapath.number_repr import (representation_comparison,
                                            sine_stream,
                                            stream_transitions,
                                            to_sign_magnitude,
                                            to_twos_complement)
from repro.sim.functional import sequential_transitions
from repro.sim.timed import timed_sequential_transitions


def glitchy_then_quiet(reg_after_chain: bool) -> Network:
    """XOR cascade into an AND funnel with one pipeline register whose
    position is the experiment variable."""
    net = Network()
    ins = net.add_inputs([f"i{k}" for k in range(6)])
    x = ins[0]
    for k in range(1, 4):
        x = net.add_gate(f"x{k}", GateType.XOR, [x, ins[k]])
    if reg_after_chain:
        net.add_latch(x, "q")
        x = "q"
    a = net.add_gate("a1", GateType.AND, [x, ins[4]])
    a = net.add_gate("a2", GateType.AND, [a, ins[5]])
    if reg_after_chain:
        net.set_output(a)
    else:
        net.add_latch(a, "q")
        out = net.add_gate("ob", GateType.BUF, ["q"])
        net.set_output(out)
    return net


class TestTimedSequential:
    def drive(self, count=300, seed=0):
        rng = random.Random(seed)
        return [{f"i{k}": rng.getrandbits(1) for k in range(6)}
                for _ in range(count)]

    def test_timed_dominates_functional(self):
        net = glitchy_then_quiet(False)
        vecs = self.drive()
        timed = timed_sequential_transitions(net, vecs)
        func, _ = sequential_transitions(net, vecs)
        for name in func:
            assert timed[name] >= func[name], name

    def test_registers_filter_glitches(self):
        """The [29] mechanism: a register placed after the glitchy
        cascade stops glitches from reaching the downstream logic."""
        vecs = self.drive(400, seed=1)

        def downstream_glitches(net):
            timed = timed_sequential_transitions(net, vecs)
            func, _ = sequential_transitions(net, vecs)
            return sum(timed[n] - func[n] for n in ("a1", "a2"))

        filtered = downstream_glitches(glitchy_then_quiet(True))
        unfiltered = downstream_glitches(glitchy_then_quiet(False))
        assert filtered < unfiltered / 2

    def test_latch_output_at_most_one_transition_per_cycle(self):
        net = glitchy_then_quiet(True)
        vecs = self.drive(250, seed=2)
        timed = timed_sequential_transitions(net, vecs)
        assert timed["q"] <= len(vecs) - 1

    def test_enable_respected(self):
        net = Network()
        net.add_inputs(["d", "en"])
        net.add_latch("d", "q", enable="en")
        net.add_gate("o", GateType.BUF, ["q"])
        net.set_output("o")
        vecs = [{"d": k & 1, "en": 0} for k in range(30)]
        timed = timed_sequential_transitions(net, vecs)
        assert timed["q"] == 0


class TestNumberRepresentation:
    def test_encodings(self):
        assert to_twos_complement(-1, 8) == 0xFF
        assert to_twos_complement(5, 8) == 5
        assert to_sign_magnitude(-5, 8) == 0x85
        assert to_sign_magnitude(5, 8) == 5

    def test_bad_representation(self):
        with pytest.raises(ValueError):
            stream_transitions([1, 2], 8, "gray")

    def test_sign_magnitude_wins_on_zero_crossing_signals(self):
        """Small, frequently-crossing signals pay heavy sign-extension
        flips in two's complement."""
        vals = sine_stream(4000, amplitude=30, period=40, seed=1)
        tc, sm, ratio = representation_comparison(vals, 16)
        assert sm < tc
        assert ratio < 0.9

    def test_no_advantage_without_crossings(self):
        vals = [100 + (k % 7) for k in range(2000)]   # always positive
        tc, sm, _ = representation_comparison(vals, 16)
        assert sm == tc   # identical encodings for non-negative values


class TestPredictProgram:
    def test_straight_line_prediction(self):
        from repro.sw.compile import linear_scan_allocate
        from repro.sw.cpu import CPU, dsp_profile
        from repro.sw.power_model import fit_instruction_model
        from repro.sw.programs import dot_product

        cpu = CPU(dsp_profile())
        model = fit_instruction_model(cpu, 60)
        prog, mem, _ = dot_product(4)
        prog = linear_scan_allocate(prog, 8)
        predicted = model.predict_program(prog)
        measured = cpu.run(prog, memory=dict(mem)).energy
        assert predicted == pytest.approx(measured, rel=0.05)

    def test_branches_rejected(self):
        from repro.sw.power_model import InstructionPowerModel
        from repro.sw.programs import linear_search

        model = InstructionPowerModel(base={}, overhead={})
        prog, _, _ = linear_search(8, 3)
        with pytest.raises(ValueError):
            model.predict_program(prog)
