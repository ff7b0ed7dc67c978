"""Unit tests for repro.logic.transform."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.gates import GateType
from repro.logic.generators import (alu_slice, array_multiplier,
                                    random_logic, ripple_carry_adder)
from repro.logic.netlist import NetlistError, Network
from repro.logic.transform import (collapse_buffers,
                                   decompose_to_primitives, gate_cover,
                                   node_cover, propagate_constants,
                                   to_sop_network)
from repro.sim.functional import verify_equivalence


class TestGateCover:
    @pytest.mark.parametrize("gtype,n", [
        (GateType.AND, 2), (GateType.AND, 3), (GateType.OR, 2),
        (GateType.NAND, 2), (GateType.NOR, 3), (GateType.XOR, 2),
        (GateType.XOR, 3), (GateType.XNOR, 2), (GateType.NOT, 1),
        (GateType.BUF, 1), (GateType.MUX, 3), (GateType.MAJ, 3),
    ])
    def test_cover_matches_gate(self, gtype, n):
        from repro.logic.gates import eval_gate

        cover = gate_cover(gtype, n)
        for m in range(1 << n):
            ins = [(m >> i) & 1 for i in range(n)]
            assert cover.evaluate(m) == bool(eval_gate(gtype, ins, 1))

    def test_const_covers(self):
        assert gate_cover(GateType.CONST0, 0).is_empty()
        assert gate_cover(GateType.CONST1, 0).is_tautology()


class TestToSop:
    def test_equivalent(self):
        net = ripple_carry_adder(3)
        sop = to_sop_network(net)
        assert verify_equivalence(net, sop, 256)
        assert all(n.kind != "gate" or not n.fanins
                   for n in sop.nodes.values() if not n.is_source())


class TestDecompose:
    def test_adder(self):
        net = ripple_carry_adder(3)
        prim = decompose_to_primitives(net)
        assert verify_equivalence(net, prim, 256)
        for node in prim.nodes.values():
            if node.is_source():
                continue
            assert node.kind == "gate"
            assert len(node.fanins) <= 2

    def test_alu_with_const(self):
        net = alu_slice(3)
        prim = decompose_to_primitives(net)
        assert verify_equivalence(net, prim, 256)


def _reference_collapse_buffers(net):
    """``collapse_buffers`` as a rescan to a fixpoint: each round
    redirects every reader of each non-output BUF to its fanin and
    removes it."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for name in list(net.nodes):
            node = net.nodes.get(name)
            if node is None or node.kind != "gate" or \
                    node.gtype is not GateType.BUF:
                continue
            if name in net.outputs:
                continue
            src = node.fanins[0]
            net.replace_everywhere(name, src)
            net.remove_node(name)
            removed += 1
            changed = True
    return removed


def _buffered_case(seed, gates, bufs):
    """``random_logic`` with BUF chains on random fanin slots, BUFs
    reading BUFs, BUF outputs (kept, with removable BUFs behind them)
    and BUFs on latch data and enable pins."""
    rng = random.Random(seed)
    net = random_logic(4, gates, seed)
    for i in range(bufs):
        readers = [n for n, node in net.nodes.items()
                   if node.kind == "gate" and node.fanins]
        reader = rng.choice(readers)
        net.insert_buffer(reader, rng.choice(net.nodes[reader].fanins),
                          f"b{i}")
        if rng.random() < 0.15:
            net.set_output(f"b{i}")
    names = list(net.nodes)
    for i in range(rng.randint(0, 2)):
        data = net.add_gate(f"ld{i}", GateType.BUF, [rng.choice(names)])
        enable = rng.choice([None, rng.choice(names)])
        if enable is not None and rng.random() < 0.5:
            enable = net.add_gate(f"le{i}", GateType.BUF, [enable])
        net.add_latch(data, f"q{i}", enable=enable)
    return net


def _structure(net):
    return ([(n, node.kind, node.fanins) for n, node in net.nodes.items()],
            [(l.data, l.output, l.enable) for l in net.latches],
            list(net.outputs))


class TestCollapseBuffersDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 30), st.integers(0, 25))
    def test_matches_reference(self, seed, gates, bufs):
        net = _buffered_case(seed, gates, bufs)
        ref = net.copy()
        assert collapse_buffers(net) == _reference_collapse_buffers(ref)
        assert _structure(net) == _structure(ref)

    @pytest.mark.parametrize("decomposition", ["balanced", "power"])
    def test_matches_reference_on_mult8_subject(self, decomposition):
        net = decompose_to_primitives(array_multiplier(8),
                                      decomposition=decomposition)
        ref = net.copy()
        removed = collapse_buffers(net)
        assert removed == _reference_collapse_buffers(ref) > 0
        assert _structure(net) == _structure(ref)

    def test_buffer_cycle_rejected(self):
        net = Network()
        net.add_input("a")
        net.add_gate("b1", GateType.BUF, ["b2"])
        net.add_gate("b2", GateType.BUF, ["b1"])
        net.add_gate("g", GateType.AND, ["a", "b1"])
        net.set_output("g")
        with pytest.raises(NetlistError):
            collapse_buffers(net)


class TestCollapseBuffers:
    def test_removes_buffers(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("buf", GateType.BUF, ["a"])
        net.add_gate("g", GateType.AND, ["buf", "b"])
        net.set_output("g")
        removed = collapse_buffers(net)
        assert removed == 1
        assert net.nodes["g"].fanins == ("a", "b")

    def test_keeps_output_buffers(self):
        net = Network()
        net.add_input("a")
        net.add_gate("o", GateType.BUF, ["a"])
        net.set_output("o")
        assert collapse_buffers(net) == 0
        assert "o" in net.nodes

    def test_buffer_chain(self):
        net = Network()
        net.add_input("a")
        net.add_gate("b1", GateType.BUF, ["a"])
        net.add_gate("b2", GateType.BUF, ["b1"])
        net.add_gate("g", GateType.NOT, ["b2"])
        net.set_output("g")
        assert collapse_buffers(net) == 2
        assert net.nodes["g"].fanins == ("a",)


class TestPropagateConstants:
    def test_and_with_zero(self):
        net = Network()
        net.add_input("a")
        net.add_gate("z", GateType.CONST0, [])
        net.add_gate("g", GateType.AND, ["a", "z"])
        net.set_output("g")
        changed = propagate_constants(net)
        assert changed >= 1
        assert net.nodes["g"].gtype is GateType.CONST0
        assert net.evaluate({"a": 1})["g"] == 0

    def test_and_with_one(self):
        net = Network()
        net.add_input("a")
        net.add_gate("one", GateType.CONST1, [])
        net.add_gate("g", GateType.AND, ["a", "one"])
        net.set_output("g")
        propagate_constants(net)
        assert net.evaluate({"a": 1})["g"] == 1
        assert net.evaluate({"a": 0})["g"] == 0
        # g should now depend on a alone
        assert net.nodes["g"].fanins == ("a",)

    def test_cascading(self):
        net = Network()
        net.add_input("a")
        net.add_gate("one", GateType.CONST1, [])
        net.add_gate("x", GateType.NOT, ["one"])      # -> const0
        net.add_gate("g", GateType.OR, ["a", "x"])    # -> a
        net.set_output("g")
        propagate_constants(net)
        assert net.evaluate({"a": 0})["g"] == 0
        assert net.evaluate({"a": 1})["g"] == 1


class TestNodeCover:
    def test_on_source_raises(self):
        net = Network()
        net.add_input("a")
        with pytest.raises(ValueError):
            node_cover(net.nodes["a"])
