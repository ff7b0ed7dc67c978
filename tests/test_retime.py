"""Unit tests for retiming."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.opt.seq.retime import (HOST_SINK, HOST_SRC, RetimingGraph,
                                  apply_retiming, low_power_retiming,
                                  min_period_retiming)
from repro.sim.functional import sequential_transitions
from repro.verify.equivalence import sequential_equivalent


def chain_then_register():
    """4-gate chain with two registers at the end: min period should
    drop from 4 to ~2 by spreading the registers."""
    net = Network("pipe")
    net.add_inputs(["a", "b", "c", "d"])
    net.add_gate("g1", GateType.XOR, ["a", "b"])
    net.add_gate("g2", GateType.XOR, ["g1", "c"])
    net.add_gate("g3", GateType.AND, ["g2", "d"])
    net.add_gate("g4", GateType.OR, ["g3", "a"])
    net.add_latch("g4", "q1")
    net.add_latch("q1", "q2")
    net.add_gate("o", GateType.BUF, ["q2"])
    net.set_output("o")
    return net


def run_streams(net, vecs):
    _, trace = sequential_transitions(net, vecs)
    return [t[net.outputs[0]] for t in trace]


class TestGraph:
    def test_edges_weights(self):
        net = chain_then_register()
        graph = RetimingGraph(net)
        w = {(e.tail, e.head): e.weight for e in graph.edges}
        assert w[("g1", "g2")] == 0
        assert w[("g4", "o")] == 2       # two latches traversed
        assert w[("o", HOST_SINK)] == 0

    def test_clock_period(self):
        graph = RetimingGraph(chain_then_register())
        assert graph.clock_period() == 4.0

    def test_no_path_through_host(self):
        """Splitting the host prevents fake PO->PI combinational paths."""
        graph = RetimingGraph(chain_then_register())
        srcs = {e.tail for e in graph.edges}
        assert HOST_SINK not in srcs

    def test_enable_latch_rejected(self):
        net = Network()
        net.add_inputs(["d", "en"])
        net.add_latch("d", "q", enable="en")
        net.add_gate("o", GateType.BUF, ["q"])
        net.set_output("o")
        with pytest.raises(ValueError):
            RetimingGraph(net)


class TestMinPeriod:
    def test_period_improves(self):
        graph = RetimingGraph(chain_then_register())
        period, r = min_period_retiming(graph)
        assert period < graph.clock_period()
        assert period == 2.0

    def test_retimed_network_equivalent(self):
        net = chain_then_register()
        graph = RetimingGraph(net)
        _, r = min_period_retiming(graph)
        net2 = apply_retiming(net, r)
        rng = random.Random(1)
        vecs = [{n: rng.getrandbits(1) for n in "abcd"}
                for _ in range(80)]
        s1 = run_streams(net, vecs)
        s2 = run_streams(net2, vecs)
        assert s1[6:] == s2[6:]          # identical after transient

    def test_io_latency_preserved(self):
        """HOST src/sink pinning keeps total path register count."""
        net = chain_then_register()
        graph = RetimingGraph(net)
        _, r = min_period_retiming(graph)
        assert r[HOST_SRC] == 0 and r[HOST_SINK] == 0

    def test_identity_retiming_roundtrip(self):
        net = chain_then_register()
        graph = RetimingGraph(net)
        r0 = {v: 0 for v in graph.vertices}
        net2 = apply_retiming(net, r0)
        rng = random.Random(2)
        vecs = [{n: rng.getrandbits(1) for n in "abcd"}
                for _ in range(40)]
        assert run_streams(net, vecs) == run_streams(net2, vecs)


    def test_identity_keeps_registers_with_different_inits(self):
        """Two latches on one signal with different initial values are
        two registers: sharing one chain per (signal, depth) merged them
        and started the machine in a state the original never has."""
        net = Network("twins")
        net.add_inputs(["a", "b"])
        net.add_gate("g", GateType.AND, ["a", "b"])
        net.add_latch("g", "q1", init=0)
        net.add_latch("g", "q2", init=1)
        net.add_gate("o", GateType.XOR, ["q1", "q2"])
        net.set_output("o")
        graph = RetimingGraph(net)
        net2 = apply_retiming(net, {v: 0 for v in graph.vertices})
        assert sorted(l.init for l in net2.latches) == [0, 1]
        assert sequential_equivalent(net, net2).equivalent

    def test_different_inits_behind_a_shared_register(self):
        """Registers deeper than the one where two chains part keep the
        value of their own chain's latch; the shared one stays shared."""
        net = Network("fork")
        net.add_inputs(["a", "b"])
        net.add_gate("g", GateType.OR, ["a", "b"])
        net.add_latch("g", "q1", init=1)
        net.add_latch("q1", "q2", init=0)
        net.add_latch("q1", "q3", init=1)
        net.add_gate("o", GateType.AND, ["q2", "q3"])
        net.add_gate("p", GateType.BUF, ["q1"])
        net.set_output("o")
        net.set_output("p")
        graph = RetimingGraph(net)
        net2 = apply_retiming(net, {v: 0 for v in graph.vertices})
        assert len(net2.latches) == 3
        assert sequential_equivalent(net, net2).equivalent


class TestLowPower:
    def test_respects_period(self):
        net = chain_then_register()
        graph = RetimingGraph(net)
        period, _ = min_period_retiming(graph)
        act = {"g1": 0.9, "g2": 0.8, "g3": 0.1, "g4": 0.1}
        r = low_power_retiming(graph, period, act)
        assert graph.clock_period(r) <= period

    def test_prefers_low_activity_edges(self):
        """At a relaxed period the registers should sit on the
        low-activity signals."""
        net = chain_then_register()
        graph = RetimingGraph(net)
        act = {"g1": 0.95, "g2": 0.95, "g3": 0.02, "g4": 0.02,
               "o": 0.02}
        r = low_power_retiming(graph, 4.0, act)
        cost = graph.register_cost(r, act)
        r0 = graph.feasible_retiming(4.0)
        assert cost <= graph.register_cost(r0, act) + 1e-9

    def test_infeasible_period_raises(self):
        graph = RetimingGraph(chain_then_register())
        with pytest.raises(ValueError):
            low_power_retiming(graph, 0.5, {})

    def test_functional_after_low_power_retiming(self):
        net = chain_then_register()
        graph = RetimingGraph(net)
        period, _ = min_period_retiming(graph)
        act = {"g1": 0.9, "g2": 0.8, "g3": 0.1, "g4": 0.1}
        r = low_power_retiming(graph, period, act)
        net2 = apply_retiming(net, r)
        rng = random.Random(3)
        vecs = [{n: rng.getrandbits(1) for n in "abcd"}
                for _ in range(80)]
        assert run_streams(net, vecs)[6:] == run_streams(net2, vecs)[6:]


def identity_retiming(net):
    return apply_retiming(net, {v: 0 for v in RetimingGraph(net).vertices})


@st.composite
def sequential_networks(draw):
    """A random sequential network whose latches start at 0 or 1.

    Each signal feeds at most one latch, so no two latches share a
    (root signal, depth) place that the retimed chains would merge.
    """
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    num_latches = draw(st.integers(1, 3))
    net = Network("seqnet")
    pool = net.add_inputs([f"i{k}" for k in range(draw(st.integers(1, 2)))])
    pool += [f"q{k}" for k in range(num_latches)]
    gates = []
    two_in = [GateType.AND, GateType.OR, GateType.NAND, GateType.XOR]
    for g in range(draw(st.integers(num_latches, 6))):
        gates.append(net.add_gate(f"g{g}", rng.choice(two_in),
                                  [rng.choice(pool), rng.choice(pool)]))
        pool.append(gates[-1])
    readable = list(gates)
    for k in range(num_latches):
        data = readable.pop(rng.randrange(len(readable)))
        net.add_latch(data, f"q{k}", init=draw(st.integers(0, 1)))
        readable.append(f"q{k}")
    net.set_outputs([gates[-1], f"q{num_latches - 1}"])
    net.check()
    return net


class TestInitialValues:
    def test_identity_keeps_init_one(self):
        """q = latch(a XOR q, init=1): a register that stays in place
        keeps its initial value."""
        net = Network("toggle")
        net.add_input("a")
        net.add_gate("g", GateType.XOR, ["a", "q"])
        net.add_latch("g", "q", init=1)
        net.set_output("q")
        retimed = identity_retiming(net)
        assert [l.init for l in retimed.latches] == [1]
        assert sequential_equivalent(net, retimed)

    def test_reader_of_a_signal_and_its_register(self):
        """A reader of both g and latch(g) has two edges from g, one
        per register depth; each keeps its own depth."""
        net = Network("edge")
        net.add_inputs(["a", "b"])
        net.add_gate("g", GateType.AND, ["a", "b"])
        net.add_latch("g", "q")
        net.add_gate("h", GateType.XOR, ["g", "q"])
        net.set_outputs(["h", "g", "q"])
        assert sequential_equivalent(net, identity_retiming(net))

    @given(sequential_networks())
    @settings(max_examples=40, deadline=None)
    def test_identity_retiming_is_equivalent(self, net):
        result = sequential_equivalent(net, identity_retiming(net))
        assert result, result.counterexample
