"""Compiled evaluator (repro.sim.compiled): bit-exactness, cache
invalidation/repatching, incremental re-simulation, and regressions for
the equivalence-matching / stimulus-generation / activity-denominator
bugs fixed alongside it."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.cube import Cube
from repro.logic.gates import GateType
from repro.logic.generators import (array_multiplier, counter, mux_tree,
                                    parity_tree, random_logic,
                                    ripple_carry_adder)
from repro.logic.netlist import NetlistError, Network
from repro.logic.sop import Cover
from repro.opt.seq.encoding import encode_natural
from repro.opt.seq.fsm_benchmarks import benchmark_names, load_benchmark
from repro.opt.seq.gated_clock import self_loop_clock_gating
from repro.power.activity import (SimulationCache,
                                  activity_from_simulation,
                                  sequential_activity)
from repro.sim.compiled import (compile_network, get_compiled,
                                structural_fingerprint)
from repro.sim.functional import verify_equivalence, verify_equivalence_exact
from repro.sim.vectors import random_bus_stream, random_words

VECTORS = 256


def _sim_both(net, vectors=VECTORS, seed=3):
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    words = random_words(sources, vectors, seed)
    mask = (1 << vectors) - 1
    return net.evaluate_words(words, mask), \
        get_compiled(net).evaluate_words(words, mask), words, mask


# -- bit-exactness -----------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: ripple_carry_adder(8),
    lambda: array_multiplier(4),
    lambda: parity_tree(9),
    lambda: mux_tree(3),
    lambda: random_logic(10, 60, seed=4),
    lambda: counter(5),                      # latches exercised
])
def test_compiled_matches_interpreted(make):
    net = make()
    interp, compiled, _w, _m = _sim_both(net)
    assert interp == compiled


def test_compiled_matches_interpreted_with_state_words():
    net = counter(4)
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    words = random_words(sources, 64, 1)
    state = {la.output: random_words([la.output], 64, 7)[la.output]
             for la in net.latches}
    mask = (1 << 64) - 1
    assert net.evaluate_words(words, mask, state) == \
        get_compiled(net).evaluate_words(words, mask, state)


def test_compiled_missing_input_raises_like_interpreter():
    net = ripple_carry_adder(2)
    with pytest.raises(NetlistError, match="missing input value"):
        get_compiled(net).evaluate_words({"a0": 1}, 1)


# -- clocked step ------------------------------------------------------------


def _reference_step(net, state, words, mask):
    """Interpreted evaluation plus the latch-enable rule: where an
    enable bit is 0 the latch keeps its old bit (init if unset)."""
    values = net.evaluate_words(words, mask, state)
    nxt = {}
    for la in net.latches:
        new = values[la.data]
        if la.enable is not None:
            en = values[la.enable]
            old = state.get(la.output, mask if la.init else 0)
            new = (new & en) | (old & ~en & mask)
        nxt[la.output] = new
    return nxt, values


@functools.lru_cache(maxsize=None)
def _sequential_nets():
    """A counter and each bundled FSM synthesized without latch
    enables, plus each FSM clock-gated (every latch enabled).  The FSM
    reset state takes the highest code, so latch inits of 1 occur."""
    nets = [counter(4)]
    for name in benchmark_names():
        stg = load_benchmark(name)
        enc = encode_natural(stg)
        top = max(enc, key=enc.get)
        enc[top], enc[stg.reset_state] = enc[stg.reset_state], enc[top]
        gated = self_loop_clock_gating(stg, enc)
        nets += [gated.baseline, gated.network]
    return tuple(nets)


@given(index=st.integers(0, 100), seed=st.integers(0, 10 ** 6),
       lanes=st.integers(1, 64), cycles=st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_step_matches_reference_step(index, seed, lanes, cycles):
    nets = _sequential_nets()
    net = nets[index % len(nets)]
    rng = random.Random(seed)
    mask = (1 << lanes) - 1
    # A random subset of latches starts from given words, the rest
    # from their init values.
    state = {la.output: rng.getrandbits(lanes) for la in net.latches
             if rng.random() < 0.5}
    ref_state = dict(state)
    step = get_compiled(net).step
    for cycle in range(cycles):
        words = random_words(net.inputs, lanes, seed + cycle)
        state, values = step(state, words, mask)
        ref_state, ref_values = _reference_step(net, ref_state, words,
                                                mask)
        assert state == ref_state
        assert values == ref_values


# -- cache invalidation ------------------------------------------------------


def test_invalidate_hook_clears_cache():
    net = ripple_carry_adder(4)
    first = get_compiled(net)
    assert get_compiled(net) is first          # cache hit
    net.add_input("spare")                     # goes through _invalidate
    assert net._compiled is None
    assert get_compiled(net) is not first


def test_direct_cover_mutation_detected_by_fingerprint():
    # The dontcare optimizer assigns node.cover directly, bypassing
    # _invalidate; the fingerprint check must still catch it.
    net = Network("n")
    net.add_inputs(["a", "b"])
    net.add_sop("f", ["a", "b"],
                Cover(2, [Cube.from_literals(2, [(0, 1), (1, 1)])]))
    net.set_output("f")
    before = get_compiled(net)
    w = {"a": 0b0011, "b": 0b0101}
    assert before.evaluate_words(w, 0xF)["f"] == 0b0001  # a AND b
    net.nodes["f"].cover = Cover(2, [Cube.from_literals(2, [(0, 1)]),
                                     Cube.from_literals(2, [(1, 1)])])
    after = get_compiled(net)
    assert after is not before
    assert after.evaluate_words(w, 0xF)["f"] == 0b0111   # a OR b


def test_fingerprint_sensitive_to_fanin_order():
    net = Network("n")
    net.add_inputs(["a", "b"])
    net.add_sop("f", ["a", "b"],
                Cover(2, [Cube.from_literals(2, [(0, 1)])]))
    net.set_output("f")
    fp = structural_fingerprint(net)
    net.nodes["f"].fanins = ["b", "a"]
    assert structural_fingerprint(net) != fp


def test_repatch_on_function_only_edit():
    # Same topology, one gate's function changed: the new snapshot must
    # reuse the old slot layout but evaluate the new function.
    net = parity_tree(5)
    gate = next(n for n in net.gate_nodes()
                if n.gtype in (GateType.XOR, GateType.XNOR))
    before = get_compiled(net)
    gate.gtype = GateType.XNOR if gate.gtype is GateType.XOR \
        else GateType.XOR
    after = get_compiled(net)
    assert after is not before
    assert after.topo_key == before.topo_key
    interp, compiled, _w, _m = _sim_both(net)
    assert interp == compiled


def test_full_recompile_on_topology_edit():
    net = ripple_carry_adder(3)
    before = get_compiled(net)
    # Recompute to clear, then rewire: topology key must differ and the
    # rebuilt program must track the new structure.
    net.add_gate("extra", GateType.NOT, ["a0"])
    net.set_output("extra")
    after = get_compiled(net)
    assert after is not before
    assert after.topo_key != before.topo_key
    interp, compiled, _w, _m = _sim_both(net)
    assert interp == compiled


# -- incremental re-simulation ----------------------------------------------


def test_incremental_matches_full_after_edit():
    net = random_logic(8, 40, seed=11)
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    words = random_words(sources, VECTORS, 5)
    mask = (1 << VECTORS) - 1
    prev = get_compiled(net).evaluate_words(words, mask)
    gate = next(n for n in net.gate_nodes()
                if n.gtype in (GateType.AND, GateType.OR))
    gate.gtype = GateType.NAND if gate.gtype is GateType.AND \
        else GateType.NOR
    inc = get_compiled(net).evaluate_incremental(prev, [gate.name],
                                                 words, mask)
    full = get_compiled(net).evaluate_words(words, mask)
    assert inc == full
    assert inc != prev


def test_incremental_empty_dirty_is_identity():
    net = ripple_carry_adder(4)
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    words = random_words(sources, 32, 0)
    mask = (1 << 32) - 1
    prev = get_compiled(net).evaluate_words(words, mask)
    assert get_compiled(net).evaluate_incremental(prev, (), words,
                                                  mask) == prev


def test_incremental_treats_missing_nodes_as_dirty():
    net = random_logic(6, 20, seed=2)
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    words = random_words(sources, 64, 9)
    mask = (1 << 64) - 1
    full = get_compiled(net).evaluate_words(words, mask)
    partial = dict(full)
    victim = next(n.name for n in net.gate_nodes())
    del partial[victim]
    assert get_compiled(net).evaluate_incremental(partial, (), words,
                                                  mask) == full


# -- activity cache ----------------------------------------------------------


def test_activity_reuse_dirty_matches_fresh():
    net = random_logic(8, 40, seed=3)
    cache = SimulationCache()
    activity_from_simulation(net, 128, 1, reuse=cache)
    gate = next(n for n in net.gate_nodes()
                if n.gtype in (GateType.AND, GateType.OR,
                               GateType.NAND, GateType.NOR))
    gate.gtype = {GateType.AND: GateType.NAND,
                  GateType.NAND: GateType.AND,
                  GateType.OR: GateType.NOR,
                  GateType.NOR: GateType.OR}[gate.gtype]
    inc_act, inc_p = activity_from_simulation(net, 128, 1, reuse=cache,
                                              dirty=(gate.name,))
    fresh_act, fresh_p = activity_from_simulation(net, 128, 1)
    assert inc_act == fresh_act
    assert inc_p == fresh_p


def test_activity_cache_trial_commit_semantics():
    net = ripple_carry_adder(4)
    cache = SimulationCache()
    act0, _ = activity_from_simulation(net, 64, 0, reuse=cache)
    trial = cache.copy()
    trial.values["s0"] = ~trial.values["s0"]     # corrupt the trial only
    assert cache.values["s0"] != trial.values["s0"]
    committed = cache.copy()
    cache.adopt(trial)
    assert cache.values["s0"] == trial.values["s0"]
    cache.adopt(committed)
    act1, _ = activity_from_simulation(net, 64, 0, reuse=cache,
                                       dirty=())
    assert act1 == act0


def test_activity_cache_stimulus_change_forces_full_pass():
    net = ripple_carry_adder(4)
    cache = SimulationCache()
    activity_from_simulation(net, 64, 0, reuse=cache)
    act, _ = activity_from_simulation(net, 64, 1, reuse=cache, dirty=())
    fresh, _ = activity_from_simulation(net, 64, 1)
    assert act == fresh


# -- satellite regressions ---------------------------------------------------


def test_activity_single_vector_no_zero_division():
    net = ripple_carry_adder(2)
    act, prob = activity_from_simulation(net, num_vectors=1, seed=0)
    assert all(v == 0.0 for v in act.values())
    assert all(0.0 <= p <= 1.0 for p in prob.values())
    act0, prob0 = activity_from_simulation(net, num_vectors=0, seed=0)
    assert all(v == 0.0 for v in act0.values())
    assert all(p == 0.0 for p in prob0.values())


def test_sequential_activity_short_sequences():
    net = counter(3)
    assert sequential_activity(net, []) == \
        {name: 0.0 for name in net.nodes}
    one = sequential_activity(net, [{name: 0 for name in net.inputs}])
    assert set(one) == set(net.nodes)
    assert all(v == 0.0 for v in one.values())


def test_random_bus_stream_count_zero():
    assert random_bus_stream(8, 0) == []
    assert random_bus_stream(8, -3) == []
    assert len(random_bus_stream(8, 1)) == 1
    for count in (1, 2, 17):
        assert len(random_bus_stream(8, count, seed=5,
                                     correlation=0.4)) == count


def test_equivalence_matches_outputs_by_name():
    a = ripple_carry_adder(3)
    b = ripple_carry_adder(3)
    b.outputs = list(reversed(b.outputs))      # same functions, reordered
    assert verify_equivalence(a, b)
    assert verify_equivalence_exact(a, b)


def test_equivalence_still_catches_real_differences():
    a = ripple_carry_adder(3)
    b = ripple_carry_adder(3)
    b.outputs = list(reversed(b.outputs))
    sum_gate = b.nodes["s0"]
    sum_gate.gtype = GateType.XNOR             # corrupt one output
    b._invalidate()
    assert not verify_equivalence(a, b)
    assert not verify_equivalence_exact(a, b)


def test_equivalence_positional_fallback_for_distinct_names():
    a = Network("a")
    a.add_inputs(["x", "y"])
    a.add_gate("f", GateType.AND, ["x", "y"])
    a.set_output("f")
    b = Network("b")
    b.add_inputs(["x", "y"])
    b.add_gate("g", GateType.AND, ["x", "y"])
    b.set_output("g")
    assert verify_equivalence(a, b)
    assert verify_equivalence_exact(a, b)
    c = Network("c")
    c.add_inputs(["x", "y"])
    c.add_gate("h", GateType.OR, ["x", "y"])
    c.set_output("h")
    assert not verify_equivalence(a, c)
    assert not verify_equivalence_exact(a, c)


def test_compile_network_is_uncached_snapshot():
    net = ripple_carry_adder(2)
    a = compile_network(net)
    b = compile_network(net)
    assert a is not b
    assert a.fingerprint == b.fingerprint == structural_fingerprint(net)
