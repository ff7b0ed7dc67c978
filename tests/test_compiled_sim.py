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
from repro.power.activity import (activity_from_simulation,
                                  sequential_activity)
from repro.sim.compiled import (CompiledNetwork, compile_network,
                                get_compiled)
from repro.sim.event import EventSimulator
from repro.sim.functional import (sequential_transitions,
                                  verify_equivalence,
                                  verify_equivalence_exact)
from repro.sim.timed import timed_sequential_transitions
from repro.sim.vectors import random_bus_stream, random_words
from tests.test_opt_logic import latch_net

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
    assert net.evaluate_words(words | state, mask) == \
        get_compiled(net).evaluate_words(words | state, mask)


def test_compiled_missing_input_raises_like_interpreter():
    net = ripple_carry_adder(2)
    with pytest.raises(NetlistError, match="missing input value"):
        get_compiled(net).evaluate_words({"a0": 1}, 1)


# -- clocked step ------------------------------------------------------------


def _reference_step(net, state, words, mask):
    """Interpreted evaluation plus the latch-enable rule: where an
    enable bit is 0 the latch keeps its old bit (init if unset)."""
    values = net.evaluate_words(words | state, mask)
    nxt = {}
    for la in net.latches:
        new = values[la.data]
        if la.enable is not None:
            en = values[la.enable]
            old = state.get(la.output, mask if la.init else 0)
            new = (new & en) | (old & ~en & mask)
        nxt[la.output] = new
    return nxt, values


def _wide_sequential_net(seed=5):
    """Twelve inputs and random gates fed back through four latches,
    two of them clock-enabled: nearly every cycle of a random stimulus
    is a new (inputs, state) pattern."""
    rng = random.Random(seed)
    net = Network("wide_seq")
    pool = net.add_inputs([f"i{k}" for k in range(12)])
    pool += [f"q{j}" for j in range(4)]
    for g in range(24):
        gtype = rng.choice([GateType.AND, GateType.OR, GateType.XOR,
                            GateType.NAND])
        pool.append(net.add_gate(f"g{g}", gtype, rng.sample(pool, 2)))
    for j in range(4):
        net.add_latch(pool[-1 - j], f"q{j}", init=j & 1,
                      enable=pool[-5 - j] if j % 2 else None)
    net.set_output(pool[-1])
    return net


@functools.lru_cache(maxsize=None)
def _sequential_nets():
    """A counter, a wide random net whose clocked runs rarely repeat a
    state pattern, and each bundled FSM synthesized without latch
    enables, plus each FSM clock-gated (every latch enabled).  The FSM
    reset state takes the highest code, so latch inits of 1 occur."""
    nets = [counter(4), _wide_sequential_net()]
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
        state, values = step(words | state, mask)
        ref_state, ref_values = _reference_step(net, ref_state, words,
                                                mask)
        assert state == ref_state
        assert values == ref_values


# -- clocked trajectory ------------------------------------------------------


def _reference_sequential(net, vectors, initial_state=None):
    """Interpreted steps, one per vector, and transitions counted by
    comparing consecutive trace entries.  An input missing from a
    vector holds its last value (0 before the first)."""
    held = dict.fromkeys(net.inputs, 0)
    state = dict(initial_state or {})
    trace = []
    for vec in vectors:
        held.update((k, v & 1) for k, v in vec.items() if k in held)
        state, values = _reference_step(net, state, held, 1)
        trace.append(values)
    counts = dict.fromkeys(net.nodes, 0)
    for prev, cur in zip(trace, trace[1:]):
        for name in counts:
            counts[name] += prev[name] != cur[name]
    return counts, trace


def _random_vectors(net, rng, cycles, keep):
    """``cycles`` vectors; each input is present with probability
    ``keep`` (1.0 gives complete vectors)."""
    return [{name: rng.getrandbits(1) for name in net.inputs
             if rng.random() < keep} for _ in range(cycles)]


@given(index=st.integers(0, 100), seed=st.integers(0, 10 ** 6),
       cycles=st.integers(0, 40), keep=st.sampled_from([1.0, 0.7, 0.2]),
       with_state=st.booleans())
@settings(max_examples=80, deadline=None)
def test_sequential_transitions_match_reference(index, seed, cycles, keep,
                                                with_state):
    nets = _sequential_nets()
    net = nets[index % len(nets)]
    rng = random.Random(seed)
    vectors = _random_vectors(net, rng, cycles, keep)
    state = {la.output: rng.getrandbits(1) for la in net.latches
             if rng.random() < 0.5} if with_state else None
    counts, trace = sequential_transitions(net, vectors, state)
    want_counts, want_trace = _reference_sequential(net, vectors, state)
    assert trace == want_trace
    assert counts == want_counts
    # Bit k of each source's word, and of each node's word under the
    # trace, is its value in cycle k.
    words = get_compiled(net).run(vectors, state)
    assert set(words) == {n.name for n in net.nodes.values()
                          if n.is_source()}
    assert set(trace.words) == set(net.nodes)
    for name, word in [*words.items(), *trace.words.items()]:
        assert word == sum(values[name] << k
                           for k, values in enumerate(want_trace))


def test_run_clocks_each_distinct_pattern_once(monkeypatch):
    """The walk evaluates the network once per distinct (inputs,
    state) pattern it meets, then once word-parallel for every node;
    a step per cycle would make 1,500 calls plus one."""
    stg = load_benchmark("traffic")
    net = self_loop_clock_gating(stg, encode_natural(stg)).network
    vectors = [{f"x{i}": (v >> i) & 1 for i in range(stg.num_inputs)}
               for v in stg.random_input_sequence(1500, 0)]
    _counts, want_trace = _reference_sequential(net, vectors)
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    patterns = {tuple(values[s] for s in sources) for values in want_trace}
    calls = []
    real = CompiledNetwork.evaluate_slots

    def counting(self, words, mask):
        calls.append(mask)
        return real(self, words, mask)

    monkeypatch.setattr(CompiledNetwork, "evaluate_slots", counting)
    _counts, trace = sequential_transitions(net, vectors)
    assert trace == want_trace
    assert len(calls) <= len(patterns) + 1 < 100
    assert calls.count((1 << 1500) - 1) == 1


def test_word_trace_is_a_sequence_view():
    net = counter(3)
    vectors = [{"en": b} for b in (1, 1, 0, 1, 1)]
    _counts, trace = sequential_transitions(net, vectors)
    _want_counts, want = _reference_sequential(net, vectors)
    assert len(trace) == 5 and list(trace) == want and want == trace
    assert trace[-1] == want[4] and trace[1:4] == want[1:4]
    assert trace[::2] == want[::2] and trace != want[:4]
    with pytest.raises(IndexError):
        trace[5]
    with pytest.raises(TypeError):
        trace[0] = {}
    _counts, empty = sequential_transitions(net, [])
    assert len(empty) == 0 and not empty and empty == []


@given(index=st.integers(0, 100), seed=st.integers(0, 10 ** 6),
       cycles=st.integers(2, 30), keep=st.sampled_from([0.7, 0.3]))
@settings(max_examples=30, deadline=None)
def test_timed_minus_zero_delay_is_even_glitch_count(index, seed, cycles,
                                                     keep):
    nets = _sequential_nets()
    net = nets[index % len(nets)]
    vectors = _random_vectors(net, random.Random(seed), cycles, keep)
    zero, _trace = sequential_transitions(net, vectors)
    for engine, timed in (
            ("compiled", timed_sequential_transitions(net, vectors)),
            ("event", EventSimulator(net).run_sequential(vectors))):
        for name, count in zero.items():
            extra = timed[name] - count
            assert extra >= 0 and extra % 2 == 0, (engine, name)


# -- cache invalidation ------------------------------------------------------


def test_invalidate_hook_clears_cache():
    net = ripple_carry_adder(4)
    first = get_compiled(net)
    assert get_compiled(net) is first          # cache hit
    net.add_input("spare")                     # a structural edit
    assert net._compiled is None
    assert get_compiled(net) is not first


def test_set_function_relowers_cover():
    # A function edit keeps the slot layout and re-lowers the kernel.
    net = Network("n")
    net.add_inputs(["a", "b"])
    net.add_sop("f", ["a", "b"],
                Cover(2, [Cube.from_literals(2, [(0, 1), (1, 1)])]))
    net.set_output("f")
    before = get_compiled(net)
    w = {"a": 0b0011, "b": 0b0101}
    assert before.evaluate_words(w, 0xF)["f"] == 0b0001  # a AND b
    net.set_function("f", Cover(2, [Cube.from_literals(2, [(0, 1)]),
                                    Cube.from_literals(2, [(1, 1)])]))
    after = get_compiled(net)
    assert after is not before and after.names is before.names
    assert after.evaluate_words(w, 0xF)["f"] == 0b0111   # a OR b
    assert before.evaluate_words(w, 0xF)["f"] == 0b0001  # a snapshot


def test_fanin_reorder_recompiles():
    net = Network("n")
    net.add_inputs(["a", "b"])
    net.add_sop("f", ["a", "b"],
                Cover(2, [Cube.from_literals(2, [(0, 1)])]))
    net.set_output("f")
    w = {"a": 0b0011, "b": 0b0101}
    assert get_compiled(net).evaluate_words(w, 0xF)["f"] == 0b0011
    net.set_fanins("f", ["b", "a"])
    assert get_compiled(net).evaluate_words(w, 0xF)["f"] == 0b0101


def test_repatch_on_function_only_edit():
    # Same topology, one gate's function changed: the new snapshot must
    # reuse the old slot layout but evaluate the new function.
    net = parity_tree(5)
    gate = next(n for n in net.gate_nodes()
                if n.gtype in (GateType.XOR, GateType.XNOR))
    before = get_compiled(net)
    net.set_function(gate.name, GateType.XNOR
                     if gate.gtype is GateType.XOR else GateType.XOR)
    after = get_compiled(net)
    assert after is not before
    assert after.slot_of is before.slot_of
    relowered = [op[0] for op, old in zip(after.ops, before.ops)
                 if op[2] is not old[2]]
    assert relowered == [before.slot_of[gate.name]]
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
    assert after.slot_of is not before.slot_of
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
    net.set_function(gate.name, GateType.NAND
                     if gate.gtype is GateType.AND else GateType.NOR)
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
    activity_from_simulation(net, 128, 1)
    gate = next(n for n in net.gate_nodes()
                if n.gtype in (GateType.AND, GateType.OR,
                               GateType.NAND, GateType.NOR))
    net.set_function(gate.name, {GateType.AND: GateType.NAND,
                                 GateType.NAND: GateType.AND,
                                 GateType.OR: GateType.NOR,
                                 GateType.NOR: GateType.OR}[gate.gtype])
    inc_act, inc_p = activity_from_simulation(net, 128, 1)
    fresh_act, fresh_p = activity_from_simulation(net.copy(), 128, 1)
    assert inc_act == fresh_act
    assert inc_p == fresh_p


def test_activity_cache_stimulus_change_forces_full_pass():
    net = ripple_carry_adder(4)
    activity_from_simulation(net, 64, 0)
    net.set_function("s0", GateType.XNOR)
    act, _ = activity_from_simulation(net, 64, 1)
    fresh, _ = activity_from_simulation(net.copy(), 64, 1)
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


def test_activity_drives_latch_outputs_as_sources():
    """Latch outputs are pseudo-inputs of probability 0.5: each reads
    its random word, not its init value (P(q) and P(q2) read 0.0 when
    the evaluator took latch words only from a separate state map)."""
    net = latch_net()
    act, prob = activity_from_simulation(net, 256, 0)
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    want = net.evaluate_words(random_words(sources, 256, 0),
                              (1 << 256) - 1)
    assert 0.4 < prob["q"] < 0.6 and 0.4 < prob["q2"] < 0.6
    assert prob == {name: w.bit_count() / 256 for name, w in want.items()}
    assert act == {name: ((w ^ (w >> 1)) & ((1 << 255) - 1)).bit_count()
                   / 255 for name, w in want.items()}


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
    b.set_outputs(reversed(b.outputs))      # same functions, reordered
    assert verify_equivalence(a, b)
    assert verify_equivalence_exact(a, b)


def test_equivalence_still_catches_real_differences():
    a = ripple_carry_adder(3)
    b = ripple_carry_adder(3)
    b.set_outputs(reversed(b.outputs))
    b.set_function("s0", GateType.XNOR)        # corrupt one output
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
    assert a is not b and a is not get_compiled(net)
    assert a.names == b.names and a.slot_of == b.slot_of
