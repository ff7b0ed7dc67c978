"""The compiled word-parallel timed engine (``repro.sim.timed``) must
be bit-identical, per node, to the event-driven oracle — on random
combinational networks, under non-uniform float delays (including
zero-delay delta cycles), and in clocked-sequential mode with latch
enables — and its cached program must never go stale."""

import heapq
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import check_invariants
from repro.logic.gates import GateType
from repro.logic.generators import ripple_carry_adder
from repro.logic.netlist import Network
from repro.power.activity import transition_activity
from repro.power.glitch import glitch_report, timed_average_power
from repro.power.model import power_report
from repro.sim.compiled import CompiledNetwork
from repro.sim.event import EventSimulator
from repro.sim.timed import (get_timed, timed_sequential_transitions,
                             timed_transitions_from_words)
from repro.sim.vectors import random_words, vectors_from_words

SETTINGS = settings(max_examples=25, deadline=None)

TWO_IN = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
          GateType.XOR, GateType.XNOR]


def _random_comb(seed, num_inputs, num_gates):
    rng = random.Random(seed)
    net = Network(f"t{seed}")
    pool = net.add_inputs([f"i{k}" for k in range(num_inputs)])
    for g in range(num_gates):
        r = rng.random()
        if r < 0.2:
            gt = rng.choice([GateType.NOT, GateType.BUF])
            fins = [rng.choice(pool)]
        else:
            gt = rng.choice(TWO_IN)
            fins = [rng.choice(pool), rng.choice(pool)]
        pool.append(net.add_gate(f"g{g}", gt, fins))
    net.set_output(pool[-1])
    return net


def _stimulus(net, count, seed):
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    return random_words(sources, count, seed)


def _assert_matches_oracle(net, words, count, delays=None):
    """The library engine's counts equal the event-driven oracle's on
    the same words."""
    assert timed_transitions_from_words(net, words, count,
                                        delays=delays) == \
        EventSimulator(net, delays).run(vectors_from_words(words, count))


#: stimulus lengths around the old 64-lane word boundary: empty, a
#: single vector (no transition), one transition, and 63 / 64 / 65 /
#: 128 transitions
BOUNDARY_COUNTS = (0, 1, 2, 64, 65, 66, 129)


def boundary_examples(test):
    """Pin one case per ``BOUNDARY_COUNTS`` stimulus length."""
    for k, count in enumerate(BOUNDARY_COUNTS):
        test = example(seed=1000 + k, num_inputs=4, num_gates=12,
                       count=count)(test)
    return test


COMB_ARGS = dict(seed=st.integers(0, 10 ** 6),
                 num_inputs=st.integers(2, 5),
                 num_gates=st.integers(1, 14),
                 count=st.integers(0, 200))


@given(**COMB_ARGS)
@boundary_examples
@SETTINGS
def test_timed_matches_oracle_unit_delays(seed, num_inputs, num_gates,
                                          count):
    net = _random_comb(seed, num_inputs, num_gates)
    _assert_matches_oracle(net, _stimulus(net, count, seed + 1), count)


@given(**COMB_ARGS)
@boundary_examples
@SETTINGS
def test_timed_matches_oracle_float_delays(seed, num_inputs, num_gates,
                                           count):
    net = _random_comb(seed, num_inputs, num_gates)
    words = _stimulus(net, count, seed + 1)
    rng = random.Random(seed + 2)
    delays = {n.name: rng.choice([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.5])
              for n in net.nodes.values() if not n.is_source()}
    _assert_matches_oracle(net, words, count, delays)


def test_input_words_wider_than_stimulus():
    """Bits past ``count`` are ignored: the counts equal those of the
    masked words and the oracle's on the first ``count`` vectors."""
    net = _random_comb(41, 4, 14)
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    words = random_words(sources, 300, 5)
    prog = get_timed(net)
    wide = prog.transition_counts(words, 200)
    mask = (1 << 200) - 1
    assert wide == prog.transition_counts(
        {name: w & mask for name, w in words.items()}, 200)
    oracle = EventSimulator(net).run(vectors_from_words(words, 200))
    assert wide == oracle


def test_one_settle_pass_per_stimulus(monkeypatch):
    """The whole stimulus is one word: one zero-delay starting-state
    pass, however many transitions it holds."""
    net = _random_comb(43, 4, 14)
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    words = random_words(sources, 300, 6)
    prog = get_timed(net)
    calls = []
    real = CompiledNetwork.evaluate_slots

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CompiledNetwork, "evaluate_slots", counting)
    prog.transition_counts(words, 300)
    assert len(calls) == 1


#: delay families that put events on their own bucket's timestamp,
#: so the sorted sweep hands the bucket to the slot heap
DELTA_DELAYS = {
    # once a 1e17 delay is crossed, t + 1.0 == t
    "absorb": lambda rng: rng.choice([1e17, 1.0]),
    # zero-delay chains inside a unit-delay network
    "zero_chain": lambda rng: 0.0 if rng.random() < 0.4 else 1.0,
    # path-dependent float sums
    "tenths": lambda rng: rng.choice([0.1, 0.2]),
}


@given(seed=st.integers(0, 10 ** 6), num_inputs=st.integers(2, 5),
       num_gates=st.integers(1, 20), count=st.integers(2, 120),
       family=st.sampled_from(sorted(DELTA_DELAYS)))
@settings(max_examples=60, deadline=None)
def test_sweep_and_heap_fallback_match_oracle(seed, num_inputs,
                                              num_gates, count, family):
    net = _random_comb(seed, num_inputs, num_gates)
    rng = random.Random(seed + 3)
    delays = {n.name: DELTA_DELAYS[family](rng)
              for n in net.nodes.values() if not n.is_source()}
    _assert_matches_oracle(net, _stimulus(net, count, seed + 1), count,
                           delays)


def test_unit_delays_never_build_a_slot_heap(monkeypatch):
    """Under unit delays no event lands on its own bucket's timestamp,
    so every bucket is one sorted sweep; a zero delay needs the heap."""
    net = _random_comb(43, 4, 14)
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    words = random_words(sources, 300, 6)
    heaps = []
    real = heapq.heapify

    def counting(heap):
        heaps.append(len(heap))
        return real(heap)

    monkeypatch.setattr(heapq, "heapify", counting)
    get_timed(net).transition_counts(words, 300)
    assert heaps == []
    zero = {n.name: 0.0 for n in net.gate_nodes()}
    get_timed(net, zero).transition_counts(words, 300)
    assert heaps


def _assert_engines_reject(net, words, gate, delays=None):
    """Both timed engines raise naming ``gate`` instead of counting."""
    message = re.escape(f"delay of node {gate!r}")
    with pytest.raises(ValueError, match=message):
        timed_transitions_from_words(net, words, 16, delays=delays)
    with pytest.raises(ValueError, match=message):
        EventSimulator(net, delays).run(vectors_from_words(words, 16))


@pytest.mark.parametrize("bad", [
    math.nan, math.inf, -math.inf, -1.0, "slow", None, True,
    # convert to a float, but are no delay, as the linter has it
    "1.5", "2", pytest.param(Fraction(1, 3), id="Fraction"),
    pytest.param(Decimal("1"), id="Decimal")])
def test_malformed_delays_raise_in_both_engines(bad):
    """A delay map or ``attrs["delay"]`` value that is not a finite
    non-negative int or float is an error naming the node, not counts,
    and the linter's ``malformed-delay`` rule reports it."""
    net = ripple_carry_adder(4)
    words = _stimulus(net, 16, 0)
    gate = net.gate_nodes()[3].name
    _assert_engines_reject(net, words, gate, {gate: bad})
    net.nodes[gate].attrs["delay"] = bad
    _assert_engines_reject(net, words, gate)
    fired = [d for d in check_invariants(net)
             if d.rule == "malformed-delay"]
    assert [d.site for d in fired] == [gate]
    # A source's delay is 0.0 whatever the map says.
    assert timed_transitions_from_words(
        net, words, 16, delays={gate: 2.0, "a0": bad}) == \
        EventSimulator(net, {gate: 2.0}).run(vectors_from_words(words, 16))


def _random_seq(seed):
    """Two latch stages (random enables and inits) between random
    gate layers, with feedback through the latch outputs."""
    rng = random.Random(seed)
    net = Network(f"s{seed}")
    pool = net.add_inputs([f"i{k}" for k in range(3)])

    def add_gates(tag, n):
        for g in range(n):
            gt = rng.choice(TWO_IN + [GateType.NOT])
            k = 1 if gt is GateType.NOT else 2
            pool.append(net.add_gate(
                f"{tag}{g}", gt, [rng.choice(pool) for _ in range(k)]))

    add_gates("a", rng.randint(2, 5))
    net.add_latch(rng.choice(pool), "qA",
                  enable="i0" if rng.random() < 0.5 else None,
                  init=rng.randint(0, 1))
    pool.append("qA")
    add_gates("b", rng.randint(2, 6))
    net.add_latch(rng.choice(pool), "qB",
                  enable=rng.choice(pool[:4])
                  if rng.random() < 0.5 else None,
                  init=rng.randint(0, 1))
    pool.append("qB")
    add_gates("c", rng.randint(1, 4))
    net.set_output(pool[-1])
    return net


@given(seed=st.integers(0, 10 ** 6), cycles=st.integers(2, 150))
@example(seed=2000, cycles=65)
@example(seed=2001, cycles=130)
@SETTINGS
def test_timed_sequential_matches_oracle(seed, cycles):
    net = _random_seq(seed)
    rng = random.Random(seed + 3)
    # Partial vectors: a missing input holds its previous value.
    vecs = [{f"i{k}": rng.getrandbits(1) for k in range(3)
             if rng.random() < 0.8} for _ in range(cycles)]
    assert timed_sequential_transitions(net, vecs) == \
        EventSimulator(net).run_sequential(vecs)


@given(seed=st.integers(0, 10 ** 6), count=st.integers(0, 150),
       drive_latches=st.booleans())
@example(seed=2002, count=65, drive_latches=False)
@SETTINGS
def test_timed_words_on_latch_networks_match_oracle(seed, count,
                                                    drive_latches):
    """``glitch_report`` drives latch outputs as pseudo-input words;
    a latch output without a word holds its init value in both
    engines."""
    net = _random_seq(seed)
    sources = net.inputs + ([latch.output for latch in net.latches]
                            if drive_latches else [])
    _assert_matches_oracle(net, random_words(sources, count, seed + 1),
                           count)


def test_engine_selector_validation():
    net = _random_comb(1, 2, 3)
    with pytest.raises(ValueError, match="unknown timed engine"):
        glitch_report(net, num_vectors=4, engine="bogus")


def test_glitch_report_engines_agree():
    net = _random_comb(11, 4, 12)
    a = glitch_report(net, num_vectors=64, seed=2, engine="compiled")
    b = glitch_report(net, num_vectors=64, seed=2, engine="event")
    assert a.timed == b.timed
    assert a.functional == b.functional
    # timed_average_power prices the same stimulus's timed counts
    assert timed_average_power(net, 64, seed=2).total == \
        power_report(net, transition_activity(b.timed, 64)).total


def test_timed_program_cache_reuse_and_invalidation():
    net = _random_comb(21, 3, 10)
    prog = get_timed(net)
    assert get_timed(net) is prog          # cache hit

    # A different delay map is a different program, same base compile.
    alt = get_timed(net, {"g0": 2.0})
    assert alt is not prog
    assert alt.base is prog.base
    # One program per network: the first map again rebuilds it.
    again = get_timed(net)
    assert again is not prog
    assert again.base is prog.base
    prog = again

    # Structural edits through the mutation API invalidate the cache.
    net.add_gate("extra", GateType.NOT, [net.outputs[0]])
    assert get_timed(net) is not prog

    # An in-place attrs["delay"] edit resolves to a new delay key even
    # though no structural hook fired.
    prog2 = get_timed(net)
    gate = next(n for n in net.nodes.values() if n.kind == "gate")
    gate.attrs["delay"] = 3.25
    prog3 = get_timed(net)
    assert prog3 is not prog2
    assert prog3.delay_key != prog2.delay_key


def test_event_simulator_reuses_network_caches():
    net = _random_comb(31, 3, 10)
    s1 = EventSimulator(net)
    s2 = EventSimulator(net)
    # topo order is computed once per network revision; fanouts are
    # read off the network's reader index
    assert s1.order is s2.order
    assert s1.fanouts == s2.fanouts
    net.add_gate("x", GateType.NOT, [net.outputs[0]])
    s3 = EventSimulator(net)
    assert s3.order is not s1.order
