"""The compiled word-parallel timed engine (``repro.sim.timed``) must
be bit-identical, per node, to the event-driven oracle — on random
combinational networks, under non-uniform float delays (including
zero-delay delta cycles), and in clocked-sequential mode with latch
enables — and its cached program must never go stale."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.power.glitch import glitch_report, timed_average_power
from repro.sim.event import (EventSimulator, timed_sequential_transitions,
                             timed_transitions)
from repro.sim.timed import get_timed
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
    words = random_words(sources, count, seed)
    return vectors_from_words(words, count)


@st.composite
def comb_cases(draw):
    seed = draw(st.integers(0, 10 ** 6))
    net = _random_comb(seed, draw(st.integers(2, 5)),
                       draw(st.integers(1, 14)))
    vecs = _stimulus(net, draw(st.integers(2, 40)), seed + 1)
    return net, vecs, seed


@given(comb_cases())
@SETTINGS
def test_timed_matches_oracle_unit_delays(case):
    net, vecs, _seed = case
    assert timed_transitions(net, vecs, engine="compiled") == \
        timed_transitions(net, vecs, engine="event")


@given(comb_cases())
@SETTINGS
def test_timed_matches_oracle_float_delays(case):
    net, vecs, seed = case
    rng = random.Random(seed + 2)
    delays = {n.name: rng.choice([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.5])
              for n in net.nodes.values() if not n.is_source()}
    assert timed_transitions(net, vecs, delays=delays,
                             engine="compiled") == \
        timed_transitions(net, vecs, delays=delays, engine="event")


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


@given(st.integers(0, 10 ** 6), st.integers(2, 30))
@SETTINGS
def test_timed_sequential_matches_oracle(seed, cycles):
    net = _random_seq(seed)
    rng = random.Random(seed + 3)
    # Partial vectors: a missing input holds its previous value.
    vecs = [{f"i{k}": rng.getrandbits(1) for k in range(3)
             if rng.random() < 0.8} for _ in range(cycles)]
    assert timed_sequential_transitions(net, vecs,
                                        engine="compiled") == \
        timed_sequential_transitions(net, vecs, engine="event")


def test_partial_combinational_vectors_hold():
    net = _random_comb(7, 3, 8)
    rng = random.Random(8)
    vecs = [{f"i{k}": rng.getrandbits(1) for k in range(3)
             if rng.random() < 0.6} for _ in range(25)]
    assert timed_transitions(net, vecs, engine="compiled") == \
        timed_transitions(net, vecs, engine="event")


def test_engine_selector_validation():
    net = _random_comb(1, 2, 3)
    vecs = _stimulus(net, 4, 0)
    for fn in (timed_transitions, timed_sequential_transitions):
        with pytest.raises(ValueError, match="unknown timed engine"):
            fn(net, vecs, engine="interpreted")
    with pytest.raises(ValueError, match="unknown timed engine"):
        glitch_report(net, num_vectors=4, engine="bogus")


def test_glitch_report_engines_agree():
    net = _random_comb(11, 4, 12)
    a = glitch_report(net, num_vectors=64, seed=2, engine="compiled")
    b = glitch_report(net, num_vectors=64, seed=2, engine="event")
    assert a.timed == b.timed
    assert a.functional == b.functional
    pa = timed_average_power(net, 64, seed=2, engine="compiled")
    pb = timed_average_power(net, 64, seed=2, engine="event")
    assert pa.total == pb.total


def test_timed_program_cache_reuse_and_invalidation():
    net = _random_comb(21, 3, 10)
    prog = get_timed(net)
    assert get_timed(net) is prog          # cache hit

    # A different delay map is a different program, same base compile.
    alt = get_timed(net, {"g0": 2.0})
    assert alt is not prog
    assert alt.base is prog.base
    assert get_timed(net) is prog          # variant kept

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
    # topo order and fanouts are computed once per network revision
    assert s1.order is s2.order
    assert s1.fanouts is s2.fanouts
    net.add_gate("x", GateType.NOT, [net.outputs[0]])
    s3 = EventSimulator(net)
    assert s3.order is not s1.order
