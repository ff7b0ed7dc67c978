"""Ablation A7 — Word-parallel compiled timed simulation.

The compiled time-wheel engine (``repro.sim.timed``) must be (a)
bit-identical, per node, to the event-driven oracle on combinational,
float-delay and clocked-sequential workloads, (b) at least 5x faster
than the oracle on the 500+-node circuit every balance / retiming loop
re-simulates, and (c) safely cached: a node function edit must rebuild
the timed program (a stale one would corrupt every glitch estimate).

Deterministic gating metrics: per-circuit node-level count mismatches
(always 0), a checksum of the per-node transition counts (any change
in timed semantics or lowering shows up here), and the recompile count
over an edit sequence.  Wall-clock metrics (``*_ms``) and speedup
ratios (``*_x``) are volatile and exempt from drift gating.
"""

import random
import time
import zlib

from repro.bench.profiling import PHASE_SIM, phase
from repro.core.report import format_table
from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.logic.generators import array_multiplier, ripple_carry_adder
from repro.sim.event import EventSimulator
from repro.sim.timed import (get_timed, timed_sequential_transitions,
                             timed_transitions_from_words)
from repro.sim.vectors import random_words, vectors_from_words

from conftest import emit, harness_params, scaled

CLAIMS = ()


def _float_delays(net, seed=4):
    """Non-uniform transport delays exercising the general time wheel
    (path-dependent float sums, zero-delay delta cycles)."""
    rng = random.Random(seed)
    return {n.name: rng.choice([0.0, 0.1, 0.2, 0.5, 1.0, 1.0, 2.5])
            for n in net.nodes.values() if not n.is_source()}


CIRCUITS = [
    # name, make, delays(net) or None
    ("mult12", lambda: array_multiplier(12), None),       # 576 nodes
    ("rca32", lambda: ripple_carry_adder(32), None),
    ("mult6_float", lambda: array_multiplier(6), _float_delays),
]


def _checksum(counts):
    """Deterministic digest of per-node transition counts."""
    acc = 0
    for name, c in sorted(counts.items()):
        acc = (acc * 1000003 + zlib.crc32(name.encode()) + c) % (1 << 40)
    return acc


def _seq_pipeline(width=6):
    """Registered XOR cascade into an AND funnel — glitchy logic with
    latch enables, for the clocked-sequential exactness check."""
    net = Network("tsq")
    ins = net.add_inputs([f"i{k}" for k in range(width + 1)])
    noisy = ins[0]
    for k in range(1, width):
        noisy = net.add_gate(f"x{k}", GateType.XOR, [noisy, ins[k]])
    net.add_latch(noisy, "nq", enable=ins[width], init=1)
    acc = "nq"
    for k in range(width):
        acc = net.add_gate(f"a{k}", GateType.AND, [acc, ins[k]])
    net.add_latch(acc, "oq")
    net.set_output(net.add_gate("o", GateType.BUF, ["oq"]))
    return net


def timed_rows(vectors=256, seed=4, repeats=3):
    rows = []
    for name, make, delay_fn in CIRCUITS:
        net = make()
        delays = delay_fn(net) if delay_fn else None
        sources = [n.name for n in net.nodes.values() if n.is_source()]
        words = random_words(sources, vectors, seed)
        vecs = vectors_from_words(words, vectors)

        t0 = time.perf_counter()
        event = EventSimulator(net, delays).run(vecs)
        t_event = time.perf_counter() - t0

        # Warm the timed-compile cache; steady state is evaluation
        # plus the edit-record check of the base program.
        get_timed(net, delays)
        with phase(PHASE_SIM):
            t0 = time.perf_counter()
            for _ in range(repeats):
                compiled = timed_transitions_from_words(
                    net, words, vectors, delays=delays)
            t_compiled = (time.perf_counter() - t0) / repeats

        mismatch = sum(1 for k, c in event.items()
                       if compiled.get(k) != c)

        # A function edit must rebuild the cached timed program.
        gate = next(n.name for n in net.nodes.values()
                    if n.kind == "gate" and n.gtype is GateType.AND)
        before = get_timed(net, delays)
        net.set_function(gate, GateType.NAND)
        recompiled = get_timed(net, delays) is not before
        net.set_function(gate, GateType.AND)

        rows.append([name, len(net.nodes), mismatch,
                     _checksum(compiled), int(recompiled),
                     t_event * 1e3, t_compiled * 1e3])

    # Clocked-sequential exactness (latch enables, init values).
    net = _seq_pipeline()
    rng = random.Random(seed + 1)
    svecs = [{f"i{k}": rng.getrandbits(1) for k in range(7)
              if rng.random() < 0.9} for _ in range(vectors)]
    t0 = time.perf_counter()
    event = EventSimulator(net).run_sequential(svecs)
    t_event = time.perf_counter() - t0
    with phase(PHASE_SIM):
        t0 = time.perf_counter()
        for _ in range(repeats):
            compiled = timed_sequential_transitions(net, svecs)
        t_compiled = (time.perf_counter() - t0) / repeats
    mismatch = sum(1 for k, c in event.items() if compiled.get(k) != c)
    rows.append(["seq_pipe", len(net.nodes), mismatch,
                 _checksum(compiled), 1, t_event * 1e3,
                 t_compiled * 1e3])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    vectors = scaled(256, quick, floor=96)
    rows = timed_rows(vectors=vectors, seed=seed + 4)
    metrics = {}
    for (name, nodes, mismatch, checksum, recompiled,
         t_event, t_compiled) in rows:
        metrics[f"{name}.nodes"] = nodes
        metrics[f"{name}.mismatch_nodes"] = mismatch
        metrics[f"{name}.counts_checksum"] = checksum
        metrics[f"{name}.recompiled"] = recompiled
        metrics[f"{name}.event_ms"] = t_event
        metrics[f"{name}.compiled_ms"] = t_compiled
        metrics[f"{name}.speedup_x"] = \
            t_event / t_compiled if t_compiled else 0.0
    return {"metrics": metrics, "vectors": vectors}


def bench_timed_sim(benchmark):
    rows = benchmark.pedantic(timed_rows, rounds=1, iterations=1)
    emit("A7: compiled word-parallel vs event-driven timed simulation",
         format_table(
             ["circuit", "nodes", "mismatch", "checksum", "recompiled",
              "event ms", "compiled ms"], rows))
    for (name, nodes, mismatch, _cks, recompiled,
         t_event, t_compiled) in rows:
        assert mismatch == 0, f"{name}: timed engine not bit-exact"
        assert recompiled == 1, f"{name}: stale timed-compile cache"
        speedup = t_event / t_compiled
        if nodes >= 500:
            # The headline acceptance: ≥5x on a 500+-node circuit.
            assert speedup >= 5.0, f"{name}: only {speedup:.2f}x"
        else:
            assert speedup >= 2.0, f"{name}: only {speedup:.2f}x"
