"""Ablations A2–A4 from DESIGN.md.

A2 — precomputation input selection: probability-greedy vs exhaustive.
A3 — encoding: greedy constructive vs simulated annealing.
A4 — residue coding: one-hot RNS wire flips vs the internal switching
     of a binary ripple adder on the same accumulation workload.
"""

import random

from repro.bench.profiling import PHASE_OPT, PHASE_SIM, phase
from repro.core.report import format_table
from repro.logic.generators import comparator, ripple_carry_adder
from repro.opt.datapath.residue import OneHotResidue
from repro.opt.seq.encoding import (encode_anneal, encode_greedy,
                                    encoding_cost)
from repro.opt.seq.precompute import (disable_probability,
                                      select_precompute_inputs)
from repro.opt.seq.stg import STG
from repro.sim.functional import simulate_transitions
from repro.sim.vectors import words_from_vectors

from conftest import emit, harness_params, scaled

CLAIMS = ()


def precompute_selection_rows():
    rows = []
    for n in (4, 5):
        net = comparator(n)
        with phase(PHASE_OPT):
            exhaustive = select_precompute_inputs(net, 2,
                                                  exhaustive_limit=99)
            greedy = select_precompute_inputs(net, 2,
                                              exhaustive_limit=0)
        p_ex = disable_probability(net, exhaustive)
        p_gr = disable_probability(net, greedy)
        rows.append([f"cmp{n}", "+".join(sorted(exhaustive)), p_ex,
                     "+".join(sorted(greedy)), p_gr])
    return rows


def encoding_rows(iterations=3000):
    rng = random.Random(3)
    rows = []
    for n in (8, 12):
        stg = STG(2, 1)
        states = [f"s{i}" for i in range(n)]
        for s in states:
            for k, t in enumerate(rng.sample(states, 4)):
                stg.add_transition(format(k, "02b"), s, t, "0")
        with phase(PHASE_OPT):
            greedy = encode_greedy(stg)
            anneal = encode_anneal(stg, iterations=iterations, seed=2)
        rows.append([f"rand{n}", encoding_cost(stg, greedy),
                     encoding_cost(stg, anneal)])
    return rows


def residue_rows(count=200):
    """Accumulator workload: binary adder internal transitions vs RNS
    one-hot wire flips (the proper [11] comparison: the RNS adder is a
    rotator with no carry chain)."""
    rng = random.Random(4)
    values = [rng.randrange(256) for _ in range(count)]
    # Binary side: 8-bit RCA accumulating; count all internal node
    # transitions via bit-parallel simulation of consecutive operands.
    net = ripple_carry_adder(8)
    acc = 0
    vectors = []
    for v in values:
        vec = {f"a{i}": (acc >> i) & 1 for i in range(8)}
        vec.update({f"b{i}": (v >> i) & 1 for i in range(8)})
        vec["cin"] = 0
        vectors.append(vec)
        acc = (acc + v) & 0xFF
    words = words_from_vectors(vectors)
    with phase(PHASE_SIM):
        tr = simulate_transitions(net, words, len(vectors))
    binary_internal = sum(t for name, t in tr.items()
                          if not net.nodes[name].is_source())
    # RNS side: one-hot digit flips of the accumulator value.
    ohr = OneHotResidue([3, 5, 7, 11])
    accs = []
    acc = 0
    for v in values:
        acc = (acc + v) % ohr.range
        accs.append(acc)
    rns_flips = ohr.stream_transitions(accs)
    return [["binary RCA8 (internal)", binary_internal],
            [f"one-hot RNS {ohr.moduli}", rns_flips]]


def run(params=None):
    quick, _seed = harness_params(params)
    iterations = scaled(3000, quick, floor=800)
    count = scaled(200, quick, floor=100)
    prows = precompute_selection_rows()
    erows = encoding_rows(iterations=iterations)
    rrows = residue_rows(count=count)
    metrics = {}
    for circuit, _ex, p_ex, _gr, p_gr in prows:
        metrics[f"precompute.{circuit}.p_disable_exhaustive"] = p_ex
        metrics[f"precompute.{circuit}.p_disable_greedy"] = p_gr
    for fsm, greedy_cost, anneal_cost in erows:
        metrics[f"encoding.{fsm}.greedy_cost"] = greedy_cost
        metrics[f"encoding.{fsm}.anneal_cost"] = anneal_cost
    metrics["residue.binary_transitions"] = rrows[0][1]
    metrics["residue.rns_transitions"] = rrows[1][1]
    return {"metrics": metrics, "vectors": count}


def bench_ablations(benchmark):
    prows = benchmark(precompute_selection_rows)
    emit("A2: precompute input selection", format_table(
        ["circuit", "exhaustive", "P(disable)", "greedy",
         "P(disable)"], prows))
    for row in prows:
        assert row[2] >= row[4] - 1e-9      # exhaustive >= greedy
        assert row[4] >= 0.9 * row[2]       # greedy close behind

    erows = encoding_rows()
    emit("A3: greedy vs annealed encoding (FF transitions/cycle)",
         format_table(["fsm", "greedy", "anneal"], erows))
    for row in erows:
        assert row[2] <= row[1] + 1e-9

    rrows = residue_rows()
    emit("A4: accumulate workload switching", format_table(
        ["datapath", "total transitions"], rrows))
    assert rrows[1][1] < rrows[0][1]
