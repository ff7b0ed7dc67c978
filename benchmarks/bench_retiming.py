"""E10 — Retiming for low power (claim C10, [29]).

Paper (§III-C.2): the switching activity at flip-flop *outputs* can be
far below the activity at their inputs, because the clock filters
spurious/noisy transitions.  Low-power retiming therefore moves
registers onto low-activity signals.  Workload: a glitchy XOR cascade
and four registered operands funnel into an AND tree; the original
design holds five registers on high-activity wires, and forward
retiming (at a relaxed period) collapses them into a single register on
the quiet output.
"""

import random

from repro.bench.profiling import (PHASE_EST, PHASE_OPT, PHASE_SIM,
                                   phase)
from repro.core.report import format_table
from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.opt.seq.retime import (RetimingGraph, apply_retiming,
                                  low_power_retiming,
                                  min_period_retiming)
from repro.power.activity import (sequential_activity,
                                  transition_activity)
from repro.power.model import power_report
from repro.sim.functional import sequential_transitions
from repro.sim.timed import timed_sequential_transitions

from conftest import emit, harness_params, scaled

CLAIMS = ("C10",)


def glitchy_pipeline(width=4):
    net = Network("gp")
    ins = net.add_inputs([f"i{k}" for k in range(2 * width)])
    noisy = ins[0]
    for k in range(1, width):
        noisy = net.add_gate(f"x{k}", GateType.XOR, [noisy, ins[k]])
    net.add_latch(noisy, "nq")                    # register on a noisy wire
    quiet = "nq"
    for k in range(width):
        reg = f"i{width + k}_r"
        net.add_latch(ins[width + k], reg)        # registered operands
        quiet = net.add_gate(f"a{k}", GateType.AND, [quiet, reg])
    o = net.add_gate("o", GateType.BUF, [quiet])
    net.set_output(o)
    return net


def retime_experiment(cycles=800, seed=11):
    net = glitchy_pipeline()
    graph = RetimingGraph(net)
    p0 = graph.clock_period()
    with phase(PHASE_OPT):
        _period, r_min = min_period_retiming(graph)

    rng = random.Random(seed)
    vecs = [{f"i{k}": rng.getrandbits(1) for k in range(8)}
            for _ in range(cycles)]
    with phase(PHASE_SIM):
        act = sequential_activity(net, vecs)
    relaxed = p0 + 4.0
    with phase(PHASE_OPT):
        r_lp = low_power_retiming(graph, relaxed, act)

    rows = []
    streams = {}
    for name, r in [("original", {v: 0 for v in graph.vertices}),
                    ("min-period", r_min),
                    ("low-power (relaxed P)", r_lp)]:
        net_r = apply_retiming(net, r)
        with phase(PHASE_SIM):
            _, trace = sequential_transitions(net_r, vecs)
        streams[name] = [t[net_r.outputs[0]] for t in trace]
        with phase(PHASE_EST):
            act_r = sequential_activity(net_r, vecs)
        rep = power_report(net_r, act_r)
        with phase(PHASE_SIM):
            timed = timed_sequential_transitions(net_r, vecs)
        timed_rep = power_report(
            net_r, transition_activity(timed, len(vecs)))
        rows.append([name, graph.clock_period(r), len(net_r.latches),
                     graph.register_cost(r, act), rep.total * 1e6,
                     timed_rep.total * 1e6])
    # All variants must agree once the pipeline transient has flushed.
    for name in streams:
        assert streams["original"][8:] == streams[name][8:], name
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    cycles = scaled(800, quick, floor=200)
    rows = retime_experiment(cycles=cycles, seed=seed + 11)
    metrics = {}
    for key, row in zip(("original", "min_period", "low_power"), rows):
        metrics[f"{key}.period"] = row[1]
        metrics[f"{key}.registers"] = row[2]
        metrics[f"{key}.reg_cost"] = row[3]
        metrics[f"{key}.power_uW"] = row[4]
        metrics[f"{key}.timed_power_uW"] = row[5]
    return {"metrics": metrics, "vectors": cycles}


def bench_retiming(benchmark):
    rows = benchmark.pedantic(retime_experiment, rounds=2, iterations=1)
    emit("E10: retiming (period / registers / activity-weighted "
         "register cost / power)", format_table(
             ["variant", "period", "registers", "reg cost",
              "power uW", "timed power uW"], rows))
    by = {r[0]: r for r in rows}
    assert by["min-period"][1] <= by["original"][1]
    lp = by["low-power (relaxed P)"]
    orig = by["original"]
    # Registers migrate to the quiet output: fewer registers, much
    # lower activity-weighted register cost, lower measured power.
    assert lp[2] < orig[2]
    assert lp[3] < 0.5 * orig[3]
    assert lp[4] < orig[4]
    # The flip side of C10: registers also *filter* glitches.  The
    # low-power retiming keeps one register instead of five, so with
    # hazards counted its glitch surcharge (timed minus zero-delay
    # power) must exceed the original's — switching-activity savings
    # and glitch filtering pull register placement in opposite
    # directions.
    assert lp[5] - lp[4] > orig[5] - orig[4]
