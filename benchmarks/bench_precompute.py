"""E12 — Precomputation (claim C12, Figure 1 of the paper) and guarded
evaluation ([44]).

The n-bit comparator of Figure 1, precomputed on its MSB pair: the
low-order registers are disabled with probability 1/2 on uniform
inputs, and the saving grows with n.  Guarded evaluation isolates the
deselected cone of a mux with the same unobservability argument.
"""

import random

from repro.bench.profiling import (PHASE_EST, PHASE_SIM, PHASE_SYNTH,
                                   phase)
from repro.core.report import format_table
from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.opt.seq.guarded import guarded_evaluation
from repro.opt.seq.precompute import precomputed_comparator
from repro.power.activity import (activity_from_simulation,
                                  sequential_activity)
from repro.power.model import power_report
from repro.sim.functional import (sequential_transitions,
                                  verify_equivalence)

from conftest import emit, harness_params, scaled

CLAIMS = ("C12",)


def comparator_rows(sizes=(4, 8, 16), cycles=400):
    rows = []
    for n in sizes:
        with phase(PHASE_SYNTH):
            pre = precomputed_comparator(n)
        rng = random.Random(n)
        vecs = []
        for _ in range(cycles):
            c, d = rng.getrandbits(n), rng.getrandbits(n)
            v = {f"c{i}": (c >> i) & 1 for i in range(n)}
            v.update({f"d{i}": (d >> i) & 1 for i in range(n)})
            vecs.append(v)
        with phase(PHASE_SIM):
            _, tb = sequential_transitions(pre.baseline, vecs)
            _, tg = sequential_transitions(pre.network, vecs)
        out = pre.baseline.outputs[0]
        assert [t[out] for t in tb][1:] == [t[out] for t in tg][1:]
        with phase(PHASE_EST):
            pb = power_report(
                pre.baseline,
                sequential_activity(pre.baseline, vecs)).total
            pg = power_report(
                pre.network,
                sequential_activity(pre.network, vecs)).total
        rows.append([f"cmp{n}", pre.disable_probability,
                     pre.le_literals, pb * 1e6, pg * 1e6, 1 - pg / pb])
    return rows


def _deep_cone(net, prefix, inputs):
    prods = [net.add_gate(f"{prefix}p{i}", GateType.AND,
                          [inputs[2 * i], inputs[2 * i + 1]])
             for i in range(4)]
    x1 = net.add_gate(f"{prefix}x1", GateType.XOR, [prods[0], prods[1]])
    x2 = net.add_gate(f"{prefix}x2", GateType.XOR, [prods[2], prods[3]])
    x3 = net.add_gate(f"{prefix}x3", GateType.XOR, [x1, x2])
    o1 = net.add_gate(f"{prefix}o1", GateType.OR,
                      [inputs[0], inputs[3]])
    o2 = net.add_gate(f"{prefix}o2", GateType.XNOR, [o1, inputs[5]])
    a1 = net.add_gate(f"{prefix}a1", GateType.AND, [o2, inputs[6]])
    return net.add_gate(f"{prefix}out", GateType.XOR, [x3, a1])


def _mux_of_cones():
    net = Network("guard")
    net.add_inputs(["s"] + [f"a{k}" for k in range(8)] +
                   [f"b{k}" for k in range(8)])
    left = _deep_cone(net, "L", [f"a{k}" for k in range(8)])
    right = _deep_cone(net, "R", [f"b{k}" for k in range(8)])
    net.add_gate("m", GateType.MUX, ["s", left, right])
    net.set_output("m")
    return net


def combinational_rows(vectors=2048, verify_vectors=256):
    from repro.opt.seq.precompute import combinational_precompute
    from repro.logic.generators import comparator

    rows = []
    for label, probs in [("uniform MSBs", {}),
                         ("sticky MSBs (p=.95/.05)",
                          {"c7": 0.95, "d7": 0.05})]:
        with phase(PHASE_SYNTH):
            pre = combinational_precompute(comparator(8), ["c7", "d7"],
                                           input_probs=probs)
        assert verify_equivalence(pre.baseline, pre.network,
                                  verify_vectors)
        with phase(PHASE_SIM):
            a0, _ = activity_from_simulation(pre.baseline, vectors,
                                             seed=2, input_probs=probs)
            a1, _ = activity_from_simulation(pre.network, vectors,
                                             seed=2, input_probs=probs)
        p0 = power_report(pre.baseline, a0).total
        p1 = power_report(pre.network, a1).total
        rows.append([label, pre.disable_probability, p0 * 1e6,
                     p1 * 1e6, 1 - p1 / p0])
    return rows


def guarded_rows(vectors=2048, verify_vectors=512):
    rows = []
    for p_sel, label in [(0.5, "toggling select (declined)"),
                         (0.95, "skewed select")]:
        ref = _mux_of_cones()
        net = _mux_of_cones()
        probs = {"s": p_sel}
        with phase(PHASE_SYNTH):
            res = guarded_evaluation(net, input_probs=probs)
        assert verify_equivalence(ref, net, verify_vectors)
        with phase(PHASE_SIM):
            a0, _ = activity_from_simulation(ref, vectors, seed=5,
                                             input_probs=probs)
            a1, _ = activity_from_simulation(net, vectors, seed=5,
                                             input_probs=probs)
        p0 = power_report(ref, a0).total
        p1 = power_report(net, a1).total
        rows.append([label, res.cones_isolated, p0 * 1e6, p1 * 1e6,
                     1 - p1 / p0])
    return rows


def run(params=None):
    quick, _seed = harness_params(params)
    cycles = scaled(400, quick, floor=100)
    act_vectors = scaled(2048, quick, floor=256)
    sizes = (4, 8) if quick else (4, 8, 16)
    rows = comparator_rows(sizes=sizes, cycles=cycles)
    crows = combinational_rows(vectors=act_vectors,
                               verify_vectors=scaled(256, quick,
                                                     floor=128))
    grows = guarded_rows(vectors=act_vectors,
                         verify_vectors=scaled(512, quick, floor=128))
    metrics = {}
    for (label, p_dis, _lits, _pb, _pg, saving) in rows:
        metrics[f"{label}.disable_probability"] = p_dis
        metrics[f"{label}.saving"] = saving
    for key, row in zip(("uniform", "sticky"), crows):
        metrics[f"comb.{key}.disable_probability"] = row[1]
        metrics[f"comb.{key}.saving"] = row[4]
    for key, row in zip(("toggling", "skewed"), grows):
        metrics[f"guard.{key}.cones"] = row[1]
        metrics[f"guard.{key}.saving"] = row[4]
    return {"metrics": metrics, "vectors": cycles}


def bench_precompute(benchmark):
    rows = benchmark.pedantic(comparator_rows, rounds=2, iterations=1)
    emit("E12a: Figure-1 precomputed comparator", format_table(
        ["circuit", "P(disable)", "LE literals", "base uW", "gated uW",
         "saving"], rows))
    for row in rows:
        assert abs(row[1] - 0.5) < 1e-6     # Fig. 1: exactly 1/2
    savings = [row[5] for row in rows]
    assert savings[-1] > savings[0]          # grows with n
    assert savings[-1] > 0.2

    crows = combinational_rows()
    emit("E12c: combinational precomputation", format_table(
        ["predictor stats", "P(disable)", "plain uW", "precomp uW",
         "saving"], crows))
    uniform, sticky = crows
    # Uniform predictor toggling eats the saving; a sticky predictor
    # (the transparent-latch use case of [1]) wins clearly.
    assert sticky[4] > 0.3
    assert sticky[4] > uniform[4]

    grows = guarded_rows()
    emit("E12b: guarded evaluation (operand isolation)", format_table(
        ["workload", "cones", "plain uW", "guarded uW", "saving"],
        grows))
    toggling, skewed = grows
    # The optimizer declines the toggling-select case (shielding would
    # add power) and wins clearly on the idle leg of the skewed case.
    assert toggling[1] == 0 and abs(toggling[4]) < 0.02
    assert skewed[1] >= 1 and skewed[4] > 0.15
