"""E13 — Behavioral synthesis for low power (claim C13, [7]/[33]/[17]).

Three sub-experiments:
  (a) transformation + voltage scaling: tree-height reduction and
      unrolling create slack; scaling V_DD wins quadratically;
  (b) module selection: slower low-power modules on non-critical ops;
  (c) low-power binding: correlated ops share units.
"""

from repro.arch.allocation import bind_operations, profile_operands
from repro.arch.dfg import chained_sum_dfg, fir_dfg
from repro.arch.power_models import default_module_library
from repro.arch.scheduling import list_schedule
from repro.arch.transforms import (transform_and_scale,
                                   tree_height_reduction, unroll)
from repro.bench.profiling import PHASE_OPT, PHASE_SIM, phase
from repro.core.report import format_table

from conftest import emit, harness_params, scaled

CLAIMS = ("C13",)


def voltage_scaling_rows():
    rows = []
    chain = chained_sum_dfg(8)
    thr = tree_height_reduction(chain)
    res = transform_and_scale(chain, thr)
    rows.append(["THR on 8-chain", res.csteps_before, res.csteps_after,
                 res.cap_ratio, res.vdd, res.power_ratio])
    fir = fir_dfg(4)
    fir_thr = tree_height_reduction(fir)
    res2 = transform_and_scale(fir, fir_thr)
    rows.append(["THR on fir4", res2.csteps_before, res2.csteps_after,
                 res2.cap_ratio, res2.vdd, res2.power_ratio])
    # Unrolling: same per-sample critical path here, but block
    # processing amortizes; with 2 samples/invocation CP/sample halves
    # when units are doubled.
    biquad = fir_dfg(3)
    unrolled = unroll(biquad, 2)
    res3 = transform_and_scale(biquad, unrolled,
                               samples_per_invocation=2)
    rows.append(["unroll x2 fir3", res3.csteps_before,
                 res3.csteps_after, res3.cap_ratio, res3.vdd,
                 res3.power_ratio])
    return rows


def module_selection_rows():
    """Automatic selection ([17]): tight latency forces fast modules,
    relaxed latency lets the optimizer buy low-power variants."""
    from repro.arch.selection import select_modules

    lib = default_module_library()
    dfg = fir_dfg(6)
    tight = select_modules(dfg, lib, resources={"add": 2, "mul": 2})
    relaxed = select_modules(dfg, lib, latency_bound=tight.latency * 2,
                             resources={"add": 2, "mul": 2})
    rows = []
    for label, res in [("tight latency", tight),
                       ("2x latency", relaxed)]:
        rows.append([label, res.latency,
                     "+".join(sorted(res.module_names().values())),
                     res.power * 1e6])
    return rows


def register_binding_rows():
    from repro.arch.allocation import bind_registers, profile_values

    dfg = fir_dfg(8)
    sched = list_schedule(dfg, {"mul": 2, "add": 2})
    traces = profile_values(dfg, 64, seed=1)
    naive = bind_registers(dfg, sched, "naive", traces)
    lp = bind_registers(dfg, sched, "low-power", traces)
    return [["naive", naive.num_registers, naive.switching],
            ["low-power", lp.num_registers, lp.switching]]


def binding_rows():
    dfg = fir_dfg(8)
    sched = list_schedule(dfg, {"mul": 2, "add": 2})
    traces = profile_operands(dfg, 64, seed=1)
    naive = bind_operations(dfg, sched, "naive", traces)
    lp = bind_operations(dfg, sched, "low-power", traces)
    return [["naive", naive.switched_capacitance],
            ["low-power", lp.switched_capacitance]]


def rtl_validation_rows(vectors=120):
    """E13e: bind, synthesize to gates, and *measure* — the binding
    cost model validated on actual hardware."""
    import random

    from repro.arch.allocation import profile_operands
    from repro.arch.dfg import DFG
    from repro.arch.rtl import synthesize_datapath
    from repro.power.activity import sequential_activity
    from repro.power.model import power_report

    dfg = DFG("corr")
    x = dfg.add("x", "input")
    y = dfg.add("y", "input")
    for i, (src, cval) in enumerate([(x, 3), (x, 5), (y, 7), (y, 9)]):
        c = dfg.add(f"c{i}", "const", value=float(cval))
        dfg.add(f"m{i}", "mul", [src, c])
    dfg.add("s1", "add", ["m0", "m1"])
    dfg.add("s2", "add", ["m2", "m3"])
    dfg.add("s3", "add", ["s1", "s2"])
    dfg.add("out", "output", ["s3"])
    # Pin the schedule so both units have a real pairing choice
    # (m0/m3 in step 0, m1/m2 in step 2).
    sched = {name: 0 for name in dfg.ops}
    sched.update({"m0": 0, "m3": 0, "m1": 2, "m2": 2,
                  "s1": 4, "s2": 5, "s3": 6, "out": 7})
    traces = profile_operands(dfg, 64, seed=1)
    rows = []
    for strategy in ("worst", "low-power"):
        res = bind_operations(dfg, sched, strategy, traces)
        rtl = synthesize_datapath(dfg, sched, res.binding, width=4)
        net = rtl.network
        rng = random.Random(7)
        vecs = []
        for _ in range(vectors):
            ints = {n: rng.randrange(16) for n in dfg.inputs()}
            vec = {}
            for pi in net.inputs:
                base, bit = pi.rsplit("_", 1)
                vec[pi] = (ints[base] >> int(bit)) & 1
            vecs.extend([vec] * rtl.latency)
        act = sequential_activity(net, vecs)
        p = power_report(net, act).total
        rows.append([strategy, res.switched_capacitance,
                     net.num_gates(), p * 1e6])
    return rows


def run(params=None):
    quick, _seed = harness_params(params)
    vectors = scaled(120, quick, floor=40)
    with phase(PHASE_OPT):
        vrows = voltage_scaling_rows()
        mrows = module_selection_rows()
        brows = binding_rows()
        rrows = register_binding_rows()
    with phase(PHASE_SIM):
        hrows = rtl_validation_rows(vectors=vectors)
    metrics = {}
    for key, (_label, _cb, _ca, _cap, vdd, ratio) in zip(
            ("thr_chain8", "thr_fir4", "unroll_fir3"), vrows):
        metrics[f"scale.{key}.vdd"] = vdd
        metrics[f"scale.{key}.power_ratio"] = ratio
    for key, (_label, latency, _mods, power) in zip(
            ("tight", "relaxed"), mrows):
        metrics[f"select.{key}.latency"] = latency
        metrics[f"select.{key}.power_uW"] = power
    for label, cap in brows:
        metrics[f"fu_bind.{label}.hamming"] = cap
    for label, regs, switching in rrows:
        metrics[f"reg_bind.{label}.registers"] = regs
        metrics[f"reg_bind.{label}.hamming"] = switching
    for label, cost, gates, power in hrows:
        metrics[f"rtl.{label}.model_cost"] = cost
        metrics[f"rtl.{label}.power_uW"] = power
    return {"metrics": metrics, "vectors": vectors}


def bench_behavioral(benchmark):
    rows = benchmark(voltage_scaling_rows)
    emit("E13a: transformations + voltage scaling", format_table(
        ["transform", "csteps before", "csteps after", "cap ratio",
         "vdd", "power ratio"], rows))
    for row in rows:
        assert row[4] < 3.3          # voltage dropped
        assert row[5] < 1.0          # power dropped despite cap

    mrows = module_selection_rows()
    emit("E13b: automatic module selection", format_table(
        ["latency bound", "latency", "modules", "power uW"], mrows))
    assert mrows[1][3] < mrows[0][3]

    brows = binding_rows()
    emit("E13c: FU binding switched capacitance", format_table(
        ["binding", "operand Hamming cost"], brows))
    assert brows[1][1] <= brows[0][1] + 1e-9

    rrows = register_binding_rows()
    emit("E13d: register binding (left-edge)", format_table(
        ["binding", "registers", "value Hamming cost"], rrows))
    assert rrows[1][1] == rrows[0][1]        # same (minimum) count
    assert rrows[1][2] <= rrows[0][2] + 1e-9

    vrows = rtl_validation_rows()
    emit("E13e: binding validated on synthesized gates", format_table(
        ["binding", "model cost", "gates", "measured uW"], vrows))
    worst, lp = vrows
    assert lp[1] < worst[1]          # the model prefers low-power
    assert lp[3] < worst[3]          # ...and the hardware agrees
    assert lp[2] == worst[2]         # same structure, different steering
