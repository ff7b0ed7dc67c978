"""A5 — Architectural and algorithmic trade-offs (§IV design examples,
[49], [14]).

Three sweeps echoing the paper's "specific design examples" paragraph:
  (a) adder architecture: ripple vs carry-lookahead vs carry-select —
      speed is bought with transistors (and hence power);
  (b) loop tiling: blocking restores foreground-buffer locality when no
      loop order has it;
  (c) algorithm choice: binary vs linear search energy on the ISS.
"""

from repro.arch.memory import (MemoryHierarchy, loop_access_trace,
                               memory_energy, tiled_access_trace)
from repro.bench.profiling import PHASE_EST, PHASE_SIM, phase
from repro.core.report import format_table
from repro.logic.generators import (carry_lookahead_adder,
                                    carry_select_adder,
                                    ripple_carry_adder)
from repro.power.model import average_power
from repro.sw.cpu import CPU, big_cpu_profile
from repro.sw.programs import binary_search, linear_search

from conftest import emit, harness_params, scaled

CLAIMS = ()


def adder_rows(vectors=512, seed=3):
    rows = []
    for name, make in [("ripple", ripple_carry_adder),
                       ("lookahead", carry_lookahead_adder),
                       ("carry-select", carry_select_adder)]:
        net = make(8)
        rep = average_power(net, vectors, seed=seed)
        rows.append([name, net.depth(), net.num_transistors(),
                     rep.total * 1e6])
    return rows


def tiling_rows():
    h = MemoryHierarchy(buffer_words=64)
    rows = []
    bad = loop_access_trace((64, 64), (1, 0))
    e0, _, m0 = memory_energy(bad, h, associative=True)
    rows.append(["column-major", m0, e0 * 1e9])
    good = loop_access_trace((64, 64), (0, 1))
    e1, _, m1 = memory_energy(good, h, associative=True)
    rows.append(["row-major (interchange)", m1, e1 * 1e9])
    tiled = tiled_access_trace((64, 64), (8, 8), (1, 0))
    e2, _, m2 = memory_energy(tiled, h, associative=True)
    rows.append(["column-major, 8x8 tiles", m2, e2 * 1e9])
    return rows


def search_rows(sizes=(16, 64, 256)):
    cpu = CPU(big_cpu_profile())
    rows = []
    for n in sizes:
        lp, lm, _ = linear_search(n, n - 2)
        bp, bm, _ = binary_search(n, n - 2)
        rl = cpu.run(lp, memory=dict(lm))
        rb = cpu.run(bp, memory=dict(bm))
        rows.append([f"n={n}", rl.cycles, rl.energy, rb.cycles,
                     rb.energy, rl.energy / rb.energy])
    return rows


def scheduler_rows():
    from repro.arch.dfg import fir_dfg
    from repro.arch.scheduling import (force_directed_schedule,
                                       list_schedule, required_units,
                                       schedule_length)

    dfg = fir_dfg(8)
    latency = dfg.critical_path() + 4
    greedy = list_schedule(dfg, {})
    fds = force_directed_schedule(dfg, latency)
    rows = []
    for label, sched in [("greedy list", greedy),
                         ("force-directed", fds)]:
        units = required_units(dfg, sched)
        rows.append([label, schedule_length(dfg, sched),
                     units.get("mul", 0), units.get("add", 0)])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    vectors = scaled(512, quick)
    with phase(PHASE_EST):
        arows = adder_rows(vectors=vectors, seed=seed + 3)
    with phase(PHASE_SIM):
        trows = tiling_rows()
        srows = search_rows(sizes=(16, 64) if quick
                            else (16, 64, 256))
    schrows = scheduler_rows()
    metrics = {}
    for name, depth, transistors, power in arows:
        metrics[f"adder.{name}.depth"] = depth
        metrics[f"adder.{name}.transistors"] = transistors
        metrics[f"adder.{name}.power_uW"] = power
    for key, (_label, misses, _energy) in zip(
            ("column_major", "row_major", "tiled"), trows):
        metrics[f"tiling.{key}.misses"] = misses
    for label, _lc, _le, _bc, _be, ratio in srows:
        metrics[f"search.{label}.energy_ratio"] = ratio
    for label, latency, muls, adds in schrows:
        key = label.replace(" ", "_")
        metrics[f"sched.{key}.latency"] = latency
        metrics[f"sched.{key}.multipliers"] = muls
    return {"metrics": metrics, "vectors": vectors}


def bench_architecture_tradeoffs(benchmark):
    arows = benchmark(adder_rows)
    emit("A5a: adder architecture (8-bit)", format_table(
        ["architecture", "depth", "transistors", "power uW"], arows))
    by = {r[0]: r for r in arows}
    assert by["carry-select"][1] < by["ripple"][1]      # faster
    assert by["carry-select"][3] > by["ripple"][3]      # hungrier
    assert by["lookahead"][1] < by["ripple"][1]

    trows = tiling_rows()
    emit("A5b: memory locality transformations", format_table(
        ["loop structure", "misses", "energy nJ"], trows))
    assert trows[2][1] < trows[0][1] / 2     # tiling beats bad order
    assert trows[1][1] <= trows[2][1]        # interchange best here

    srows = search_rows()
    emit("A5c: algorithm choice (search, worst-ish case)", format_table(
        ["size", "linear cyc", "linear nJ", "binary cyc", "binary nJ",
         "energy ratio"], srows))
    ratios = [r[5] for r in srows]
    assert ratios == sorted(ratios)          # gap widens with n
    assert ratios[-1] > 5

    schrows = scheduler_rows()
    emit("A5d: scheduling discipline at relaxed latency", format_table(
        ["scheduler", "latency", "multipliers", "adders"], schrows))
    greedy, fds = schrows
    # FDS flattens the profile: fewer multipliers allocated.
    assert fds[2] < greedy[2]
