"""E1 — Power breakdown per Eqn 1 (claim C1: switching > 90%).

Paper (§I, [8]): in well-designed CMOS logic, switching-activity power
accounts for over 90% of total dissipation.  We evaluate Eqn 1 on four
circuit families at the default mid-90s operating point.  A final
column re-evaluates Eqn 1 with *timed* (glitch-inclusive) activities
from the compiled word-parallel engine: the ratio to zero-delay power
is the glitch surcharge that Section III-A.2 attacks.
"""

from repro.bench.profiling import PHASE_EST, PHASE_SIM, phase
from repro.core.report import format_table
from repro.logic.generators import (alu_slice, array_multiplier,
                                    comparator, ripple_carry_adder)
from repro.power.glitch import timed_average_power
from repro.power.model import average_power

from conftest import emit, harness_params, scaled

CLAIMS = ("C1",)

CIRCUITS = [
    ("rca16", lambda: ripple_carry_adder(16)),
    ("cmp16", lambda: comparator(16)),
    ("mult6", lambda: array_multiplier(6)),
    ("alu8", lambda: alu_slice(8)),
]


def breakdown_table(vectors=512, seed=1):
    rows = []
    for name, make in CIRCUITS:
        net = make()
        with phase(PHASE_EST):
            rep = average_power(net, num_vectors=vectors, seed=seed)
        with phase(PHASE_SIM):
            timed_rep = timed_average_power(net, vectors, seed=seed)
        rows.append([name, rep.total * 1e6, rep.switching * 1e6,
                     rep.short_circuit * 1e6, rep.leakage * 1e6,
                     rep.switching_fraction,
                     timed_rep.total / rep.total])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    vectors = scaled(512, quick)
    rows = breakdown_table(vectors=vectors, seed=seed + 1)
    metrics = {}
    for name, total, _sw, _sc, _leak, frac, glitch_x in rows:
        metrics[f"{name}.total_uW"] = total
        metrics[f"{name}.sw_fraction"] = frac
        metrics[f"{name}.glitch_overhead"] = glitch_x
    return {"metrics": metrics, "vectors": vectors}


def bench_power_breakdown(benchmark):
    rows = benchmark(breakdown_table)
    emit("E1: power breakdown (uW)", format_table(
        ["circuit", "total", "switching", "short-circuit", "leakage",
         "sw fraction", "timed/zero-delay"], rows))
    for row in rows:
        assert row[5] > 0.85, f"{row[0]}: switching fraction {row[5]}"
        # Glitches only ever add power, within the paper's rough band.
        assert 1.0 <= row[6] < 2.5, f"{row[0]}: glitch ratio {row[6]}"
