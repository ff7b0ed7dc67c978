"""E3 — Slack-driven transistor sizing (claim C4).

Paper (§II-B, [42]/[3]): starting from a sizing that meets the delay
constraint, downsizing zero-impact gates off the critical path saves
power at (nearly) no delay cost.  We size three netlists against their
all-max-size delay +5%, which the all-minimum sizing meets, and against
the all-max-size delay itself ("tight"), which only the greedy
downsizing walk can meet.
"""

from repro.bench.profiling import PHASE_OPT, PHASE_SIM, phase
from repro.core.report import format_table
from repro.logic.generators import (array_multiplier, comparator,
                                    ripple_carry_adder)
from repro.opt.circuit.sizing import size_for_power
from repro.power.activity import activity_from_simulation

from conftest import emit, harness_params, scaled

CLAIMS = ("C4",)

CIRCUITS = [
    ("rca8", lambda: ripple_carry_adder(8)),
    ("cmp8", lambda: comparator(8)),
    ("mult4", lambda: array_multiplier(4)),
]


def sizing_sweep(vectors=512, seed=2):
    rows = []
    for name, make in CIRCUITS:
        net = make()
        with phase(PHASE_SIM):
            act, _ = activity_from_simulation(net, vectors, seed=seed)
        with phase(PHASE_OPT):
            default = size_for_power(net, act, apply=False)
            # delay_before is the all-max-size delay.
            tight = size_for_power(net, act,
                                   delay_target=default.delay_before,
                                   apply=False)
        for label, res in (("default", default), ("tight", tight)):
            rows.append([name, label, res.power_before, res.power_after,
                         res.power_saving, res.delay_before,
                         res.delay_after, res.moves])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    vectors = scaled(512, quick)
    rows = sizing_sweep(vectors=vectors, seed=seed + 2)
    metrics = {}
    for name, label, _pb, _pa, saving, d_before, d_after, moves in rows:
        key = name if label == "default" else f"{name}.{label}"
        metrics[f"{key}.cap_saving"] = saving
        metrics[f"{key}.delay_ratio"] = (d_after / d_before
                                         if d_before else 1.0)
        metrics[f"{key}.moves"] = moves
    return {"metrics": metrics, "vectors": vectors}


def bench_transistor_sizing(benchmark):
    rows = benchmark.pedantic(sizing_sweep, rounds=2, iterations=1)
    emit("E3: slack-driven sizing (switched cap)", format_table(
        ["circuit", "target", "cap before", "cap after", "saving",
         "delay before", "delay after", "moves"], rows))
    for row in rows:
        assert row[4] > 0.2, f"{row[0]} {row[1]} saved only {row[4]:.0%}"
        limit = row[5] * 1.05 + 1e-9 if row[1] == "default" else row[5]
        assert row[6] <= limit
