"""E11 — Gated clocks (claim C11, [9]/[4]).

Paper (§III-C.3): registers not updated every cycle can have their
clocks gated; for FSMs, the self-loop activation function of [4] stops
the state registers' clock whenever the machine idles.  We sweep the
self-loop probability (via input statistics) and report clock power and
total power, gated vs baseline.
"""

import random

from repro.bench.profiling import (PHASE_EST, PHASE_OPT, PHASE_SIM,
                                   phase)
from repro.core.report import format_table
from repro.opt.seq.encoding import encode_natural
from repro.opt.seq.gated_clock import (clock_power,
                                       self_loop_clock_gating)
from repro.opt.seq.stg import STG
from repro.power.activity import sequential_activity
from repro.power.model import power_report
from repro.sim.functional import sequential_transitions

from conftest import emit, harness_params, scaled

CLAIMS = ("C11",)


def idle_stg():
    """Moves only on input 11, otherwise self-loops."""
    stg = STG(2, 1)
    for i in range(4):
        s, nxt = f"s{i}", f"s{(i + 1) % 4}"
        out = "1" if i == 3 else "0"
        stg.add_transition("11", s, nxt, out)
        stg.add_transition("0-", s, s, out)
        stg.add_transition("10", s, s, out)
    return stg


def gating_sweep(cycles=800, seed=0):
    stg = idle_stg()
    with phase(PHASE_OPT):
        res = self_loop_clock_gating(stg, encode_natural(stg))
    rows = []
    for p_move, label in [(0.5, "moderate (p11=0.25)"),
                          (0.25, "idle (p11=0.06)")]:
        rng = random.Random(int(p_move * 100) + seed)
        vecs = []
        for _ in range(cycles):
            x0 = int(rng.random() < p_move)
            x1 = int(rng.random() < p_move)
            vecs.append({"x0": x0, "x1": x1})
        with phase(PHASE_SIM):
            _, tb = sequential_transitions(res.baseline, vecs)
            _, tg = sequential_transitions(res.network, vecs)
        assert [t["z0"] for t in tb] == [t["z0"] for t in tg]
        en_rate = sum(t["_fa_n"] for t in tg) / len(tg)
        with phase(PHASE_EST):
            pb = power_report(res.baseline,
                              sequential_activity(res.baseline, vecs))
            pg = power_report(res.network,
                              sequential_activity(res.network, vecs))
        ckb = clock_power(res.baseline, {})
        ckg = clock_power(res.network,
                          {l.output: en_rate
                           for l in res.network.latches})
        total_b = pb.total + ckb
        total_g = pg.total + ckg
        rows.append([label, en_rate, ckb * 1e6, ckg * 1e6,
                     total_b * 1e6, total_g * 1e6,
                     1 - total_g / total_b])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    cycles = scaled(800, quick, floor=200)
    rows = gating_sweep(cycles=cycles, seed=seed)
    metrics = {}
    for key, row in zip(("moderate", "idle"), rows):
        metrics[f"{key}.enable_rate"] = row[1]
        metrics[f"{key}.clock_power_gated_uW"] = row[3]
        metrics[f"{key}.saving"] = row[6]
    return {"metrics": metrics, "vectors": cycles}


def bench_gated_clock(benchmark):
    rows = benchmark.pedantic(gating_sweep, rounds=2, iterations=1)
    emit("E11: FSM self-loop clock gating", format_table(
        ["workload", "enable rate", "clk pwr base uW",
         "clk pwr gated uW", "total base uW", "total gated uW",
         "saving"], rows))
    moderate, idle = rows
    # Gated clock power tracks the enable rate; idler machines save
    # more overall.
    assert idle[1] < moderate[1]
    assert idle[3] < moderate[3]
    assert idle[6] > moderate[6]
    assert idle[6] > 0.03
