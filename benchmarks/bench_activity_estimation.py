"""Ablation A1 — Activity estimation accuracy vs runtime.

DESIGN.md: compare the independence-approximation propagation, the
BDD-exact probabilities and Monte-Carlo simulation on accuracy
(signal-probability RMS error against exact) and wall-clock cost.
"""

import math
import time

from repro.bench.profiling import PHASE_EST, PHASE_SIM, phase
from repro.core.report import format_table
from repro.logic.generators import comparator, random_logic
from repro.power.activity import (activity_from_simulation,
                                  signal_probability_exact,
                                  signal_probability_propagation)

from conftest import emit, harness_params, scaled

CLAIMS = ()

CIRCUITS = [
    ("cmp6", lambda: comparator(6)),
    ("rand10x40", lambda: random_logic(10, 40, seed=4)),
]


def estimation_rows(vectors=2048, seed=1):
    rows = []
    for name, make in CIRCUITS:
        net = make()
        t0 = time.perf_counter()
        with phase(PHASE_EST):
            exact = signal_probability_exact(net)
        t_exact = time.perf_counter() - t0
        t0 = time.perf_counter()
        with phase(PHASE_EST):
            prop = signal_probability_propagation(net)
        t_prop = time.perf_counter() - t0
        t0 = time.perf_counter()
        with phase(PHASE_SIM):
            _act, sim = activity_from_simulation(net, vectors,
                                                 seed=seed)
        t_sim = time.perf_counter() - t0

        def rms(est):
            errs = [(est[n] - exact[n]) ** 2 for n in exact]
            return math.sqrt(sum(errs) / len(errs))

        rows.append([name, rms(prop), rms(sim), t_prop * 1e3,
                     t_sim * 1e3, t_exact * 1e3])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    vectors = scaled(2048, quick)
    rows = estimation_rows(vectors=vectors, seed=seed + 1)
    metrics = {}
    for name, rms_prop, rms_sim, t_prop, t_sim, t_exact in rows:
        metrics[f"{name}.rms_propagation"] = rms_prop
        metrics[f"{name}.rms_montecarlo"] = rms_sim
        metrics[f"{name}.propagation_ms"] = t_prop
        metrics[f"{name}.simulation_ms"] = t_sim
        metrics[f"{name}.exact_ms"] = t_exact
    return {"metrics": metrics, "vectors": vectors}


def bench_activity_estimation(benchmark):
    rows = benchmark.pedantic(estimation_rows, rounds=2, iterations=1)
    emit("A1: probability estimation accuracy (RMS vs exact) & cost",
         format_table(["circuit", "propagation RMS", "MC-2048 RMS",
                       "prop ms", "sim ms", "exact ms"], rows))
    for row in rows:
        # Monte-Carlo at 2048 vectors is near-exact; propagation is the
        # cheap-but-coarser option.
        assert row[2] < 0.05
        assert row[1] < 0.25
        assert row[3] < row[5]   # propagation cheaper than exact BDDs
