"""A6 — Exact sequential power estimation ([28] Monteiro & Devadas).

The combinational estimators assume flip-flop outputs are free 0.5
inputs; the exact method solves the machine's Markov chain.  On FSMs
with strongly non-uniform stationary distributions the combinational
assumption misestimates badly while the exact analysis matches long
simulation.
"""

import random

from repro.bench.profiling import PHASE_EST, PHASE_SIM, phase
from repro.core.report import format_table
from repro.opt.seq.encoding import encode_natural
from repro.opt.seq.stg import STG, synthesize_fsm
from repro.power.activity import (activity_from_simulation,
                                  sequential_activity)
from repro.power.model import power_report
from repro.power.sequential import exact_sequential_activity

from conftest import emit, harness_params, scaled

CLAIMS = ()


def sticky_fsm():
    """Machine that lives in s0 almost always (rare excursions)."""
    stg = STG(2, 1)
    stg.add_transition("11", "s0", "s1", "0")
    stg.add_transition("0-", "s0", "s0", "0")
    stg.add_transition("10", "s0", "s0", "0")
    stg.add_transition("--", "s1", "s2", "1")
    stg.add_transition("--", "s2", "s3", "1")
    stg.add_transition("--", "s3", "s0", "0")
    return synthesize_fsm(stg, encode_natural(stg))


def estimation_rows(cycles=30000, comb_vectors=4096, seed=7):
    net = sticky_fsm()
    with phase(PHASE_EST):
        exact = exact_sequential_activity(net)
    # Long-simulation reference.
    rng = random.Random(seed)
    vecs = [{"x0": rng.getrandbits(1), "x1": rng.getrandbits(1)}
            for _ in range(cycles)]
    with phase(PHASE_SIM):
        sim = sequential_activity(net, vecs)
    # Combinational approximation: latch outputs as free 0.5 inputs.
    with phase(PHASE_SIM):
        comb, _ = activity_from_simulation(net, comb_vectors, seed=1)

    p_exact = power_report(net, exact.activities).total
    p_sim = power_report(net, sim).total
    p_comb = power_report(net, comb).total

    err_exact = max(abs(exact.activities[k] - sim[k]) for k in sim)
    err_comb = max(abs(comb[k] - sim[k]) for k in sim)
    return [["exact Markov ([28])", exact.num_states, err_exact,
             p_exact * 1e6],
            ["combinational approx", "-", err_comb, p_comb * 1e6],
            ["30k-cycle simulation", "-", 0.0, p_sim * 1e6]]


def run(params=None):
    quick, seed = harness_params(params)
    cycles = scaled(30000, quick, floor=4000)
    comb_vectors = scaled(4096, quick, floor=1024)
    rows = estimation_rows(cycles=cycles, comb_vectors=comb_vectors,
                           seed=seed + 7)
    exact, comb, sim = rows
    metrics = {
        "num_states": exact[1],
        "exact.max_activity_error": exact[2],
        "comb.max_activity_error": comb[2],
        "exact.power_uW": exact[3],
        "comb.power_uW": comb[3],
        "sim.power_uW": sim[3],
    }
    return {"metrics": metrics, "vectors": cycles}


def bench_sequential_estimation(benchmark):
    rows = benchmark.pedantic(estimation_rows, rounds=2, iterations=1)
    emit("A6: sequential power estimation (max node-activity error vs "
         "long simulation)", format_table(
             ["method", "states", "max act error", "power uW"], rows))
    exact, comb, sim = rows
    assert exact[2] < 0.02
    assert comb[2] > 5 * exact[2]
    # Exact power within 5% of the simulated reference.
    assert abs(exact[3] - sim[3]) / sim[3] < 0.05