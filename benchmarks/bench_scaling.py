"""A7 — Runtime scaling of the core engines.

Not a paper claim but an adoption question: how do the estimators and
the mapper scale with netlist size?  The bit-parallel zero-delay
simulator should be near-linear in gates; the event-driven simulator
pays per transition; mapping pays per cut.  Loose monotonic-growth
assertions guard against accidental quadratic blowups in the hot paths.
"""

import time

from repro.bench.profiling import PHASE_OPT, PHASE_SIM, phase
from repro.core.report import format_table
from repro.library.cells import generic_library
from repro.logic.generators import random_logic
from repro.opt.logic.mapping import tech_map
from repro.power.activity import activity_from_simulation
from repro.power.glitch import glitch_report

from conftest import emit, harness_params, scaled

CLAIMS = ()

SIZES = [50, 100, 200, 400]


def scaling_rows(sizes=tuple(SIZES), mc_vectors=512, ev_vectors=48):
    lib = generic_library()
    rows = []
    for gates in sizes:
        net = random_logic(16, gates, seed=1)
        t0 = time.perf_counter()
        with phase(PHASE_SIM):
            activity_from_simulation(net, num_vectors=mc_vectors,
                                     seed=1)
        t_mc = time.perf_counter() - t0
        t0 = time.perf_counter()
        with phase(PHASE_SIM):
            glitch_report(net, num_vectors=ev_vectors, seed=1)
        t_ev = time.perf_counter() - t0
        t0 = time.perf_counter()
        with phase(PHASE_OPT):
            tech_map(net, lib, "area")
        t_map = time.perf_counter() - t0
        rows.append([gates, t_mc * 1e3, t_ev * 1e3, t_map * 1e3])
    return rows


def run(params=None):
    quick, _seed = harness_params(params)
    sizes = (50, 100) if quick else tuple(SIZES)
    mc_vectors = scaled(512, quick, floor=128)
    ev_vectors = scaled(48, quick, floor=16)
    rows = scaling_rows(sizes=sizes, mc_vectors=mc_vectors,
                        ev_vectors=ev_vectors)
    metrics = {}
    for gates, t_mc, t_ev, t_map in rows:
        metrics[f"g{gates}.montecarlo_ms"] = t_mc
        metrics[f"g{gates}.event_sim_ms"] = t_ev
        metrics[f"g{gates}.mapping_ms"] = t_map
    # Deterministic growth-factor guard (wall-clock ratios are noisy,
    # so only the volatile _ms values carry the absolute numbers).
    first, last = rows[0], rows[-1]
    metrics["size_factor"] = last[0] / first[0]
    return {"metrics": metrics, "vectors": mc_vectors}


def bench_scaling(benchmark):
    rows = benchmark.pedantic(scaling_rows, rounds=1, iterations=1)
    emit("A7: runtime scaling (ms)", format_table(
        ["gates", "MC activity (512v)", "event sim (48v)",
         "area mapping"], rows))
    # 8x the gates should cost well under 64x in each engine
    # (guards against accidentally quadratic hot paths).
    first, last = rows[0], rows[-1]
    factor = last[0] / first[0]
    for col in (1, 2, 3):
        assert last[col] < first[col] * factor ** 2 * 4, col
