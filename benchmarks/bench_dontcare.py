"""E4 — Don't-care optimization for power (claim C5).

Paper (§III-A.1, [38]/[19]): re-minimizing nodes against their
controllability/observability don't-cares, with the cover chosen for
switching activity, reduces power.  Workload: reconvergent random
networks (rich in CDCs/ODCs), plus one circuit of the largest size the
flow's don't-care cap admits.
"""

from repro.bench.profiling import PHASE_OPT, PHASE_VERIFY, phase
from repro.core.report import format_table
from repro.logic.generators import random_logic
from repro.opt.logic.dontcare import dontcare_power_optimization
from repro.sim.functional import verify_equivalence

from conftest import emit, harness_params, scaled

CLAIMS = ("C5",)

SEEDS = [2, 7, 11, 21]


def dontcare_sweep(seeds=tuple(SEEDS), vectors=256):
    circuits = [(f"rand{seed}", seed, random_logic(7, 22, seed=seed))
                for seed in seeds]
    # A circuit of perfbench flow-logic's largest class (16 inputs, 120
    # gates), where the pass sees wide fanout cones and deep BDDs.
    circuits.append(("rand16x120s5", 5, random_logic(16, 120, seed=5)))
    rows = []
    for label, seed, net in circuits:
        ref = net.copy()
        with phase(PHASE_OPT):
            res = dontcare_power_optimization(net, num_vectors=vectors)
        with phase(PHASE_VERIFY):
            assert verify_equivalence(ref, net, 2 * vectors, seed=seed)
        rows.append([label, res.nodes_changed,
                     res.switched_cap_before, res.switched_cap_after,
                     res.power_saving, res.literals_before,
                     res.literals_after, res.bdd_nodes, res.witnessed])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    vectors = scaled(256, quick, floor=128)
    seeds = tuple(s + seed for s in (SEEDS[:2] if quick else SEEDS))
    rows = dontcare_sweep(seeds=seeds, vectors=vectors)
    metrics = {}
    for (label, changed, _cb, _ca, saving, lits_b, lits_a, nodes,
         witnessed) in rows:
        metrics[f"{label}.nodes_changed"] = changed
        metrics[f"{label}.power_saving"] = saving
        metrics[f"{label}.literals_delta"] = lits_a - lits_b
        # Work counters: the size of the pass's BDD manager at its end,
        # and the nodes whose empty don't-care set simulation proved.
        metrics[f"{label}.bdd_nodes"] = nodes
        metrics[f"{label}.witnessed"] = witnessed
    return {"metrics": metrics, "vectors": vectors}


def bench_dontcare(benchmark):
    rows = benchmark.pedantic(dontcare_sweep, rounds=2, iterations=1)
    emit("E4: don't-care power optimization", format_table(
        ["circuit", "nodes changed", "cap before", "cap after",
         "saving", "lits before", "lits after", "bdd nodes", "witnessed"],
        rows))
    # Never a regression; some circuits must actually improve.
    assert all(r[4] >= -1e-9 for r in rows)
    assert any(r[4] > 0.01 for r in rows)
