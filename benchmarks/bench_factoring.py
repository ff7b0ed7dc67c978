"""E6 — Power-aware kernel extraction (claim C6).

Paper (§III-A.3, [35] SYCLOP): when extraction is valued by switching
activity instead of literal count, the chosen decomposition differs and
the switched-capacitance cost drops.  Workload: random two-level covers
with strongly skewed input statistics.
"""

import random

from repro.bench.profiling import PHASE_OPT, PHASE_VERIFY, phase
from repro.core.report import format_table
from repro.logic.cube import Cube
from repro.logic.netlist import Network
from repro.logic.sop import Cover
from repro.opt.logic.kernels import extract_kernels
from repro.sim.functional import verify_equivalence

from conftest import emit, harness_params, scaled

CLAIMS = ("C6",)


def make_cover_net(seed: int, num_vars: int = 6, num_cubes: int = 8):
    rng = random.Random(seed)
    cubes = []
    for _ in range(num_cubes):
        lits = []
        for v in range(num_vars):
            r = rng.random()
            if r < 0.35:
                lits.append((v, 1))
            elif r < 0.5:
                lits.append((v, 0))
        if not lits:
            lits = [(rng.randrange(num_vars), 1)]
        cubes.append(Cube.from_literals(num_vars, lits))
    net = Network(f"cover{seed}")
    names = [f"x{i}" for i in range(num_vars)]
    net.add_inputs(names)
    net.add_sop("f", names, Cover(num_vars, cubes).sccc())
    net.set_output("f")
    return net


PROBS = {"x0": 0.95, "x1": 0.9, "x2": 0.5, "x3": 0.5, "x4": 0.1,
         "x5": 0.05}


def make_structured_net(hot_prob=0.5, quiet_prob=0.02):
    """f = (h0+h1)(q0+q1) + (h2+h3)(q2+q3): the area objective is
    indifferent between extracting the hot or the quiet kernels; the
    power objective must pick the quiet ones (low-activity new wire)."""
    net = Network("structured")
    names = [f"q{i}" for i in range(4)] + [f"h{i}" for i in range(4)]
    net.add_inputs(names)
    rows = []
    for (c, d, a, b) in [(0, 1, 4, 5), (2, 3, 6, 7)]:
        for x in (a, b):
            for y in (c, d):
                s = ["-"] * 8
                s[x] = "1"
                s[y] = "1"
                rows.append("".join(s))
    net.add_sop("f", names, Cover.from_strings(rows))
    net.set_output("f")
    probs = {f"h{i}": hot_prob for i in range(4)}
    probs.update({f"q{i}": quiet_prob for i in range(4)})
    return net, probs


def factoring_sweep(cover_seeds=(1, 3, 5, 8), vectors=128):
    rows = []
    for label, make, probs in (
        [("structured", None, None)] +
        [(f"cover{seed}", seed, PROBS) for seed in cover_seeds]):
        if label == "structured":
            net_area, probs = make_structured_net()
            net_power, _ = make_structured_net()
        else:
            net_area = make_cover_net(make)
            net_power = make_cover_net(make)
        ref = net_area.copy()
        with phase(PHASE_OPT):
            res_a = extract_kernels(net_area, "area",
                                    input_probs=probs)
            res_p = extract_kernels(net_power, "power",
                                    input_probs=probs)
        with phase(PHASE_VERIFY):
            assert verify_equivalence(ref, net_area, vectors)
            assert verify_equivalence(ref, net_power, vectors)
        rows.append([label,
                     res_a.literals_after, res_p.literals_after,
                     res_a.switched_cap_after,
                     res_p.switched_cap_after,
                     res_a.kernel_enumerations + res_p.kernel_enumerations])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    vectors = scaled(128, quick, floor=64)
    cover_seeds = tuple(s + seed for s in ((1, 3) if quick
                                           else (1, 3, 5, 8)))
    rows = factoring_sweep(cover_seeds=cover_seeds, vectors=vectors)
    metrics = {}
    for label, lits_a, lits_p, cap_a, cap_p, enumerations in rows:
        metrics[f"{label}.lits_area_obj"] = lits_a
        metrics[f"{label}.lits_power_obj"] = lits_p
        metrics[f"{label}.cap_area_obj"] = cap_a
        metrics[f"{label}.cap_power_obj"] = cap_p
        # Distinct covers whose kernels the two calls listed (each call
        # lists a cover once): the extraction's work, not the host's.
        metrics[f"{label}.kernel_enumerations"] = enumerations
    return {"metrics": metrics, "vectors": vectors}


def bench_factoring(benchmark):
    rows = benchmark.pedantic(factoring_sweep, rounds=2, iterations=1)
    emit("E6: area- vs power-driven extraction", format_table(
        ["cover", "lits (area obj)", "lits (power obj)",
         "cap (area obj)", "cap (power obj)", "kernel enumerations"],
        rows))
    # Power objective wins on switched capacitance overall; individual
    # random covers may tie (both extractors are greedy).
    assert sum(r[4] for r in rows) <= sum(r[3] for r in rows) + 1e-9
    structured = rows[0]
    assert structured[4] < structured[3] * 0.7, \
        "power objective must pick the quiet kernels"
