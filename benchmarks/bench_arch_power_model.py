"""E14 — Architecture-level power model fidelity (claim C14).

Paper (§IV-A): activity-aware black-box capacitance models ([21]/[22])
are more accurate than white-noise (UWN/PFA) models, especially away
from the white-noise operating point.  Ground truth: gate-level
bit-parallel simulation of the module netlists.
"""

import random

from repro.arch.power_models import characterize_module, \
    measure_switched_cap
from repro.bench.profiling import PHASE_EST, PHASE_SIM, phase
from repro.core.report import format_table
from repro.logic.generators import array_multiplier, ripple_carry_adder

from conftest import emit, harness_params, scaled

CLAIMS = ("C14",)


def model_fidelity_rows(vectors=256, seed=1):
    rows = []
    for name, net in [("rca8", ripple_carry_adder(8)),
                      ("mult4", array_multiplier(4))]:
        with phase(PHASE_EST):
            ch = characterize_module(net, "op", name,
                                     num_vectors=vectors, seed=seed)
        rng = random.Random(42)
        # Validation stream at low activity (h ~ 0.1), unseen during
        # characterization seeds.
        pis = list(net.inputs)
        vectors_list = []
        prev = {pi: rng.getrandbits(1) for pi in pis}
        vectors_list.append(dict(prev))
        flips = 0
        for _ in range(vectors - 1):
            cur = {}
            for pi in pis:
                if rng.random() < 0.8:
                    cur[pi] = prev[pi]
                else:
                    cur[pi] = rng.getrandbits(1)
                flips += cur[pi] ^ prev[pi]
            vectors_list.append(cur)
            prev = cur
        h = flips / ((vectors - 1) * len(pis))
        with phase(PHASE_SIM):
            measured = measure_switched_cap(net, vectors_list)
        err_uwn = ch.prediction_error(h, measured, "uwn")
        err_bb = ch.prediction_error(h, measured, "blackbox")
        rows.append([name, h, measured, ch.module.cap_per_op,
                     ch.module.cap_base + ch.module.cap_slope * h,
                     err_uwn, err_bb])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    vectors = scaled(256, quick, floor=64)
    rows = model_fidelity_rows(vectors=vectors, seed=seed + 1)
    metrics = {}
    for name, h, measured, _uwn_pred, _bb_pred, e_uwn, e_bb in rows:
        metrics[f"{name}.activity"] = h
        metrics[f"{name}.measured_cap"] = measured
        metrics[f"{name}.err_uwn"] = e_uwn
        metrics[f"{name}.err_blackbox"] = e_bb
    return {"metrics": metrics, "vectors": vectors}


def bench_arch_power_model(benchmark):
    rows = benchmark.pedantic(model_fidelity_rows, rounds=2,
                              iterations=1)
    emit("E14: module power model fidelity at low input activity",
         format_table(["module", "h", "measured cap", "UWN pred",
                       "black-box pred", "UWN err", "BB err"], rows))
    for row in rows:
        assert row[6] < row[5], \
            f"{row[0]}: black-box not better ({row[6]} vs {row[5]})"
        assert row[6] < 0.35
