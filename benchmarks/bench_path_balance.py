"""E5 — Glitch fraction and path balancing (claim C2).

Paper (§III-A.2, [16]): spurious transitions are 10–40% of switching
activity in typical combinational circuits; path balancing with
unit-delay buffers removes them without touching the critical path (the
[25] multiplier).  The paper's own caveat — "the addition of buffers
increases capacitance which may offset the reduction in switching
activity" — is also measured: with full-size buffers the overhead wins;
with minimum-size delay buffers balancing yields a net saving.
"""

from repro.bench.profiling import PHASE_OPT, PHASE_SIM, phase
from repro.core.report import format_table
from repro.logic.generators import (array_multiplier, parity_tree,
                                    ripple_carry_adder)
from repro.opt.logic.balance import balance_paths
from repro.power.glitch import glitch_report, timed_average_power

from conftest import emit, harness_params, scaled

CLAIMS = ("C2",)

CIRCUITS = [
    ("mult4", lambda: array_multiplier(4)),
    ("rca8", lambda: ripple_carry_adder(8)),
    ("xorchain10", lambda: parity_tree(10, balanced=False)),
]


def balance_sweep(vectors=96, seed=3):
    rows = []
    for name, make in CIRCUITS:
        net = make()
        with phase(PHASE_SIM):
            g_before = glitch_report(net, num_vectors=vectors,
                                     seed=seed)
            p_before = timed_average_power(net, vectors,
                                           seed=seed).total
        with phase(PHASE_OPT):
            res = balance_paths(net)             # min-size buffers
        with phase(PHASE_SIM):
            g_after = glitch_report(net, num_vectors=vectors,
                                    seed=seed)
            p_after = timed_average_power(net, vectors,
                                          seed=seed).total
        # The caveat case: same circuit, full-size buffers.
        net_full = make()
        with phase(PHASE_OPT):
            balance_paths(net_full, buffer_size=1.0)
        with phase(PHASE_SIM):
            p_full = timed_average_power(net_full, vectors,
                                         seed=seed).total
        rows.append([name, g_before.glitch_power_fraction,
                     g_after.glitch_power_fraction, res.buffers_added,
                     res.depth_after - res.depth_before,
                     p_before * 1e6, p_after * 1e6, p_full * 1e6])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    vectors = scaled(96, quick, floor=48)
    rows = balance_sweep(vectors=vectors, seed=seed + 3)
    metrics = {}
    for (name, g_before, g_after, buffers, depth_delta,
         p0, p_min, p_full) in rows:
        metrics[f"{name}.glitch_fraction_before"] = g_before
        metrics[f"{name}.glitch_fraction_after"] = g_after
        metrics[f"{name}.buffers"] = buffers
        metrics[f"{name}.depth_delta"] = depth_delta
        metrics[f"{name}.power_uW"] = p0
        metrics[f"{name}.power_minbuf_uW"] = p_min
        metrics[f"{name}.power_fullbuf_uW"] = p_full
    return {"metrics": metrics, "vectors": vectors}


def bench_path_balance(benchmark):
    rows = benchmark.pedantic(balance_sweep, rounds=2, iterations=1)
    emit("E5: glitch fraction and net power of balancing "
         "(min-size vs full-size buffers)", format_table(
             ["circuit", "glitch before", "glitch after", "buffers",
              "depth delta", "power uW", "min-buf uW", "full-buf uW"],
             rows))
    for name, before, after, _b, ddelta, p0, p_min, p_full in rows:
        if name == "xorchain10":
            # Deliberately unbalanced chain: the pathological case.
            assert before > 0.5, (name, before)
        else:
            # Typical arithmetic circuits: the paper's 10–40% band.
            assert 0.10 < before < 0.55, (name, before)
        assert after < 0.02
        assert ddelta == 0                      # critical path held
        # Minimum-size buffers: net win on glitchy circuits.
        if before > 0.2:
            assert p_min < p0
        # The paper's caveat: full-size buffers can offset the saving.
        assert p_full > p_min
