"""E8 — Low-power state encoding (claim C8).

Paper (§III-C.1, [35]/[47]): weighting state-pair traffic and giving
heavy pairs uni-distant codes cuts register switching; the synthesized
machine's total power (registers + induced logic) must also improve, or
at worst break even, versus the natural encoding.
"""

import random

from repro.bench.profiling import PHASE_EST, PHASE_OPT, phase
from repro.core.report import format_table
from repro.opt.seq.encoding import (encode_anneal, encode_greedy,
                                    encode_natural, encode_onehot,
                                    evaluate_encoding)
from repro.opt.seq.stg import STG

from conftest import emit, harness_params, scaled

CLAIMS = ("C8",)


def ring_stg(n, hold=0.5):
    stg = STG(1, 1)
    for i in range(n):
        s, nxt = f"s{i}", f"s{(i + 1) % n}"
        out = "1" if i == n - 1 else "0"
        stg.add_transition("0", s, s, out)
        stg.add_transition("1", s, nxt, out)
    return stg


def random_stg(n, seed):
    rng = random.Random(seed)
    stg = STG(2, 1)
    states = [f"s{i}" for i in range(n)]
    for s in states:
        targets = rng.sample(states, 4)
        for k, t in enumerate(targets):
            stg.add_transition(format(k, "02b"), s, t,
                               str(rng.getrandbits(1)))
    return stg


def encoding_sweep(iterations=2500, sequence_length=800):
    from repro.opt.seq.fsm_benchmarks import load_benchmark

    rows = []
    for name, stg in [("ring8", ring_stg(8)),
                      ("rand8", random_stg(8, 2)),
                      ("rand12", random_stg(12, 5)),
                      ("vending", load_benchmark("vending")),
                      ("elevator", load_benchmark("elevator"))]:
        with phase(PHASE_OPT):
            encoders = [("natural", encode_natural(stg)),
                        ("greedy", encode_greedy(stg)),
                        ("anneal", encode_anneal(stg,
                                                 iterations=iterations,
                                                 seed=1)),
                        ("one-hot", encode_onehot(stg))]
        for ename, enc in encoders:
            with phase(PHASE_EST):
                res = evaluate_encoding(
                    stg, enc, sequence_length=sequence_length, seed=3)
            rows.append([name, ename, res.register_cost, res.literals,
                         res.total_power * 1e6])
    return rows


def run(params=None):
    quick, _seed = harness_params(params)
    iterations = scaled(2500, quick, floor=600)
    sequence_length = scaled(800, quick, floor=200)
    rows = encoding_sweep(iterations=iterations,
                          sequence_length=sequence_length)
    metrics = {}
    for fsm, encoder, reg_cost, literals, power in rows:
        key = f"{fsm}.{encoder.replace('-', '_')}"
        metrics[f"{key}.reg_cost"] = reg_cost
        metrics[f"{key}.literals"] = literals
        metrics[f"{key}.power_uW"] = power
    return {"metrics": metrics, "vectors": sequence_length}


def bench_state_encoding(benchmark):
    rows = benchmark.pedantic(encoding_sweep, rounds=1, iterations=1)
    emit("E8: state encoding (FF transitions/cycle, power)",
         format_table(["fsm", "encoder", "reg cost", "literals",
                       "power uW"], rows))
    by = {(r[0], r[1]): r for r in rows}
    for fsm in ("ring8", "rand8", "rand12", "vending", "elevator"):
        nat = by[(fsm, "natural")]
        ann = by[(fsm, "anneal")]
        # The optimized encoding must cut register switching...
        assert ann[2] <= nat[2] + 1e-9
    # ...and on the ring (register-dominated) also total power.
    assert by[("ring8", "anneal")][4] <= \
        by[("ring8", "natural")][4] * 1.05
