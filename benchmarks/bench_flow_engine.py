"""Flow-engine gate: trace determinism and rollback behaviour.

The pass manager (repro.core.passes) must (1) produce bit-identical
traces across reruns at equal parameters, (2) roll back raising,
equivalence-breaking and power-regressing passes while the remaining
passes still run to a final, equivalent network, and (3) record guard
skips (the don't-care size cap) instead of silently omitting stages.
These are contracts, not tolerances — the CI compares this bench's
metrics against the baseline at ``--tol 0``.

With ``$REPRO_FLOW_TRACE`` set, the default flow's JSONL trace is
written there (the CI uploads it as a workflow artifact).
"""

import os

from repro.bench.profiling import PHASE_OPT, phase
from repro.core.flow import low_power_flow
from repro.core.passes import (ADOPTED, Pass, PassContext,
                               ROLLED_BACK, SKIPPED, make_pass,
                               run_network_passes)
from repro.core.report import format_table
from repro.logic.generators import ripple_carry_adder
from repro.logic.transform import to_sop_network
from repro.sim.functional import verify_equivalence

from conftest import emit, harness_params, scaled

CLAIMS = ()


def _bomb(net, ctx, params):
    raise RuntimeError("injected pass failure")


def _break_equivalence(net, ctx, params):
    out = net.outputs[0]
    net.set_function(out, net.nodes[out].cover.complement())


def _regress_power(net, ctx, params):
    for node in net.nodes.values():
        if not node.is_source():
            node.attrs["size"] = 8.0


def engine_exercise(vectors=256, seed=0):
    net = ripple_carry_adder(4)

    # 1. Default flow, twice: the trace fingerprint (wall times
    # excluded) must be identical, as must the final power.
    with phase(PHASE_OPT):
        res1 = low_power_flow(net, num_vectors=vectors, seed=seed)
        res2 = low_power_flow(net, num_vectors=vectors, seed=seed)
    deterministic = res1.trace.fingerprint() == res2.trace.fingerprint()

    # 2. Guard skip: a zero size cap must record the don't-care stage
    # as skipped (reason size-cap), not drop it from the history.
    with phase(PHASE_OPT):
        res_cap = low_power_flow(net, num_vectors=vectors, seed=seed,
                                 dontcare_size_cap=0)
    skips = [s for s in res_cap.stages if s.outcome == SKIPPED]
    skip_recorded = len(skips) == 1 and skips[0].reason == "size-cap"

    # 3. Hostile flow: three failing passes between two good ones.
    work = to_sop_network(net)
    ctx = PassContext(original=net, num_vectors=vectors, seed=seed)
    passes = [
        make_pass("extract"),
        Pass(name="bomb", apply=_bomb),
        Pass(name="breaker", apply=_break_equivalence),
        Pass(name="regressor", apply=_regress_power,
             max_power_regression=0.0),
        make_pass("map"),
    ]
    with phase(PHASE_OPT):
        final, trace, _ = run_network_passes(work, passes, ctx)
    outcomes = {r.name: r.outcome for r in trace.records}
    reasons = {r.name: r.reason for r in trace.records}
    survived = verify_equivalence(net, final, 512, seed)

    rows = [[r.name, r.outcome, r.reason or "-"]
            for r in trace.records]
    return {
        "deterministic": float(deterministic),
        "skip_recorded": float(skip_recorded),
        "final_power_uW": res1.stages[-1].report.total * 1e6,
        "stages_adopted": float(sum(
            1 for s in res1.stages[1:] if s.outcome == ADOPTED)),
        "rolled_back": float(sum(
            1 for o in outcomes.values() if o == ROLLED_BACK)),
        "bomb_rolled_back": float(
            outcomes.get("bomb") == ROLLED_BACK
            and reasons.get("bomb", "").startswith("exception")),
        "breaker_rolled_back": float(
            outcomes.get("breaker") == ROLLED_BACK
            and reasons.get("breaker") == "equivalence"),
        "regressor_rolled_back": float(
            outcomes.get("regressor") == ROLLED_BACK
            and reasons.get("regressor") == "power-regression"),
        "tail_pass_adopted": float(outcomes.get("map") == ADOPTED),
        "final_equivalent": float(survived),
    }, res1.trace, rows


def run(params=None):
    quick, seed = harness_params(params)
    vectors = scaled(512, quick, floor=256)
    metrics, default_trace, _rows = engine_exercise(vectors=vectors,
                                                    seed=seed)
    trace_out = os.environ.get("REPRO_FLOW_TRACE")
    if trace_out:
        default_trace.write(trace_out)
    return {"metrics": metrics, "vectors": vectors}


def bench_flow_engine(benchmark):
    metrics, _trace, rows = benchmark.pedantic(
        engine_exercise, rounds=1, iterations=1)
    emit("flow engine: outcome per pass of the hostile flow",
         format_table(["pass", "outcome", "reason"], rows))
    assert metrics["deterministic"] == 1.0
    assert metrics["skip_recorded"] == 1.0
    assert metrics["rolled_back"] == 3.0
    assert metrics["bomb_rolled_back"] == 1.0
    assert metrics["breaker_rolled_back"] == 1.0
    assert metrics["regressor_rolled_back"] == 1.0
    assert metrics["tail_pass_adopted"] == 1.0
    assert metrics["final_equivalent"] == 1.0
