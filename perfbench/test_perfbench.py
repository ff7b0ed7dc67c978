"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``
from the repository root."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads
from hostspeed import REFERENCE_PROBE_S, Stopwatch, rescale
from layers import ENTRIES, WORKLOADS, per_layer_metrics
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = ("setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb")


def tiny_op_counts(workload: str) -> dict:
    """Trace the op of ``workload`` with the smallest input once."""
    ops = workloads.build(workload, 1)
    op = min(ops, key=lambda o: len(o.blob))
    tracer = Tracer()
    with tracer.installed():
        tracer.begin_op(0, op.label)
        op.run(op.fresh_input())
        tracer.end_op()
    return {"calls": dict(tracer.calls), "moves": tracer.sizing_moves}


def _counts_in_fresh_process(workload: str, hash_seed: str) -> dict:
    code = ("import json, test_perfbench as t; "
            f"print(json.dumps(t.tiny_op_counts({workload!r})))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=HERE,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrappers_are_live_and_bypasses_hold(workload):
    # Two processes with different string hashing must count the same
    # calls; then every prediction of the layer map must hold.
    first = _counts_in_fresh_process(workload, "1")
    assert _counts_in_fresh_process(workload, "2") == first
    calls = first["calls"]
    for entry in ENTRIES:
        if workload in entry.used_by:
            assert calls.get(entry.name, 0) >= 1, entry.name
        if workload in entry.bypassed_by:
            assert calls.get(entry.name, 0) == 0, entry.name
    assert (first["moves"] > 0) == (workload == "flow-size")


def test_originals_are_restored():
    import repro.core.passes as passes
    import repro.power.glitch as glitch
    import repro.power.model as model
    import repro.sim.functional as functional
    from repro.logic.netlist import Network

    before = (passes.verify_equivalence, glitch.node_capacitance,
              Network.__dict__["copy"])
    with Tracer().installed():
        assert passes.verify_equivalence is not before[0]
        assert glitch.node_capacitance is model.node_capacitance
    assert (passes.verify_equivalence, glitch.node_capacitance,
            Network.__dict__["copy"]) == before
    assert passes.verify_equivalence is functional.verify_equivalence


def test_rescale_weights_inverse_probe_times():
    assert rescale(3.0, [REFERENCE_PROBE_S]) == pytest.approx(3.0)
    # Half the time at half speed, half at twice the speed.
    assert rescale(3.0, [2 * REFERENCE_PROBE_S, REFERENCE_PROBE_S / 2]) \
        == pytest.approx(3.0 * 1.25)


def test_stopwatch_leaves_its_samples_out():
    handler = signal.getsignal(signal.SIGALRM)
    watch = Stopwatch()
    with watch.interval() as timing:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    # Samples at 0.2 s and 0.4 s ran inside the busy loop.
    assert 0.4 < timing.raw < 0.499
    assert timing.seconds > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _run(*args, cwd=ROOT, check=True):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          check=check, timeout=600)


def test_traced_runs_repeat_counts_exactly():
    results = []
    for _ in range(2):
        out = _run("--workload", "fsm", "--seed", "3", "--seconds", "0",
                   "--trace", "1")
        results.append(json.loads(out.stdout.splitlines()[-1]))
    a, b = (r["metrics"] for r in results)
    exact = [n for n in a if n.endswith((".calls", ".moves"))
             or n in ("core.passes.adopt_ratio", "power_saving")]
    assert {n: a[n] for n in exact} == {n: b[n] for n in exact}
    assert a["opt.seq.encoding.encode_anneal.calls"]["value"] == 24
    assert results[0]["correct"] and results[0]["failed"] == 0


def test_end_to_end_output_shape():
    out = _run("--workload", "fsm", "--seed", "1", "--seconds", "0",
               "--trace", "0")
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 24
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seeds_keep_the_size_classes(workload):
    a = workloads.build(workload, 1)
    b = workloads.build(workload, 2)
    assert [op.label for op in a] == [op.label for op in b]
    if workload != "fsm":
        assert any(x.blob != y.blob for x, y in zip(a, b))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert sorted(m["name"] for m in spec["end_to_end"]) == \
        sorted(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(per_layer_metrics())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = _run("--workload", "fsm", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path, check=False)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
