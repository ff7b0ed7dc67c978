"""Benchmark of the low-power flows, power estimation and the FSM flow.

Run from the repository root:

    python3 perfbench/run.py --workload flow-size --seed 1 --seconds 15 \\
        --trace 0

The run builds the workload's op list from ``--seed``, then runs whole
passes over it, one op after another in this single process, until
``--seconds`` have passed.  Every op's output is checked after the timed
loop.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``ops_per_s``, ``op_p50_s`` and ``peak_rss_mb``, with times in host
seconds rescaled to a reference host speed (``hostspeed``).  With
``--trace 1`` the
run spends half its time untraced and half with every layer entry point
of ``layers.ENTRIES`` wrapped, and reports the per-layer metrics; the
spans are written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import Stopwatch, probe_seconds, rescale

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Fresh processes timed from start to the end of set-up; the median is
#: reported as ``setup_s``.
SETUP_REPEATS = 7

WORKLOAD_NAMES = ("flow-size", "flow-logic", "estimate", "fsm")


@dataclass
class Record:
    """One op run: its index in the op list, raw host seconds, host
    seconds at reference speed (see ``hostspeed``), a digest of the
    output's signature, and the ``flow_facts`` of the output.

    ``output`` is kept only for the op's first run, to be checked, or
    when the op raised.  Later outputs are dropped, so that peak memory
    does not grow with the number of passes that fit in a run."""

    index: int
    raw_seconds: float
    seconds: float
    output: Any
    digest: Optional[str]
    facts: Tuple[Optional[float], Any]


def run_passes(ops, seconds: float, tracer=None):
    """Run whole passes over ``ops`` until ``seconds`` have passed
    (at least one pass).  Returns the records, the pass count, and the
    process's peak memory at the end of the first pass, which does not
    depend on how many passes fit in the run."""
    from workloads import flow_facts

    records: List[Record] = []
    kept = set()
    passes = 0
    start = time.perf_counter()
    watch = Stopwatch()
    while passes == 0 or time.perf_counter() - start < seconds:
        for index, op in enumerate(ops):
            net = op.fresh_input()
            with watch.interval() as timing:
                if tracer is not None:
                    tracer.begin_op(len(records), op.label)
                try:
                    output = op.run(net)
                except Exception as exc:  # an op failure is a result
                    traceback.print_exc(file=sys.stderr)
                    output = exc
                finally:
                    if tracer is not None:
                        tracer.end_op()
            if isinstance(output, Exception):
                records.append(Record(index, timing.raw, timing.seconds,
                                      output, None, (None, None)))
                continue
            digest = hashlib.sha256(
                repr(op.signature(output)).encode()).hexdigest()
            records.append(Record(
                index, timing.raw, timing.seconds,
                None if index in kept else output, digest,
                flow_facts(output)))
            kept.add(index)
        passes += 1
        if passes == 1:
            first_pass_rss = peak_rss_mb()
    return records, passes, first_pass_rss


def count_failures(ops, records: List[Record]) -> int:
    """Check the output of every op's first run on a fresh copy of its
    input; every later run of the op must reproduce that output's
    signature."""
    from workloads import CheckFailed

    first: Dict[int, Optional[str]] = {}
    failed = 0
    for rec in records:
        op = ops[rec.index]
        try:
            if isinstance(rec.output, Exception):
                raise CheckFailed(f"raised {rec.output!r}")
            if rec.index not in first:
                first[rec.index] = rec.digest
                op.check(op.fresh_input(), rec.output)
            elif rec.digest != first[rec.index]:
                raise CheckFailed("output differs from the op's first run")
        except CheckFailed as exc:
            print(f"check failed: {op.label}: {exc}", file=sys.stderr)
            failed += 1
    return failed


def op_latencies(records: List[Record]) -> List[float]:
    """Each op's median latency over the passes of a run.  A pass slowed
    by other load on the host then moves no op's latency."""
    latencies: Dict[int, List[float]] = {}
    for rec in records:
        latencies.setdefault(rec.index, []).append(rec.seconds)
    return [statistics.median(v) for v in latencies.values()]


def ops_per_s(records: List[Record]) -> float:
    """Throughput of one pass over the op list, at each op's median
    latency."""
    latencies = op_latencies(records)
    return len(latencies) / sum(latencies)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from starting a fresh process until it has imported
    the library and built the op list, at reference speed.

    The child prints ``time.monotonic()`` when set-up is done; the
    monotonic clock is system-wide, so the parent subtracts its own
    reading from before the start.  The child runs on the parent's CPU,
    where the parent probes the speed before and after."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe_seconds()
        start = time.monotonic()
        child = subprocess.run(cmd, check=True, capture_output=True,
                               text=True, timeout=120)
        done = float(child.stdout.split()[-1])
        times.append(rescale(done - start, [before, probe_seconds()]))
    return statistics.median(times)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(args, ops) -> Dict[str, Any]:
    records, passes, rss = run_passes(ops, args.seconds)
    failed = count_failures(ops, records)
    latencies = op_latencies(records)
    raw = len(records) / sum(r.raw_seconds for r in records)
    print(f"{args.workload} seed {args.seed}: {len(records)} ops in "
          f"{passes} passes; op_p50_s over {len(latencies)} ops; "
          f"{raw:.4g} ops per raw host second")
    return {
        "attempted": len(records), "failed": failed,
        "metrics": {
            "setup_s": metric(setup_seconds(args.workload, args.seed),
                              "s"),
            "ops_per_s": metric(ops_per_s(records), "1/s"),
            "op_p50_s": metric(statistics.median(latencies), "s"),
            "peak_rss_mb": metric(rss, "MB"),
        }}


def per_layer(args, ops) -> Dict[str, Any]:
    from layers import (ADOPT_RATIO, ENTRIES, OVERHEAD, PASS_NAMES,
                        POWER_SAVING, SIZING_MOVES, SIZING_SHARE,
                        per_layer_metrics)
    from tracing import Tracer
    from workloads import adopted_attempted

    plain, _, _ = run_passes(ops, args.seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        traced, passes, _ = run_passes(ops, args.seconds / 2, tracer)
    failed = count_failures(ops, plain + traced)

    values: Dict[str, float] = {}
    for e in ENTRIES:
        values[f"{e.name}.calls"] = tracer.calls[e.name] / passes
        if e.span:
            values[f"{e.name}.self_s"] = tracer.self_s[e.name] / passes
    values[SIZING_MOVES] = tracer.sizing_moves / passes
    op_seconds = sum(r.raw_seconds for r in traced)
    values[SIZING_SHARE] = \
        tracer.self_s["opt.circuit.sizing.size_for_power"] / op_seconds

    adopted = attempted = 0
    wall = dict.fromkeys(PASS_NAMES, 0.0)
    savings: List[float] = []
    for i, rec in enumerate(traced):
        saving, trace = rec.facts
        if trace is None:
            continue
        a, t = adopted_attempted(trace)
        adopted += a
        attempted += t
        for r in trace.records:
            wall[r.name] += r.wall_s
        if i < len(ops):
            savings.append(saving)
    values[ADOPT_RATIO] = adopted / attempted if attempted else 0.0
    for name, seconds in wall.items():
        values[f"core.passes.pass.{name}.wall_s"] = seconds / passes
    # Over the first pass only, so the value does not depend on how
    # many passes fit in the run.
    values[POWER_SAVING] = statistics.fmean(savings) if savings else 0.0
    values[OVERHEAD] = ops_per_s(plain) / ops_per_s(traced)

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write_spans(spans)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced ops ({passes} passes); per-layer values "
          f"are per pass; spans in {spans.relative_to(HERE.parent)}")
    return {
        "attempted": len(plain) + len(traced), "failed": failed,
        "metrics": {name: metric(values[name], unit)
                    for name, unit, _ in per_layer_metrics()}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    # The vCPUs of a shared host run at different speeds at the same
    # moment.  On one CPU, the speed probes run where the ops and the
    # set-up processes (which inherit the mask) run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    ops = workloads.build(args.workload, args.seed)
    if args.setup_only:
        print(time.monotonic())
        return 0
    result = per_layer(args, ops) if args.trace else end_to_end(args, ops)
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
