"""Unified benchmark harness.

Discovers the ``benchmarks/bench_*.py`` experiments, runs them (in
parallel, crash-proof, with per-phase profiling) and tracks their
metrics as JSON artifacts for regression comparison.

>>> from repro.bench import discover, run_benchmarks, compare_reports
>>> report = run_benchmarks(discover(), {"quick": True, "seed": 0})
>>> report.all_ok
True

CLI: ``python -m repro.tools.cli bench run --quick --jobs 4`` and
``... bench compare BENCH_baseline.json BENCH_new.json``.
"""

from repro.bench.compare import Comparison, Finding, compare_reports
from repro.bench.profiling import (PHASE_EST, PHASE_OPT, PHASE_SIM,
                                   PHASE_SYNTH, PHASE_VERIFY,
                                   collect_phases, phase)
from repro.bench.registry import (BenchSpec, default_bench_dir,
                                  discover, find)
from repro.bench.result import (BenchResult, RunReport,
                                default_report_filename,
                                is_volatile_metric)
from repro.bench.runner import execute_one, failures, run_benchmarks

__all__ = [
    "BenchResult", "BenchSpec", "Comparison", "Finding", "RunReport",
    "collect_phases", "compare_reports", "default_bench_dir",
    "default_report_filename", "discover", "execute_one", "failures",
    "find", "is_volatile_metric", "phase", "run_benchmarks",
    "PHASE_EST", "PHASE_OPT", "PHASE_SIM", "PHASE_SYNTH",
    "PHASE_VERIFY",
]
