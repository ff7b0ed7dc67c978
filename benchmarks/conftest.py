"""Shared helpers for the experiment benches.

Every bench regenerates one table/claim from DESIGN.md's experiment
index (E1–E15 plus ablations).  Conventions:

* the *shape* of the claim is asserted (who wins, roughly by how much);
* the central computation runs under pytest-benchmark so wall-clock
  costs are tracked;
* the reproduced table is printed (visible with ``pytest -s`` and kept
  in EXPERIMENTS.md);
* each module additionally exports ``CLAIMS`` and a
  ``run(params) -> dict`` entry point so the unified harness
  (``repro.bench``, ``python -m repro.tools.cli bench run``) can
  execute it headlessly, in parallel, and track its metrics in
  ``BENCH_*.json`` artifacts.

``run(params)`` contract: ``params`` is a plain dict understood via
:func:`harness_params` — ``{"quick": bool, "seed": int}`` — and the
return value is ``{"metrics": {str: number}, "vectors": int}``.  With
``seed=0`` the metrics reproduce the tables in EXPERIMENTS.md (each
bench offsets the harness seed by its historical constants).  Metric
keys ending in ``_ms``/``_s`` are wall-clock and exempt from
regression gating.
"""

import sys

sys.stdout.reconfigure(line_buffering=True)


def emit(title: str, table: str) -> None:
    print(f"\n=== {title} ===\n{table}")


def harness_params(params):
    """Decode a harness params dict into ``(quick, seed)``."""
    p = dict(params or {})
    return bool(p.get("quick", False)), int(p.get("seed", 0))


def scaled(n: int, quick: bool, floor: int = 8,
           divisor: int = 8) -> int:
    """Shrink a workload size in ``--quick`` mode (CI smoke runs)."""
    return n if not quick else max(floor, n // divisor)
