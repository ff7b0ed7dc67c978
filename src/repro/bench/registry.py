"""Benchmark discovery.

Every ``benchmarks/bench_<name>.py`` is an entry in the registry.  A
benchmark module exports

* ``CLAIMS`` — tuple of paper-claim IDs it reproduces (``("C1",)``;
  empty for ablations), and
* ``run(params) -> dict`` — the importable entry point: computes the
  experiment at the requested scale and returns
  ``{"metrics": {...}, "vectors": int}``.

Discovery is *static*: the module is parsed with :mod:`ast`, never
imported, so a benchmark that crashes on import is still listed (and
its crash is captured by the runner as a per-benchmark failure rather
than killing discovery).  Execution (:mod:`repro.bench.runner`) imports
the module lazily, inside the worker.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

#: environment override for the benchmark directory (used by the CI and
#: by tests that point the harness at a synthetic suite).
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

PREFIX = "bench_"


@dataclass(frozen=True)
class BenchSpec:
    """Static description of one discovered benchmark."""

    name: str              # registry name, e.g. "power_breakdown"
    path: str              # absolute path of the module file
    claims: Tuple[str, ...] = ()
    description: str = ""  # first line of the module docstring
    has_run: bool = True   # module defines a top-level run()


def default_bench_dir() -> Path:
    """``$REPRO_BENCH_DIR`` or ``<repo>/benchmarks`` next to ``src/``."""
    env = os.environ.get(BENCH_DIR_ENV)
    if env:
        return Path(env)
    # .../repo/src/repro/bench/registry.py -> .../repo/benchmarks
    return Path(__file__).resolve().parents[3] / "benchmarks"


def _literal_claims(node: ast.AST) -> Tuple[str, ...]:
    try:
        value = ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return ()
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    if isinstance(value, str):
        return (value,)
    return ()


def parse_spec(path: Path) -> BenchSpec:
    """Build a spec from the module source without importing it."""
    name = path.stem[len(PREFIX):] if path.stem.startswith(PREFIX) \
        else path.stem
    claims: Tuple[str, ...] = ()
    description = ""
    has_run = False
    try:
        tree = ast.parse(path.read_text())
    except SyntaxError as exc:
        return BenchSpec(name=name, path=str(path),
                         description=f"unparseable: {exc}",
                         has_run=False)
    doc = ast.get_docstring(tree)
    if doc:
        description = doc.strip().splitlines()[0]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets
                       if isinstance(t, ast.Name)]
            if "CLAIMS" in targets:
                claims = _literal_claims(node.value)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "run":
                has_run = True
    return BenchSpec(name=name, path=str(path), claims=claims,
                     description=description, has_run=has_run)


def discover(bench_dir: Optional[Path] = None,
             pattern: Optional[str] = None) -> List[BenchSpec]:
    """All benchmarks under ``bench_dir``, optionally filtered.

    ``pattern`` is a comma-separated list of substrings; a benchmark is
    kept when any of them occurs in its name.
    """
    bench_dir = Path(bench_dir) if bench_dir else default_bench_dir()
    specs = [parse_spec(p)
             for p in sorted(bench_dir.glob(f"{PREFIX}*.py"))]
    if pattern:
        needles = [n.strip() for n in pattern.split(",") if n.strip()]
        specs = [s for s in specs
                 if any(n in s.name for n in needles)]
    return specs


def find(name: str,
         bench_dir: Optional[Path] = None) -> Optional[BenchSpec]:
    for spec in discover(bench_dir):
        if spec.name == name:
            return spec
    return None
