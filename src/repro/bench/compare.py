"""Regression detection between two ``BENCH_*.json`` reports.

``compare_reports(baseline, current)`` matches benchmarks by name and
metrics by key and flags:

* **drift** — a metric moved beyond tolerance
  (``math.isclose(rel_tol, abs_tol)``);
* **status** — a benchmark that was ``ok`` now errors or times out;
* **missing-bench** / **missing-metric** — coverage shrank;
* **new-bench** / **new-metric** — informational only, never failing
  (growth is expected between PRs).

Wall-clock metrics (keys ending ``_ms``/``_s``, the ``wall_s`` field
and the phase timers) are recorded for trend analysis but excluded from
drift detection — only deterministic quantities gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.bench.result import (STATUS_OK, RunReport,
                                is_volatile_metric)

DEFAULT_REL_TOL = 0.05
DEFAULT_ABS_TOL = 1e-9

# finding kinds
DRIFT = "drift"
STATUS = "status"
MISSING_BENCH = "missing-bench"
MISSING_METRIC = "missing-metric"
NEW_BENCH = "new-bench"
NEW_METRIC = "new-metric"

#: kinds that make the comparison fail
FAILING_KINDS = (DRIFT, STATUS, MISSING_BENCH, MISSING_METRIC)


@dataclass(frozen=True)
class Finding:
    kind: str
    bench: str
    metric: str = ""
    baseline: float = math.nan
    current: float = math.nan
    detail: str = ""

    @property
    def failing(self) -> bool:
        return self.kind in FAILING_KINDS

    def describe(self) -> str:
        where = f"{self.bench}.{self.metric}" if self.metric \
            else self.bench
        if self.kind == DRIFT:
            delta = self.current - self.baseline
            rel = (delta / abs(self.baseline)
                   if self.baseline else math.inf)
            return (f"DRIFT {where}: {self.baseline:g} -> "
                    f"{self.current:g} ({rel:+.1%})")
        return f"{self.kind.upper()} {where}: {self.detail}"


@dataclass
class Comparison:
    findings: List[Finding] = field(default_factory=list)
    benches_compared: int = 0
    metrics_compared: int = 0

    @property
    def ok(self) -> bool:
        return not any(f.failing for f in self.findings)

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.failing]

    def summary(self) -> str:
        lines = [f"compared {self.benches_compared} benchmarks, "
                 f"{self.metrics_compared} metrics: "
                 + ("OK" if self.ok
                    else f"{len(self.regressions)} regression(s)")]
        for f in self.findings:
            marker = "!!" if f.failing else "  "
            lines.append(f"  {marker} {f.describe()}")
        return "\n".join(lines)


def compare_reports(baseline: RunReport, current: RunReport,
                    rel_tol: float = DEFAULT_REL_TOL,
                    abs_tol: float = DEFAULT_ABS_TOL) -> Comparison:
    cmp = Comparison()
    base_by = baseline.by_name()
    cur_by = current.by_name()

    for name in sorted(base_by):
        if name not in cur_by:
            cmp.findings.append(Finding(
                MISSING_BENCH, name,
                detail="present in baseline, absent now"))
    for name in sorted(cur_by):
        if name not in base_by:
            cmp.findings.append(Finding(
                NEW_BENCH, name, detail="not in baseline"))

    for name in sorted(set(base_by) & set(cur_by)):
        b, c = base_by[name], cur_by[name]
        cmp.benches_compared += 1
        if b.status == STATUS_OK and c.status != STATUS_OK:
            cmp.findings.append(Finding(
                STATUS, name,
                detail=f"was ok, now {c.status}"
                       + (f": {c.error.splitlines()[-1]}"
                          if c.error else "")))
            continue
        if b.status != STATUS_OK:
            continue  # baseline itself was broken; nothing to gate on
        for key in sorted(b.metrics):
            if is_volatile_metric(key):
                continue
            if key not in c.metrics:
                cmp.findings.append(Finding(
                    MISSING_METRIC, name, key,
                    baseline=b.metrics[key],
                    detail="metric disappeared"))
                continue
            cmp.metrics_compared += 1
            bv, cv = b.metrics[key], c.metrics[key]
            if not math.isclose(bv, cv, rel_tol=rel_tol,
                                abs_tol=abs_tol):
                cmp.findings.append(Finding(
                    DRIFT, name, key, baseline=bv, current=cv))
        for key in sorted(set(c.metrics) - set(b.metrics)):
            if not is_volatile_metric(key):
                cmp.findings.append(Finding(
                    NEW_METRIC, name, key, current=c.metrics[key],
                    detail="not in baseline"))
    return cmp
