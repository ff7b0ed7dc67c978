"""Result records and JSON (de)serialization for the bench harness.

A suite run produces one :class:`RunReport` holding one
:class:`BenchResult` per benchmark.  Reports are written to
``BENCH_<timestamp>.json`` and are the regression-tracking currency of
the repo: ``bench compare`` diffs two of them.

Metric conventions
------------------
* metric values are numbers (int/float); the key encodes the quantity,
  e.g. ``"rca16.sw_fraction"`` or ``"saving.n3_strong"``;
* keys ending in ``_ms`` or ``_s`` are wall-clock measurements, and
  keys ending in ``_x`` are speedup ratios derived from them; both are
  treated as *volatile*: recorded for trend plots but excluded from
  drift detection (see :mod:`repro.bench.compare`).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

SCHEMA_VERSION = 1

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"

#: metric-key suffixes whose values are wall-clock dependent
#: (timings and the speedup ratios computed from them).
VOLATILE_SUFFIXES: Tuple[str, ...] = ("_ms", "_s", "_x")


def is_volatile_metric(key: str) -> bool:
    return key.endswith(VOLATILE_SUFFIXES)


@dataclass
class BenchResult:
    """Outcome of one benchmark execution."""

    name: str
    claims: Tuple[str, ...] = ()
    status: str = STATUS_OK
    wall_s: float = 0.0
    seed: int = 0
    vectors: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    phases: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "claims": list(self.claims),
            "status": self.status,
            "wall_s": self.wall_s,
            "seed": self.seed,
            "vectors": self.vectors,
            "metrics": dict(self.metrics),
            "phases": dict(self.phases),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "BenchResult":
        return cls(
            name=d["name"],
            claims=tuple(d.get("claims", ())),
            status=d.get("status", STATUS_OK),
            wall_s=float(d.get("wall_s", 0.0)),
            seed=int(d.get("seed", 0)),
            vectors=int(d.get("vectors", 0)),
            metrics=dict(d.get("metrics", {})),
            phases=dict(d.get("phases", {})),
            error=d.get("error"),
        )


@dataclass
class RunReport:
    """One harness invocation: parameters, host info and all results."""

    results: List[BenchResult] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)
    created: str = ""
    host: Dict[str, str] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    @classmethod
    def new(cls, params: Optional[Dict[str, Any]] = None) -> "RunReport":
        return cls(
            params=dict(params or {}),
            created=time.strftime("%Y-%m-%dT%H:%M:%S"),
            host={
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": platform.platform(),
            },
        )

    def by_name(self) -> Dict[str, BenchResult]:
        return {r.name: r for r in self.results}

    @property
    def num_ok(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def all_ok(self) -> bool:
        return bool(self.results) and self.num_ok == len(self.results)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "created": self.created,
            "params": dict(self.params),
            "host": dict(self.host),
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunReport":
        return cls(
            results=[BenchResult.from_dict(r)
                     for r in d.get("results", [])],
            params=dict(d.get("params", {})),
            created=d.get("created", ""),
            host=dict(d.get("host", {})),
            schema=int(d.get("schema", SCHEMA_VERSION)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunReport":
        with open(path) as f:
            return cls.from_json(f.read())

    def summary(self) -> str:
        lines = [f"{len(self.results)} benchmarks, {self.num_ok} ok"]
        for r in sorted(self.results, key=lambda r: r.name):
            flag = r.status if not r.ok else f"{r.wall_s:7.2f}s"
            claims = ",".join(r.claims) or "-"
            lines.append(f"  {r.name:24s} {flag:>9s}  "
                         f"[{claims}]  {len(r.metrics)} metrics")
        return "\n".join(lines)


def default_report_filename(now: Optional[float] = None) -> str:
    stamp = time.strftime("%Y%m%d_%H%M%S",
                          time.localtime(now) if now else time.localtime())
    return f"BENCH_{stamp}.json"
