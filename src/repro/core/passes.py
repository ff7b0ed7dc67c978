"""Fail-soft pass manager for the optimization flows.

The flows of :mod:`repro.core.flow` used to be rigid chains: the first
stage exception aborted the whole run, skipped stages left no evidence,
and nothing recorded what each stage actually did.  This module is the
engine underneath them now:

* every optimization runs as a registered :class:`Pass` on a **trial
  copy** of the working network;
* the result is verified (random-simulation equivalence against the
  flow's original, plus an optional power-regression tolerance) and
  either **adopted** or **rolled back** — exceptions (the pass's guard
  included), equivalence breaks and power regressions all degrade to a
  ``rolled_back`` trace entry while the remaining passes still run
  (``strict=True`` raises instead);
* every stage of either flow — network pass or STG-level step of the
  sequential flow — runs through one recording path that emits a
  structured :class:`TraceRecord` (wall time, power before/after,
  gate/transistor/depth deltas, verification strength, outcome,
  reason) into a :class:`FlowTrace` that serializes to JSONL.

Concrete pass adapters live in :mod:`repro.opt.adapters`; declarative
flows (pass list + per-pass params, loadable from JSON) are described
by :class:`FlowSpec` and driven by ``repro flow --spec``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.library.cells import Library
from repro.logic.netlist import Network
from repro.power.activity import activity_from_simulation
from repro.power.model import (PowerParameters, PowerReport,
                               power_report)
from repro.sim.functional import verify_equivalence

# -- outcomes ------------------------------------------------------------

ADOPTED = "adopted"
SKIPPED = "skipped"
ROLLED_BACK = "rolled_back"

#: JSONL fields that vary run to run and are excluded from fingerprints.
VOLATILE_TRACE_FIELDS = ("wall_s",)

TRACE_SCHEMA = 1


class FlowError(RuntimeError):
    """A pass failed while the engine was running in strict mode."""


# -- context and pass description ---------------------------------------

@dataclass
class PassContext:
    """Shared, read-only state every pass sees.

    ``original`` is the flow's input network — the reference for
    equivalence checking.  ``num_vectors``/``seed`` parameterize every
    simulation a pass performs, so one (vectors, seed) pair makes the
    whole flow deterministic.
    """

    original: Network
    library: Optional[Library] = None
    input_probs: Optional[Dict[str, float]] = None
    params: Optional[PowerParameters] = None
    num_vectors: int = 1024
    seed: int = 0
    #: run the structural invariant linter on every candidate network
    lint: bool = False

    @property
    def verify_vectors(self) -> int:
        """Equivalence-check strength, scaled with the simulation
        effort: high-effort runs must not verify at toy strength."""
        return max(256, self.num_vectors // 4)


#: ``apply(trial, ctx, params)`` mutates ``trial`` in place or returns a
#: replacement network (``None`` means "mutated in place").
PassApply = Callable[[Network, PassContext, Dict[str, Any]],
                     Optional[Network]]
#: ``guard(work, ctx, params)`` returns a skip reason, or ``None`` to run.
PassGuard = Callable[[Network, PassContext, Dict[str, Any]],
                     Optional[str]]


@dataclass
class Pass:
    """One registered optimization step."""

    name: str
    apply: PassApply
    params: Dict[str, Any] = field(default_factory=dict)
    #: max tolerated relative power increase (``None``: no power gate;
    #: ``0.0``: reject any regression)
    max_power_regression: Optional[float] = None
    guard: Optional[PassGuard] = None


# -- pass registry -------------------------------------------------------

_REGISTRY: Dict[str, Callable[[Dict[str, Any]], Pass]] = {}


def register_pass(name: str):
    """Decorator: register ``factory(params) -> Pass`` under ``name``."""

    def deco(factory: Callable[[Dict[str, Any]], Pass]):
        _REGISTRY[name] = factory
        return factory

    return deco


def _ensure_adapters() -> None:
    # The standard adapters register themselves on import; imported
    # lazily to keep core free of an opt-layer import cycle.
    import repro.opt.adapters  # noqa: F401


def available_passes() -> List[str]:
    _ensure_adapters()
    return sorted(_REGISTRY)


def make_pass(name: str,
              params: Optional[Dict[str, Any]] = None) -> Pass:
    """Instantiate a registered pass with per-pass parameters.

    The ``max_power_regression`` parameter sets every pass's power
    gate (see :attr:`Pass.max_power_regression`).
    """
    _ensure_adapters()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown pass {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}") from None
    params = dict(params or {})
    p = factory(params)
    tol = params.get("max_power_regression")
    if tol is not None:
        try:
            p.max_power_regression = float(tol)
        except (TypeError, ValueError):
            raise ValueError(
                f"pass {name!r}: max_power_regression must be a "
                f"number, got {tol!r}") from None
    return p


# -- trace ---------------------------------------------------------------

@dataclass
class TraceRecord:
    """What one pass (or stage) did to the design."""

    index: int
    name: str
    outcome: str                 # adopted | skipped | rolled_back
    reason: str = ""             # "" for adopted
    wall_s: float = 0.0
    power_before: Optional[float] = None
    power_after: Optional[float] = None
    gates_before: Optional[int] = None
    gates_after: Optional[int] = None
    transistors_before: Optional[int] = None
    transistors_after: Optional[int] = None
    depth_before: Optional[float] = None
    depth_after: Optional[float] = None
    #: random vectors of the equivalence check (0: not reached)
    verify_vectors: int = 0
    #: invariant-lint error count on the candidate (None: lint off)
    lint_errors: Optional[int] = None
    #: the offending diagnostics (JSON form) when lint_errors > 0
    lint: List[Dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        d = asdict(self)
        d["type"] = "pass"
        return d

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "TraceRecord":
        d = {k: v for k, v in d.items() if k != "type"}
        return cls(**d)


@dataclass
class FlowTrace:
    """Ordered trace of a whole flow, serializable to JSONL.

    The JSONL form is one header line (``type: "flow"`` — flow name,
    simulation parameters, schema version) followed by one ``type:
    "pass"`` line per :class:`TraceRecord`.
    """

    flow: str = "flow"
    num_vectors: int = 0
    seed: int = 0
    strict: bool = False
    records: List[TraceRecord] = field(default_factory=list)

    def add(self, record: TraceRecord) -> TraceRecord:
        self.records.append(record)
        return record

    def outcomes(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.records:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts

    def to_jsonl(self) -> str:
        header = {"type": "flow", "schema": TRACE_SCHEMA,
                  "flow": self.flow, "num_vectors": self.num_vectors,
                  "seed": self.seed, "strict": self.strict}
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(r.to_json(), sort_keys=True)
                     for r in self.records)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "FlowTrace":
        trace = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            kind = d.get("type")
            if kind == "flow":
                trace.flow = d.get("flow", "flow")
                for key, kind in (("num_vectors", int), ("seed", int),
                                  ("strict", bool)):
                    setattr(trace, key, _typed_field(
                        "flow trace", d, key, getattr(trace, key), kind))
            elif kind == "pass":
                trace.records.append(TraceRecord.from_json(d))
            else:
                raise ValueError(
                    f"unknown trace record type {kind!r}")
        return trace

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_jsonl())

    @classmethod
    def load(cls, path: str) -> "FlowTrace":
        with open(path) as f:
            return cls.from_jsonl(f.read())

    def fingerprint(self) -> str:
        """SHA-256 over the JSONL with volatile fields (wall time)
        zeroed — equal across deterministic reruns."""
        lines = []
        for line in self.to_jsonl().splitlines():
            d = json.loads(line)
            for key in VOLATILE_TRACE_FIELDS:
                d.pop(key, None)
            lines.append(json.dumps(d, sort_keys=True))
        blob = "\n".join(lines).encode()
        return hashlib.sha256(blob).hexdigest()


# -- measurement ---------------------------------------------------------

@dataclass
class FlowStage:
    """Power/size measurement of the design after one flow stage.

    ``outcome`` records what the engine did: ``adopted`` (the stage's
    result was kept), ``skipped`` (guard fired — e.g. ``size-cap``), or
    ``rolled_back`` (the stage failed; the measurement is of the
    unchanged adopted state).  :func:`measure` returns an unnamed
    stage."""

    name: str
    report: PowerReport
    gates: int
    transistors: int
    depth: float
    outcome: str = ADOPTED
    reason: str = ""


def measure(net: Network, ctx: PassContext) -> FlowStage:
    activity, _ = activity_from_simulation(net, ctx.num_vectors,
                                           ctx.seed, ctx.input_probs)
    rep = power_report(net, activity, ctx.params)
    return FlowStage(name="", report=rep, gates=net.num_gates(),
                     transistors=net.num_transistors(),
                     depth=net.depth())


# -- the engine ----------------------------------------------------------

def _run_stage(trace: FlowTrace, strict: bool, name: str,
               body: Callable[[TraceRecord], Any], fallback: Any,
               at: Optional[FlowStage] = None) -> Any:
    """Run one stage of either flow and record it: the engine's only
    failure-recording path.

    Creates the stage's :class:`TraceRecord` (before = after = ``at``
    when the stage starts from a measured network), times ``body(rec)``
    and appends the record to ``trace``.  A failed gate
    (:class:`_Rollback`) or any exception marks the record
    ``rolled_back`` and returns ``fallback`` (called first when
    callable); under ``strict`` it raises instead — :class:`FlowError`
    for a gate, the original exception otherwise.
    """
    rec = TraceRecord(index=len(trace.records), name=name,
                      outcome=ADOPTED)
    if at is not None:
        rec.power_before = rec.power_after = at.report.total
        rec.gates_before = rec.gates_after = at.gates
        rec.transistors_before = rec.transistors_after = at.transistors
        rec.depth_before = rec.depth_after = at.depth
    start = time.perf_counter()
    failure: Optional[Exception] = None
    try:
        value = body(rec)
    except _Rollback as exc:
        rec.outcome, rec.reason = ROLLED_BACK, exc.reason
        failure = FlowError(str(exc))
    except Exception as exc:
        # A network pass's partial mutation died with its trial copy;
        # the adopted state is untouched.
        rec.outcome = ROLLED_BACK
        rec.reason = f"exception: {type(exc).__name__}: {exc}"
        failure = exc
    rec.wall_s = time.perf_counter() - start
    trace.add(rec)
    if failure is None:
        return value
    if strict:
        raise failure
    return fallback() if callable(fallback) else fallback


def run_network_passes(net: Network, passes: Sequence[Pass],
                       ctx: PassContext, strict: bool = False,
                       trace: Optional[FlowTrace] = None
                       ) -> Tuple[Network, FlowTrace, List[FlowStage]]:
    """Run ``passes`` over ``net`` with trial-copy/adopt semantics.

    ``net`` itself is never mutated: each pass runs on a copy of the
    current working network, and the copy is adopted only when the pass
    succeeds, verifies, and clears its power gate.  Returns the final
    network, the trace, and the stages: ``initial`` then one per pass,
    each measuring the *adopted* state (unchanged when the pass was
    skipped or rolled back).

    A pass's guard runs inside the recorded stage, so a raising guard
    rolls the pass back like a raising ``apply``.  With ``strict=True``
    a failed gate (equivalence, lint or power) raises
    :class:`FlowError`, and an exception re-raises, after the failure
    is recorded.  A network with latches raises ``ValueError``:
    equivalence checking would treat latch outputs as free inputs.
    """
    if net.latches:
        raise ValueError(
            f"run_network_passes takes combinational networks; "
            f"{net.name!r} has {len(net.latches)} latch(es)")
    trace = trace if trace is not None else FlowTrace(
        num_vectors=ctx.num_vectors, seed=ctx.seed, strict=strict)
    work = net
    if ctx.lint:
        entry_errors = _lint_errors(work)
        if entry_errors:
            raise FlowError(
                "input network fails invariant lint: "
                + "; ".join(d.render() for d in entry_errors[:3]))
    current = replace(measure(work, ctx), name="initial")
    stages = [current]
    for p in passes:
        work, current = _run_stage(
            trace, strict, p.name, partial(_try_pass, p, work, current, ctx),
            (work, current), at=current)
        rec = trace.records[-1]
        stages.append(replace(current, name=p.name, outcome=rec.outcome,
                              reason=rec.reason))
    return work, trace, stages


def _try_pass(p: Pass, work: Network, current: FlowStage,
              ctx: PassContext, rec: TraceRecord
              ) -> Tuple[Network, FlowStage]:
    """Run ``p`` on a trial copy of ``work`` and gate the candidate;
    returns it with its measurement (``work`` and ``current`` when the
    guard skips the pass), or raises :class:`_Rollback`.  ``rec``
    receives the skip, the verification strength, the lint findings
    and the candidate's measurement."""
    skip = p.guard(work, ctx, p.params) if p.guard else None
    if skip is not None:
        rec.outcome, rec.reason = SKIPPED, skip
        return work, current
    trial = work.copy()
    replacement = p.apply(trial, ctx, p.params)
    candidate = replacement if replacement is not None else trial

    rec.verify_vectors = ctx.verify_vectors
    if not verify_equivalence(ctx.original, candidate,
                              rec.verify_vectors, ctx.seed):
        raise _Rollback("equivalence",
                        f"stage {p.name!r} broke equivalence")

    if ctx.lint:
        errors = _lint_errors(candidate)
        rec.lint_errors = len(errors)
        if errors:
            rec.lint = [d.to_json() for d in errors]
            raise _Rollback(
                "lint", f"stage {p.name!r} broke a structural "
                f"invariant: "
                + "; ".join(d.render() for d in errors[:3]))

    after = measure(candidate, ctx)
    rec.power_after = after.report.total
    rec.gates_after = after.gates
    rec.transistors_after = after.transistors
    rec.depth_after = after.depth

    tol = p.max_power_regression
    if tol is not None and current.report.total and \
            after.report.total > current.report.total * (1.0 + tol):
        raise _Rollback(
            "power-regression",
            f"stage {p.name!r} regressed power "
            f"{current.report.total:.4g} -> {after.report.total:.4g} W "
            f"(tolerance {tol:+.1%})")
    return candidate, after


class _Rollback(Exception):
    """A candidate failed a gate; ``reason`` is the trace reason."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def _lint_errors(net: Network):
    """Error-severity invariant diagnostics (lazy analysis import)."""
    from repro.analysis import check_invariants
    return check_invariants(net)


# -- declarative flow specs ---------------------------------------------

@dataclass
class FlowSpec:
    """A flow as data: ordered pass names with per-pass parameters.

    JSON shape::

        {"name": "my-flow", "num_vectors": 512, "seed": 0,
         "strict": false,
         "passes": ["extract",
                    {"pass": "map", "params": {"objective": "power"}}]}

    A string entry is a pass with default parameters.  Unknown keys, a
    ``num_vectors`` that is not a positive integer, a ``seed`` that is
    not an integer and flags that are not booleans are rejected with
    ``ValueError``.
    """

    name: str = "flow"
    passes: List[Tuple[str, Dict[str, Any]]] = field(
        default_factory=list)
    num_vectors: int = 1024
    seed: int = 0
    strict: bool = False
    #: invariant-lint every candidate network (see PassContext.lint)
    strict_lint: bool = False

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FlowSpec":
        if not isinstance(d, dict):
            raise ValueError("flow spec must be a JSON object")
        _reject_unknown_keys("flow spec", d,
                             [f.name for f in fields(cls)])
        entries = d.get("passes")
        if not isinstance(entries, list) or not entries:
            raise ValueError(
                "flow spec needs a non-empty 'passes' list")
        passes: List[Tuple[str, Dict[str, Any]]] = []
        for entry in entries:
            if isinstance(entry, str):
                passes.append((entry, {}))
            elif isinstance(entry, dict) and "pass" in entry:
                _reject_unknown_keys(f"pass {entry['pass']!r}", entry,
                                     _PASS_ENTRY_KEYS)
                params = entry.get("params") or {}
                if not isinstance(params, dict):
                    raise ValueError(
                        f"pass {entry['pass']!r}: params must be an "
                        f"object")
                passes.append((str(entry["pass"]), dict(params)))
            else:
                raise ValueError(
                    f"bad pass entry {entry!r}: expected a name or "
                    f"{{'pass': ..., 'params': {{...}}}}")
        spec = "flow spec"
        num_vectors = _typed_field(spec, d, "num_vectors", 1024, int)
        if num_vectors < 1:
            raise ValueError(f"{spec}: num_vectors must be positive, "
                             f"got {num_vectors!r}")
        return cls(name=str(d.get("name", "flow")), passes=passes,
                   num_vectors=num_vectors,
                   seed=_typed_field(spec, d, "seed", 0, int),
                   strict=_typed_field(spec, d, "strict", False, bool),
                   strict_lint=_typed_field(spec, d, "strict_lint", False,
                                            bool))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "num_vectors": self.num_vectors, "seed": self.seed,
                "strict": self.strict,
                "strict_lint": self.strict_lint,
                "passes": [{"pass": n, "params": p}
                           for n, p in self.passes]}

    def build(self) -> List[Pass]:
        return [make_pass(name, params)
                for name, params in self.passes]


_PASS_ENTRY_KEYS = ("pass", "params")


def _reject_unknown_keys(where: str, d: Dict[str, Any],
                         known: Sequence[str]) -> None:
    unknown = sorted(str(k) for k in d if k not in known)
    if unknown:
        raise ValueError(
            f"{where}: unknown key {unknown[0]!r}; expected one of "
            f"{', '.join(known)}")


def _typed_field(where: str, d: Dict[str, Any], key: str, default: Any,
                 kind: type) -> Any:
    """``d[key]`` (``default`` when absent), a ``kind``; bools are not
    ints."""
    value = d.get(key, default)
    if isinstance(value, bool) != (kind is bool) or \
            not isinstance(value, kind):
        raise ValueError(f"{where}: {key} must be {kind.__name__}, "
                         f"got {value!r}")
    return value


def load_flow_spec(path: str) -> FlowSpec:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") \
                from None
    return FlowSpec.from_dict(data)
