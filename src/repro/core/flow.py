"""The end-to-end low-power logic synthesis flows.

Chains the combinational optimizations of Sections II–III on a netlist
and reports power after every stage.  Both flows run on the fail-soft
pass engine of :mod:`repro.core.passes`: each stage runs through its
one stage path, which times it and records it in the structured
:class:`~repro.core.passes.FlowTrace`; a crashing stage is rolled back
instead of aborting the flow (``strict=True`` raises).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.core.passes import (ADOPTED, FlowSpec, FlowStage, FlowTrace,
                               PassContext, _run_stage,
                               run_network_passes)
from repro.library.cells import Library, generic_library
from repro.logic.netlist import Latch, Network
from repro.power.model import PowerParameters
from repro.sim.functional import WordTrace

__all__ = ["FlowStage", "FlowResult", "SequentialFlowResult",
           "low_power_flow", "fsm_low_power_flow", "run_flow"]


@dataclass
class FlowResult:
    """History of the whole flow."""

    stages: List[FlowStage] = field(default_factory=list)
    final: Optional[Network] = None
    trace: Optional[FlowTrace] = None

    @property
    def total_saving(self) -> float:
        if len(self.stages) < 2:
            return 0.0
        first = self.stages[0].report.total
        last = self.stages[-1].report.total
        return 1.0 - last / first if first else 0.0

    def summary(self) -> str:
        from repro.core.report import format_table

        rows = []
        base = self.stages[0].report.total if self.stages else 0.0
        for s in self.stages:
            outcome = s.outcome if s.outcome == ADOPTED else \
                (f"{s.outcome}: {s.reason}" if s.reason else s.outcome)
            rows.append([s.name, outcome, s.gates, s.transistors,
                         s.depth, s.report.total * 1e6,
                         (1.0 - s.report.total / base) if base
                         else 0.0])
        return format_table(
            ["stage", "outcome", "gates", "transistors", "depth",
             "power (uW)", "saving"], rows)


def low_power_flow(net: Network,
                   library: Optional[Library] = None,
                   input_probs: Optional[Dict[str, float]] = None,
                   params: Optional[PowerParameters] = None,
                   num_vectors: int = 1024, seed: int = 0,
                   use_mapping: bool = True,
                   use_sizing: bool = True,
                   dontcare_size_cap: Optional[int] = 120,
                   strict: bool = False,
                   strict_lint: bool = False) -> FlowResult:
    """Run the combinational low-power flow on (a copy of) ``net``.

    Stages: don't-care re-minimization → power-aware kernel extraction
    → power-driven technology mapping → slack-recycling sizing.  Each
    stage runs on a trial copy, is verified against the original by
    random simulation (``max(256, num_vectors // 4)`` vectors), and is
    rolled back — with the failure recorded in ``result.trace`` — when
    it raises or breaks equivalence.  ``dontcare_size_cap`` skips the
    (expensive) don't-care stage above that many gates, recording the
    skip; ``None`` removes the cap.  ``use_mapping``/``use_sizing``
    drop the last two stages; any other pass list is a
    :class:`~repro.core.passes.FlowSpec` for :func:`run_flow`.
    ``strict=True`` re-raises stage failures instead of rolling back.
    ``strict_lint=True`` runs the structural invariant linter on every
    candidate network and rolls back stages that break an invariant
    (trace reason ``lint``).
    """
    passes = [("dontcare", {"size_cap": dontcare_size_cap}),
              ("extract", {})]
    if use_mapping:
        passes.append(("map", {}))
    if use_sizing:
        passes.append(("size", {}))
    spec = FlowSpec(name="low_power_flow", passes=passes,
                    num_vectors=num_vectors, seed=seed, strict=strict,
                    strict_lint=strict_lint)
    return run_flow(net, spec, library, input_probs, params)


def run_flow(net: Network, spec: FlowSpec,
             library: Optional[Library] = None,
             input_probs: Optional[Dict[str, float]] = None,
             params: Optional[PowerParameters] = None) -> FlowResult:
    """Run a declarative :class:`~repro.core.passes.FlowSpec`.  The
    result holds the engine's stages: ``initial``, then one per pass
    whatever its outcome.  The passes are built first, so a bad pass
    name or parameter raises ``ValueError`` before anything runs."""
    from repro.logic.transform import to_sop_network

    passes = spec.build()
    ctx = PassContext(original=net, library=library or generic_library(),
                      input_probs=input_probs, params=params,
                      num_vectors=spec.num_vectors, seed=spec.seed,
                      lint=spec.strict_lint)
    # Enter the technology-independent SOP domain first so every stage
    # is measured under the same capacitance model (gate and SOP nodes
    # carry slightly different transistor-count proxies).
    work = to_sop_network(net)
    trace = FlowTrace(flow=spec.name, num_vectors=ctx.num_vectors,
                      seed=ctx.seed, strict=spec.strict)
    final, trace, stages = run_network_passes(
        work, passes, ctx, strict=spec.strict, trace=trace)
    return FlowResult(stages=stages, final=final, trace=trace)


# -- the sequential (FSM) flow ------------------------------------------

@dataclass
class SequentialFlowResult:
    """Outcome of the FSM low-power flow."""

    states_before: int
    states_after: int
    encoding: Dict[str, int]
    activation_probability: float
    power_before: float
    power_after: float
    network: Optional[Network] = None
    baseline: Optional[Network] = None
    trace: Optional[FlowTrace] = None

    @property
    def saving(self) -> float:
        if not self.power_before:
            return 0.0
        return 1.0 - self.power_after / self.power_before


def _enable_rate(trace: WordTrace, latches: List[Latch]) -> float:
    """Fraction of cycles the state registers are actually clocked,
    read from each enable net's word in the trace.

    The enable nets are taken from the latches themselves (not a
    hard-coded signal name); a renamed or absent enable degrades to
    rate 1.0 (always clocked) rather than a ``KeyError``, and so does
    an empty trace.
    """
    enables = sorted({l.enable for l in latches
                      if l.enable is not None})
    rates = [trace.words[en].bit_count() / len(trace)
             for en in enables if en in trace.words] if trace else []
    if not rates:
        return 1.0
    return sum(rates) / len(rates)


def fsm_low_power_flow(stg, sequence_length: int = 1500, seed: int = 0,
                       anneal_iterations: int = 2500,
                       params: Optional[PowerParameters] = None,
                       strict: bool = False) -> SequentialFlowResult:
    """The sequential flow: minimize states → low-power encoding →
    self-loop clock gating, measured against the naturally-encoded,
    un-gated baseline (clock-tree power included).

    Every stage runs through the engine's one stage path: a stage that
    raises is recorded in the trace and replaced by its safe fallback
    (unminimized STG, natural encoding, un-gated machine) so the flow
    still produces a result; ``strict=True`` re-raises.  The gated
    machine is simulated once: the ``simulate`` stage yields both its
    enable rate and the activity ``measure`` prices.
    """
    from repro.opt.seq.encoding import encode_anneal, encode_natural
    from repro.opt.seq.gated_clock import (clock_power,
                                           self_loop_clock_gating)
    from repro.opt.seq.minimize_fsm import minimize_stg
    from repro.opt.seq.stg import synthesize_fsm
    from repro.power.activity import (sequential_activity,
                                      transition_activity)
    from repro.power.model import power_report
    from repro.sim.functional import sequential_transitions

    trace = FlowTrace(flow="fsm_low_power_flow",
                      num_vectors=sequence_length, seed=seed,
                      strict=strict)
    stage = partial(_run_stage, trace, strict)

    reduced = stage("minimize", lambda _: minimize_stg(stg), stg)
    encoding = stage(
        "encode",
        lambda _: encode_anneal(reduced, iterations=anneal_iterations,
                                seed=seed),
        lambda: encode_natural(reduced))
    gres = stage("clock-gate",
                 lambda _: self_loop_clock_gating(reduced, encoding), None)
    if gres is not None:
        gated_net = gres.network
        activation = gres.activation_probability
    else:
        gated_net = synthesize_fsm(reduced, encoding,
                                   name="fsm_gated")
        activation = 0.0
    baseline = synthesize_fsm(stg, encode_natural(stg),
                              name="fsm_reference")

    seq = stg.random_input_sequence(sequence_length, seed)
    names = [f"x{i}" for i in range(stg.num_inputs)]
    vectors = [{x: (v >> i) & 1 for i, x in enumerate(names)} for v in seq]

    def simulate(_):
        transitions, values = sequential_transitions(gated_net, vectors)
        return (_enable_rate(values, gated_net.latches),
                transition_activity(transitions, len(vectors)))

    enable_rate, gated_activity = stage("simulate", simulate, (1.0, None))

    def power_pair(_):
        p_before = power_report(
            baseline, sequential_activity(baseline, vectors),
            params).total + clock_power(baseline, {}, params)
        p_after = power_report(
            gated_net, gated_activity if gated_activity is not None
            else sequential_activity(gated_net, vectors),
            params).total + clock_power(
                gated_net,
                {l.output: enable_rate for l in gated_net.latches},
                params)
        return p_before, p_after

    p_before, p_after = stage("measure", power_pair, (0.0, 0.0))
    return SequentialFlowResult(
        states_before=len(stg.states),
        states_after=len(reduced.states),
        encoding=encoding,
        activation_probability=activation,
        power_before=p_before, power_after=p_after,
        network=gated_net, baseline=baseline, trace=trace)
