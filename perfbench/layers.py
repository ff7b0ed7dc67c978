"""The layer map of the benchmark.

Each :class:`Entry` names one public entry point of a library layer that
the traced run wraps, what the traced run reports for it, and the
workloads on which it is expected to do work or to be bypassed.  The
map is data: ``tracing`` installs the wrappers from it, ``run`` derives
the per-layer metric names from it, and the coverage test asserts its
predictions.

An entry with ``span=True`` is timed: it reports ``<name>.calls`` and
``<name>.self_s`` (its time minus the time of the wrapped calls nested
inside it).  An entry with ``span=False`` is only counted and reports
``<name>.calls``; its time stays in the self time of the span that
called it.  Sizing's STA helpers are counted, not timed, so that
``size_for_power.self_s`` is the whole cost of the sizing walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

FLOW_SIZE = "flow-size"
FLOW_LOGIC = "flow-logic"
ESTIMATE = "estimate"
FSM = "fsm"
WORKLOADS = (FLOW_SIZE, FLOW_LOGIC, ESTIMATE, FSM)
FLOWS = (FLOW_SIZE, FLOW_LOGIC)
NOT_FLOW_SIZE = (FLOW_LOGIC, ESTIMATE, FSM)


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``module`` is the defining module and ``attr`` the function or
    ``Class.method`` in it.  ``used_by`` lists the workloads on which a
    traced op must record at least one call, ``bypassed_by`` those on
    which it must record none.  ``moves`` names the end-to-end metric
    and workload a change to this layer should move.
    """

    module: str
    attr: str
    span: bool
    used_by: Tuple[str, ...]
    bypassed_by: Tuple[str, ...] = ()
    moves: str = ""

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('repro.')}.{self.attr}"


ENTRIES: Tuple[Entry, ...] = (
    # Sizing: the flow-size hot spot, skipped by every other workload.
    Entry("repro.opt.circuit.sizing", "size_for_power", True,
          (FLOW_SIZE,), NOT_FLOW_SIZE, "ops_per_s, op_p50_s on flow-size"),
    Entry("repro.opt.circuit.sizing", "critical_path_delay", False,
          (FLOW_SIZE,), NOT_FLOW_SIZE, "ops_per_s, op_p50_s on flow-size"),
    Entry("repro.opt.circuit.sizing", "slacks", False,
          (FLOW_SIZE,), NOT_FLOW_SIZE, "ops_per_s, op_p50_s on flow-size"),
    Entry("repro.opt.circuit.sizing", "switched_capacitance", False,
          (FLOW_SIZE,), NOT_FLOW_SIZE, "ops_per_s, op_p50_s on flow-size"),
    # Logic optimization.  The don't-care pass is skipped above the
    # 120-gate cap, so flow-size never calls it.
    Entry("repro.opt.logic.dontcare", "dontcare_power_optimization", True,
          (FLOW_LOGIC,), (FLOW_SIZE,), "ops_per_s on flow-logic"),
    Entry("repro.bdd.circuit", "network_bdds", True,
          (FLOW_LOGIC,), (), "ops_per_s on flow-logic"),
    Entry("repro.opt.logic.kernels", "extract_kernels", True,
          FLOWS, (), "ops_per_s on flow-logic, flow-size"),
    Entry("repro.opt.logic.mapping", "tech_map", True,
          FLOWS, (), "ops_per_s on flow-logic, flow-size"),
    # The pass engine and what it calls around every pass.
    Entry("repro.core.passes", "measure", True,
          FLOWS, (), "ops_per_s on flow-logic"),
    Entry("repro.core.passes", "run_network_passes", True,
          FLOWS, (), "ops_per_s on flow-logic"),
    Entry("repro.logic.netlist", "Network.copy", True,
          FLOWS, (), "ops_per_s on flow-logic"),
    Entry("repro.logic.transform", "to_sop_network", True,
          FLOWS, (), "ops_per_s on flow-logic"),
    Entry("repro.sim.functional", "verify_equivalence", True,
          FLOWS, (), "ops_per_s on flow-logic"),
    # Compiled zero-delay simulation: cold compiles and wide evaluations
    # on estimate, warm lookups and incremental evaluation on flow-logic.
    Entry("repro.sim.compiled", "get_compiled", False,
          (FLOW_SIZE, FLOW_LOGIC, ESTIMATE), (),
          "ops_per_s on estimate, flow-logic"),
    Entry("repro.sim.compiled", "compile_network", True,
          (FLOW_LOGIC, ESTIMATE), (), "ops_per_s on estimate, flow-logic"),
    Entry("repro.sim.compiled", "CompiledNetwork.evaluate_words", True,
          (FLOW_LOGIC, ESTIMATE), (), "ops_per_s on estimate, flow-logic"),
    Entry("repro.sim.compiled", "CompiledNetwork.evaluate_incremental",
          True, (FLOW_LOGIC,), (), "ops_per_s on flow-logic"),
    Entry("repro.power.activity", "activity_from_simulation", True,
          (FLOW_SIZE, FLOW_LOGIC, ESTIMATE), (),
          "ops_per_s on estimate, flow-logic"),
    # The power model: quadratic in network size through _reader_counts.
    Entry("repro.power.model", "power_report", True,
          (FLOW_SIZE, FLOW_LOGIC, ESTIMATE), (),
          "ops_per_s on estimate, then flow-*; not fsm"),
    Entry("repro.power.model", "node_capacitance", True,
          (FLOW_SIZE, FLOW_LOGIC, ESTIMATE), (),
          "ops_per_s on estimate, then flow-*; not fsm"),
    # Timed simulation: estimate only.
    Entry("repro.sim.timed", "timed_transitions_from_words", True,
          (ESTIMATE,), (FLOW_SIZE, FLOW_LOGIC, FSM), "ops_per_s on estimate"),
    Entry("repro.sim.timed", "get_timed", False,
          (ESTIMATE,), (FLOW_SIZE, FLOW_LOGIC, FSM), "ops_per_s on estimate"),
    Entry("repro.sim.functional", "simulate_transitions", True,
          (ESTIMATE,), (), "ops_per_s on estimate"),
    # The sequential flow and interpreted sequential simulation.
    Entry("repro.sim.functional", "sequential_transitions", True,
          (FSM,), (FLOW_SIZE, FLOW_LOGIC, ESTIMATE), "ops_per_s on fsm"),
    Entry("repro.power.activity", "sequential_activity", True,
          (FSM,), (), "ops_per_s on fsm"),
    Entry("repro.opt.seq.minimize_fsm", "minimize_stg", True,
          (FSM,), (), "ops_per_s on fsm"),
    Entry("repro.opt.seq.encoding", "encode_anneal", True,
          (FSM,), (), "ops_per_s on fsm"),
    Entry("repro.opt.seq.gated_clock", "self_loop_clock_gating", True,
          (FSM,), (), "ops_per_s on fsm"),
    Entry("repro.opt.seq.stg", "synthesize_fsm", True,
          (FSM,), (), "ops_per_s on fsm"),
)

#: Pass and stage names whose ``TraceRecord.wall_s`` the traced run
#: reports: the network passes of both flow workloads, then the stages
#: of the sequential flow.
PASS_NAMES = ("dontcare", "extract", "map", "size", "sweep",
              "minimize", "encode", "clock-gate", "simulate", "measure")

SIZING_MOVES = "opt.circuit.sizing.moves"
SIZING_SHARE = "opt.circuit.sizing.size_for_power.op_share"
ADOPT_RATIO = "core.passes.adopt_ratio"
POWER_SAVING = "power_saving"
OVERHEAD = "trace.overhead"


def per_layer_metrics() -> Tuple[Tuple[str, str, str], ...]:
    """``(name, unit, better)`` of every metric of the traced run, in
    the order it prints them."""
    out = []
    for e in ENTRIES:
        out.append((f"{e.name}.calls", "count", "lower"))
        if e.span:
            out.append((f"{e.name}.self_s", "s", "lower"))
    out.append((SIZING_MOVES, "count", "lower"))
    out.append((SIZING_SHARE, "ratio", "lower"))
    out.append((ADOPT_RATIO, "ratio", "higher"))
    out.extend((f"core.passes.pass.{p}.wall_s", "s", "lower")
               for p in PASS_NAMES)
    out.append((POWER_SAVING, "ratio", "higher"))
    out.append((OVERHEAD, "ratio", "lower"))
    return tuple(out)
