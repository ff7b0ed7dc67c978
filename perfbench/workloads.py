"""The benchmark's four workloads.

A workload is a fixed list of ops built from the seed.  Each op holds its
input pickled, so every run of the op starts from a fresh object with no
compiled program or other cache attached; the timed call is the
library's public entry point, and the check of its output runs outside
the timed region.  A different seed gives different circuits and
sequences of the same size classes, so claims can be re-checked on a
held-out seed.

* ``flow-size``: ``low_power_flow`` with the CLI defaults on circuits
  above the don't-care size cap, where sizing does nearly all the work.
* ``flow-logic``: a ``dontcare, extract, map, sweep`` flow on circuits of
  at most 120 gates; sizing does none of the work.
* ``estimate``: the ``repro report`` and ``repro glitch`` path on large
  circuits; no optimization runs.
* ``fsm``: ``fsm_low_power_flow`` on the six bundled machines.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import ESTIMATE, FLOW_LOGIC, FLOW_SIZE, FSM

from repro.core.flow import fsm_low_power_flow, low_power_flow, run_flow
from repro.core.passes import FlowSpec, FlowTrace, available_passes
from repro.logic.generators import (array_multiplier, comparator,
                                    random_logic, ripple_carry_adder)
from repro.opt.seq.fsm_benchmarks import benchmark_names, load_benchmark
from repro.power.activity import activity_from_simulation
from repro.power.glitch import glitch_report
from repro.power.model import power_report
from repro.sim.functional import (sequential_transitions,
                                  verify_equivalence_exact)

# Size classes.  The circuits of flow-size are all above the 120-gate
# don't-care cap; those of flow-logic are all at or below it.  How hard
# a random circuit is varies by up to two times within a size class, so
# each list holds enough circuits that one seed's figures stay close to
# the next seed's.  Most of flow-logic's circuits share the 90-gate class
# so that its median op is the median of many draws from one class.
FLOW_SIZE_GATES = (125, 128, 131, 134, 137, 140)
FLOW_LOGIC_GATES = ((60,) + (90,) * 12 + (120,)) * 2
ESTIMATE_GATES = tuple(range(1000, 3001, 250))
FSM_REPEATS = 4

ESTIMATE_VECTORS = 2048
GLITCH_VECTORS = 256
#: Stimulus length of the event-engine cross-check.
EVENT_CHECK_VECTORS = 32

FLOW_LOGIC_SPEC = FlowSpec(
    name=FLOW_LOGIC,
    passes=[("dontcare", {}), ("extract", {}), ("map", {}),
            ("sweep", {})])


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    """One operation of a workload.

    ``run`` is the timed call; ``check(input, output)`` raises
    :class:`CheckFailed`; ``signature(output)`` is a cheap summary of
    the output that a repeated run of the op must reproduce exactly."""

    label: str
    blob: bytes
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    signature: Callable[[Any], Any]

    def fresh_input(self) -> Any:
        return pickle.loads(self.blob)


# -- combinational flows ----------------------------------------------------

def _check_flow(net, result) -> None:
    if result.final is None:
        raise CheckFailed("flow returned no network")
    if not verify_equivalence_exact(net, result.final):
        raise CheckFailed("final network is not equivalent to the input")


def _flow_signature(result):
    return tuple((s.name, s.outcome, s.gates, s.report.total)
                 for s in result.stages)


def _flow_ops(nets, run) -> List[Op]:
    return [Op(f"{net.name}{net.num_gates()}", pickle.dumps(net), run,
               _check_flow, _flow_signature) for net in nets]


def _flow_size(rng: random.Random) -> List[Op]:
    nets = [array_multiplier(6)] + [
        random_logic(16, g, rng.randrange(1 << 30))
        for g in FLOW_SIZE_GATES]
    return _flow_ops(nets, low_power_flow)


def _flow_logic(rng: random.Random) -> List[Op]:
    nets = [random_logic(16, g, rng.randrange(1 << 30))
            for g in FLOW_LOGIC_GATES]
    nets += [ripple_carry_adder(8), comparator(8), array_multiplier(4)]
    return _flow_ops(nets, lambda net: run_flow(net, FLOW_LOGIC_SPEC))


# -- estimation -------------------------------------------------------------

def _estimate_op(net, seed: int, event_check: bool) -> Op:
    blob = pickle.dumps(net)

    def run(n):
        activity, _ = activity_from_simulation(n, ESTIMATE_VECTORS, seed)
        return (power_report(n, activity),
                glitch_report(n, GLITCH_VECTORS, seed))

    def check(n, out) -> None:
        report, glitch = out
        if not report.total > 0.0:
            raise CheckFailed("non-positive power")
        if set(glitch.timed) != set(n.nodes):
            raise CheckFailed("timed counts do not cover every node")
        for name, timed in glitch.timed.items():
            extra = timed - glitch.functional[name]
            # A transport-delay settle always ends at the zero-delay
            # value, so glitches come in pairs.
            if extra < 0 or extra % 2:
                raise CheckFailed(f"{name}: timed {timed} vs zero-delay "
                                  f"{glitch.functional[name]}")
        if event_check:
            # The compiled timed engine must agree with the event-driven
            # oracle.  The oracle is slow: a short stimulus, on a copy.
            short = glitch_report(n, EVENT_CHECK_VECTORS, seed)
            event = glitch_report(pickle.loads(blob), EVENT_CHECK_VECTORS,
                                  seed, engine="event")
            if short.timed != event.timed:
                raise CheckFailed("compiled and event timed counts differ")

    def signature(out):
        report, glitch = out
        return report.total, glitch.timed, glitch.functional

    return Op(f"{net.name}{net.num_gates()}", blob, run, check, signature)


def _estimate(rng: random.Random) -> List[Op]:
    # The event-engine cross-check runs on the smallest circuit only.
    nets = [array_multiplier(12)] + [
        random_logic(32, g, rng.randrange(1 << 30))
        for g in ESTIMATE_GATES]
    return [_estimate_op(net, rng.randrange(1 << 30), i == 0)
            for i, net in enumerate(nets)]


# -- sequential flow --------------------------------------------------------

def _fsm_op(name: str, seed: int) -> Op:
    def run(machine):
        return fsm_low_power_flow(machine, seed=seed)

    def check(machine, result) -> None:
        # Every bundled machine is completely specified, so the
        # minimized, re-encoded and gated network must reproduce the
        # naturally encoded baseline's outputs cycle by cycle.
        seq = machine.random_input_sequence(1500, seed)
        vectors = [{f"x{i}": (v >> i) & 1
                    for i in range(machine.num_inputs)} for v in seq]
        outputs = [f"z{k}" for k in range(machine.num_outputs)]
        _, got = sequential_transitions(result.network, vectors)
        _, want = sequential_transitions(result.baseline, vectors)
        for cycle, (g, w) in enumerate(zip(got, want)):
            if any(g[z] != w[z] for z in outputs):
                raise CheckFailed(f"{name}: outputs differ at cycle "
                                  f"{cycle}")

    def signature(result):
        return (result.states_after, sorted(result.encoding.items()),
                result.power_before, result.power_after)

    return Op(name, pickle.dumps(load_benchmark(name)), run, check,
              signature)


def _fsm(rng: random.Random) -> List[Op]:
    return [_fsm_op(name, rng.randrange(1 << 30))
            for _ in range(FSM_REPEATS) for name in benchmark_names()]


BUILDERS = {FLOW_SIZE: _flow_size, FLOW_LOGIC: _flow_logic,
            ESTIMATE: _estimate, FSM: _fsm}


def build(workload: str, seed: int) -> List[Op]:
    """The op list of ``workload`` for ``seed``."""
    # Lazily registered passes would otherwise load inside the first op.
    available_passes()
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def flow_facts(output) -> Tuple[Optional[float], Optional[FlowTrace]]:
    """``(1 - final/initial power, pass trace)`` of a flow's result;
    ``(None, None)`` for an estimate op."""
    if hasattr(output, "total_saving"):
        return output.total_saving, output.trace
    if hasattr(output, "saving"):
        return output.saving, output.trace
    return None, None


def adopted_attempted(trace: FlowTrace) -> Tuple[int, int]:
    outcomes: Dict[str, int] = trace.outcomes()
    return outcomes.get("adopted", 0), sum(outcomes.values())
