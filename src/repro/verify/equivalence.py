"""Equivalence checking.

The optimization passes in this framework are all supposed to preserve
behaviour; random simulation catches most breakage cheaply, but the
sequential transformations (clock gating, precomputation, product
sharing inside FSMs) deserve *exhaustive* verification:

* :func:`repro.sim.functional.verify_equivalence_exact` —
  canonical-BDD miter over the primary inputs (exact).
* :func:`sequential_equivalent` — product-machine reachability: BFS
  over joint (state_a, state_b) pairs from the reset states, checking
  output equality for **every** input minterm in every reachable joint
  state.  Exact for machines whose reachable joint state space and
  input alphabet are enumerable — the regime of the surveyed FSM
  optimizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.logic.netlist import Network
from repro.sim.compiled import CompiledNetwork, get_compiled
from repro.sim.functional import _matched_outputs
from repro.sim.vectors import exhaustive_words


@dataclass
class EquivalenceResult:
    """Outcome of a sequential equivalence check."""

    equivalent: bool
    joint_states_explored: int
    counterexample: Optional[Dict[str, object]] = None
    #: counterexample fields: "state_a", "state_b", "input" (minterm),
    #: "output" (name of the differing output pair)

    def __bool__(self) -> bool:
        return self.equivalent


def sequential_equivalent(a: Network, b: Network,
                          max_joint_states: int = 20000
                          ) -> EquivalenceResult:
    """Product-machine equivalence from the reset states.

    Both machines must have the same primary-input names.  Outputs are
    matched by name when both machines name the same output set,
    positionally otherwise (as in
    :func:`repro.sim.functional.verify_equivalence`).  Latch enables
    are supported.  Raises ``RuntimeError`` if the joint reachable
    space exceeds ``max_joint_states``.
    """
    if set(a.inputs) != set(b.inputs):
        raise ValueError("networks have different primary inputs")
    pairs = _matched_outputs(a, b)
    if pairs is None:
        return EquivalenceResult(False, 0,
                                 {"reason": "output count differs"})
    pis = sorted(a.inputs)
    n_in = len(pis)
    num_minterms = 1 << n_in
    mask = (1 << num_minterms) - 1
    input_words = exhaustive_words(pis)

    compiled_a, compiled_b = get_compiled(a), get_compiled(b)
    latches_a = [l.output for l in a.latches]
    latches_b = [l.output for l in b.latches]

    def step(compiled: CompiledNetwork, latch_names: List[str],
             state: Tuple[int, ...]):
        state_words = {name: (mask if bit else 0)
                       for name, bit in zip(latch_names, state)}
        nxt, values = compiled.step(state_words, input_words, mask)
        succs = []
        for m in range(num_minterms):
            succs.append(tuple((nxt[l] >> m) & 1 for l in latch_names))
        return values, succs

    init = (tuple(l.init for l in a.latches),
            tuple(l.init for l in b.latches))
    seen = {init}
    frontier = [init]
    explored = 0
    while frontier:
        nxt_frontier = []
        for sa, sb in frontier:
            explored += 1
            values_a, succs_a = step(compiled_a, latches_a, sa)
            values_b, succs_b = step(compiled_b, latches_b, sb)
            for oa, ob in pairs:
                diff = values_a[oa] ^ values_b[ob]
                if diff:
                    m = (diff & -diff).bit_length() - 1
                    return EquivalenceResult(
                        False, explored,
                        {"state_a": sa, "state_b": sb, "input": m,
                         "output": (oa, ob)})
            for m in range(num_minterms):
                joint = (succs_a[m], succs_b[m])
                if joint not in seen:
                    if len(seen) >= max_joint_states:
                        raise RuntimeError(
                            "joint state space exceeds "
                            f"{max_joint_states}")
                    seen.add(joint)
                    nxt_frontier.append(joint)
        frontier = nxt_frontier
    return EquivalenceResult(True, explored)
