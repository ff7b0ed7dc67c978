"""Zero-delay (functional) simulation and transition counting.

Zero-delay transition counts give the *useful* switching activity — at
most one transition per node per clock cycle.  The difference between the
event-driven counts (``repro.sim.event``) and these is the spurious
(glitch) activity studied in Section III-A.2 of the paper.
"""

from __future__ import annotations

from operator import add, ne
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.netlist import Network


def simulate_transitions(net: Network, input_words: Dict[str, int],
                         count: int) -> Dict[str, int]:
    """Transitions of every node across ``count`` consecutive patterns.

    The patterns in ``input_words`` are treated as a time sequence;
    transition k compares pattern k with pattern k+1, so the result for a
    node is in ``[0, count - 1]`` times at most one per step.
    """
    if count < 2:
        return {name: 0 for name in net.nodes}
    from repro.sim.compiled import get_compiled

    mask = (1 << count) - 1
    values = get_compiled(net).evaluate_words(input_words, mask)
    pair_mask = (1 << (count - 1)) - 1
    return {name: ((w ^ (w >> 1)) & pair_mask).bit_count()
            for name, w in values.items()}


def node_one_counts(net: Network, input_words: Dict[str, int],
                    count: int) -> Dict[str, int]:
    """Number of patterns on which each node evaluates to 1."""
    from repro.sim.compiled import get_compiled

    mask = (1 << count) - 1
    values = get_compiled(net).evaluate_words(input_words, mask)
    return {name: w.bit_count() for name, w in values.items()}


def sequential_transitions(net: Network,
                           input_sequence: Sequence[Dict[str, int]],
                           initial_state: Optional[Dict[str, int]] = None
                           ) -> Tuple[Dict[str, int], List[Dict[str, int]]]:
    """Clock-by-clock simulation of a sequential network.

    Returns ``(transition_counts, value_trace)`` where the trace holds the
    scalar value of every node at each cycle.  Latch clock-enables are
    honoured, so gated registers contribute no transitions while disabled.
    """
    from repro.sim.compiled import get_compiled

    compiled = get_compiled(net)
    state = initial_state if initial_state is not None else {}
    trace: List[Dict[str, int]] = []
    for vec in input_sequence:
        state, values = compiled.step(state, vec, 1)
        trace.append(values)
    # Every trace dict lists the nodes in the program's slot order.
    counts = [0] * compiled.num_slots
    for prev, cur in zip(trace, trace[1:]):
        counts = list(map(add, counts, map(ne, prev.values(),
                                           cur.values())))
    transitions = {name: 0 for name in net.nodes}
    transitions.update(zip(compiled.names, counts))
    return transitions, trace


def _matched_outputs(a: Network, b: Network
                     ) -> Optional[List[Tuple[str, str]]]:
    """Pair up two networks' primary outputs for equivalence checking.

    When both networks name the same output set (the common case — the
    optimizations preserve output names), outputs are matched *by name*,
    so a mere reordering of the output list cannot flip the verdict.
    Only when the name sets differ (e.g. a network rebuilt with
    anonymous/fresh output names) does matching fall back to positional
    ``zip``.  Returns ``None`` when the output counts differ.
    """
    if len(a.outputs) != len(b.outputs):
        return None
    if set(a.outputs) == set(b.outputs) and \
            len(set(a.outputs)) == len(a.outputs):
        return [(o, o) for o in a.outputs]
    return list(zip(a.outputs, b.outputs))


def verify_equivalence_exact(a: Network, b: Network) -> bool:
    """Formal combinational equivalence via canonical BDDs.

    Builds both networks' output functions in one shared manager; equal
    functions hash-cons to the same node.  Outputs are matched by name
    when both networks name the same output set, positionally otherwise
    (see :func:`_matched_outputs`).  Exact but exponential in the worst
    case — intended for the netlist sizes the optimizations operate on.
    """
    from repro.bdd.bdd import BDD
    from repro.bdd.circuit import network_bdds

    if set(a.inputs) != set(b.inputs):
        raise ValueError("networks have different inputs")
    pairs = _matched_outputs(a, b)
    if pairs is None:
        return False
    manager = BDD(sorted(a.inputs))
    fa = network_bdds(a, manager)
    fb = network_bdds(b, manager)
    return all(fa[x].node == fb[y].node for x, y in pairs)


def verify_equivalence(a: Network, b: Network, num_vectors: int = 256,
                       seed: int = 0) -> bool:
    """Random simulation check that two combinational networks agree on
    all primary outputs (same PI names required).  Outputs are matched
    by name when both networks name the same output set, positionally
    otherwise (see :func:`_matched_outputs`)."""
    from repro.sim.compiled import get_compiled
    from repro.sim.vectors import random_words

    if set(a.inputs) != set(b.inputs):
        raise ValueError("networks have different inputs")
    pairs = _matched_outputs(a, b)
    if pairs is None:
        return False
    words = random_words(sorted(a.inputs), num_vectors, seed)
    mask = (1 << num_vectors) - 1
    va = get_compiled(a).evaluate_words(words, mask)
    vb = get_compiled(b).evaluate_words(words, mask)
    return all(va[x] == vb[y] for x, y in pairs)
