"""Zero-delay (functional) simulation and transition counting.

Zero-delay transition counts give the *useful* switching activity — at
most one transition per node per clock cycle.  The difference between the
timed counts (``repro.sim.timed``) and these is the spurious (glitch)
activity studied in Section III-A.2 of the paper.

Every count is one word pass of ``repro.sim.compiled`` (bit *k* = value
in pattern *k*); a clocked run passes the source words, latch outputs
included, of the trajectory ``CompiledNetwork.run`` clocks out, and
its trace is a view over the node words of that one pass.
"""

from __future__ import annotations

from collections import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.netlist import Network


def _transition_counts(values: Dict[str, int], count: int
                       ) -> Dict[str, int]:
    """Per node, the bit flips between consecutive patterns of its
    word (bit *k* = pattern *k*) over ``count`` patterns."""
    pair_mask = (1 << count - 1) - 1 if count > 1 else 0
    return {name: ((w ^ (w >> 1)) & pair_mask).bit_count()
            for name, w in values.items()}


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
    return _transition_counts(
        get_compiled(net).evaluate_words(input_words, mask), count)


class WordTrace(abc.Sequence):
    """Read-only per-cycle view of a clocked run's node words.

    ``words`` maps every node to its word over ``cycles`` cycles (bit
    *k* = cycle *k*).  ``trace[k]`` builds cycle *k*'s
    ``{node: bit}`` dict only when indexed; a slice is a list of such
    dicts, and a trace equals any sequence of the same dicts.
    """

    __slots__ = ("words", "cycles")

    def __init__(self, words: Dict[str, int], cycles: int):
        self.words = words
        self.cycles = cycles

    def __len__(self) -> int:
        return self.cycles

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(self.cycles))]
        if k < 0:
            k += self.cycles
        if not 0 <= k < self.cycles:
            raise IndexError("trace index out of range")
        return {name: (w >> k) & 1 for name, w in self.words.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, abc.Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))


def sequential_transitions(net: Network,
                           input_sequence: Sequence[Dict[str, int]],
                           initial_state: Optional[Dict[str, int]] = None
                           ) -> Tuple[Dict[str, int], WordTrace]:
    """Clock-by-clock simulation of a sequential network.

    Returns ``(transition_counts, value_trace)`` where the trace is a
    :class:`WordTrace` view of the scalar value of every node at each
    cycle.  An input missing from a vector holds its last value (0
    before the first), and a latch missing from ``initial_state``
    starts at its init value.  Latch clock-enables are honoured, so
    gated registers contribute no transitions while disabled.

    ``CompiledNetwork.run`` walks the state; one word-parallel pass
    over its source words then gives every node's word, from which
    the counts and the trace are read.
    """
    from repro.sim.compiled import get_compiled

    prog = get_compiled(net)
    cycles = len(input_sequence)
    values = prog.evaluate_words(prog.run(input_sequence, initial_state),
                                 (1 << cycles) - 1)
    return _transition_counts(values, cycles), WordTrace(values, cycles)


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
