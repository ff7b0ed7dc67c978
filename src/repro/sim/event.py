"""Event-driven timing simulation (transport-delay model).

Counts *every* output transition of every node, including the spurious
transitions ("glitches") that settle before the clock edge.  Comparing
these counts with the zero-delay counts of ``repro.sim.functional``
reproduces the 10–40% glitch-power claim of Section III-A.2.

Two engines implement the same semantics:

* :class:`EventSimulator` — the reference oracle: one heap of
  ``(time, node)`` events, one bit per vector.  Every node evaluated
  at time *t* sees its fanin values as of *t⁻* — simultaneous events
  are mutually invisible, and zero-delay propagation re-triggers
  within the timestamp (delta cycles, as in VHDL).  That makes the
  result a canonical function of the network, the delays and the
  stimulus — independent of heap insertion order — and it preserves
  the static-hazard pulses that path balancing exists to remove.
* ``repro.sim.timed`` — a compiled, word-parallel engine that buckets
  the same schedule onto a time wheel and settles the whole stimulus
  in one pass, one lane per stimulus transition.  Bit-identical
  per-node counts, much faster; the default for
  :func:`timed_transitions` and :func:`timed_sequential_transitions`.

In both, a source missing from a vector holds its last value (inputs
start at 0, latch outputs at init).  A clocked compiled run times the
source words ``CompiledNetwork.run`` returns (bit *k* = cycle *k*),
which ``sequential_transitions`` counts too, so timed minus zero-delay
is an even glitch count.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.gates import eval_gate
from repro.logic.netlist import Network

#: engine selector values accepted by the timed entry points
ENGINES = ("compiled", "event")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown timed engine {engine!r}; expected one of {ENGINES}")


def check_delay(name: str, raw: object) -> float:
    """``raw`` as the transport delay of node ``name``.

    Raises :class:`ValueError` naming the node unless ``raw`` is a
    finite non-negative number (not a bool, as the linter's
    ``malformed-delay`` rule has it): under a NaN, infinite or negative
    delay the event schedule has no meaningful order, and the two
    engines would part.
    """
    try:
        d = float(raw)
    except (TypeError, ValueError, OverflowError):
        d = math.nan
    if isinstance(raw, bool) or not 0.0 <= d < math.inf:
        raise ValueError(f"delay of node {name!r} is {raw!r}; "
                         f"expected a finite non-negative number")
    return d


def resolve_delays(net: Network, names: Sequence[str],
                   delays: Optional[Dict[str, float]]) -> List[float]:
    """Transport delay of each of ``names``, in order: the ``delays``
    map, then ``attrs["delay"]``, then 1.0; sources are 0.0.  A given
    delay goes through :func:`check_delay`."""
    nodes = net.nodes
    out: List[float] = []
    for name in names:
        node = nodes[name]
        if node.is_source():
            d = 0.0
        elif delays is not None and name in delays:
            d = check_delay(name, delays[name])
        elif "delay" in node.attrs:
            d = check_delay(name, node.attrs["delay"])
        else:
            d = 1.0
        out.append(d)
    return out


class EventSimulator:
    """Transport-delay event-driven simulator for combinational networks.

    Delays come from, in priority order: the ``delays`` constructor map,
    each node's ``attrs["delay"]``, then the 1.0 default
    (:func:`resolve_delays`, which rejects a negative, infinite or NaN
    delay).  BUF gates added by path balancing carry unit delay like any
    other gate.

    Simultaneous events (equal timestamps — the common case under
    uniform delays) are evaluated in *reverse* topological order, so a
    node re-evaluated at time *t* sees the *t⁻* (pre-timestamp) values
    of all its fanins; a zero-delay reader of a time-*t* change
    re-evaluates within the same timestamp (a delta cycle).  This
    canonical tie-break — pure transport-delay semantics, under which
    simultaneous arrivals still expose static hazards — is what the
    compiled engine (``repro.sim.timed``) reproduces word-parallel.
    """

    def __init__(self, net: Network,
                 delays: Optional[Dict[str, float]] = None):
        self.net = net
        self.order = net.topo_order()       # cached on the network
        self.fanouts = net.fanouts()        # from the reader index
        self._topo_index = {name: i for i, name in enumerate(self.order)}
        self.delays: Dict[str, float] = dict(
            zip(self.order, resolve_delays(net, self.order, delays)))
        self.values: Dict[str, int] = {}
        self.transition_counts: Dict[str, int] = {name: 0
                                                  for name in net.nodes}

    # -- internals ------------------------------------------------------

    def _evaluate_node(self, name: str) -> int:
        node = self.net.nodes[name]
        ins = [self.values[fi] for fi in node.fanins]
        if node.kind == "gate":
            return eval_gate(node.gtype, ins, 1)
        return node.cover.evaluate_words(ins, 1)

    def settle(self, input_values: Dict[str, int],
               count_transitions: bool = True) -> float:
        """Apply a new input vector and propagate until quiescent.

        Returns the settling time (when the last node changed).  The first
        call establishes the initial state without counting transitions.
        """
        first_time = not self.values
        if first_time:
            for name in self.order:
                node = self.net.nodes[name]
                if node.kind == "input":
                    self.values[name] = input_values.get(name, 0) & 1
                elif node.kind == "latch":
                    self.values[name] = input_values.get(
                        name, self.net.latch_for_output(name).init) & 1
                else:
                    self.values[name] = self._evaluate_node(name)
            return 0.0

        heap: List[Tuple[float, int, str]] = []
        topo = self._topo_index
        changed_sources = []
        for name, node in self.net.nodes.items():
            if not node.is_source():
                continue
            new = input_values.get(name, self.values[name]) & 1
            if new != self.values[name]:
                self.values[name] = new
                if count_transitions:
                    self.transition_counts[name] += 1
                changed_sources.append(name)
        for src in changed_sources:
            for fo in self.fanouts[src]:
                if not self.net.nodes[fo].is_source():
                    heapq.heappush(heap,
                                   (self.delays[fo], -topo[fo], fo))
        last_time = 0.0
        while heap:
            t, _k, name = heapq.heappop(heap)
            new = self._evaluate_node(name)
            if new == self.values[name]:
                continue
            self.values[name] = new
            if count_transitions:
                self.transition_counts[name] += 1
            last_time = max(last_time, t)
            for fo in self.fanouts[name]:
                if not self.net.nodes[fo].is_source():
                    heapq.heappush(heap,
                                   (t + self.delays[fo], -topo[fo], fo))
        return last_time

    def run(self, vectors: Sequence[Dict[str, int]]) -> Dict[str, int]:
        """Run a vector sequence; returns per-node transition counts
        (the first vector only initialises state)."""
        for vec in vectors:
            self.settle(vec)
        return dict(self.transition_counts)

    def run_sequential(self, vectors: Sequence[Dict[str, int]]
                       ) -> Dict[str, int]:
        """Clocked timed simulation of a sequential network.

        Each cycle: primary inputs and latch outputs change together at
        the clock edge, then the combinational logic settles (with
        glitches counted).  Latch data is sampled at the end of the
        settle — i.e. registers *filter* the spurious transitions at
        their inputs, which is exactly the effect low-power retiming
        ([29]) exploits.  Latch enables are honoured.
        """
        state: Dict[str, int] = {
            latch.output: latch.init for latch in self.net.latches}
        first = True
        for vec in vectors:
            drive = dict(vec)
            drive.update(state)
            self.settle(drive, count_transitions=not first)
            first = False
            for latch in self.net.latches:
                new = self.values[latch.data]
                if latch.enable is not None and \
                        not self.values[latch.enable]:
                    continue
                state[latch.output] = new
        return dict(self.transition_counts)


def timed_transitions(net: Network, vectors: Sequence[Dict[str, int]],
                      delays: Optional[Dict[str, float]] = None,
                      engine: str = "compiled") -> Dict[str, int]:
    """Per-node transition counts of a timed run over ``vectors``.

    ``engine="compiled"`` (default) uses the word-parallel time-wheel
    engine of ``repro.sim.timed``; ``engine="event"`` runs the
    event-driven oracle.  Both return bit-identical counts.
    """
    _check_engine(engine)
    if engine == "compiled":
        from repro.sim.timed import get_timed

        words, count = _vectors_to_words(net, vectors)
        return get_timed(net, delays).transition_counts(words, count)
    sim = EventSimulator(net, delays=delays)
    return sim.run(vectors)


def timed_sequential_transitions(net: Network,
                                 vectors: Sequence[Dict[str, int]],
                                 delays: Optional[Dict[str, float]]
                                 = None,
                                 engine: str = "compiled"
                                 ) -> Dict[str, int]:
    """Clocked timed transition counts (glitches included) of a
    sequential network; see :meth:`EventSimulator.run_sequential`.
    ``engine`` selects the word-parallel compiled engine (default) or
    the event-driven oracle."""
    _check_engine(engine)
    if engine == "compiled":
        from repro.sim.timed import get_timed

        prog = get_timed(net, delays)
        words = prog.base.run(vectors)
        return prog.transition_counts(words, len(vectors))
    sim = EventSimulator(net, delays=delays)
    return sim.run_sequential(vectors)


def _vectors_to_words(net: Network, vectors: Sequence[Dict[str, int]]
                      ) -> Tuple[Dict[str, int], int]:
    """Pack a scalar vector sequence into complete per-source words.

    Replicates the event simulator's hold semantics: a source missing
    from a vector keeps its previous value (inputs start at 0, latch
    outputs at their init value).
    """
    words: Dict[str, int] = {}
    cur: Dict[str, int] = {}
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    for name in sources:
        if net.nodes[name].kind == "latch":
            cur[name] = net.latch_for_output(name).init & 1
        else:
            cur[name] = 0
        words[name] = 0
    for k, vec in enumerate(vectors):
        for name in sources:
            v = vec.get(name)
            if v is not None:
                cur[name] = v & 1
            if cur[name]:
                words[name] |= 1 << k
    return words, len(vectors)
