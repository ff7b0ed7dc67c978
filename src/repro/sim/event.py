"""Event-driven timing simulation (transport-delay model): the oracle.

Counts *every* output transition of every node, including the spurious
transitions ("glitches") that settle before the clock edge.  Comparing
these counts with the zero-delay counts of ``repro.sim.functional``
reproduces the 10–40% glitch-power claim of Section III-A.2.

:class:`EventSimulator` keeps one heap of ``(time, node)`` events, one
bit per vector.  Every node evaluated at time *t* sees its fanin values
as of *t⁻* — simultaneous events are mutually invisible, and zero-delay
propagation re-triggers within the timestamp (delta cycles, as in
VHDL).  That makes the result a canonical function of the network, the
delays and the stimulus — independent of heap insertion order — and it
preserves the static-hazard pulses that path balancing exists to
remove.

The library's timed engine is the compiled word-parallel one of
``repro.sim.timed``, which buckets the same schedule onto a time wheel
and returns bit-identical per-node counts; this simulator is its test
oracle.  A source missing from a vector holds its last value (inputs
start at 0, latch outputs at init).  :func:`check_delay` and
:func:`resolve_delays` are the one delay rule of both engines and of
the linter's ``malformed-delay`` rule.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.gates import eval_gate
from repro.logic.netlist import Network


def check_delay(name: str, raw: object) -> float:
    """``raw`` as the transport delay of node ``name``.

    Raises :class:`ValueError` naming the node unless ``raw`` is a
    finite non-negative int or float, not a bool.  A numeric string, a
    ``Fraction`` or a ``Decimal`` is not a delay: the linter's
    ``malformed-delay`` rule calls this check, so what the engines run
    is what the linter passes.  Under a NaN, infinite or negative delay
    the event schedule has no meaningful order, and the two engines
    would part.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"delay of node {name!r} has type "
                         f"{type(raw).__name__}; expected an int or "
                         f"float")
    try:
        d = float(raw)
    except OverflowError:             # an int past the float range
        d = math.inf
    if not 0.0 <= d < math.inf:
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
    (:func:`resolve_delays`, which rejects anything but a finite
    non-negative int or float).  BUF gates added by path balancing
    carry unit delay like any other gate.

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

    def settle(self, input_values: Dict[str, int]) -> float:
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
        for vec in vectors:
            drive = dict(vec)
            drive.update(state)
            self.settle(drive)
            for latch in self.net.latches:
                new = self.values[latch.data]
                if latch.enable is not None and \
                        not self.values[latch.enable]:
                    continue
                state[latch.output] = new
        return dict(self.transition_counts)
