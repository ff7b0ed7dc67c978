"""Compiled word-parallel timed (transport-delay) simulation.

The event-driven :class:`~repro.sim.event.EventSimulator` interprets
one bit per vector and pays a heap push/pop, a name-keyed dict lookup
per fanin and a dynamic gate dispatch for every event.  That made timed
(glitch-inclusive) transition counting the last interpreted hot path:
`glitch_report` and the balance / retiming loops re-run it once per
candidate configuration.

This module lowers a :class:`~repro.logic.netlist.Network` plus its
per-node transport delays into a static time-stepped evaluation
program:

* the slot-indexed machinery of ``repro.sim.compiled`` is reused
  verbatim — one integer slot per node, one pre-lowered kernel per
  gate type / cover;
* the event schedule is bucketed onto a **time wheel**: a dict keyed
  by exact event timestamps, each bucket mapping a node slot to the
  set of stimulus *lanes* in which that node must re-evaluate;
* each bucket is swept once, in decreasing slot order, from one
  ``sorted`` list.  Only an event that lands on the bucket's own
  timestamp — a zero delay, or a delay the float sum absorbs
  (``1e17 + 1.0 == 1e17``) — needs more: the rest of the bucket (the
  unswept slots plus that delta entry) then goes to a slot heap, which
  pops in the same decreasing order and takes further delta entries as
  they come.  A unit-delay run never builds a heap;
* one pass of the time wheel settles the whole stimulus: every
  stimulus transition is one lane of an unbounded Python int, lane *k*
  carrying the settle from vector *k* to vector *k+1* — valid because
  a transport-delay settle always quiesces at the zero-delay values of
  its final vector, so consecutive settles decompose exactly, and the
  starting states of all lanes come from one word-parallel zero-delay
  pass.  A wider word is cheaper than several narrow ones because the
  per-event interpreter overhead dominates, while the wide-int
  bitwise ops and popcounts run in C;
* transitions are counted with XOR + ``int.bit_count`` popcounts, and
  a node commits a re-evaluated value only in its triggered lanes, so
  untriggered lanes never observe a fanin change "early".

Semantics are **bit-identical per-node transition counts** to
:class:`EventSimulator` for any delay map: both engines give every
evaluation at time *t* the pre-timestamp (*t⁻*) fanin values, with
zero-delay propagation re-triggering inside the timestamp (delta
cycles) — a canonical, order-independent transport-delay semantics —
and both compute event timestamps with the same float additions, so
even path-dependent float sums land in the same buckets.

The network keeps one compiled timed program (``Network._timed``,
dropped by every structural edit), keyed by the zero-delay program
snapshot — a function edit yields a new snapshot from ``get_compiled``
— plus the exact resolved per-node delay tuple, so a mutated
``attrs["delay"]`` or a different ``delays`` argument can never hit a
stale program.  Clocked simulation times every cycle's settle of the
zero-delay trajectory ``CompiledNetwork.run`` clocks out (a latch
samples the settled, zero-delay values), cycle *k* in lane *k*.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.logic.netlist import Network
from repro.sim.compiled import CompiledNetwork, get_compiled
from repro.sim.event import resolve_delays
from repro.sim.functional import Stimulus, _as_patterns


class CompiledTimedNetwork:
    """Immutable time-wheel evaluation program for one network snapshot
    under one resolved delay map.  Obtain through :func:`get_timed`."""

    __slots__ = ("base", "delay_key", "kernel_of", "fanout_plan")

    def __init__(self, base: CompiledNetwork,
                 delay_key: Tuple[float, ...]):
        self.base = base
        self.delay_key = delay_key
        num = base.num_slots
        #: slot -> kernel (None for sources)
        kernel_of: List[Optional[object]] = [None] * num
        for out_slot, _fanins, kernel in base.ops:
            kernel_of[out_slot] = kernel
        self.kernel_of = kernel_of
        #: slot -> tuple of (reader_slot, reader_delay); dedup'd per
        #: reader (a doubled fanin triggers one evaluation, like the
        #: event oracle's two same-key events collapsing to one change)
        plan: List[List[Tuple[int, float]]] = [[] for _ in range(num)]
        for out_slot, fanin_slots, _kernel in base.ops:
            d = delay_key[out_slot]
            for fs in dict.fromkeys(fanin_slots):
                plan[fs].append((out_slot, d))
        self.fanout_plan: Tuple[Tuple[Tuple[int, float], ...], ...] = \
            tuple(tuple(p) for p in plan)

    # -- combinational ---------------------------------------------------

    def transition_counts(self, words: Dict[str, int],
                          count: int) -> Dict[str, int]:
        """Per-node transition counts over ``count`` consecutive
        vectors, bit-identical to ``EventSimulator.run`` on the same
        stimulus.  ``words`` (bit *k* = value in vector *k*) is read as
        by ``CompiledNetwork.evaluate_words``: a latch output without a
        word holds its init value, like an undriven oracle source."""
        base = self.base
        counts = [0] * base.num_slots
        if count < 2:
            return dict(zip(base.names, counts))
        # Lane k is the settle from vector k to vector k+1, for every
        # transition of the stimulus at once.
        lane_mask = (1 << (count - 1)) - 1
        # Starting state: zero-delay stable values of vectors 0..count-2,
        # one word-parallel pass over the shared compiled program.
        values = base.evaluate_slots(words, lane_mask)

        fanout_plan = self.fanout_plan
        kernel_of = self.kernel_of
        bit_count = int.bit_count
        heappush, heappop = heapq.heappush, heapq.heappop
        pending: Dict[float, Dict[int, int]] = {}
        times: List[float] = []

        # t = 0: the new vectors reach the sources.
        for slot, name in base.source_slots:
            w = words.get(name)
            if w is None:
                continue
            new = (w >> 1) & lane_mask
            changed = new ^ values[slot]
            if not changed:
                continue
            values[slot] = new
            counts[slot] += bit_count(changed)
            for fo_slot, fo_d in fanout_plan[slot]:
                b = pending.get(fo_d)
                if b is None:
                    pending[fo_d] = {fo_slot: changed}
                    heappush(times, fo_d)
                else:
                    b[fo_slot] = b.get(fo_slot, 0) | changed

        # Time wheel: pop the earliest bucket, evaluate its slots in
        # *decreasing* slot (= reverse topological) order.  A node's
        # fanins all sit at smaller slots, so every evaluation at time
        # t reads pre-timestamp values — the delta-cycle semantics of
        # the oracle.  One sorted sweep serves a bucket until an event
        # lands at t itself (a zero delay, or one the float sum
        # absorbs); its reader has a strictly larger slot, so the rest
        # of the bucket goes to a slot heap, which pops that reader
        # next, realising the delta cycle.
        while times:
            t = heappop(times)
            bucket = pending.pop(t, None)
            if bucket is None:        # duplicate heap entry
                continue
            delta = False
            for slot in sorted(bucket, reverse=True):
                trig = bucket.pop(slot)
                word = kernel_of[slot](values, lane_mask)
                changed = (word ^ values[slot]) & trig
                if not changed:
                    continue
                values[slot] ^= changed
                counts[slot] += bit_count(changed)
                for fo_slot, fo_d in fanout_plan[slot]:
                    t2 = t + fo_d
                    if t2 == t:       # delta cycle: current bucket
                        bucket[fo_slot] = bucket.get(fo_slot, 0) | changed
                        delta = True
                    else:
                        b = pending.get(t2)
                        if b is None:
                            pending[t2] = {fo_slot: changed}
                            heappush(times, t2)
                        else:
                            b[fo_slot] = b.get(fo_slot, 0) | changed
                if delta:
                    break
            if not delta:
                continue
            # The unswept slots and the delta entries, largest first.
            slot_heap = [-s for s in bucket]
            heapq.heapify(slot_heap)
            while slot_heap:
                slot = -heappop(slot_heap)
                trig = bucket.pop(slot, 0)
                if not trig:          # duplicate slot entry
                    continue
                word = kernel_of[slot](values, lane_mask)
                changed = (word ^ values[slot]) & trig
                if not changed:
                    continue
                values[slot] ^= changed
                counts[slot] += bit_count(changed)
                for fo_slot, fo_d in fanout_plan[slot]:
                    t2 = t + fo_d
                    if t2 == t:       # delta cycle: current bucket
                        if fo_slot in bucket:
                            bucket[fo_slot] |= changed
                        else:
                            bucket[fo_slot] = changed
                            heappush(slot_heap, -fo_slot)
                    else:
                        b = pending.get(t2)
                        if b is None:
                            pending[t2] = {fo_slot: changed}
                            heappush(times, t2)
                        else:
                            b[fo_slot] = b.get(fo_slot, 0) | changed
        return dict(zip(base.names, counts))


def get_timed(net: Network, delays: Optional[Dict[str, float]] = None
              ) -> CompiledTimedNetwork:
    """Cached compiled timed program for ``net`` under ``delays``.

    The network keeps one program (``Network._timed``, dropped by every
    structural edit), keyed by the zero-delay program snapshot —
    ``get_compiled`` returns a new snapshot after a node function edit,
    so the timed program is rebuilt then too — plus the exact resolved
    delay tuple (covering both the ``delays`` argument and in-place
    ``attrs["delay"]`` edits), resolved on every call by
    :func:`~repro.sim.event.resolve_delays`, which raises
    :class:`ValueError` on anything but a finite non-negative int or
    float delay.  Another delay map replaces the program.
    """
    base = get_compiled(net)
    delay_key = tuple(resolve_delays(net, base.names, delays))
    prog = net._timed
    if prog is None or prog.base is not base or \
            prog.delay_key != delay_key:
        prog = CompiledTimedNetwork(base, delay_key)
        net._timed = prog
    return prog


def timed_transitions_from_words(net: Network,
                                 input_words: Dict[str, int],
                                 count: int,
                                 delays: Optional[Dict[str, float]]
                                 = None) -> Dict[str, int]:
    """Word-stimulus entry point: per-node timed transition counts of
    ``count`` consecutive vectors packed into ``input_words``."""
    return get_timed(net, delays).transition_counts(input_words, count)


def timed_sequential_transitions(net: Network, vectors: Stimulus,
                                 delays: Optional[Dict[str, float]]
                                 = None) -> Dict[str, int]:
    """Clocked timed transition counts (glitches included) of a
    sequential network, bit-identical to
    :meth:`~repro.sim.event.EventSimulator.run_sequential`: the settle
    of every cycle of the trajectory ``CompiledNetwork.run`` clocks out.
    ``vectors`` is a stimulus as for
    :func:`~repro.sim.functional.sequential_transitions`: packed
    patterns, or dict vectors (an input missing from one holds its
    last value)."""
    prog = get_timed(net, delays)
    base = prog.base
    return prog.transition_counts(
        base.run(_as_patterns(base.inputs, vectors)), len(vectors))
