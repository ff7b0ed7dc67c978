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
* 64 stimulus transitions are simulated per machine word.  Lane *k*
  carries the settle from vector *k* to vector *k+1* — valid because a
  transport-delay settle always quiesces at the zero-delay values of
  its final vector, so consecutive settles decompose exactly, and the
  starting states of all lanes come from one word-parallel zero-delay
  pass;
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

The compiled timed program is cached on the network
(``Network._timed``, cleared by ``Network._invalidate``) and keyed by
the zero-delay program snapshot — whose structural-fingerprint
verification it therefore inherits — plus the exact resolved per-node
delay tuple, so a mutated ``attrs["delay"]`` or a different ``delays``
argument can never hit a stale program.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.netlist import Network
from repro.sim.compiled import CompiledNetwork, get_compiled

#: retain at most this many delay variants per network snapshot
_MAX_DELAY_VARIANTS = 8


class CompiledTimedNetwork:
    """Immutable time-wheel evaluation program for one network snapshot
    under one resolved delay map.  Obtain through :func:`get_timed`."""

    __slots__ = ("base", "delay_key", "kernel_of", "fanout_plan",
                 "source_slots", "seq_ops")

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
        #: (slot, name) for every source, inputs then latch outputs
        self.source_slots: Tuple[Tuple[int, str], ...] = tuple(
            list(base.input_slots)
            + [(s, base.names[s]) for s, _d, _e, _i in base.latches])
        #: ops of the latch data/enable cones (built lazily)
        self.seq_ops: Optional[Tuple] = None

    # -- combinational ---------------------------------------------------

    def transition_counts(self, input_words: Dict[str, int],
                          count: int) -> Dict[str, int]:
        """Per-node transition counts over ``count`` consecutive
        vectors, bit-identical to ``EventSimulator.run`` on the same
        stimulus.  ``input_words`` must carry a word for every primary
        input (bit *k* = value in vector *k*); latch-output words are
        optional (a missing one holds the latch's init value, like a
        source never driven by the oracle's vectors)."""
        counts = [0] * self.base.num_slots
        if count >= 2:
            for start in range(0, count - 1, 64):
                lanes = min(64, count - 1 - start)
                self._run_chunk(input_words, start, lanes, counts)
        return dict(zip(self.base.names, counts))

    def _run_chunk(self, input_words: Dict[str, int], start: int,
                   lanes: int, counts: List[int]) -> None:
        """Simulate settles ``start .. start+lanes-1`` (lane *j* is the
        transition from vector ``start+j`` to ``start+j+1``)."""
        base = self.base
        lane_mask = (1 << lanes) - 1
        # Starting state: zero-delay stable values of the previous
        # vectors, one word-parallel pass over the shared compiled
        # program; a latch without a word holds its init value.
        prev = {name: input_words[name] >> start
                for _slot, name in self.source_slots
                if name in input_words}
        values = base.evaluate_slots(prev, lane_mask, prev)

        fanout_plan = self.fanout_plan
        kernel_of = self.kernel_of
        bit_count = int.bit_count
        heappush, heappop = heapq.heappush, heapq.heappop
        pending: Dict[float, Dict[int, int]] = {}
        times: List[float] = []

        # t = 0: the new vectors reach the sources.
        shift = start + 1
        for slot, name in self.source_slots:
            w = input_words.get(name)
            if w is None:
                continue
            new = (w >> shift) & lane_mask
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
        # the oracle.  A zero-delay reader of a time-t change has a
        # strictly larger slot than its writer and therefore pops
        # immediately after re-insertion, realising the delta cycle.
        while times:
            t = heappop(times)
            bucket = pending.pop(t, None)
            if bucket is None:        # duplicate heap entry
                continue
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

    # -- clocked sequential ----------------------------------------------

    def sequential_transition_counts(
            self, vectors: Sequence[Dict[str, int]]) -> Dict[str, int]:
        """Clocked timed counts, bit-identical to
        ``EventSimulator.run_sequential`` on the same vector sequence.

        Phase 1 recovers the register trajectory with cheap zero-delay
        scalar steps restricted to the latch data/enable cones (the
        settled values a latch samples are exactly the zero-delay
        values).  Phase 2 packs the per-cycle source values — primary
        inputs plus latch outputs — into words and reuses the
        word-parallel combinational engine: every cycle's settle is one
        lane.
        """
        base = self.base
        if self.seq_ops is None:
            self.seq_ops = self._latch_cone_ops()
        seq_ops = self.seq_ops
        latches = base.latches
        count = len(vectors)
        input_names = [name for _s, name in base.input_slots]
        input_slot = {name: s for s, name in base.input_slots}

        # Phase 1: scalar trajectory (mask = 1).
        num = base.num_slots
        values = [0] * num
        state = {lslot: init for lslot, _d, _e, init in latches}
        drive_words = [0] * num       # per source slot, bit k = cycle k
        cur_in = {name: 0 for name in input_names}
        for k, vec in enumerate(vectors):
            for name in input_names:
                v = vec.get(name)
                if v is not None:
                    cur_in[name] = v & 1
            for name in input_names:
                if cur_in[name]:
                    drive_words[input_slot[name]] |= 1 << k
                values[input_slot[name]] = cur_in[name]
            for lslot, _dslot, _eslot, _init in latches:
                if state[lslot]:
                    drive_words[lslot] |= 1 << k
                values[lslot] = state[lslot]
            for out_slot, _fanins, kernel in seq_ops:
                values[out_slot] = kernel(values, 1)
            for lslot, dslot, eslot, _init in latches:
                if eslot is not None and not values[eslot]:
                    continue
                state[lslot] = values[dslot]

        # Phase 2: word-parallel timed settles across all cycles.
        words = {name: drive_words[slot]
                 for slot, name in self.source_slots}
        return self.transition_counts(words, count)

    def _latch_cone_ops(self) -> Tuple:
        """The base program's ops restricted to the transitive fanin
        cones of the latch data and enable slots."""
        base = self.base
        needed = set()
        for _out, dslot, eslot, _init in base.latches:
            needed.add(dslot)
            if eslot is not None:
                needed.add(eslot)
        # Transitive fanin closure over the op list (reverse topo).
        for out_slot, fanin_slots, _kernel in reversed(base.ops):
            if out_slot in needed:
                needed.update(fanin_slots)
        return tuple(op for op in base.ops if op[0] in needed)


def _resolve_delays(net: Network, base: CompiledNetwork,
                    delays: Optional[Dict[str, float]]
                    ) -> Tuple[float, ...]:
    """Per-slot transport delays with the oracle's priority: ``delays``
    map, then ``attrs["delay"]``, then 1.0; sources are 0.0."""
    nodes = net.nodes
    out = []
    for name in base.names:
        node = nodes[name]
        if node.is_source():
            out.append(0.0)
        elif delays is not None and name in delays:
            out.append(float(delays[name]))
        else:
            out.append(float(node.attrs.get("delay", 1.0)))
    return tuple(out)


def get_timed(net: Network, delays: Optional[Dict[str, float]] = None
              ) -> CompiledTimedNetwork:
    """Cached compiled timed program for ``net`` under ``delays``.

    The cache lives on the network (``Network._timed``, cleared by
    ``_invalidate``) and is keyed by the zero-delay program snapshot —
    ``get_compiled`` re-verifies that snapshot's structural fingerprint
    on every call, so hook-bypassing mutations recompile here too —
    plus the exact resolved delay tuple (covering both the ``delays``
    argument and in-place ``attrs["delay"]`` edits).  Up to
    ``_MAX_DELAY_VARIANTS`` delay maps are retained per snapshot.
    """
    base = get_compiled(net)
    delay_key = _resolve_delays(net, base, delays)
    cache = getattr(net, "_timed", None)
    if cache is not None and cache[0] is base:
        variants = cache[1]
        prog = variants.get(delay_key)
        if prog is None:
            if len(variants) >= _MAX_DELAY_VARIANTS:
                variants.clear()
            prog = CompiledTimedNetwork(base, delay_key)
            variants[delay_key] = prog
    else:
        prog = CompiledTimedNetwork(base, delay_key)
        net._timed = (base, {delay_key: prog})
    return prog


def timed_transitions_from_words(net: Network,
                                 input_words: Dict[str, int],
                                 count: int,
                                 delays: Optional[Dict[str, float]]
                                 = None) -> Dict[str, int]:
    """Word-stimulus entry point: per-node timed transition counts of
    ``count`` consecutive vectors packed into ``input_words``."""
    return get_timed(net, delays).transition_counts(input_words, count)
