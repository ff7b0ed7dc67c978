"""Compiled bit-parallel network evaluation with incremental re-simulation.

The library's one evaluator for combinational and clocked simulation.
The reference ``Network.evaluate_words`` re-walks the dict-of-:class:`Node`
DAG on every call: per node it does a dict lookup, a kind dispatch, builds
a fanin value list and (for SOP nodes) re-interprets the cover cube by
cube.  The optimizers evaluate thousands of times inside their Σ C·N cost
loops, so this module compiles a :class:`~repro.logic.netlist.Network`
once into a flat *evaluation program*:

* every node gets an integer **slot** (its topological index);
* every non-source node becomes one **op** — ``(out_slot, fanin_slots,
  kernel)`` where the kernel is a pre-lowered closure over the fanin slot
  indices (specialized per gate type / per cover);
* evaluation is a single pass filling a flat ``list`` of words — no name
  lookups, no dispatch, no per-call cover interpretation;
* a latch output is a source like a primary input: every evaluator
  reads one map of source words, where each input must have a word
  and a latch output without one holds its init value;
* every latch is resolved once into a table of (output, data, enable)
  slots, so :meth:`CompiledNetwork.step` clocks the network without a
  name lookup per latch, and :meth:`CompiledNetwork.run` clocks a
  vector sequence into one word per source (bit *k* = cycle *k*), the
  trajectory both clocked transition counters count on.  ``run``
  walks only the state, stepping each distinct (inputs, state)
  pattern once; the node words of the whole trajectory are then one
  word-parallel pass.

The compiled program is cached on the network (``Network._compiled``)
and dropped by every structural edit.  For the nodes in the network's
edit record (``Network.set_function``) :func:`get_compiled` re-lowers
just their kernels into a new snapshot on the old slot layout —
O(edited) instead of O(network).

On top of the flat program, :meth:`CompiledNetwork.evaluate_incremental`
re-simulates only the transitive fanout cone of a set of *dirty* nodes,
reusing the previous pattern words everywhere else, with value-based
early cut-off (a recomputed node whose word is unchanged stops the
propagation).  This is the engine behind ``activity_from_simulation``,
which keeps its last run on the network and reads the dirty set from
the network's edit record: an optimizer that edits one node pays only
for that node's cone instead of a full re-simulation.

All paths are bit-exact with the interpreted ``Network.evaluate_words``
(pure integer logic, identical cube/literal semantics), which the tests
keep as the reference.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.logic.gates import GateType
from repro.logic.netlist import NetlistError, Network

#: A kernel maps (slot values, width mask) -> output word.
Kernel = Callable[[List[int], int], int]
#: (output slot, data slot, enable slot or None, init) of one latch.
LatchEntry = Tuple[int, int, Optional[int], int]


# -- kernel lowering ---------------------------------------------------------


def _gate_kernel(gtype: GateType, slots: Tuple[int, ...]) -> Kernel:
    """Specialized closure for one gate instance.

    Slot values are always pre-masked, so only inverting outputs need
    the ``& mask`` clamp.
    """
    if gtype is GateType.CONST0:
        return lambda v, m: 0
    if gtype is GateType.CONST1:
        return lambda v, m: m
    if gtype is GateType.BUF:
        (i,) = slots
        return lambda v, m: v[i]
    if gtype is GateType.NOT:
        (i,) = slots
        return lambda v, m: ~v[i] & m
    if gtype in (GateType.AND, GateType.NAND):
        if len(slots) == 2:
            i, j = slots
            if gtype is GateType.AND:
                return lambda v, m: v[i] & v[j]
            return lambda v, m: ~(v[i] & v[j]) & m

        def and_wide(v: List[int], m: int) -> int:
            acc = m
            for s in slots:
                acc &= v[s]
            return acc

        if gtype is GateType.AND:
            return and_wide
        return lambda v, m: ~and_wide(v, m) & m
    if gtype in (GateType.OR, GateType.NOR):
        if len(slots) == 2:
            i, j = slots
            if gtype is GateType.OR:
                return lambda v, m: v[i] | v[j]
            return lambda v, m: ~(v[i] | v[j]) & m

        def or_wide(v: List[int], m: int) -> int:
            acc = 0
            for s in slots:
                acc |= v[s]
            return acc

        if gtype is GateType.OR:
            return or_wide
        return lambda v, m: ~or_wide(v, m) & m
    if gtype in (GateType.XOR, GateType.XNOR):
        if len(slots) == 2:
            i, j = slots
            if gtype is GateType.XOR:
                return lambda v, m: v[i] ^ v[j]
            return lambda v, m: ~(v[i] ^ v[j]) & m

        def xor_wide(v: List[int], m: int) -> int:
            acc = 0
            for s in slots:
                acc ^= v[s]
            return acc

        if gtype is GateType.XOR:
            return xor_wide
        return lambda v, m: ~xor_wide(v, m) & m
    if gtype is GateType.MUX:
        sel, d0, d1 = slots
        return lambda v, m: (v[sel] & v[d1]) | (~v[sel] & v[d0] & m)
    if gtype is GateType.MAJ:
        a, b, c = slots
        return lambda v, m: (v[a] & v[b]) | (v[a] & v[c]) | (v[b] & v[c])
    raise NetlistError(f"cannot compile gate type {gtype}")


def _sop_kernel(cube_plan: Tuple[Tuple[Tuple[int, int], ...], ...]) -> Kernel:
    """Closure evaluating a pre-lowered cover.

    ``cube_plan`` holds, per cube, ``(slot, phase)`` literal pairs —
    the cover's variable indices already resolved to value slots.
    """
    def kernel(v: List[int], m: int) -> int:
        out = 0
        for lits in cube_plan:
            term = m
            for s, phase in lits:
                w = v[s]
                term &= w if phase else ~w & m
                if not term:
                    break
            out |= term
            if out == m:
                break
        return out

    return kernel


# -- the compiled program ----------------------------------------------------


class CompiledNetwork:
    """Flat, slot-indexed evaluation program for one network snapshot.

    Instances are immutable snapshots: they never observe later edits of
    the source network.  Obtain one through :func:`get_compiled`, which
    caches on the network and re-lowers the kernels of edited nodes.
    """

    __slots__ = ("mark", "names", "slot_of", "num_slots", "inputs",
                 "input_slots", "latches", "source_slots", "ops")

    def __init__(self, mark: Tuple[List[str], int], names: List[str],
                 slot_of: Dict[str, int], inputs: List[str],
                 input_slots: List[Tuple[int, str]],
                 latches: Tuple[LatchEntry, ...],
                 ops: List[Tuple[int, Tuple[int, ...], Kernel]]):
        #: the network's edit-record position this snapshot reflects
        self.mark = mark
        #: slot index -> node name (topological order)
        self.names = names
        self.slot_of = slot_of
        self.num_slots = len(names)
        #: primary inputs in declaration order (``Network.inputs``), the
        #: bit order of a :meth:`run` pattern
        self.inputs = inputs
        self.input_slots = input_slots
        #: per latch, in declaration order: (output slot, data slot,
        #: enable slot or None, init)
        self.latches = latches
        #: (slot, name) for every source, inputs then latch outputs
        self.source_slots = input_slots + [(s, names[s])
                                           for s, *_ in latches]
        #: in topological (= ascending out-slot) order
        self.ops = ops

    # -- full evaluation -----------------------------------------------

    def _load_sources(self, values: List[int], words: Dict[str, int],
                      mask: int) -> None:
        for slot, name in self.input_slots:
            try:
                values[slot] = words[name] & mask
            except KeyError:
                raise NetlistError(
                    f"missing input value for {name!r}") from None
        for slot, _data, _enable, init in self.latches:
            word = words.get(self.names[slot], mask if init else 0)
            values[slot] = word & mask

    def evaluate_slots(self, words: Dict[str, int], mask: int
                       ) -> List[int]:
        """One full pass; returns the flat slot-value list."""
        values = [0] * self.num_slots
        self._load_sources(values, words, mask)
        for out_slot, _fanins, kernel in self.ops:
            values[out_slot] = kernel(values, mask)
        return values

    def evaluate_words(self, words: Dict[str, int], mask: int
                       ) -> Dict[str, int]:
        """Drop-in, bit-exact replacement for ``Network.evaluate_words``:
        every primary input needs a word in ``words``; a latch output
        without one holds its init value."""
        return dict(zip(self.names, self.evaluate_slots(words, mask)))

    def step(self, words: Dict[str, int], mask: int
             ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """One clocked step, bit-parallel over independent trajectories.

        ``words`` carries this cycle's source words as for
        :meth:`evaluate_words`.  Returns ``(next_state_words,
        node_values)``; where a latch enable bit is 0 the latch keeps
        its old bit (a gated clock).
        """
        values = self.evaluate_slots(words, mask)
        names = self.names
        nxt: Dict[str, int] = {}
        for out, data, enable, _init in self.latches:
            new = values[data]
            if enable is not None:
                en = values[enable]
                new = (new & en) | (values[out] & ~en)
            nxt[names[out]] = new
        return nxt, dict(zip(names, values))

    def expand(self, state: Tuple[int, ...], words: Dict[str, int],
               mask: int) -> Tuple[Dict[str, int], List[Tuple[int, ...]]]:
        """Step one state under every input pattern of ``words`` at once.

        ``state`` holds one bit per latch in declaration order; bit *m*
        of each input word is pattern *m*, and ``mask`` has one bit per
        pattern.  Returns the node words and, per pattern, the successor
        state in the same form.
        """
        src = dict(words)
        src.update((self.names[out], mask if bit else 0)
                   for (out, *_), bit in zip(self.latches, state))
        nxt, values = self.step(src, mask)
        return values, [tuple((w >> m) & 1 for w in nxt.values())
                        for m in range(mask.bit_length())]

    def run(self, patterns: Sequence[int],
            state: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Clock once per input pattern, from ``state`` (a latch missing
        from it starts at its init value); returns the word of every
        source, inputs and latch outputs (bit *k* is its value in cycle
        *k*).

        Pattern *k* packs cycle *k*'s inputs: bit *j* is the value of
        ``inputs[j]``, the network's declared input order.  A pattern
        outside ``[0, 2**len(inputs))`` raises ``ValueError``.  Only
        the state is walked: the next state of each distinct (pattern,
        state) pair is one 1-bit :meth:`step`, memoized for the rest of
        the call, so a cycle whose pair repeats costs a dict lookup.
        Evaluating the node words of the whole trajectory is one
        :meth:`evaluate_words` over the returned words.
        """
        # key = pattern above the state bits: an out-of-range pattern
        # can never alias a valid key, so checking it on first sight
        # checks every cycle.
        sources = [self.names[out] for out, *_ in self.latches] + \
            self.inputs
        shift = len(self.latches)
        limit = 1 << len(self.inputs)
        start = state or {}
        cur = sum((start.get(self.names[out], init) & 1) << j
                  for j, (out, _d, _e, init) in enumerate(self.latches))
        # key -> [next state bits, the cycles it occurs in (bit k)]
        memo: Dict[int, List[int]] = {}
        for k, pattern in enumerate(patterns):
            key = pattern << shift | cur
            entry = memo.get(key)
            if entry is None:
                if not 0 <= pattern < limit:
                    raise ValueError(
                        f"input pattern of cycle {k} must be an int in "
                        f"[0, {limit}), got {pattern!r}")
                nxt, _values = self.step(
                    {name: (key >> j) & 1
                     for j, name in enumerate(sources)}, 1)
                entry = memo[key] = [
                    sum(w << j for j, w in enumerate(nxt.values())), 0]
            entry[1] |= 1 << k
            cur = entry[0]
        words = dict.fromkeys((name for _slot, name in self.source_slots),
                              0)
        for key, (_nxt, cycles) in memo.items():
            for j, name in enumerate(sources):
                if (key >> j) & 1:
                    words[name] |= cycles
        return words

    # -- incremental evaluation ------------------------------------------

    def evaluate_incremental(self, prev: Dict[str, int],
                             dirty: Iterable[str],
                             words: Dict[str, int], mask: int
                             ) -> Dict[str, int]:
        """Re-evaluate only the transitive fanout cone of ``dirty``.

        ``prev`` maps node name -> word from a prior evaluation under
        the *same* ``words``/``mask`` of a network that agrees with
        this one everywhere outside the cone of the dirty set.  Nodes
        absent from ``prev`` (newly created) are implicitly dirty.
        ``activity_from_simulation`` takes ``dirty``
        from the network's edit record (``Network.edits_since``).

        Value-based early cut-off: a recomputed node whose word equals
        its previous word does not propagate further.
        """
        values = [0] * self.num_slots
        changed = bytearray(self.num_slots)
        dirty_set = set(dirty)
        self._load_sources(values, words, mask)
        for slot, name in self.source_slots:
            if values[slot] != prev.get(name):
                changed[slot] = 1
        for out_slot, fanin_slots, kernel in self.ops:
            name = self.names[out_slot]
            stale = name in dirty_set or name not in prev
            if not stale:
                for s in fanin_slots:
                    if changed[s]:
                        stale = True
                        break
            if not stale:
                values[out_slot] = prev[name]
                continue
            word = kernel(values, mask)
            values[out_slot] = word
            if word != prev.get(name):
                changed[out_slot] = 1
        return dict(zip(self.names, values))


def _lower_node(node, fanin_slots: Tuple[int, ...]) -> Kernel:
    if node.kind == "gate":
        return _gate_kernel(node.gtype, fanin_slots)
    plan = tuple(
        tuple((fanin_slots[var], phase)
              for var, phase in cube.literals())
        for cube in node.cover.cubes)
    return _sop_kernel(plan)


def compile_network(net: Network) -> CompiledNetwork:
    """Lower ``net`` into a :class:`CompiledNetwork` (no caching)."""
    order = net.topo_order()  # validates acyclicity / dangling refs
    slot_of = {name: i for i, name in enumerate(order)}
    try:
        latches = tuple(
            (slot_of[la.output], slot_of[la.data],
             None if la.enable is None else slot_of[la.enable], la.init)
            for la in net.latches)
    except KeyError as exc:
        raise NetlistError(
            f"dangling reference to {exc.args[0]!r}") from None
    declared = {la.output for la in net.latches}
    input_slots: List[Tuple[int, str]] = []
    ops: List[Tuple[int, Tuple[int, ...], Kernel]] = []
    for name in order:
        node = net.nodes[name]
        if node.kind == "input":
            input_slots.append((slot_of[name], name))
        elif node.kind == "latch":
            if name not in declared:
                raise NetlistError(f"no latch with output {name!r}")
        else:
            fanin_slots = tuple(slot_of[fi] for fi in node.fanins)
            ops.append((slot_of[name], fanin_slots,
                        _lower_node(node, fanin_slots)))
    return CompiledNetwork(net.edit_mark(), list(order), slot_of,
                           list(net.inputs), input_slots, latches, ops)


def _repatch(net: Network, cached: CompiledNetwork,
             edited: List[str]) -> CompiledNetwork:
    """A new snapshot of ``cached`` with the kernels of the ``edited``
    nodes re-lowered; the slot layout is shared, since a function edit
    leaves it intact."""
    ops = list(cached.ops)
    for name in dict.fromkeys(edited):
        idx = bisect_left(ops, cached.slot_of[name], key=itemgetter(0))
        out_slot, fanin_slots, _kernel = ops[idx]
        ops[idx] = (out_slot, fanin_slots,
                    _lower_node(net.nodes[name], fanin_slots))
    return CompiledNetwork(net.edit_mark(), cached.names, cached.slot_of,
                           cached.inputs, cached.input_slots,
                           cached.latches, ops)


def get_compiled(net: Network) -> CompiledNetwork:
    """Cached compile of ``net``.

    The cache lives on the network and is dropped by every structural
    edit.  Node functions edited since the cached snapshot (the
    network's edit record) are re-lowered into a new snapshot, so the
    caller always receives an immutable program of the current network.
    """
    cached = net._compiled
    edited = None if cached is None else net.edits_since(cached.mark)
    if edited is None:
        cached = compile_network(net)
    elif edited:
        cached = _repatch(net, cached, edited)
    net._compiled = cached
    return cached
