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
* every latch is resolved once into a table of (output, data, enable)
  slots, so :meth:`CompiledNetwork.step` clocks the network without a
  name lookup per latch.

The compiled program is cached on the network (``Network._compiled``),
invalidated by the structural-mutation hooks (``Network._invalidate``),
and additionally keyed by a :func:`structural_fingerprint` so that
in-place mutations that bypass the hooks (e.g. an optimizer assigning
``node.cover`` directly) are still detected and trigger a recompile
rather than silently evaluating a stale program.  A stale program whose
slot layout is still valid — only node functions changed, the common
optimizer edit — is *repatched*: only the changed kernels are
re-lowered (O(changed) instead of O(network)).

On top of the flat program, :meth:`CompiledNetwork.evaluate_incremental`
re-simulates only the transitive fanout cone of a set of *dirty* nodes,
reusing the previous pattern words everywhere else, with value-based
early cut-off (a recomputed node whose word is unchanged stops the
propagation).  This is the engine behind
``activity_from_simulation(..., reuse=...)``: an optimizer that edits one
node pays only for that node's cone instead of a full re-simulation.

All paths are bit-exact with the interpreted ``Network.evaluate_words``
(pure integer logic, identical cube/literal semantics), which the tests
keep as the reference.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.logic.gates import GateType
from repro.logic.netlist import NetlistError, Network

#: A kernel maps (slot values, width mask) -> output word.
Kernel = Callable[[List[int], int], int]
#: (output slot, data slot, enable slot or None, init) of one latch.
LatchEntry = Tuple[int, int, Optional[int], int]


def structural_fingerprint(net: Network) -> int:
    """Hash of everything combinational evaluation depends on.

    Covers node identity, kind, gate type / cover cubes, fanin lists,
    input/output/latch lists and latch init values.  Order-sensitive (a
    reordered fanin list is a different function).  Collisions are
    possible in principle (it is a hash) but never produced by the
    in-repo mutation patterns; the ``_invalidate`` hooks remain the
    primary invalidation path.
    """
    items: List[object] = [tuple(net.inputs), tuple(net.outputs),
                           tuple((la.data, la.output, la.init, la.enable)
                                 for la in net.latches)]
    for name, node in net.nodes.items():
        items.append((name, node.kind, _function_key(node),
                      tuple(node.fanins)))
    return hash(tuple(items))


def _function_key(node) -> object:
    """Key of a node's local function (the part a kernel lowers)."""
    if node.kind == "sop":
        return tuple((c.mask, c.value) for c in node.cover.cubes)
    return node.gtype


def _topology_key(net: Network) -> int:
    """Hash of everything *except* the node functions: names, kinds,
    fanin lists and the input/output/latch declarations.  Two networks
    with equal topology keys map to the same slot layout, so a compiled
    program for one can be repatched into a program for the other by
    rebuilding only the kernels whose function changed."""
    return hash((tuple(net.inputs), tuple(net.outputs),
                 tuple((la.data, la.output, la.init, la.enable)
                       for la in net.latches),
                 tuple((name, node.kind, tuple(node.fanins))
                       for name, node in net.nodes.items())))


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
    caches on the network and recompiles when the structure changed.
    """

    __slots__ = ("fingerprint", "topo_key", "fn_keys", "names", "slot_of",
                 "num_slots", "input_slots", "latches", "ops")

    def __init__(self, fingerprint: int, topo_key: int,
                 fn_keys: Tuple[object, ...], names: List[str],
                 input_slots: List[Tuple[int, str]],
                 latches: Tuple[LatchEntry, ...],
                 ops: List[Tuple[int, Tuple[int, ...], Kernel]]):
        self.fingerprint = fingerprint
        self.topo_key = topo_key
        #: per-op function key (aligned with ``ops``) for repatching
        self.fn_keys = fn_keys
        #: slot index -> node name (topological order)
        self.names = names
        self.slot_of: Dict[str, int] = {n: i for i, n in enumerate(names)}
        self.num_slots = len(names)
        self.input_slots = input_slots
        #: per latch, in declaration order: (output slot, data slot,
        #: enable slot or None, init)
        self.latches = latches
        self.ops = ops

    # -- full evaluation -----------------------------------------------

    def _load_sources(self, values: List[int],
                      input_words: Dict[str, int], mask: int,
                      state_words: Optional[Dict[str, int]]) -> None:
        for slot, name in self.input_slots:
            try:
                values[slot] = input_words[name] & mask
            except KeyError:
                raise NetlistError(
                    f"missing input value for {name!r}") from None
        for slot, _data, _enable, init in self.latches:
            name = self.names[slot]
            if state_words is not None and name in state_words:
                values[slot] = state_words[name] & mask
            else:
                values[slot] = mask if init else 0

    def evaluate_slots(self, input_words: Dict[str, int], mask: int,
                       state_words: Optional[Dict[str, int]] = None
                       ) -> List[int]:
        """One full pass; returns the flat slot-value list."""
        values = [0] * self.num_slots
        self._load_sources(values, input_words, mask, state_words)
        for out_slot, _fanins, kernel in self.ops:
            values[out_slot] = kernel(values, mask)
        return values

    def evaluate_words(self, input_words: Dict[str, int], mask: int,
                       state_words: Optional[Dict[str, int]] = None
                       ) -> Dict[str, int]:
        """Drop-in, bit-exact replacement for ``Network.evaluate_words``."""
        return dict(zip(self.names,
                        self.evaluate_slots(input_words, mask,
                                            state_words)))

    def step(self, state_words: Dict[str, int],
             input_words: Dict[str, int], mask: int
             ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """One clocked step, bit-parallel over independent trajectories.

        Returns ``(next_state_words, node_values)``.  A latch missing
        from ``state_words`` starts from its init value; where a latch
        enable bit is 0 the latch keeps its old bit (a gated clock).
        """
        values = self.evaluate_slots(input_words, mask, state_words)
        names = self.names
        nxt: Dict[str, int] = {}
        for out, data, enable, _init in self.latches:
            new = values[data]
            if enable is not None:
                en = values[enable]
                new = (new & en) | (values[out] & ~en)
            nxt[names[out]] = new
        return nxt, dict(zip(names, values))

    # -- incremental evaluation ------------------------------------------

    def evaluate_incremental(self, prev: Dict[str, int],
                             dirty: Iterable[str],
                             input_words: Dict[str, int], mask: int,
                             state_words: Optional[Dict[str, int]] = None
                             ) -> Dict[str, int]:
        """Re-evaluate only the transitive fanout cone of ``dirty``.

        ``prev`` maps node name -> word from a prior evaluation under
        the *same* ``input_words``/``mask``/``state_words`` of a network
        that agrees with this one everywhere outside the cone of the
        dirty set.  Nodes absent from ``prev`` (newly created) are
        implicitly dirty; nodes whose function changed must be named in
        ``dirty`` by the caller — that is the safety contract.

        Value-based early cut-off: a recomputed node whose word equals
        its previous word does not propagate further.
        """
        values = [0] * self.num_slots
        changed = bytearray(self.num_slots)
        dirty_set = set(dirty)
        self._load_sources(values, input_words, mask, state_words)
        for slot, name in self.input_slots:
            if values[slot] != prev.get(name):
                changed[slot] = 1
        for slot, _data, _enable, _init in self.latches:
            if values[slot] != prev.get(self.names[slot]):
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
    fn_keys: List[object] = []
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
            fn_keys.append(_function_key(node))
    return CompiledNetwork(structural_fingerprint(net),
                           _topology_key(net), tuple(fn_keys),
                           list(order), input_slots, latches, ops)


def _repatch(net: Network, cached: CompiledNetwork,
             fingerprint: int) -> Optional[CompiledNetwork]:
    """Incremental recompile: reuse ``cached`` where possible.

    When only node *functions* changed (a flipped gate type, a
    re-minimized cover) the slot layout is intact, so a fresh snapshot
    only needs new kernels for the changed nodes — O(changed) lowering
    instead of O(network).  Returns ``None`` when the topology itself
    changed (node added/removed, fanin rewired) and a full compile is
    required.
    """
    if cached.topo_key != _topology_key(net):
        return None
    ops = list(cached.ops)
    fn_keys = list(cached.fn_keys)
    nodes = net.nodes
    names = cached.names
    for idx, (out_slot, fanin_slots, _kernel) in enumerate(ops):
        node = nodes[names[out_slot]]
        key = _function_key(node)
        if key != fn_keys[idx]:
            ops[idx] = (out_slot, fanin_slots,
                        _lower_node(node, fanin_slots))
            fn_keys[idx] = key
    return CompiledNetwork(fingerprint, cached.topo_key, tuple(fn_keys),
                           names, cached.input_slots, cached.latches, ops)


def get_compiled(net: Network,
                 check_fingerprint: bool = True) -> CompiledNetwork:
    """Cached compile of ``net``.

    The cache lives on the network (cleared by ``Network._invalidate``)
    and is verified against the structural fingerprint on every hit, so
    direct attribute mutations that bypass the ``_invalidate`` hooks
    (``node.cover = ...``) still recompile.  A stale hit whose topology
    is unchanged (only node functions differ — the optimizer inner-loop
    case) is repatched in O(changed) rather than recompiled from
    scratch; either way the caller receives a fresh immutable snapshot.
    ``check_fingerprint=False`` skips the verification for callers that
    guarantee hook discipline.
    """
    cached = getattr(net, "_compiled", None)
    if cached is not None:
        if not check_fingerprint:
            return cached
        fp = structural_fingerprint(net)
        if cached.fingerprint == fp:
            return cached
        patched = _repatch(net, cached, fp)
        if patched is not None:
            net._compiled = patched
            return patched
    compiled = compile_network(net)
    net._compiled = compiled
    return compiled
