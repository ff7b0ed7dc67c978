"""Conversions between primitive-gate and SOP views of a network.

Multilevel optimizations (don't-cares, factoring) want SOP nodes;
technology mapping wants a primitive AND/OR/NOT subject graph.  These
helpers convert in both directions without changing network function.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional

from repro.logic.cube import Cube
from repro.logic.gates import GateType
from repro.logic.netlist import Network, Node
from repro.logic.sop import Cover


def gate_cover(gtype: GateType, num_inputs: int) -> Cover:
    """ON-set cover of a primitive gate over its ordered fanins."""
    n = num_inputs
    if gtype is GateType.CONST0:
        return Cover.zero(0)
    if gtype is GateType.CONST1:
        return Cover.one(0)
    if gtype is GateType.BUF:
        return Cover(1, [Cube.from_literals(1, [(0, 1)])])
    if gtype is GateType.NOT:
        return Cover(1, [Cube.from_literals(1, [(0, 0)])])
    if gtype is GateType.AND:
        return Cover(n, [Cube.from_literals(n, [(i, 1) for i in range(n)])])
    if gtype is GateType.NOR:
        return Cover(n, [Cube.from_literals(n, [(i, 0) for i in range(n)])])
    if gtype is GateType.OR:
        return Cover(n, [Cube.from_literals(n, [(i, 1)]) for i in range(n)])
    if gtype is GateType.NAND:
        return Cover(n, [Cube.from_literals(n, [(i, 0)]) for i in range(n)])
    if gtype in (GateType.XOR, GateType.XNOR):
        want = 1 if gtype is GateType.XOR else 0
        cubes = []
        for bits in product((0, 1), repeat=n):
            if sum(bits) % 2 == want:
                cubes.append(Cube.from_literals(
                    n, [(i, bits[i]) for i in range(n)]))
        return Cover(n, cubes)
    if gtype is GateType.MUX:
        # fanins: (sel, d0, d1)
        return Cover(3, [Cube.from_literals(3, [(0, 0), (1, 1)]),
                         Cube.from_literals(3, [(0, 1), (2, 1)])])
    if gtype is GateType.MAJ:
        return Cover(3, [Cube.from_literals(3, [(0, 1), (1, 1)]),
                         Cube.from_literals(3, [(0, 1), (2, 1)]),
                         Cube.from_literals(3, [(1, 1), (2, 1)])])
    raise ValueError(f"no cover for {gtype}")


def node_cover(node: Node) -> Cover:
    """ON-set cover of any internal node over its fanins."""
    if node.kind == "sop":
        assert node.cover is not None
        return node.cover
    if node.kind == "gate":
        assert node.gtype is not None
        return gate_cover(node.gtype, len(node.fanins))
    raise ValueError(f"node {node.name!r} has no cover (kind={node.kind})")


def to_sop_network(net: Network) -> Network:
    """Copy of ``net`` with every internal node expressed as an SOP node."""
    out = net.copy()
    for name in list(out.nodes):
        node = out.nodes[name]
        if node.kind != "gate":
            continue
        cover = gate_cover(node.gtype, len(node.fanins))
        new = Node(name, "sop", fanins=list(node.fanins), cover=cover)
        new.attrs = dict(node.attrs)
        out.set_node(new)
    return out


def gates_to_sop(net: Network) -> None:
    """Express every gate node of ``net`` as an SOP node, in place.
    Zero-fanin constant gates stay gates."""
    for name in list(net.nodes):
        node = net.nodes[name]
        if node.kind == "gate" and node.fanins:
            new = Node(name, "sop", fanins=list(node.fanins),
                       cover=gate_cover(node.gtype, len(node.fanins)))
            new.attrs = dict(node.attrs)
            net.set_node(new)


def decompose_to_primitives(net: Network,
                            input_probs: Optional[Dict[str, float]]
                            = None,
                            decomposition: str = "balanced"
                            ) -> Network:
    """Copy of ``net`` where every node is a two-input AND or OR, a NOT,
    a buffer or a constant — the *subject graph* for technology mapping.

    ``decomposition`` chooses how wide terms become 2-input trees:

    * ``"balanced"`` — minimum-depth trees (the delay-friendly default);
    * ``"power"`` — probability-ordered *chains* ([48], Tsui et al.):
      for an AND chain, signals most likely to be 0 enter first, so the
      chain's internal nodes settle to 0 early and rarely switch; dually
      for OR chains (likely-1 signals first).  Needs ``input_probs``
      (or assumes 0.5, in which case it degenerates to a chain).
    """
    if decomposition not in ("balanced", "power"):
        raise ValueError("decomposition must be 'balanced' or 'power'")
    probs: Dict[str, float] = {}
    if decomposition == "power":
        from repro.power.activity import \
            signal_probability_propagation

        probs = signal_probability_propagation(net, input_probs)
    out = Network(net.name)
    for pi in net.inputs:
        out.add_input(pi)
    for latch in net.latches:
        out.add_latch(latch.data, latch.output, latch.init, latch.enable)

    counter = [0]
    #: probability of each emitted signal (power mode only; inverters
    #: and tree nodes get derived values assuming independence).
    sig_prob: Dict[str, float] = dict(probs)

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"_{prefix}{counter[0]}"

    def emit_not(src: str) -> str:
        name = fresh("inv")
        out.add_gate(name, GateType.NOT, [src])
        sig_prob[name] = 1.0 - sig_prob.get(src, 0.5)
        return name

    def emit_tree(gtype: GateType, parts: List[str]) -> str:
        if decomposition == "power" and len(parts) > 2:
            # Chain ordered so the controlling value arrives earliest.
            if gtype is GateType.AND:
                ordered = sorted(parts,
                                 key=lambda s: sig_prob.get(s, 0.5))
            else:
                ordered = sorted(parts,
                                 key=lambda s: -sig_prob.get(s, 0.5))
            acc = ordered[0]
            for nxt_sig in ordered[1:]:
                name = fresh(gtype.value)
                out.add_gate(name, gtype, [acc, nxt_sig])
                pa = sig_prob.get(acc, 0.5)
                pb = sig_prob.get(nxt_sig, 0.5)
                sig_prob[name] = pa * pb if gtype is GateType.AND \
                    else pa + pb - pa * pb
                acc = name
            return acc
        while len(parts) > 1:
            nxt = []
            for i in range(0, len(parts) - 1, 2):
                name = fresh(gtype.value)
                out.add_gate(name, gtype, [parts[i], parts[i + 1]])
                pa = sig_prob.get(parts[i], 0.5)
                pb = sig_prob.get(parts[i + 1], 0.5)
                sig_prob[name] = pa * pb if gtype is GateType.AND \
                    else pa + pb - pa * pb
                nxt.append(name)
            if len(parts) % 2:
                nxt.append(parts[-1])
            parts = nxt
        return parts[0]

    def emit_cover(target: str, cover: Cover, fanins: List[str]) -> None:
        if cover.is_empty():
            out.add_gate(target, GateType.CONST0, [])
            sig_prob[target] = 0.0
            return
        if any(c.is_universe() for c in cover.cubes):
            out.add_gate(target, GateType.CONST1, [])
            sig_prob[target] = 1.0
            return
        terms: List[str] = []
        for cube in cover:
            lits: List[str] = []
            for var, phase in cube.literals():
                src = fanins[var]
                lits.append(src if phase else emit_not(src))
            terms.append(lits[0] if len(lits) == 1
                         else emit_tree(GateType.AND, lits))
        result = terms[0] if len(terms) == 1 else emit_tree(GateType.OR,
                                                            terms)
        out.add_gate(target, GateType.BUF, [result])
        sig_prob[target] = sig_prob.get(result, 0.5)

    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            continue
        emit_cover(name, node_cover(node), list(node.fanins))

    out.set_outputs(net.outputs)
    out.check()
    return out


def propagate_constants(net: Network) -> int:
    """Fold constant nodes into their readers (in place).

    Covers are cofactored against constant fanins; nodes that collapse
    to a constant become CONST gates and propagate further.  Returns the
    number of nodes simplified.  Constant primary outputs keep a CONST
    gate; unread constants are swept.
    """
    changed = 0
    const_val: Dict[str, int] = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            continue
        if node.kind == "gate" and node.gtype is GateType.CONST0:
            const_val[name] = 0
            continue
        if node.kind == "gate" and node.gtype is GateType.CONST1:
            const_val[name] = 1
            continue
        if not any(fi in const_val for fi in node.fanins):
            continue
        cover = node_cover(node)
        keep_vars = [i for i, fi in enumerate(node.fanins)
                     if fi not in const_val]
        for i, fi in enumerate(node.fanins):
            if fi in const_val:
                cover = cover.cofactor_literal(i, const_val[fi])
        # Re-index the remaining variables compactly.
        from repro.logic.cube import Cube

        remap = {old: new for new, old in enumerate(keep_vars)}
        new_cubes = []
        is_taut = any(c.mask == 0 for c in cover.cubes)
        if is_taut or not cover.cubes:
            gtype = GateType.CONST1 if is_taut else GateType.CONST0
            const = Node(name, "gate", gtype=gtype)
            const.attrs = dict(node.attrs)
            net.set_node(const)
            const_val[name] = 1 if is_taut else 0
            changed += 1
            continue
        for c in cover.cubes:
            lits = [(remap[v], ph) for v, ph in c.literals()]
            new_cubes.append(Cube.from_literals(len(keep_vars), lits))
        new = Node(name, "sop", fanins=[node.fanins[i] for i in keep_vars],
                   cover=Cover(len(keep_vars), new_cubes).sccc())
        new.attrs = dict(node.attrs)
        net.set_node(new)
        changed += 1
    net.sweep()
    return changed


def instantiate(target: Network, sub: Network, prefix: str,
                port_map: Dict[str, str]) -> Dict[str, str]:
    """Copy a combinational ``sub`` network into ``target``.

    ``port_map`` connects each of ``sub``'s primary inputs to an
    existing signal of ``target``; internal nodes are renamed with
    ``prefix``.  Returns a map from ``sub``'s node names (including its
    outputs) to the instantiated names.  This is the structural reuse
    primitive the RTL generator builds datapaths from.
    """
    if sub.latches:
        raise ValueError("instantiate supports combinational modules")
    rename: Dict[str, str] = {}
    for pi in sub.inputs:
        if pi not in port_map:
            raise ValueError(f"unconnected port {pi!r}")
        rename[pi] = port_map[pi]
    for name in sub.topo_order():
        node = sub.nodes[name]
        if node.is_source():
            continue
        new_name = prefix + name
        rename[name] = new_name
        fanins = [rename[fi] for fi in node.fanins]
        if node.kind == "gate":
            target.add_gate(new_name, node.gtype, fanins)
        else:
            target.add_sop(new_name, fanins, node.cover.copy())
    return rename


def collapse_buffers(net: Network) -> int:
    """Bypass BUF gates in place (readers connect to the BUF's fanin).
    Buffers feeding primary outputs are kept.  Returns #buffers removed.

    One pass suffices: a BUF's readers, with any an earlier bypass moved
    onto it, all move to its current fanin.  Each move costs the BUF's
    readers only, so the pass is linear."""
    removed = 0
    for name, node in list(net.nodes.items()):
        if node.kind == "gate" and node.gtype is GateType.BUF and \
                not net.is_output(name):
            net.replace_everywhere(name, node.fanins[0])
            net.remove_node(name)
            removed += 1
    return removed
