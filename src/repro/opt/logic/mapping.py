"""Technology mapping by cut enumeration and dynamic programming
(Section III-B; DAGON [20] extended to power as in [43], [48], [26]).

The input network is first decomposed into a 2-input AND/OR/NOT subject
graph.  One topological walk enumerates every node's cuts of at most
four leaves (the generic library's widest cell) and matches them
against the library (each cell's distinct permuted truth tables are
tabulated once per library content).  A pair of fanin cuts whose 64-bit
leaf signatures together set more than four bits is too wide and is
skipped before its leaf sets are joined.  A node's distinct fitting
unions of fanin cuts are sorted by leaf count and truncated before any
truth table is built.  Each cut carries its truth table: a kept cut's table
is the node's gate applied to its two fanin cuts' tables, each expanded
to the union's leaf order by one lookup in a table per (union size,
leaf positions), built on first use, so no table is recomputed from the
cone.  Only cuts whose table has a library pattern are priced.  Where a
union cut has a leaf inside the other fanin cut's cone, this table can
differ from the cone's (which frees that leaf) on leaf assignments that
cannot occur; both agree on every one that can.  The same walk's
dynamic program selects, per node, the match minimizing the chosen cost:

* ``"area"``  — Σ cell area (the classical objective),
* ``"power"`` — Σ (activity at the match output) · (cell output cap)
  + Σ (activity at each leaf) · (cell input cap), the zero-delay power
  cost under which tree mapping is optimal (as the paper notes),
* ``"delay"`` — arrival time with the linear cell delay model.

Costs are summed over cut leaves (exact on trees, the usual
approximation on DAGs).  The mapped network consists of SOP nodes
carrying ``attrs["cell"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.library.cells import Cell, Library

from repro.logic.gates import GateType, eval_gate
from repro.logic.netlist import Network, Node
from repro.logic.sop import truth_table
from repro.logic.transform import decompose_to_primitives, \
    collapse_buffers, propagate_constants
from repro.power.activity import activity_from_simulation
from repro.sim.vectors import exhaustive_words

Cut = Tuple[str, ...]  # ordered leaf names
# A cut with its leaf set, its root's truth table over the leaves (leaf
# i is variable i) and its leaf signature: the OR of each leaf's bit
# ``1 << (topological index & 63)``, so a signature's popcount is at most
# the cut's leaf count.
_Cut = Tuple[Cut, FrozenSet[str], int, int]


_Pins = Tuple[int, ...]

#: The most leaves a cut has, and the most cuts a node keeps (its
#: trivial cut included).
_CUT_LEAVES = 4
_MAX_CUTS = 12


@lru_cache(maxsize=8)
def _pattern_table(cells: Tuple[Tuple[str, int, int, float], ...]
                   ) -> Dict[Tuple[int, int],
                             Tuple[Tuple[str, _Pins, float], ...]]:
    """(num_inputs, truth_table) -> ((cell name, pin permutation,
    delay), ...) for cells given as (name, num_inputs, truth table,
    delay at the mapping load), over the cells of at most
    ``_CUT_LEAVES`` inputs.

    Only a cell's first permutation per table is kept: a match's cost
    and arrival do not depend on the permutation, and ``tech_map``
    keeps the first of equal (cost, arrival), so a later one never wins.
    """
    patterns: Dict[Tuple[int, int], List[Tuple[str, _Pins, float]]] = {}
    for name, n, base_tt, delay in cells:
        if n == 0 or n > _CUT_LEAVES:
            continue
        for perm in permutations(range(n)):
            # Leaf i drives pin perm[i]: pin j reads leaf inverse[j].
            inverse = tuple(perm.index(j) for j in range(n))
            entries = patterns.setdefault(
                (n, _expand(base_tt, inverse, n)), [])
            if all(cell != name for cell, _, _ in entries):
                entries.append((name, perm, delay))
    return {key: tuple(entries) for key, entries in patterns.items()}


#: The load every match's delay is taken at (``Cell.delay``).
_MATCH_LOAD = 4.0


def _library_patterns(library: Library
                      ) -> Dict[Tuple[int, int],
                                List[Tuple[Cell, _Pins, float]]]:
    """Map (num_inputs, truth_table) -> [(cell, pin permutation, cell
    delay at ``_MATCH_LOAD``)].

    ``perm`` maps cut-leaf positions to cell pins: leaf i connects to
    cell pin perm[i].  The table is built once per library content.
    """
    table = _pattern_table(
        tuple((c.name, c.num_inputs, truth_table(c.cover),
               c.delay(_MATCH_LOAD)) for c in library))
    return {key: [(library[name], perm, delay)
                  for name, perm, delay in entries]
            for key, entries in table.items()}


def _trivial_cut(name: str, bit: int) -> _Cut:
    """The cut of ``name`` by itself: one leaf, the identity; ``bit`` is
    ``name``'s signature bit."""
    return (name,), frozenset((name,)), 0b10, bit


def _expand(tt: int, pos: Tuple[int, ...], n: int) -> int:
    """Re-express ``tt`` (over ``len(pos)`` variables) over ``n``
    variables: old variable i becomes new variable ``pos[i]``."""
    out = 0
    for m in range(1 << n):
        src = 0
        for i, p in enumerate(pos):
            if (m >> p) & 1:
                src |= 1 << i
        if (tt >> src) & 1:
            out |= 1 << m
    return out


def _positions(sel: int) -> Tuple[int, ...]:
    """The set bits of ``sel``, lowest first."""
    return tuple(i for i in range(sel.bit_length()) if (sel >> i) & 1)


#: (n, sel) -> the table, indexed by a truth table over popcount(sel)
#: variables, of the same function over n variables: old variable i
#: becomes the i-th set bit of ``sel``.  Each is built on first use by
#: ``_expansion`` (at most 256 entries, as sel has fewer than n bits).
_EXPANSION: Dict[Tuple[int, int], List[int]] = {}


def _expansion(n: int, sel: int) -> List[int]:
    """The ``_EXPANSION`` table of ``(n, sel)``, built on first use."""
    table = _EXPANSION.get((n, sel))
    if table is None:
        pos = _positions(sel)
        # Expansion distributes over OR: a table's expansion is its
        # lowest minterm's joined with the rest's.
        minterm = [_expand(1 << m, pos, n) for m in range(1 << len(pos))]
        table = [0] * (1 << (1 << len(pos)))
        for tt in range(1, len(table)):
            low = tt & -tt
            table[tt] = table[tt ^ low] | minterm[low.bit_length() - 1]
        _EXPANSION[n, sel] = table
    return table


def _expanded(tt: int, cut_leaves: Cut, leaves: Cut) -> int:
    """``tt`` over ``cut_leaves`` re-expressed over ``leaves``, a sorted
    superset of the sorted ``cut_leaves``."""
    sel = 0
    for leaf in cut_leaves:
        sel |= 1 << leaves.index(leaf)
    return _expansion(len(leaves), sel)[tt]


def _node_cuts(name: str, node: Node, cuts: Dict[str, List[_Cut]],
               bit: int) -> List[_Cut]:
    """``node``'s cuts (priority: fewer leaves), its trivial cut first,
    from its fanins' cuts in ``cuts``; ``bit`` is ``name``'s signature
    bit.

    The distinct unions of one cut per fanin that fit in ``_CUT_LEAVES``
    leaves are sorted stably by leaf count (first-seen order within a
    count) and cut to ``_MAX_CUTS - 1`` before any table is built.  A
    pair whose signatures' OR has more than ``_CUT_LEAVES`` bits set is
    too wide and skipped before its leaf sets are joined.  A
    kept cut's truth table is the node's gate applied to the first
    fanin cuts whose union it is, each table expanded to the union's
    leaf order (``_expanded``).
    """
    fanins = node.fanins
    if len(fanins) > 2:
        raise ValueError(f"subject node {name!r} has {len(fanins)} "
                         f"fanins; cut enumeration needs at most two "
                         f"(decompose_to_primitives first)")
    # Leaf set -> the first fanin cuts whose union it is.
    unions: Dict[FrozenSet[str], Tuple[_Cut, ...]] = {}
    if len(fanins) == 1:
        for c in cuts[fanins[0]]:
            unions.setdefault(c[1], (c,))
    else:
        right = cuts[fanins[1]]
        for c1 in cuts[fanins[0]]:
            s1, sig1 = c1[1], c1[3]
            for c2 in right:
                if (sig1 | c2[3]).bit_count() > _CUT_LEAVES:
                    continue
                u = s1 | c2[1]
                if len(u) <= _CUT_LEAVES and u not in unions:
                    unions[u] = (c1, c2)
    kept = sorted(unions, key=len)[:_MAX_CUTS - 1]
    gtype = node.gtype if node.kind == "gate" else None
    out: List[_Cut] = [_trivial_cut(name, bit)]
    if len(fanins) == 1:
        # A one-fanin union is the fanin cut itself: same leaves.
        for u in kept:
            leaves, _, tt, sig = unions[u][0]
            if gtype is GateType.NOT:
                tt ^= (1 << (1 << len(leaves))) - 1
            else:
                tt = _apply(node, [tt], len(leaves))
            out.append((leaves, u, tt, sig))
        return out
    for u in kept:
        (l1, _, t1, sig1), (l2, _, t2, sig2) = unions[u]
        leaves = tuple(sorted(u))
        n = len(leaves)
        if len(l1) < n:
            t1 = _expanded(t1, l1, leaves)
        if len(l2) < n:
            t2 = _expanded(t2, l2, leaves)
        if gtype is GateType.AND:
            tt = t1 & t2
        elif gtype is GateType.OR:
            tt = t1 | t2
        else:
            tt = _apply(node, [t1, t2], n)
        out.append((leaves, u, tt, sig1 | sig2))
    return out


def _apply(node: Node, words: List[int], n: int) -> int:
    """``node``'s function on its fanins' tables over ``n`` variables."""
    mask = (1 << (1 << n)) - 1
    if node.kind == "gate":
        return eval_gate(node.gtype, words, mask)
    return node.cover.evaluate_words(words, mask)


def _subject_graph(net: Network, decomposition: str,
                   input_probs: Optional[Dict[str, float]]) -> Network:
    """The 2-input AND/OR/NOT subject graph that is mapped."""
    subject = decompose_to_primitives(net, input_probs=input_probs,
                                      decomposition=decomposition)
    collapse_buffers(subject)
    propagate_constants(subject)
    collapse_buffers(subject)
    return subject


@dataclass
class MappingResult:
    """Cost summary of a mapping.

    ``cuts`` counts the non-trivial cuts kept over all subject nodes,
    and ``matches`` the (cut, cell) pairs priced; both are the walk's
    work, independent of the host."""

    mapped: Network
    objective: str
    total_area: float
    power_cost: float
    arrival: float
    cells_used: Dict[str, int]
    cuts: int
    matches: int


def tech_map(net: Network, library: Library, objective: str = "area",
             activity: Optional[Dict[str, float]] = None, seed: int = 0,
             decomposition: str = "balanced",
             input_probs: Optional[Dict[str, float]] = None
             ) -> MappingResult:
    """Map a network onto ``library`` minimizing ``objective``.

    ``activity`` (per subject-graph node, transitions/cycle) prices the
    power objective and, under every objective, the chosen cells'
    ``power_cost``; it is estimated by simulation of the subject graph
    when absent.  Cells of more than ``_CUT_LEAVES`` inputs are never
    matched.  ``decomposition`` selects the subject graph style
    (``"balanced"`` or the probability-ordered ``"power"`` chains of
    [48]; the latter uses ``input_probs``).
    """
    if objective not in ("area", "power", "delay"):
        raise ValueError("objective must be area, power or delay")
    subject = _subject_graph(net, decomposition, input_probs)
    if activity is None:
        activity, _ = activity_from_simulation(subject, num_vectors=1024,
                                               seed=seed,
                                               input_probs=input_probs)

    patterns = _library_patterns(library)
    nodes = subject.nodes
    consts = {name for name, node in nodes.items()
              if node.kind == "gate" and
              node.gtype in (GateType.CONST0, GateType.CONST1)}

    INF = float("inf")
    best_cost: Dict[str, float] = {}
    best_match: Dict[str, Tuple[Cell, Tuple[int, ...], Cut]] = {}
    arrival: Dict[str, float] = {}
    cuts: Dict[str, List[_Cut]] = {}
    num_cuts = 0
    num_matches = 0
    # Whether the current node has had a match priced from finite leaf
    # costs: if so and none came out finite, its cost overflowed.
    priced = False

    def match(name: str, leaves: Cut,
              entries: List[Tuple[Cell, _Pins, float]]) -> None:
        """Price ``entries``, the library matches of the cut ``leaves``,
        as the cover of ``name``, keeping the best in ``best_match``."""
        nonlocal num_matches, priced
        leaf_costs = []
        leaf_arr = 0.0
        for leaf in leaves:
            cost = best_cost.get(leaf, INF)
            if cost == INF or leaf in consts:
                return
            leaf_costs.append(cost)
            if arrival[leaf] > leaf_arr:
                leaf_arr = arrival[leaf]
        # ``sum`` rather than a running ``+=``: from Python 3.12 the two
        # round floats differently, and every cost here is a ``sum``.
        leaf_cost = sum(leaf_costs)
        num_matches += len(entries)
        priced = True
        if objective == "power":
            own_act = activity.get(name, 0.0)
            leaf_acts = [activity.get(leaf, 0.0) for leaf in leaves]
        best = best_cost[name]
        best_arr = arrival[name]
        chosen = None
        for cell, perm, delay in entries:
            arr = leaf_arr + delay
            if objective == "area":
                cost = leaf_cost + cell.area
            elif objective == "power":
                cost = leaf_cost + own_act * cell.output_cap + \
                    sum([a * cell.input_cap for a in leaf_acts])
            else:
                cost = arr
            if cost < best or (cost == best and arr < best_arr):
                best, best_arr, chosen = cost, arr, (cell, perm, leaves)
        if chosen is not None:
            best_cost[name] = best
            arrival[name] = best_arr
            best_match[name] = chosen

    # Readers yet to merge each node's cuts; a node's cuts are dropped
    # once the last one has.
    unread: Dict[str, int] = {}
    for node in nodes.values():
        if not node.is_source():
            for fi in set(node.fanins):
                unread[fi] = unread.get(fi, 0) + 1

    # One topological walk: a node's cuts come from its fanins' cuts,
    # and the ones with a library pattern are priced as soon as they
    # are known.
    for index, name in enumerate(subject.topo_order()):
        node = nodes[name]
        bit = 1 << (index & 63)
        if node.is_source() or not node.fanins:
            node_cuts = [_trivial_cut(name, bit)]
        else:
            node_cuts = _node_cuts(name, node, cuts, bit)
            num_cuts += len(node_cuts) - 1
            for fi in set(node.fanins):
                unread[fi] -= 1
                if not unread[fi]:
                    del cuts[fi]
        cuts[name] = node_cuts
        if node.is_source() or name in consts:
            best_cost[name] = 0.0
            arrival[name] = 0.0
            continue
        best_cost[name] = INF
        arrival[name] = INF
        priced = False
        for leaves, _, tt, _ in node_cuts[1:]:
            entries = patterns.get((len(leaves), tt))
            if entries:
                match(name, leaves, entries)
        if best_cost[name] == INF:
            # Heavy reconvergence can fill the truncated cut set with
            # cuts the library cannot match; the fanin cut is the last
            # resort.
            leaves = tuple(sorted(set(node.fanins)))
            words = exhaustive_words(leaves)
            entries = patterns.get((len(leaves), _apply(
                node, [words[fi] for fi in node.fanins], len(leaves))))
            if entries:
                match(name, leaves, entries)
        if best_cost[name] == INF and priced:
            raise RuntimeError(
                f"the {objective} cost overflowed to inf at node {name!r}: "
                f"every match was priced from finite leaf costs")
        if best_cost[name] == INF:
            raise RuntimeError(
                f"no library match for node {name!r}; the library must "
                f"cover 2-input AND/OR/NOT at minimum")

    # -- reconstruct the mapped netlist from the chosen matches ------------
    mapped = Network(net.name + "_mapped")
    for pi in subject.inputs:
        mapped.add_input(pi)
    for latch in subject.latches:
        mapped.add_latch(latch.data, latch.output, latch.init,
                         latch.enable)

    emitted: Set[str] = set()
    cells_used: Dict[str, int] = {}
    total_area = 0.0
    power_cost = 0.0
    roots = list(subject.outputs) + [l.data for l in subject.latches] + \
        [l.enable for l in subject.latches if l.enable]
    # Depth-first post-order from each root in turn, a match's leaves in
    # cut order, on an explicit stack so that depth is unbounded: (node,
    # index of the next leaf to emit).
    for root in roots:
        stack = [(root, 0)]
        while stack:
            name, i = stack.pop()
            if i == 0:
                if name in emitted:
                    continue
                node = nodes[name]
                if node.is_source():
                    emitted.add(name)
                    continue
                if node.kind == "gate" and node.gtype in (GateType.CONST0,
                                                          GateType.CONST1):
                    mapped.add_gate(name, node.gtype, [])
                    emitted.add(name)
                    continue
            cell, perm, cut = best_match[name]
            if i < len(cut):
                stack.append((name, i + 1))
                stack.append((cut[i], 0))
                continue
            # Cut leaf j drives cell pin perm[j]; the mapped node's fanin
            # list is in pin order.
            pin_src = [""] * cell.num_inputs
            for j, leaf in enumerate(cut):
                pin_src[perm[j]] = leaf
            new = Node(name, "sop", fanins=pin_src, cover=cell.cover.copy())
            new.attrs["cell"] = cell
            mapped.set_node(new)
            emitted.add(name)
            total_area += cell.area
            cells_used[cell.name] = cells_used.get(cell.name, 0) + 1
            power_cost += activity.get(name, 0.0) * cell.output_cap + \
                sum(activity.get(l, 0.0) * cell.input_cap for l in cut)
    mapped.set_outputs(subject.outputs)
    mapped.check()
    worst_arrival = max((arrival[r] for r in roots), default=0.0)
    return MappingResult(mapped=mapped, objective=objective,
                         total_area=total_area, power_cost=power_cost,
                         arrival=worst_arrival, cells_used=cells_used,
                         cuts=num_cuts, matches=num_matches)
