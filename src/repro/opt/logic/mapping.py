"""Technology mapping by cut enumeration and dynamic programming
(Section III-B; DAGON [20] extended to power as in [43], [48], [26]).

The input network is first decomposed into a 2-input AND/OR/NOT subject
graph.  One topological walk enumerates every node's k-feasible cuts
and matches them against the library (each cell's distinct permuted
truth tables are tabulated once per library content).  Each cut
carries its truth table: a kept cut's table is the node's gate applied
to its two fanin cuts' tables, expanded to the union's leaf order, so
no table is recomputed from the cone.  Where a union cut has a leaf
inside the other fanin cut's cone, this table can differ from the
cone's (which frees that leaf) on leaf assignments that cannot occur;
both agree on every one that can.  The same walk's dynamic program
selects, per node, the match minimizing the chosen cost:

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
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.library.cells import Cell, Library

from repro.logic.gates import GateType, eval_gate
from repro.logic.netlist import Network, Node
from repro.logic.sop import truth_table
from repro.logic.transform import decompose_to_primitives, \
    collapse_buffers, propagate_constants
from repro.power.activity import activity_from_simulation
from repro.sim.vectors import exhaustive_words

Cut = Tuple[str, ...]  # ordered leaf names
# A cut with its leaf set and its root's truth table over the leaves
# (leaf i is variable i).
_Cut = Tuple[Cut, FrozenSet[str], int]


def _permute_tt(tt: int, n: int, perm: Sequence[int]) -> int:
    """Truth table after permuting inputs: new var i = old var perm[i]."""
    out = 0
    for m in range(1 << n):
        src = 0
        for i in range(n):
            if (m >> i) & 1:
                src |= 1 << perm[i]
        if (tt >> src) & 1:
            out |= 1 << m
    return out


_Pins = Tuple[int, ...]


@lru_cache(maxsize=8)
def _pattern_table(cells: Tuple[Tuple[str, int, int], ...], max_inputs: int
                   ) -> Dict[Tuple[int, int], Tuple[Tuple[str, _Pins], ...]]:
    """(num_inputs, truth_table) -> ((cell name, pin permutation), ...)
    for cells given as (name, num_inputs, truth table).

    Only a cell's first permutation per table is kept: a match's cost
    and arrival do not depend on the permutation, and ``tech_map``
    keeps the first of equal (cost, arrival), so a later one never wins.
    """
    patterns: Dict[Tuple[int, int], List[Tuple[str, _Pins]]] = {}
    for name, n, base_tt in cells:
        if n == 0 or n > max_inputs:
            continue
        for perm in permutations(range(n)):
            entries = patterns.setdefault(
                (n, _permute_tt(base_tt, n, perm)), [])
            if all(cell != name for cell, _ in entries):
                entries.append((name, perm))
    return {key: tuple(entries) for key, entries in patterns.items()}


def _library_patterns(library: Library, max_inputs: int
                      ) -> Dict[Tuple[int, int], List[Tuple[Cell, _Pins]]]:
    """Map (num_inputs, truth_table) -> [(cell, pin permutation)].

    ``perm`` maps cut-leaf positions to cell pins: leaf i connects to
    cell pin perm[i].  The table is built once per library content.
    """
    table = _pattern_table(
        tuple((c.name, c.num_inputs, truth_table(c.cover)) for c in library),
        max_inputs)
    return {key: [(library[name], perm) for name, perm in entries]
            for key, entries in table.items()}


def _trivial_cut(name: str) -> _Cut:
    """The cut of ``name`` by itself: one leaf, the identity."""
    return (name,), frozenset((name,)), 0b10


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


def _node_cuts(name: str, node: Node, cuts: Dict[str, List[_Cut]], k: int,
               expanded: Dict[Tuple[int, Tuple[int, ...], int], int],
               max_cuts_per_node: int = 12) -> List[_Cut]:
    """``node``'s k-feasible cuts (priority: fewer leaves), its trivial
    cut first, from its fanins' cuts in ``cuts``.

    Each kept cut's truth table is the node's gate applied to its
    fanin cuts' tables, each expanded to the union's leaf order
    (``expanded`` memoises the expansions).
    """
    if len(node.fanins) > 2:
        raise ValueError(f"subject node {name!r} has {len(node.fanins)} "
                         f"fanins; cut enumeration needs at most two "
                         f"(decompose_to_primitives first)")
    # Leaf count -> {leaf set: the first fanin cuts whose union it is};
    # walking the buckets in order is a stable sort by size.
    buckets: List[Dict[FrozenSet[str], Tuple[_Cut, ...]]] = \
        [{} for _ in range(k + 1)]
    if len(node.fanins) == 1:
        for c in cuts[node.fanins[0]]:
            buckets[len(c[0])].setdefault(c[1], (c,))
    else:
        right = [(c2[1], c2) for c2 in cuts[node.fanins[1]]]
        for c1 in cuts[node.fanins[0]]:
            s1 = c1[1]
            for s2, c2 in right:
                u = s1 | s2
                n = len(u)
                if n <= k and u not in buckets[n]:
                    buckets[n][u] = (c1, c2)
    out: List[_Cut] = [_trivial_cut(name)]
    for bucket in buckets:
        for u, parts in bucket.items():
            leaves = tuple(sorted(u))
            n = len(leaves)
            words = []
            for c in parts:
                tt = c[2]
                if len(c[0]) < n:
                    pos = tuple(leaves.index(l) for l in c[0])
                    key = (tt, pos, n)
                    if key not in expanded:
                        expanded[key] = _expand(tt, pos, n)
                    tt = expanded[key]
                words.append(tt)
            out.append((leaves, u, _apply(node, words, n)))
            if len(out) >= max_cuts_per_node:
                return out
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
    """Cost summary of a mapping."""

    mapped: Network
    objective: str
    total_area: float
    power_cost: float
    arrival: float
    cells_used: Dict[str, int]


def tech_map(net: Network, library: Library, objective: str = "area",
             activity: Optional[Dict[str, float]] = None,
             k: int = 4, seed: int = 0,
             decomposition: str = "balanced",
             input_probs: Optional[Dict[str, float]] = None
             ) -> MappingResult:
    """Map a network onto ``library`` minimizing ``objective``.

    ``activity`` (per subject-graph node, transitions/cycle) prices the
    power objective and, under every objective, the chosen cells'
    ``power_cost``; it is estimated by simulation of the subject graph
    when absent.  ``decomposition`` selects the subject graph style
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

    max_inputs = max(c.num_inputs for c in library)
    patterns = _library_patterns(library, min(k, max_inputs))
    consts = {name for name, node in subject.nodes.items()
              if node.kind == "gate" and
              node.gtype in (GateType.CONST0, GateType.CONST1)}

    INF = float("inf")
    best_cost: Dict[str, float] = {}
    best_match: Dict[str, Tuple[Cell, Tuple[int, ...], Cut]] = {}
    arrival: Dict[str, float] = {}
    cuts: Dict[str, List[_Cut]] = {}
    expanded: Dict[Tuple[int, Tuple[int, ...], int], int] = {}

    def match(name: str, cut: _Cut) -> None:
        """Price every library match of ``cut`` as the cover of
        ``name``, keeping the best in ``best_match``."""
        leaves, leafset, tt = cut
        matches = patterns.get((len(leaves), tt))
        if not matches or not consts.isdisjoint(leafset) or \
                any(best_cost.get(l, INF) == INF for l in leaves):
            return
        leaf_cost = sum(best_cost[l] for l in leaves)
        leaf_arr = max((arrival[l] for l in leaves), default=0.0)
        own_act = activity.get(name, 0.0)
        leaf_acts = [activity.get(l, 0.0) for l in leaves]
        for cell, perm in matches:
            arr = leaf_arr + cell.delay(4.0)
            if objective == "area":
                cost = leaf_cost + cell.area
            elif objective == "power":
                own = own_act * cell.output_cap
                pins = sum(a * cell.input_cap for a in leaf_acts)
                cost = leaf_cost + own + pins
            else:
                cost = arr
            better = cost < best_cost[name] or \
                (cost == best_cost[name] and arr < arrival[name])
            if better:
                best_cost[name] = cost
                arrival[name] = arr
                best_match[name] = (cell, perm, leaves)

    # Readers yet to merge each node's cuts; a node's cuts are dropped
    # once the last one has.
    unread: Dict[str, int] = {}
    for node in subject.nodes.values():
        if not node.is_source():
            for fi in set(node.fanins):
                unread[fi] = unread.get(fi, 0) + 1

    # One topological walk: a node's cuts come from its fanins' cuts,
    # and it is matched as soon as they are known.
    for name in subject.topo_order():
        node = subject.nodes[name]
        if node.is_source() or not node.fanins:
            cuts[name] = [_trivial_cut(name)]
        else:
            cuts[name] = _node_cuts(name, node, cuts, k, expanded)
            for fi in set(node.fanins):
                unread[fi] -= 1
                if not unread[fi]:
                    del cuts[fi]
        if node.is_source() or name in consts:
            best_cost[name] = 0.0
            arrival[name] = 0.0
            continue
        best_cost[name] = INF
        arrival[name] = INF
        for cut in cuts[name][1:]:
            match(name, cut)
        if best_cost[name] == INF:
            # Heavy reconvergence can fill the truncated cut set with
            # cuts the library cannot match; the fanin cut is the last
            # resort.
            leaves = tuple(sorted(set(node.fanins)))
            words = exhaustive_words(leaves)
            match(name, (leaves, frozenset(leaves),
                         _apply(node, [words[fi] for fi in node.fanins],
                                len(leaves))))
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

    emitted: Dict[str, bool] = {}
    cells_used: Dict[str, int] = {}
    total_area = 0.0
    power_cost = 0.0

    def emit(name: str) -> None:
        if emitted.get(name):
            return
        node = subject.nodes[name]
        if node.is_source():
            emitted[name] = True
            return
        if node.kind == "gate" and node.gtype in (GateType.CONST0,
                                                  GateType.CONST1):
            mapped.add_gate(name, node.gtype, [])
            emitted[name] = True
            return
        cell, perm, cut = best_match[name]
        for leaf in cut:
            emit(leaf)
        # Cut leaf i drives cell pin perm[i]; the mapped node's fanin
        # list is in pin order.
        pin_src = [""] * cell.num_inputs
        for i, leaf in enumerate(cut):
            pin_src[perm[i]] = leaf
        new = Node(name, "sop", fanins=pin_src, cover=cell.cover.copy())
        new.attrs["cell"] = cell
        mapped.set_node(new)
        emitted[name] = True
        nonlocal total_area, power_cost
        total_area += cell.area
        cells_used[cell.name] = cells_used.get(cell.name, 0) + 1
        power_cost += activity.get(name, 0.0) * cell.output_cap + \
            sum(activity.get(l, 0.0) * cell.input_cap for l in cut)

    roots = list(subject.outputs) + [l.data for l in subject.latches] + \
        [l.enable for l in subject.latches if l.enable]
    for root in roots:
        emit(root)
    # ``emit`` reaches itself through its closure; clearing it frees the
    # subject graph now instead of at a later cycle collection.
    del emit
    mapped.set_outputs(subject.outputs)
    mapped.check()
    worst_arrival = max((arrival[r] for r in roots), default=0.0)
    return MappingResult(mapped=mapped, objective=objective,
                         total_area=total_area, power_cost=power_cost,
                         arrival=worst_arrival, cells_used=cells_used)
