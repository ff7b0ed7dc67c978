"""Technology mapping by cut enumeration and dynamic programming
(Section III-B; DAGON [20] extended to power as in [43], [48], [26]).

The input network is first decomposed into a 2-input AND/OR/NOT subject
graph.  For every node we enumerate k-feasible cuts, compute the cut
function's truth table, and match it against the library (all input
permutations of every cell are pre-tabulated).  A bottom-up dynamic
program then selects, per node, the match minimizing the chosen cost:

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
from itertools import permutations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.library.cells import Cell, Library

from repro.logic.gates import GateType
from repro.logic.netlist import Network, Node
from repro.logic.sop import truth_table
from repro.logic.transform import decompose_to_primitives, \
    collapse_buffers, propagate_constants
from repro.power.activity import activity_from_simulation
from repro.sim.vectors import exhaustive_words

Cut = Tuple[str, ...]  # ordered leaf names


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


def _library_patterns(library: Library, max_inputs: int
                      ) -> Dict[Tuple[int, int], List[Tuple[Cell, Tuple[int, ...]]]]:
    """Map (num_inputs, truth_table) -> [(cell, pin permutation)].

    ``perm`` maps cut-leaf positions to cell pins: leaf i connects to
    cell pin perm[i].
    """
    patterns: Dict[Tuple[int, int], List[Tuple[Cell, Tuple[int, ...]]]] = {}
    for cell in library:
        n = cell.num_inputs
        if n == 0 or n > max_inputs:
            continue
        base_tt = truth_table(cell.cover)
        for perm in permutations(range(n)):
            tt = _permute_tt(base_tt, n, perm)
            patterns.setdefault((n, tt), []).append((cell, perm))
    return patterns


def _enumerate_cuts(net: Network, k: int,
                    max_cuts_per_node: int = 12) -> Dict[str, List[Cut]]:
    """Bottom-up k-feasible cut enumeration (priority: fewer leaves)."""
    cuts: Dict[str, List[Cut]] = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source() or not node.fanins:
            cuts[name] = [(name,)]
            continue
        merged: List[FrozenSet[str]] = []
        sets = [[frozenset(c) for c in cuts[fi]] for fi in node.fanins]
        if len(sets) == 1:
            combos = [s for s in sets[0]]
        else:
            combos = []
            for c1 in sets[0]:
                for c2 in sets[1]:
                    u = c1 | c2
                    if len(u) <= k:
                        combos.append(u)
        seen = set()
        out: List[FrozenSet[str]] = [frozenset([name])]
        for u in sorted(combos, key=len):
            if u in seen:
                continue
            seen.add(u)
            out.append(u)
            if len(out) >= max_cuts_per_node:
                break
        cuts[name] = [tuple(sorted(c)) for c in out]
    return cuts


def _cut_function(net: Network, root: str, cut: Cut) -> Optional[int]:
    """Truth table of ``root`` over the cut leaves, or None if the cone
    reads signals outside the cut."""
    mask = (1 << (1 << len(cut))) - 1
    memo: Dict[str, int] = exhaustive_words(cut)

    def value(name: str) -> Optional[int]:
        if name in memo:
            return memo[name]
        node = net.nodes[name]
        if node.is_source():
            return None
        from repro.logic.gates import eval_gate

        ins = []
        for fi in node.fanins:
            v = value(fi)
            if v is None:
                return None
            ins.append(v)
        if node.kind == "gate":
            out = eval_gate(node.gtype, ins, mask)
        else:
            out = node.cover.evaluate_words(ins, mask)
        memo[name] = out
        return out

    return value(root)


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

    ``activity`` (per subject-graph node, transitions/cycle) is needed
    for the power objective; it is estimated by simulation of the
    subject graph when absent.  ``decomposition`` selects the subject
    graph style (``"balanced"`` or the probability-ordered ``"power"``
    chains of [48]; the latter uses ``input_probs``).
    """
    if objective not in ("area", "power", "delay"):
        raise ValueError("objective must be area, power or delay")
    subject = decompose_to_primitives(net, input_probs=input_probs,
                                      decomposition=decomposition)
    collapse_buffers(subject)
    propagate_constants(subject)
    collapse_buffers(subject)
    if objective == "power" and activity is None:
        activity, _ = activity_from_simulation(subject, num_vectors=1024,
                                               seed=seed,
                                               input_probs=input_probs)
    activity = activity or {}

    max_inputs = max(c.num_inputs for c in library)
    patterns = _library_patterns(library, min(k, max_inputs))
    cuts = _enumerate_cuts(subject, k)

    INF = float("inf")
    best_cost: Dict[str, float] = {}
    best_match: Dict[str, Tuple[Cell, Tuple[int, ...], Cut]] = {}
    arrival: Dict[str, float] = {}

    for name in subject.topo_order():
        node = subject.nodes[name]
        if node.is_source():
            best_cost[name] = 0.0
            arrival[name] = 0.0
            continue
        if node.kind == "gate" and node.gtype in (GateType.CONST0,
                                                  GateType.CONST1):
            best_cost[name] = 0.0
            arrival[name] = 0.0
            continue
        best_cost[name] = INF
        arrival[name] = INF
        # Heavy reconvergence can fill the truncated cut set with cuts
        # the library cannot match; the fanin cut is the last resort.
        fanin_cut = tuple(sorted(set(node.fanins)))
        for cut in cuts[name] + [fanin_cut]:
            if cut is fanin_cut and best_cost[name] < INF:
                break
            if cut == (name,):
                continue
            if any(subject.nodes[l].kind == "gate" and
                   subject.nodes[l].gtype in (GateType.CONST0,
                                              GateType.CONST1)
                   for l in cut):
                continue
            tt = _cut_function(subject, name, cut)
            if tt is None:
                continue
            for cell, perm in patterns.get((len(cut), tt), ()):
                if any(l not in best_cost or best_cost[l] == INF
                       for l in cut):
                    continue
                leaf_cost = sum(best_cost[l] for l in cut)
                leaf_arr = max((arrival[l] for l in cut), default=0.0)
                arr = leaf_arr + cell.delay(4.0)
                if objective == "area":
                    cost = leaf_cost + cell.area
                elif objective == "power":
                    own = activity.get(name, 0.0) * cell.output_cap
                    pins = sum(activity.get(l, 0.0) * cell.input_cap
                               for l in cut)
                    cost = leaf_cost + own + pins
                else:
                    cost = arr
                better = cost < best_cost[name] or \
                    (cost == best_cost[name] and arr < arrival[name])
                if better:
                    best_cost[name] = cost
                    arrival[name] = arr
                    best_match[name] = (cell, perm, cut)
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
    mapped.set_outputs(subject.outputs)
    mapped.check()
    worst_arrival = max((arrival[r] for r in roots), default=0.0)
    return MappingResult(mapped=mapped, objective=objective,
                         total_area=total_area, power_cost=power_cost,
                         arrival=worst_arrival, cells_used=cells_used)
