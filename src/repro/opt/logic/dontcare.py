"""Don't-care based node optimization targeting power (Section III-A.1).

For each internal node we compute its *controllability* don't-cares
(fanin combinations that can never occur) and *observability*
don't-cares (fanin combinations under which the node's value cannot
reach any output), both via global BDDs.  Both come from images on the
node's fanin space, built straight from the fanins' global functions:
each fanin in turn splits a care set into the points where it is 1 and
where it is 0, and the image holds the fanin assignments whose part is
non-empty.  The CDCs are the complement of the whole source space's
image; the ODC-only combinations are in the image of the ODC but not
in that of its complement.  The node's cover is then
re-minimized against the don't-care set, choosing among the legal covers
the one that minimizes the node's expected switching contribution
``2·p·(1−p)·C`` — the power-aware exploitation of don't-cares from
[38] (Shen et al.) refined by [19] (Iman & Pedram).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bdd.bdd import BDD, BDDFunction
from repro.bdd.circuit import bdd_to_cover, cover_function, network_bdds
from repro.logic.netlist import Network, Node
from repro.logic.sop import Cover
from repro.logic.transform import gates_to_sop, node_cover
from repro.power.activity import (activity_from_probability,
                                  activity_from_simulation,
                                  node_probability,
                                  signal_probability_propagation)
from repro.power.model import PowerParameters, node_capacitance

#: Nodes with more fanins than this are left as they are.
MAX_FANINS = 10


def _fanin_space(bdd: BDD, node: Node, funcs: Dict[str, BDDFunction]
                 ) -> Tuple[List[str], List[Tuple[int, int]]]:
    """The node's fanin space: one ``__cdc_*`` variable per fanin (made
    on first use), and ``(level, global function node)`` of each fanin
    in level order, the order in which :func:`_fanin_image` builds."""
    aux = [f"__cdc_{node.name}_{i}" for i in range(len(node.fanins))]
    fanins = []
    for name, fi in zip(aux, node.fanins):
        bdd.var(name)
        fanins.append((bdd.var_level[name], funcs[fi].node))
    fanins.sort()
    return aux, fanins


def _fanin_image(bdd: BDD, care: int, fanins: List[Tuple[int, int]],
                 i: int, memo: Dict[Tuple[int, int], int]) -> int:
    """Image of the source-space set ``care`` on the fanin space of
    ``fanins[i:]`` (from :func:`_fanin_space`): the fanin assignments
    that some point of ``care`` produces.  Each fanin splits the care
    set by its function, and an empty part prunes its branch; at the
    last fanin only the parts' emptiness matters, so neither is built."""
    if care == BDD.FALSE:
        return BDD.FALSE
    if not fanins:
        return BDD.TRUE
    key = (i, care)
    hit = memo.get(key)
    if hit is None:
        level, func = fanins[i]
        neg = bdd._not(func)
        if i + 1 == len(fanins):
            lo = BDD.FALSE if bdd._disjoint(care, neg) else BDD.TRUE
            hi = BDD.FALSE if bdd._disjoint(care, func) else BDD.TRUE
        else:
            lo = _fanin_image(bdd, bdd._and(care, neg), fanins, i + 1,
                              memo)
            hi = _fanin_image(bdd, bdd._and(care, func), fanins, i + 1,
                              memo)
        hit = bdd._mk(level, lo, hi)
        memo[key] = hit
    return hit


def controllability_dont_cares(net: Network, node_name: str,
                               funcs: Optional[Dict[str, BDDFunction]]
                               = None) -> Cover:
    """CDC set of a node as a cover over its fanins: the complement of
    the image of the source space on the fanin space."""
    node = net.node(node_name)
    if funcs is None:
        funcs = network_bdds(net)
    bdd = next(iter(funcs.values())).bdd
    aux, fanins = _fanin_space(bdd, node, funcs)
    image = _fanin_image(bdd, BDD.TRUE, fanins, 0, {})
    return bdd_to_cover(BDDFunction(bdd, bdd._not(image)), aux)


def _fanout_cone(net: Network, name: str) -> List[str]:
    """``name`` and its combinational transitive fanout, in topological
    order; a latch ends the cone."""
    order: List[str] = []
    seen = {name}
    stack = [(name, iter(net.readers(name)))]
    while stack:
        top, readers = stack[-1]
        for reader in readers:
            if reader not in seen and not net.nodes[reader].is_source():
                seen.add(reader)
                stack.append((reader, iter(net.readers(reader))))
                break
        else:
            stack.pop()
            order.append(top)
    order.reverse()
    return order


def _cone_functions(net: Network, cone: List[str], head: BDDFunction,
                    funcs: Dict[str, BDDFunction]
                    ) -> Dict[str, BDDFunction]:
    """Global functions of ``cone`` (from :func:`_fanout_cone`) with its
    head node's function replaced by ``head``; nodes outside the cone
    keep their function in ``funcs``."""
    alt = {cone[0]: head}
    for name in cone[1:]:
        node = net.nodes[name]
        alt[name] = cover_function(
            head.bdd, node_cover(node),
            [alt[fi] if fi in alt else funcs[fi] for fi in node.fanins])
    return alt


def observability_dont_cares(net: Network, node_name: str,
                             funcs: Optional[Dict[str, BDDFunction]]
                             = None) -> BDDFunction:
    """ODC set over the primary inputs: assignments under which flipping
    the node changes no primary output."""
    if funcs is None:
        funcs = network_bdds(net)
    bdd = next(iter(funcs.values())).bdd
    # Evaluate the node's fanout cone with the node fixed to each
    # constant; only outputs inside the cone can see the node.
    cone = _fanout_cone(net, node_name)
    f1 = _cone_functions(net, cone, bdd.true, funcs)
    f0 = _cone_functions(net, cone, bdd.false, funcs)
    odc = bdd.true
    for name in cone:
        if net.is_output(name):
            odc = odc & ~(f1[name] ^ f0[name])
    return odc


@dataclass
class DontCareResult:
    """Summary of a don't-care optimization pass."""

    nodes_changed: int
    switched_cap_before: float
    switched_cap_after: float
    literals_before: int
    literals_after: int

    @property
    def power_saving(self) -> float:
        if self.switched_cap_before == 0.0:
            return 0.0
        return 1.0 - self.switched_cap_after / self.switched_cap_before


def _node_cost(cover: Cover, fanin_probs: List[float],
               load_cap: float) -> float:
    """Local power cost of one candidate cover.

    The node's switched capacitance is its (literal-dependent) self
    capacitance plus the external load it drives; a small literal term
    breaks ties toward smaller covers.
    """
    p = cover.probability(fanin_probs)
    activity = activity_from_probability(p)
    self_cap = 0.5 * (2 * cover.num_literals() + 2)
    return activity * (self_cap + load_cap) + 0.05 * cover.num_literals()


def dontcare_power_optimization(net: Network,
                                input_probs: Optional[Dict[str, float]]
                                = None,
                                num_vectors: int = 512,
                                seed: int = 0) -> DontCareResult:
    """In-place don't-care re-minimization of every eligible node.

    Nodes of at most :data:`MAX_FANINS` fanins are visited in
    topological order and re-minimized against their CDCs plus the
    fanin combinations reachable only under their ODCs.  Candidate
    covers are scored with the fast probability-propagation model, but
    each rewrite is accepted only if the *global* switched capacitance,
    estimated by Monte-Carlo simulation (``num_vectors``/``seed``),
    improves (the transitive-fanout awareness of [19]).
    """
    # Work on the SOP view so the new covers can be installed in place.
    gates_to_sop(net)
    params = PowerParameters()

    probs = signal_probability_propagation(net, input_probs)

    def total_cost() -> Tuple[float, int]:
        # Incremental after a function edit: the network's stored
        # Monte-Carlo run re-simulates only the edited nodes' transitive
        # fanout cones (repro.power.activity).
        act, _p = activity_from_simulation(
            net, num_vectors, seed, input_probs)
        cap = 0.0
        lits = 0
        for name, node in net.nodes.items():
            if node.is_source():
                continue
            cap += act.get(name, 0.0) * node_capacitance(net, name, params)
            lits += node.cover.num_literals() if node.cover else 0
        return cap, lits

    cap_before, lits_before = total_cost()
    cost = cap_before
    funcs = network_bdds(net)
    bdd = next(iter(funcs.values())).bdd
    changed = 0
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source() or node.kind != "sop" or not node.fanins:
            continue
        if len(node.fanins) > MAX_FANINS:
            continue
        aux, fanins = _fanin_space(bdd, node, funcs)
        odc = observability_dont_cares(net, name, funcs).node
        memo: Dict[Tuple[int, int], int] = {}
        odc_only: Optional[Cover] = None
        if odc == BDD.FALSE:
            reachable = _fanin_image(bdd, BDD.TRUE, fanins, 0, memo)
        else:
            img = _fanin_image(bdd, odc, fanins, 0, memo)
            non_odc = _fanin_image(bdd, bdd._not(odc), fanins, 0, memo)
            reachable = bdd._or(img, non_odc)
            # Fanin combos reachable *only* under the ODC condition.
            odc_only = bdd_to_cover(
                BDDFunction(bdd, bdd._and(img, bdd._not(non_odc))), aux)
        dc = bdd_to_cover(BDDFunction(bdd, bdd._not(reachable)), aux)
        if odc_only is not None:
            dc = dc.union(odc_only)
        if dc.is_empty():
            continue
        on = node.cover
        fanin_probs = [probs[fi] for fi in node.fanins]
        self_cap = 0.5 * (2 * on.num_literals() + 2)
        load = node_capacitance(net, name, params) - self_cap
        candidates = [on,
                      on.minimize(dc),
                      on.union(dc).minimize()]
        best = min(candidates,
                   key=lambda c: _node_cost(c, fanin_probs, load))
        if best is not on and not best.is_equivalent(on):
            # Accept only if the *global* estimate improves: a changed
            # node shifts the statistics of its whole transitive fanout
            # (the refinement of [19]).
            net.set_function(name, best)
            after_cap, _lits = total_cost()
            if after_cap < cost:
                cost = after_cap
                changed += 1
                # Only the node's fanout cone changed: refresh its
                # functions and probabilities in place.
                cone = _fanout_cone(net, name)
                head = cover_function(bdd, best,
                                      [funcs[fi] for fi in node.fanins])
                funcs.update(_cone_functions(net, cone, head, funcs))
                for member in cone:
                    probs[member] = node_probability(net.nodes[member],
                                                     probs)
            else:
                net.set_function(name, on)
    cap_after, lits_after = total_cost()
    return DontCareResult(nodes_changed=changed,
                          switched_cap_before=cap_before,
                          switched_cap_after=cap_after,
                          literals_before=lits_before,
                          literals_after=lits_after)
