"""Don't-care based node optimization targeting power (Section III-A.1).

A node's *care set* holds the source assignments under which flipping
it changes some primary output; its complement is the node's
*observability* don't-care set, built from global BDDs of its fanout
cone.  The node's don't-care set is the complement of the care set's
image on the fanin space: the fanin combinations that never occur
(*controllability* don't-cares) or occur only where the node is
unobservable.  The image is built straight from the fanins' global
functions: each fanin in turn splits the care set into the points where
it is 1 and where it is 0, and the image holds the fanin assignments
whose part is non-empty.

Most nodes have no don't-cares at all, and the pass proves that for
most of them without BDD work.  The words of its Monte-Carlo power
estimate are real points of the source space: evaluating the fanout
cone on them with the node forced to 1 and to 0 shows which vectors
observe the node, each one a point of the care set.  When every fanin
assignment occurs at an observable vector, the care set's image is the
whole fanin space and the don't-care set is empty; otherwise the node
takes the exact path above.  The node's cover is then re-minimized
against the don't-care set, choosing among the legal covers the one that
minimizes its expected switching contribution ``2·p·(1−p)·C`` — the
power-aware exploitation of don't-cares from [38] (Shen et al.) refined
by [19] (Iman & Pedram).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bdd.bdd import BDD, BDDFunction
from repro.bdd.circuit import bdd_to_cover, cover_function, network_bdds
from repro.logic.netlist import Network, Node
from repro.logic.sop import Cover
from repro.logic.transform import gates_to_sop, node_cover
from repro.power.activity import (activity_from_probability,
                                  activity_from_simulation,
                                  node_probability,
                                  signal_probability_propagation,
                                  stored_node_words)
from repro.power.model import PowerParameters, node_capacitance

#: Nodes with more fanins than this are left as they are.
MAX_FANINS = 10


def _fanin_image(bdd: BDD, care: int, fanins: List[Tuple[int, int]],
                 i: int, memo: Dict[Tuple[int, int], int]) -> int:
    """Image of the source-space set ``care`` on the fanin space of
    ``fanins[i:]`` (``(level, global function node)`` in level order):
    the fanin assignments that some point of ``care`` produces.  Each
    fanin splits the care set by its function, and an empty part prunes
    its branch; at the last fanin only the parts' emptiness matters."""
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


def _unreached(bdd: BDD, node: Node, funcs: Dict[str, BDDFunction],
               care: int) -> Cover:
    """Complement of the image of ``care`` as a cover over the fanins of
    ``node``.  Fanin ``i`` is the variable ``__cdc_i``: one set shared
    by every node, made on first use in index order, so that fanin
    order is level order."""
    aux = [f"__cdc_{i}" for i in range(len(node.fanins))]
    fanins = []
    for name, fi in zip(aux, node.fanins):
        bdd.var(name)
        fanins.append((bdd.var_level[name], funcs[fi].node))
    image = _fanin_image(bdd, care, fanins, 0, {})
    return bdd_to_cover(BDDFunction(bdd, bdd._not(image)), aux)


def controllability_dont_cares(net: Network, node_name: str,
                               funcs: Optional[Dict[str, BDDFunction]]
                               = None) -> Cover:
    """CDC set of a node as a cover over its fanins: the complement of
    the image of the source space on the fanin space."""
    node = net.node(node_name)
    if funcs is None:
        funcs = network_bdds(net)
    bdd = next(iter(funcs.values())).bdd
    return _unreached(bdd, node, funcs, BDD.TRUE)


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


def _care_set(net: Network, node_name: str,
              funcs: Dict[str, BDDFunction]) -> int:
    """The node's care set: the OR of ``f1 ^ f0`` over the primary
    outputs of its fanout cone, evaluated with the node fixed to 1 and
    to 0 (only outputs inside the cone can see the node)."""
    bdd = next(iter(funcs.values())).bdd
    cone = _fanout_cone(net, node_name)
    f1 = _cone_functions(net, cone, bdd.true, funcs)
    f0 = _cone_functions(net, cone, bdd.false, funcs)
    care = BDD.FALSE
    for name in cone:
        if net.is_output(name):
            care = bdd._or(care, bdd._xor(f1[name].node, f0[name].node))
    return care


def observability_dont_cares(net: Network, node_name: str,
                             funcs: Optional[Dict[str, BDDFunction]]
                             = None) -> BDDFunction:
    """ODC set over the primary inputs: assignments under which flipping
    the node changes no primary output, the complement of its care
    set."""
    net.node(node_name)
    if funcs is None:
        funcs = network_bdds(net)
    bdd = next(iter(funcs.values())).bdd
    return BDDFunction(bdd, bdd._not(_care_set(net, node_name, funcs)))


def _dont_care_cover(net: Network, node_name: str,
                     funcs: Dict[str, BDDFunction]) -> Cover:
    """The node's don't-care set as a cover over its fanins: the CDCs
    and the fanin assignments produced only under its ODC."""
    return _unreached(next(iter(funcs.values())).bdd, net.nodes[node_name],
                      funcs, _care_set(net, node_name, funcs))


def _hits_every_assignment(obs: int, fanin_words: List[int],
                           i: int) -> bool:
    """Whether every assignment of the fanins ``fanin_words[i:]`` occurs
    at some vector of ``obs``.  Each fanin splits the vectors by its
    word, as in :func:`_fanin_image`; a part with fewer vectors than
    the assignments left to hit fails at once."""
    if obs.bit_count() < 1 << (len(fanin_words) - i):
        return False
    if i == len(fanin_words):
        return True
    w = fanin_words[i]
    return _hits_every_assignment(obs & w, fanin_words, i + 1) and \
        _hits_every_assignment(obs & ~w, fanin_words, i + 1)


def _witness_empty(net: Network, name: str, words: Dict[str, int],
                   mask: int) -> bool:
    """True only if the node's don't-care set is provably empty.

    ``words`` holds every node's value on simulated source vectors (one
    bit each, ``mask`` wide).  The fanout cone is evaluated on them
    with the node forced to all ones and to all zeros; a member none of
    whose fanins changed keeps its word.  A vector where a primary
    output of the cone differs observes the node, so it is a point of
    the care set.  If every fanin assignment occurs at an observable
    vector, the care set's image is the whole fanin space.  False
    proves nothing."""
    node = net.nodes[name]
    if net.is_output(name):
        obs = mask
    else:
        obs = 0
        nodes = net.nodes
        hi: Dict[str, int] = {name: mask}
        lo: Dict[str, int] = {name: 0}
        for member in _fanout_cone(net, name)[1:]:
            reader = nodes[member]
            word = words[member]
            for forced in (hi, lo):
                if any(fi in forced for fi in reader.fanins):
                    w = node_cover(reader).evaluate_words(
                        [forced.get(fi, words[fi]) for fi in reader.fanins],
                        mask)
                    if w != word:
                        forced[member] = w
            if net.is_output(member):
                obs |= hi.get(member, word) ^ lo.get(member, word)
                if obs == mask:
                    break
    return _hits_every_assignment(obs, [words[fi] for fi in node.fanins],
                                  0)


@dataclass
class DontCareResult:
    """Summary of a don't-care optimization pass.  ``bdd_nodes`` (the
    size of the pass's BDD manager at its end) and ``witnessed`` (the
    visited nodes whose empty don't-care set simulation proved, with no
    BDD work) count work, so they are left out of ``repr`` and
    ``==``."""

    nodes_changed: int
    switched_cap_before: float
    switched_cap_after: float
    literals_before: int
    literals_after: int
    bdd_nodes: int = field(default=0, repr=False, compare=False)
    witnessed: int = field(default=0, repr=False, compare=False)

    @property
    def power_saving(self) -> float:
        if self.switched_cap_before == 0.0:
            return 0.0
        return 1.0 - self.switched_cap_after / self.switched_cap_before


def _self_cap(cover: Cover) -> float:
    """A node's literal-dependent self capacitance."""
    return 0.5 * (2 * cover.num_literals() + 2)


def _node_cost(cover: Cover, fanin_probs: List[float],
               load_cap: float) -> float:
    """Local power cost of one candidate cover: its activity times its
    self capacitance plus the load it drives, and a small literal term
    that breaks ties toward smaller covers."""
    activity = activity_from_probability(cover.probability(fanin_probs))
    return activity * (_self_cap(cover) + load_cap) + \
        0.05 * cover.num_literals()


def dontcare_power_optimization(net: Network,
                                input_probs: Optional[Dict[str, float]]
                                = None,
                                num_vectors: int = 512,
                                seed: int = 0) -> DontCareResult:
    """In-place don't-care re-minimization of every eligible node.

    Nodes of at most :data:`MAX_FANINS` fanins are visited in
    topological order and re-minimized against their don't-care set,
    the complement of their care set's fanin image; a node whose set
    the Monte-Carlo words prove empty (:func:`_witness_empty`) is
    skipped without BDD work.  Candidate
    covers are scored with the fast probability-propagation model, but
    each rewrite is accepted only if the *global* switched capacitance,
    estimated by Monte-Carlo simulation (``num_vectors``/``seed``),
    improves (the transitive-fanout awareness of [19]).
    """
    # Work on the SOP view so the new covers can be installed in place.
    gates_to_sop(net)
    params = PowerParameters()

    probs = signal_probability_propagation(net, input_probs)
    # A function edit keeps fanins and attrs, so it changes only the
    # edited node's capacitance; the sum runs in ``net.nodes`` order.
    caps = {name: node_capacitance(net, name, params)
            for name, node in net.nodes.items() if not node.is_source()}

    def total_cost() -> float:
        # Incremental after a function edit: the network's stored
        # Monte-Carlo run re-simulates only the edited nodes' transitive
        # fanout cones (repro.power.activity).
        act, _p = activity_from_simulation(
            net, num_vectors, seed, input_probs)
        cap = 0.0
        for name, node_cap in caps.items():
            cap += act.get(name, 0.0) * node_cap
        return cap

    def current_words() -> Dict[str, int]:
        # The run total_cost() just stored, at the accepted state.
        words = stored_node_words(net, num_vectors, seed, input_probs)
        assert words is not None
        return words

    cost = cap_before = total_cost()
    words, mask = current_words(), (1 << num_vectors) - 1
    lits_before = net.num_literals()
    bdd = BDD()
    funcs = network_bdds(net, bdd)
    changed = witnessed = 0
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source() or node.kind != "sop" or not node.fanins:
            continue
        if len(node.fanins) > MAX_FANINS:
            continue
        if _witness_empty(net, name, words, mask):
            witnessed += 1
            continue
        dc = _dont_care_cover(net, name, funcs)
        if dc.is_empty():
            continue
        on = node.cover
        fanin_probs = [probs[fi] for fi in node.fanins]
        load = caps[name] - _self_cap(on)
        candidates = [on, on.minimize(dc), on.union(dc).minimize()]
        best = min(candidates,
                   key=lambda c: _node_cost(c, fanin_probs, load))
        if best is not on and not best.is_equivalent(on):
            # Accept only if the *global* estimate improves: a changed
            # node shifts the statistics of its whole transitive fanout
            # (the refinement of [19]).
            net.set_function(name, best)
            on_cap, caps[name] = caps[name], node_capacitance(net, name,
                                                              params)
            after_cap = total_cost()
            if after_cap < cost:
                cost = after_cap
                words = current_words()
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
                caps[name] = on_cap
    return DontCareResult(nodes_changed=changed,
                          switched_cap_before=cap_before,
                          switched_cap_after=total_cost(),
                          literals_before=lits_before,
                          literals_after=net.num_literals(),
                          bdd_nodes=bdd.num_nodes(),
                          witnessed=witnessed)
