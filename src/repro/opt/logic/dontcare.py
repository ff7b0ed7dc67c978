"""Don't-care based node optimization targeting power (Section III-A.1).

A node's *care set* holds the source assignments under which flipping
it changes some primary output; its complement is the node's
*observability* don't-care set.  The node's don't-care set is the
complement of the care set's image on the fanin space: the fanin
combinations that never occur (*controllability* don't-cares) or occur
only where the node is unobservable.

One engine computes both, on *words*: a set of source points with
``&``, ``|``, ``^``, ``~`` and truth.  A word is either an int with one
bit per simulated vector or a :class:`~repro.bdd.bdd.BDDFunction`, the
exact set; ``mask`` is the whole space (all vectors, or ``true``).
:func:`_walk` re-evaluates the node's fanout cone with the node forced
to ``mask`` and to nothing, :func:`_care` ORs the two evaluations'
difference over the cone's primary outputs, and :func:`_fanin_image`
splits the care set by each fanin's word into the fanin assignments
it reaches.

Most nodes have no don't-cares at all, and the pass proves that for
most of them without BDD work.  Its Monte-Carlo power estimate's
vectors are real points of the source space, so the image of their
care set lies inside the exact image; when it is the whole fanin space
the don't-care set is empty.  Otherwise the same calls on the global
BDDs give the exact set.  The node's cover is then re-minimized
against it, choosing among the legal covers the one that minimizes
its expected switching contribution ``2·p·(1−p)·C`` — the power-aware
exploitation of don't-cares from [38] (Shen et al.) refined by [19]
(Iman & Pedram).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.bdd.bdd import BDD, BDDFunction
from repro.bdd.circuit import bdd_to_cover, network_bdds
from repro.logic.netlist import Network
from repro.logic.sop import Cover, _Key, _Plan
from repro.logic.transform import gates_to_sop, node_cover
from repro.power.activity import (_node_probability, _propagate,
                                  activity_from_probability,
                                  activity_from_simulation,
                                  stored_node_words)
from repro.power.model import PowerParameters, node_capacitance

#: Nodes with more fanins than this are left as they are.
MAX_FANINS = 10


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


def _walk(net: Network, name: str, words: Dict, forced: Sequence[Dict],
          mask) -> Iterator[str]:
    """Re-evaluate the fanout cone of ``name`` once per dict of
    ``forced``, each holding the words that differ from ``words``
    (``name``'s own among them), and yield each member after the head
    once its entries are current.  A member none of whose fanins
    changed is not evaluated, and one whose word comes out unchanged
    gets no entry."""
    nodes = net.nodes
    for member in _fanout_cone(net, name)[1:]:
        node = nodes[member]
        for alt in forced:
            if not alt.keys().isdisjoint(node.fanins):
                word = node_cover(node).evaluate_words(
                    [alt.get(fi, words[fi]) for fi in node.fanins], mask)
                if word != words[member]:
                    alt[member] = word
        yield member


def _care(net: Network, name: str, words: Dict, mask):
    """The node's care set within ``mask``: the OR of ``hi ^ lo`` over
    the primary outputs of its fanout cone, with the node forced to
    ``mask`` and to nothing (only outputs inside the cone can see it)."""
    if net.is_output(name):
        return mask
    hi, lo = {name: mask}, {name: mask ^ mask}
    care = mask ^ mask
    for member in _walk(net, name, words, (hi, lo), mask):
        if net.is_output(member):
            word = words[member]
            care |= hi.get(member, word) ^ lo.get(member, word)
            if care == mask:
                break
    return care


def _fanin_image(img: BDD, care, fanin_words: Sequence) -> BDDFunction:
    """Image of the set ``care`` on the space of the fanins whose words
    are ``fanin_words``: the fanin assignments that some point of
    ``care`` produces, as a function in ``img`` of ``__cdc_0 …`` (fanin
    ``i`` is ``__cdc_i``, at level ``i``).  Each fanin in turn splits the
    set by its word, and an empty part prunes its branch; at the last
    fanin only the parts' emptiness matters."""
    for i in range(len(img.var_names), len(fanin_words)):
        img.add_variable(f"__cdc_{i}")
    last = len(fanin_words) - 1
    memo: Dict = {}

    def image(part, i: int) -> int:
        if not part:
            return BDD.FALSE
        if i > last:
            return BDD.TRUE
        key = (i, part)
        hit = memo.get(key)
        if hit is None:
            on = part & fanin_words[i]
            if i == last:
                hit = img._mk(i, int(on != part), int(bool(on)))
            else:
                hit = img._mk(i, image(part & ~fanin_words[i], i + 1),
                              image(on, i + 1))
            memo[key] = hit
        return hit

    return BDDFunction(img, image(care, 0))


def _dont_cares(img: BDD, care, fanin_words: Sequence) -> Cover:
    """Complement of the image of ``care`` (see :func:`_fanin_image`)
    as a cover over the fanins."""
    image = _fanin_image(img, care, fanin_words)
    return bdd_to_cover(~image, img.var_names[:len(fanin_words)])


def controllability_dont_cares(net: Network, node_name: str,
                               funcs: Optional[Dict[str, BDDFunction]]
                               = None) -> Cover:
    """CDC set of a node as a cover over its fanins: the complement of
    the image of the source space on the fanin space."""
    node = net.node(node_name)
    if funcs is None:
        funcs = network_bdds(net)
    true = next(iter(funcs.values())).bdd.true
    return _dont_cares(BDD(), true, [funcs[fi] for fi in node.fanins])


def observability_dont_cares(net: Network, node_name: str,
                             funcs: Optional[Dict[str, BDDFunction]]
                             = None) -> BDDFunction:
    """ODC set over the primary inputs: assignments under which flipping
    the node changes no primary output, the complement of its care
    set."""
    net.node(node_name)
    if funcs is None:
        funcs = network_bdds(net)
    true = next(iter(funcs.values())).bdd.true
    return ~_care(net, node_name, funcs, true)


@dataclass
class DontCareResult:
    """Summary of a don't-care optimization pass.  ``bdd_nodes`` (the
    size at the pass's end of its manager of global functions over the
    sources; the fanin images live in a manager of their own) and
    ``witnessed`` (the visited nodes whose empty don't-care set
    simulation proved, with no BDD work) count work, so they are left
    out of ``repr`` and ``==``."""

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
    the Monte-Carlo words prove empty (the image of their care set is
    the whole fanin space) is skipped without BDD work.  Candidate
    covers are scored with the fast probability-propagation model, but
    each rewrite is accepted only if the *global* switched capacitance,
    estimated by Monte-Carlo simulation (``num_vectors``/``seed``),
    improves (the transitive-fanout awareness of [19]).
    """
    # Work on the SOP view so the new covers can be installed in place.
    gates_to_sop(net)
    params = PowerParameters()

    # Cover content -> Shannon plan, for the propagation and the
    # refreshes of accepted nodes' fanout cones.
    plans: Dict[_Key, _Plan] = {}
    probs = _propagate(net, input_probs, plans)
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
    bdd, img = BDD(), BDD()
    funcs = network_bdds(net, bdd)
    changed = witnessed = 0
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source() or node.kind != "sop" or not node.fanins:
            continue
        if len(node.fanins) > MAX_FANINS:
            continue
        if _fanin_image(img, _care(net, name, words, mask),
                        [words[fi] for fi in node.fanins]).is_true:
            witnessed += 1
            continue
        dc = _dont_cares(img, _care(net, name, funcs, bdd.true),
                         [funcs[fi] for fi in node.fanins])
        # The exact image's intersections serve this node only; without
        # this the AND memo grows with every open node.  Nodes stay valid.
        bdd._and_cache.clear()
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
                new = {name: best.evaluate_words(
                    [funcs[fi] for fi in node.fanins], bdd.true)}
                probs[name] = _node_probability(net.nodes[name], probs,
                                                plans)
                for member in _walk(net, name, funcs, (new,), bdd.true):
                    probs[member] = _node_probability(net.nodes[member],
                                                      probs, plans)
                funcs.update(new)
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
