"""Precomputation-based sequential power-down (Section III-C.4; [1], [30]).

Architecture (Figure 1 of the paper, generalized): the primary inputs of
a combinational block are registered; a chosen *predictor* subset X1
always loads (register R1) while the rest X2 loads only when the output
is **not** already determined by X1 alone (register R2).  The load-enable

    LE = ¬( g1 ∨ g0 ),   g1 = ∀X2 f,   g0 = ∀X2 ¬f

is computed combinationally from the incoming X1 values (via universal
quantification on the circuit BDDs, the method of [30]) and gates R2.
When LE = 0 the held X2 values are stale but harmless — every output is
determined by the fresh X1 — and all switching in the X2 fan-in cone is
suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.bdd import BDDFunction
from repro.bdd.circuit import bdd_to_cover, network_bdds
from repro.logic.netlist import Network, Node

@dataclass
class PrecomputeResult:
    """A constructed precomputation architecture."""

    network: Network            # the sequential, gated design
    baseline: Network           # registered-inputs design without gating
    predictor_inputs: List[str]
    disable_probability: float  # P(LE = 0) under the given input probs
    le_literals: int            # cost of the added precompute logic


def _determination_function(net: Network, predictor: Sequence[str]
                            ) -> Tuple[BDDFunction, List[str]]:
    """BDD of 'all outputs determined by the predictor inputs alone'."""
    funcs = network_bdds(net)
    others = [pi for pi in net.inputs if pi not in predictor]
    manager = next(iter(funcs.values())).bdd
    determined = manager.true
    for out in net.outputs:
        f = funcs[out]
        g1 = f.forall(others)
        g0 = (~f).forall(others)
        determined = determined & (g1 | g0)
    return determined, others


def disable_probability(net: Network, predictor: Sequence[str],
                        input_probs: Optional[Dict[str, float]] = None
                        ) -> float:
    """P(LE = 0): fraction of cycles the non-predictor registers hold."""
    determined, _others = _determination_function(net, predictor)
    return determined.probability(input_probs or {})


def select_precompute_inputs(net: Network, subset_size: int,
                             input_probs: Optional[Dict[str, float]] = None,
                             exhaustive_limit: int = 12) -> List[str]:
    """Choose the predictor subset maximizing the disable probability.

    Exhaustive over input subsets when the input count is small, greedy
    growth otherwise (the search heuristic of [30]).
    """
    pis = list(net.inputs)
    if len(pis) <= exhaustive_limit:
        best: Tuple[float, List[str]] = (-1.0, [])
        for combo in combinations(pis, subset_size):
            p = disable_probability(net, combo, input_probs)
            if p > best[0]:
                best = (p, list(combo))
        return best[1]
    # A single input almost never determines the output, so greedy
    # growth is seeded with the best *pair* before extending singly.
    chosen: List[str] = []
    if subset_size >= 2:
        best_pair, best_p = None, -1.0
        for i, a in enumerate(pis):
            for b in pis[i + 1:]:
                p = disable_probability(net, [a, b], input_probs)
                if p > best_p:
                    best_pair, best_p = [a, b], p
        assert best_pair is not None
        chosen = best_pair
    while len(chosen) < subset_size:
        best_pi, best_p = None, -1.0
        for pi in pis:
            if pi in chosen:
                continue
            p = disable_probability(net, chosen + [pi], input_probs)
            if p > best_p:
                best_pi, best_p = pi, p
        assert best_pi is not None
        chosen.append(best_pi)
    return chosen


def _registered_version(net: Network, enables: Dict[str, Optional[str]]
                        ) -> Network:
    """Copy of a combinational net with every PI put behind a register
    whose enable is ``enables[pi]`` (None = always load)."""
    out = Network(net.name + "_seq")
    for pi in net.inputs:
        out.add_input(pi)
    for pi in net.inputs:
        out.add_latch(pi, pi + "_r", init=0, enable=enables.get(pi))
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            continue
        fanins = [fi + "_r" if fi in net.inputs else fi
                  for fi in node.fanins]
        new = Node(name, node.kind, node.gtype, fanins,
                   node.cover.copy() if node.cover is not None else None)
        new.attrs = dict(node.attrs)
        out.set_node(new)
    out.set_outputs(net.outputs)
    # No check here: the caller may still need to add the enable node.
    return out


def sequential_precompute(net: Network, predictor: Sequence[str],
                          input_probs: Optional[Dict[str, float]] = None
                          ) -> PrecomputeResult:
    """Build the Figure-1 architecture around a combinational network.

    Returns both the gated design and an ungated registered baseline so
    experiments compare like with like (both have input registers).
    """
    predictor = list(predictor)
    determined, _others = _determination_function(net, predictor)
    # LE = 0 (hold) exactly when the predictor bits determine the output.
    le_cover = bdd_to_cover(~determined, predictor).minimize()
    p_disable = determined.probability(input_probs or {})

    baseline = _registered_version(net, {})
    baseline.check()

    gated = _registered_version(
        net, {pi: "_le" for pi in net.inputs if pi not in predictor})
    # LE watches the *incoming* predictor values, before the registers.
    gated.add_sop("_le", predictor, le_cover)
    gated.check()
    return PrecomputeResult(network=gated, baseline=baseline,
                            predictor_inputs=predictor,
                            disable_probability=p_disable,
                            le_literals=le_cover.num_literals())


def combinational_precompute(net: Network, predictor: Sequence[str],
                             input_probs: Optional[Dict[str, float]]
                             = None) -> PrecomputeResult:
    """The combinational (transparent-latch) variant of precomputation.

    For a single-output network f: compute ``det = g1 ∨ g0`` and
    ``g1 = ∀others f`` from the predictor inputs; shield every
    non-predictor input with ``AND(x, ¬det)`` and produce

        out = MUX(det, f(shielded inputs), g1).

    When the predictor determines the output, the shields quiesce the
    main cone and g1 supplies the answer; otherwise the shields are
    transparent.  The returned ``network`` replaces the original output
    in place of a latch-based architecture (no registers involved), and
    ``baseline`` is an untouched copy.
    """
    if len(net.outputs) != 1:
        raise ValueError("combinational precomputation needs a "
                         "single-output network")
    predictor = list(predictor)
    funcs = network_bdds(net)
    others = [pi for pi in net.inputs if pi not in predictor]
    f = funcs[net.outputs[0]]
    g1 = f.forall(others)
    g0 = (~f).forall(others)
    det = g1 | g0
    p_disable = det.probability(input_probs or {})
    det_cover = bdd_to_cover(det, predictor).minimize()
    g1_cover = bdd_to_cover(g1, predictor).minimize()

    baseline = net.copy(net.name + "_plain")
    gated = net.copy(net.name + "_precomp")
    old_out = gated.outputs[0]
    gated.add_sop("_det", predictor, det_cover)
    gated.add_sop("_g1", predictor, g1_cover)
    from repro.logic.gates import GateType

    gated.add_gate("_ndet", GateType.NOT, ["_det"])
    # Shield every reader of a non-predictor input.
    for pi in others:
        shield = f"_sh_{pi}"
        gated.add_gate(shield, GateType.AND, [pi, "_ndet"])
        for reader in list(gated.readers(pi)):
            node = gated.nodes[reader]
            if reader != shield and not node.is_source():
                gated.set_fanins(reader, [shield if x == pi else x
                                          for x in node.fanins])
    gated.add_gate("_out", GateType.MUX, ["_det", old_out, "_g1"])
    gated.set_outputs(["_out"])
    gated.check()
    return PrecomputeResult(network=gated, baseline=baseline,
                            predictor_inputs=predictor,
                            disable_probability=p_disable,
                            le_literals=det_cover.num_literals() +
                            g1_cover.num_literals())


def precomputed_comparator(n: int,
                           input_probs: Optional[Dict[str, float]] = None
                           ) -> PrecomputeResult:
    """The paper's Figure 1: an n-bit C > D comparator precomputed on the
    most significant bits C<n−1>, D<n−1>.

    LE = C<n−1> XNOR D<n−1>: when the MSBs differ the output is known and
    the n−1 low-order register pairs are disabled (probability 1/2 on
    uniform inputs).
    """
    from repro.logic.generators import comparator

    net = comparator(n)
    return sequential_precompute(net, [f"c{n - 1}", f"d{n - 1}"],
                                 input_probs)
