"""Switching-activity estimation.

Three estimators of increasing cost/accuracy, mirroring the survey's
Section IV-A discussion and Najm's estimation survey [31]:

* probability propagation with an independence assumption (fast),
* exact signal probabilities via global BDDs (reconvergence-aware),
* Monte-Carlo bit-parallel simulation (the reference).

Activities are in *transitions per clock cycle* at each node output.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.logic.netlist import Network, Node
from repro.logic.sop import _Key, _Plan, _evaluate_plan, _memo_plan
from repro.logic.transform import node_cover
from repro.sim.compiled import get_compiled
from repro.sim.functional import Stimulus
from repro.sim.vectors import check_probabilities, random_words


def activity_from_probability(p: float) -> float:
    """Temporal-independence activity: P(0→1) + P(1→0) = 2·p·(1−p)."""
    return 2.0 * p * (1.0 - p)


def signal_probability_propagation(net: Network,
                                   input_probs: Optional[Dict[str, float]]
                                   = None) -> Dict[str, float]:
    """Signal probabilities by forward propagation.

    Fanins of each node are assumed independent (the classical fast
    approximation; exact on trees, optimistic under reconvergence).
    Latch outputs default to probability 0.5 unless given.  A
    probability outside [0, 1] raises ``ValueError``.  Nodes with the
    same cover share one Shannon plan, built once per call.
    """
    return _propagate(net, input_probs, {})


def _propagate(net: Network, input_probs: Optional[Dict[str, float]],
               plans: Dict[_Key, _Plan]) -> Dict[str, float]:
    """:func:`signal_probability_propagation` with the Shannon plans of
    the caller's ``plans``, keyed by cover content."""
    check_probabilities(input_probs)
    input_probs = input_probs or {}
    probs: Dict[str, float] = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            probs[name] = input_probs.get(name, 0.5)
        else:
            probs[name] = _node_probability(node, probs, plans)
    return probs


def _node_probability(node: Node, probs: Dict[str, float],
                      plans: Dict[_Key, _Plan]) -> float:
    """P(node = 1) from its fanins' entries in ``probs``, taken as
    independent: one step of :func:`signal_probability_propagation`."""
    return _evaluate_plan(_memo_plan(node_cover(node), plans),
                          [probs[fi] for fi in node.fanins])


def signal_probability_exact(net: Network,
                             input_probs: Optional[Dict[str, float]] = None
                             ) -> Dict[str, float]:
    """Exact signal probabilities via global BDDs over the PIs.  A
    probability outside [0, 1] raises ``ValueError``."""
    from repro.bdd.circuit import network_bdds

    check_probabilities(input_probs)
    input_probs = input_probs or {}
    funcs = network_bdds(net)
    return {name: f.probability(input_probs)
            for name, f in funcs.items()}


def transition_density(net: Network,
                       input_probs: Optional[Dict[str, float]] = None,
                       input_densities: Optional[Dict[str, float]] = None
                       ) -> Dict[str, float]:
    """Najm's transition-density propagation.

    D(y) = Σ_i P(∂y/∂x_i) · D(x_i), with Boolean differences computed
    exactly per node and signal probabilities from the independence
    propagation.  Input densities default to 2·p·(1−p).
    """
    probs = signal_probability_propagation(net, input_probs)
    densities: Dict[str, float] = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            if input_densities is not None and name in input_densities:
                densities[name] = input_densities[name]
            else:
                densities[name] = activity_from_probability(probs[name])
            continue
        cover = node_cover(node)
        fanin_p = [probs[fi] for fi in node.fanins]
        total = 0.0
        for i, fi in enumerate(node.fanins):
            hi = cover.cofactor_literal(i, 1)
            lo = cover.cofactor_literal(i, 0)
            p_hi = hi.probability(fanin_p)
            p_lo = lo.probability(fanin_p)
            p_both = hi.intersect(lo).probability(fanin_p)
            p_diff = p_hi + p_lo - 2.0 * p_both  # P(hi XOR lo)
            total += p_diff * densities[fi]
        densities[name] = total
    return densities


class _Run(NamedTuple):
    """The last Monte-Carlo run of a network (``Network._sim``)."""

    key: Tuple                      # stimulus identity
    mark: Tuple[List[str], int]     # Network.edit_mark() when run
    words: Dict[str, int]           # source stimulus
    values: Dict[str, int]          # node words
    transitions: Dict[str, int]
    ones: Dict[str, int]


def _stimulus_key(sources: List[str], num_vectors: int, seed: int,
                  input_probs: Optional[Dict[str, float]]) -> Tuple:
    """Identity of a Monte-Carlo stimulus (``Network._sim``'s key)."""
    return (tuple(sources), num_vectors, seed,
            None if input_probs is None
            else tuple(sorted(input_probs.items())))


def activity_from_simulation(net: Network, num_vectors: int = 2048,
                             seed: int = 0,
                             input_probs: Optional[Dict[str, float]] = None
                             ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Monte-Carlo activity and probability estimates.

    Latch outputs are driven as pseudo-inputs with probability 0.5 (use
    ``sequential_activity`` for true sequential behaviour).  Returns
    ``(activity, probability)`` dictionaries.

    Evaluation runs on the compiled engine (:mod:`repro.sim.compiled`),
    bit-exact with the interpreted path.  The run is stored on the
    network; a later call under the same stimulus (vectors, seed,
    probabilities) re-simulates only the transitive fanout cone of the
    nodes edited since (``Network.edits_since``) and reuses the stored
    words, transition counts and one-counts everywhere else.  A
    structural edit drops the stored run.
    """
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    mask = (1 << num_vectors) - 1
    stim_key = _stimulus_key(sources, num_vectors, seed, input_probs)

    run = net._sim
    if run is not None and run.key == stim_key:
        words = run.words
        old_values, old_t, old_o = run.values, run.transitions, run.ones
        values = get_compiled(net).evaluate_incremental(
            old_values, net.edits_since(run.mark), words, mask)
    else:
        words = random_words(sources, num_vectors, seed, input_probs)
        old_values, old_t, old_o = {}, {}, {}
        values = get_compiled(net).evaluate_words(words, mask)

    pair_mask = (1 << (num_vectors - 1)) - 1 if num_vectors >= 2 else 0
    transitions: Dict[str, int] = {}
    ones: Dict[str, int] = {}
    for name, w in values.items():
        old_w = old_values.get(name)
        if (old_w is w or old_w == w) and name in old_t and old_w is not None:
            transitions[name] = old_t[name]
            ones[name] = old_o[name]
        else:
            transitions[name] = ((w ^ (w >> 1)) & pair_mask).bit_count()
            ones[name] = w.bit_count()

    # num_vectors < 2 yields no transition pairs (and 0 patterns no
    # probability samples): define both rates as 0 instead of dividing
    # by zero — consistent with simulate_transitions' count < 2 guard.
    t_denom = num_vectors - 1 if num_vectors >= 2 else 1
    p_denom = num_vectors if num_vectors >= 1 else 1
    activity = {k: v / t_denom for k, v in transitions.items()}
    probability = {k: v / p_denom for k, v in ones.items()}
    net._sim = _Run(stim_key, net.edit_mark(), words, values,
                    transitions, ones)
    return activity, probability


def stored_node_words(net: Network, num_vectors: int, seed: int,
                      input_probs: Optional[Dict[str, float]] = None
                      ) -> Optional[Dict[str, int]]:
    """The node words of the network's stored Monte-Carlo run (one bit
    per vector, as :func:`activity_from_simulation` simulated them), or
    ``None`` unless that run was made under this stimulus and the
    network has not been edited since.  Read-only."""
    run = net._sim
    if run is None or net.edits_since(run.mark) != []:
        return None
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    if run.key != _stimulus_key(sources, num_vectors, seed, input_probs):
        return None
    return run.values


def sequential_activity(net: Network, input_sequence: Stimulus
                        ) -> Dict[str, float]:
    """Per-node activity from a clocked simulation of a sequential net,
    under a stimulus of packed patterns or dict vectors as for
    :func:`~repro.sim.functional.sequential_transitions`.

    A sequence of fewer than two vectors exhibits no cycle boundary, so
    every node's activity is 0 (mirroring ``activity_from_simulation``'s
    ``num_vectors < 2`` behaviour) rather than dividing by zero.
    """
    from repro.sim.functional import sequential_transitions

    transitions, _trace = sequential_transitions(net, input_sequence)
    return transition_activity(transitions, len(input_sequence))


def transition_activity(transitions: Dict[str, int],
                        length: int) -> Dict[str, float]:
    """Per-cycle activity from the transition counts of a clocked
    simulation ``length`` vectors long (0 everywhere below two)."""
    if length < 2:
        return {k: 0.0 for k in transitions}
    return {k: v / (length - 1) for k, v in transitions.items()}
