"""Power-aware kernel extraction (Section III-A.3; [35], SYCLOP).

Classic kernel extraction picks, at each step, the kernel whose
extraction saves the most *literals* (the area objective, [5]).  For low
power the value function is instead the change in expected switched
capacitance: literal savings are weighted by the switching activity of
the signals they remove, and the new node's own activity — which adds a
switching output wire — is charged against the saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.logic.cube import Cube
from repro.logic.factor import algebraic_divide, kernels
from repro.logic.netlist import Network, Node
from repro.logic.sop import Cover
from repro.logic.transform import gates_to_sop
from repro.power.activity import (activity_from_probability,
                                  signal_probability_propagation)


@dataclass
class ExtractionResult:
    """Outcome of an extraction run."""

    extracted: List[str] = field(default_factory=list)
    literals_before: int = 0
    literals_after: int = 0
    switched_cap_before: float = 0.0
    switched_cap_after: float = 0.0

    @property
    def power_saving(self) -> float:
        if not self.switched_cap_before:
            return 0.0
        return 1.0 - self.switched_cap_after / self.switched_cap_before


def _network_literal_activity(net: Network,
                              probs: Dict[str, float]) -> float:
    """Σ over literals of the activity of the signal feeding the literal,
    plus one unit of activity per node output — the switched-capacitance
    estimate used as the power objective (each literal is a transistor
    pair whose gate cap is switched by its input signal; each node output
    drives a wire)."""
    total = 0.0
    for node in net.nodes.values():
        if node.is_source() or node.cover is None:
            continue
        counts: Dict[int, int] = {}
        for cube in node.cover:
            for var, _phase in cube.literals():
                counts[var] = counts.get(var, 0) + 1
        for var, times in counts.items():
            fi = node.fanins[var]
            total += times * activity_from_probability(probs[fi])
        total += 2.0 * activity_from_probability(probs[node.name])
    return total


def _kernel_power_value(node: Node, kernel: Cover,
                        probs: Dict[str, float]) -> float:
    """Switched-capacitance saving from extracting ``kernel`` out of
    ``node`` (positive = saves power)."""
    quotient, _rem = algebraic_divide(node.cover, kernel)
    occurrences = len(quotient.cubes)
    if occurrences < 2:
        return 0.0
    fanin_probs = [probs[fi] for fi in node.fanins]
    k_prob = kernel.probability(fanin_probs)
    k_act = activity_from_probability(k_prob)

    def lits_activity(cover: Cover) -> float:
        total = 0.0
        for cube in cover:
            for var, _phase in cube.literals():
                total += activity_from_probability(
                    probs[node.fanins[var]])
        return total

    k_lit_act = lits_activity(kernel)
    q_lit_act = lits_activity(quotient)
    k_cubes = len(kernel.cubes)
    # Before: every (q, k) cube pair spells out both sides, so the
    # kernel's literal activity is paid |Q| times and the quotient's |K|
    # times.  After: each occurrence pays one new literal toggling with
    # the kernel's activity, and the new node's output wire switches.
    saved = (occurrences - 1) * k_lit_act + (k_cubes - 1) * q_lit_act
    cost = (occurrences + 2.0) * k_act
    return saved - cost


def _kernel_area_value(node: Node, kernel: Cover) -> float:
    from repro.logic.factor import kernel_value

    return float(kernel_value(node.cover, kernel))


def _apply_extraction(net: Network, node_name: str, kernel: Cover,
                      new_name: str) -> None:
    """Rewrite ``node = quotient·new + remainder`` with ``new = kernel``."""
    node = net.nodes[node_name]
    quotient, remainder = algebraic_divide(node.cover, kernel)
    old_fanins = list(node.fanins)
    n_old = len(old_fanins)
    # New node over the same fanin list, restricted to kernel support.
    support = sorted({var for cube in kernel
                      for var, _ in cube.literals()})
    remap = {var: i for i, var in enumerate(support)}
    k_cubes = [Cube.from_literals(len(support),
                                  [(remap[v], ph)
                                   for v, ph in cube.literals()])
               for cube in kernel]
    net.add_sop(new_name, [old_fanins[v] for v in support],
                Cover(len(support), k_cubes))
    # Rebuilt cover for the original node: one extra variable (the new
    # node) appended at index n_old.
    new_cubes: List[Cube] = []
    for q in quotient:
        lits = list(q.literals()) + [(n_old, 1)]
        new_cubes.append(Cube.from_literals(n_old + 1, lits))
    for r in remainder:
        new_cubes.append(Cube.from_literals(n_old + 1,
                                            list(r.literals())))
    net.set_function(node_name, Cover(n_old + 1, new_cubes),
                     fanins=old_fanins + [new_name])


def extract_kernels(net: Network, objective: str = "area",
                    input_probs: Optional[Dict[str, float]] = None,
                    max_extractions: int = 50) -> ExtractionResult:
    """Greedy kernel extraction over all SOP nodes of the network.

    ``objective`` is ``"area"`` (literal savings, the classical [5]
    value) or ``"power"`` (activity-weighted savings, the [35] value).
    Gate nodes are first converted to SOP form in place.  Returns
    before/after metrics under *both* cost functions so the trade-off is
    visible.  The power value function reads signal probabilities from
    :func:`~repro.power.activity.signal_probability_propagation`,
    recomputed after every extraction.

    Both extractors are greedy, and greedy paths can land in different
    local optima; in power mode the area-greedy decomposition is also
    generated (on a copy) and the better of the two under the
    switched-capacitance metric is kept.
    """
    if objective not in ("area", "power", "_power_greedy"):
        raise ValueError("objective must be 'area' or 'power'")
    if objective == "power":
        alt = net.copy()
        alt_result = extract_kernels(alt, "area", input_probs,
                                     max_extractions)
        main_result = extract_kernels(net, "_power_greedy", input_probs,
                                      max_extractions)
        if alt_result.switched_cap_after < \
                main_result.switched_cap_after:
            net.take_over(alt)
            alt_result.switched_cap_before = \
                main_result.switched_cap_before
            alt_result.literals_before = main_result.literals_before
            return alt_result
        return main_result
    gates_to_sop(net)
    probs = signal_probability_propagation(net, input_probs)
    result = ExtractionResult(
        literals_before=net.num_literals(),
        switched_cap_before=_network_literal_activity(net, probs))

    for step in range(max_extractions):
        best: Optional[Tuple[float, str, Cover]] = None
        for name, node in net.nodes.items():
            if node.is_source() or node.cover is None or \
                    len(node.cover) < 2:
                continue
            for kern, _cok in kernels(node.cover):
                if objective == "area":
                    value = _kernel_area_value(node, kern)
                else:
                    value = _kernel_power_value(node, kern, probs)
                if value > 0 and (best is None or value > best[0]):
                    best = (value, name, kern)
        if best is None:
            break
        _value, name, kern = best
        new_name = net.fresh_name(f"_k{step}_")
        _apply_extraction(net, name, kern, new_name)
        result.extracted.append(new_name)
        probs = signal_probability_propagation(net, input_probs)

    result.literals_after = net.num_literals()
    result.switched_cap_after = _network_literal_activity(net, probs)
    return result
