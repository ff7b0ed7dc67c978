"""Transistor reordering within complex gates (Section II-A; [32], [42]).

Given the signal probabilities and arrival times of a series stack's
inputs, choose the input-to-position assignment minimizing expected
switched energy, optionally under a delay constraint.  Stacks are small
(n ≤ 6 in practice) so exhaustive search is exact; a probability-sorted
greedy order is provided for wider stacks and as a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.library.transistors import SeriesStack, StackEnergyModel
from repro.logic.gates import GateType
from repro.logic.netlist import Network


@dataclass
class ReorderResult:
    """Outcome of a reordering search."""

    best_order: List[int]
    best_energy: float
    best_delay: float
    baseline_energy: float     # identity order
    baseline_delay: float
    worst_energy: float

    @property
    def energy_saving(self) -> float:
        if self.baseline_energy == 0.0:
            return 0.0
        return 1.0 - self.best_energy / self.baseline_energy

    @property
    def spread(self) -> float:
        """Best-to-worst energy ratio across orders (search head-room)."""
        if self.worst_energy == 0.0:
            return 1.0
        return self.best_energy / self.worst_energy


def greedy_order(probs: Sequence[float]) -> List[int]:
    """Probability-sorted heuristic.

    Inputs most likely to be ON go nearest ground: the bottom of the
    stack conducts often, keeping internal nodes discharged so they do
    not repeatedly charge from the output.
    """
    return sorted(range(len(probs)), key=lambda i: -probs[i])


def optimize_stack_order(probs: Sequence[float],
                         arrival: Optional[Sequence[float]] = None,
                         delay_limit: Optional[float] = None,
                         model: Optional[StackEnergyModel] = None,
                         exhaustive_limit: int = 7) -> ReorderResult:
    """Search input orders of a series stack for minimum energy.

    ``delay_limit`` (if given) rejects orders whose Elmore settling time
    exceeds it — the power/delay trade the paper describes.  Arrival
    times default to zero (delay then differs only through stack depth,
    which is order-independent, so the search is pure-power).
    """
    n = len(probs)
    arrival = list(arrival) if arrival is not None else [0.0] * n
    model = model or StackEnergyModel()

    def evaluate(order: Sequence[int]) -> Tuple[float, float]:
        stack = SeriesStack(n, order, model)
        return stack.expected_energy(probs), stack.elmore_delay(arrival)

    base_energy, base_delay = evaluate(list(range(n)))
    limit = delay_limit if delay_limit is not None else float("inf")

    if n <= exhaustive_limit:
        candidates = [list(p) for p in permutations(range(n))]
    else:
        candidates = [list(range(n)), greedy_order(probs),
                      greedy_order(probs)[::-1]]

    best: Optional[Tuple[float, float, List[int]]] = None
    worst_energy = base_energy
    for order in candidates:
        energy, delay = evaluate(order)
        worst_energy = max(worst_energy, energy)
        if delay > limit:
            continue
        if best is None or (energy, delay) < (best[0], best[1]):
            best = (energy, delay, order)
    if best is None:
        # No order meets the constraint; fall back to fastest order.
        fastest = min(candidates,
                      key=lambda o: evaluate(o)[1])
        energy, delay = evaluate(fastest)
        best = (energy, delay, fastest)
    return ReorderResult(best_order=best[2], best_energy=best[0],
                         best_delay=best[1], baseline_energy=base_energy,
                         baseline_delay=base_delay,
                         worst_energy=worst_energy)


# -- network-level driver ----------------------------------------------------

#: Gate types realized as a single series transistor stack.  The NMOS
#: pull-down of AND/NAND conducts on input 1; the PMOS pull-up of
#: OR/NOR conducts on input 0, so its conduction probabilities are the
#: complements of the signal probabilities.
STACK_GATES = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR)


@dataclass
class NetworkReorderResult:
    """Aggregate outcome of reordering every eligible stack in a net."""

    per_gate: Dict[str, ReorderResult] = field(default_factory=dict)
    energy_before: float = 0.0
    energy_after: float = 0.0
    gates_considered: int = 0
    gates_improved: int = 0

    @property
    def energy_saving(self) -> float:
        if self.energy_before == 0.0:
            return 0.0
        return 1.0 - self.energy_after / self.energy_before


def reorder_network_stacks(net: Network,
                           input_probs: Optional[Dict[str, float]] = None,
                           num_vectors: int = 512, seed: int = 0
                           ) -> NetworkReorderResult:
    """Reorder the series stacks of every AND/NAND/OR/NOR gate.

    Per-gate conduction probabilities come from one compiled Monte-Carlo
    simulation of the whole network
    (:func:`repro.power.activity.activity_from_simulation`).  Reordering
    transistors inside a gate never changes its logic function, so a
    single simulation serves every stack.  The chosen order is recorded
    in ``node.attrs["stack_order"]``.
    """
    from repro.power.activity import activity_from_simulation

    _act, probs = activity_from_simulation(net, num_vectors, seed,
                                           input_probs)
    arrivals = net.levels()
    result = NetworkReorderResult()
    for node in net.gate_nodes():
        if node.kind != "gate" or node.gtype not in STACK_GATES or \
                len(node.fanins) < 2:
            continue
        fanin_p = [probs[fi] for fi in node.fanins]
        if node.gtype in (GateType.OR, GateType.NOR):
            fanin_p = [1.0 - p for p in fanin_p]
        arrival = [arrivals[fi] for fi in node.fanins]
        res = optimize_stack_order(fanin_p, arrival=arrival)
        result.per_gate[node.name] = res
        result.gates_considered += 1
        result.energy_before += res.baseline_energy
        result.energy_after += res.best_energy
        if res.best_energy < res.baseline_energy:
            result.gates_improved += 1
        node.attrs["stack_order"] = list(res.best_order)
    return result
