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
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.logic.cube import Cube
from repro.logic.factor import _kernel_saving, algebraic_divide, kernels
from repro.logic.netlist import Network
from repro.logic.sop import (Cover, _cover_key, _evaluate_plan, _Key,
                             _memo_plan, _Plan)
from repro.logic.transform import gates_to_sop
from repro.power.activity import _propagate, activity_from_probability


@dataclass
class ExtractionResult:
    """Outcome of an extraction run.  ``kernel_enumerations`` (the
    distinct covers whose kernels the run listed) counts work, so it is
    left out of ``repr`` and ``==``."""

    extracted: List[str] = field(default_factory=list)
    literals_before: int = 0
    literals_after: int = 0
    switched_cap_before: float = 0.0
    switched_cap_after: float = 0.0
    kernel_enumerations: int = field(default=0, repr=False, compare=False)

    @property
    def power_saving(self) -> float:
        if not self.switched_cap_before:
            return 0.0
        return 1.0 - self.switched_cap_after / self.switched_cap_before


class _Priced(NamedTuple):
    """What both value functions need of one kernel of one cover; all of
    it depends on the two covers' content alone."""

    kernel: Cover
    area: float                     # literal saving (kernel_value)
    occurrences: int                # cubes of the quotient
    kernel_vars: Tuple[int, ...]    # each kernel literal's variable
    quotient_vars: Tuple[int, ...]  # each quotient literal's variable
    plan: _Plan                     # the kernel's Shannon plan


@dataclass
class _Memo:
    """What one :func:`extract_kernels` call computes once per distinct
    cover, keyed by content (``repro.logic.sop._cover_key``): each
    cover's priced kernels (:func:`_priced_kernels`), Shannon plans and
    literal counts per variable (:func:`_network_literal_activity`)."""

    kernels: Dict[_Key, List[_Priced]] = field(default_factory=dict)
    plans: Dict[_Key, _Plan] = field(default_factory=dict)
    literals: Dict[_Key, Tuple[Tuple[int, int], ...]] = \
        field(default_factory=dict)


def _priced_kernels(cover: Cover, memo: _Memo) -> List[_Priced]:
    """The kernels of ``cover`` in :func:`~repro.logic.factor.kernels`
    order, each divided into ``cover`` once: looked up in ``memo`` by
    content and listed there on first use."""
    key = _cover_key(cover)
    priced = memo.kernels.get(key)
    if priced is None:
        priced = memo.kernels[key] = []
        for kern, _cok in kernels(cover):
            quotient, _rem = algebraic_divide(cover, kern)
            priced.append(_Priced(
                kern, float(_kernel_saving(kern, quotient)),
                len(quotient.cubes), _literal_vars(kern),
                _literal_vars(quotient), _memo_plan(kern, memo.plans)))
    return priced


def _literal_vars(cover: Cover) -> Tuple[int, ...]:
    return tuple(var for cube in cover for var, _phase in cube.literals())


def _network_literal_activity(net: Network, probs: Dict[str, float],
                              memo: _Memo) -> float:
    """Σ over literals of the activity of the signal feeding the literal,
    plus one unit of activity per node output — the switched-capacitance
    estimate used as the power objective (each literal is a transistor
    pair whose gate cap is switched by its input signal; each node output
    drives a wire)."""
    total = 0.0
    for node in net.nodes.values():
        if node.is_source() or node.cover is None:
            continue
        key = _cover_key(node.cover)
        counts = memo.literals.get(key)
        if counts is None:
            seen: Dict[int, int] = {}
            for cube in node.cover:
                for var, _phase in cube.literals():
                    seen[var] = seen.get(var, 0) + 1
            counts = memo.literals[key] = tuple(seen.items())
        for var, times in counts:
            fi = node.fanins[var]
            total += times * activity_from_probability(probs[fi])
        total += 2.0 * activity_from_probability(probs[node.name])
    return total


def _kernel_power_value(pk: _Priced, fanin_probs: List[float],
                        fanin_acts: List[float]) -> float:
    """Switched-capacitance saving from extracting ``pk.kernel`` out of
    a node whose fanins have probabilities ``fanin_probs`` and
    activities ``fanin_acts`` (positive = saves power)."""
    occurrences = pk.occurrences
    if occurrences < 2:
        return 0.0
    k_act = activity_from_probability(_evaluate_plan(pk.plan, fanin_probs))
    k_lit_act = 0.0
    for var in pk.kernel_vars:
        k_lit_act += fanin_acts[var]
    q_lit_act = 0.0
    for var in pk.quotient_vars:
        q_lit_act += fanin_acts[var]
    k_cubes = len(pk.kernel.cubes)
    # Before: every (q, k) cube pair spells out both sides, so the
    # kernel's literal activity is paid |Q| times and the quotient's |K|
    # times.  After: each occurrence pays one new literal toggling with
    # the kernel's activity, and the new node's output wire switches.
    saved = (occurrences - 1) * k_lit_act + (k_cubes - 1) * q_lit_act
    cost = (occurrences + 2.0) * k_act
    return saved - cost


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

    Nodes share covers (every gate of one type and arity has the same
    one), so each distinct cover's kernels, their divisions and values,
    and each Shannon plan are computed once per call, keyed by content;
    the two greedy runs of power mode start from the same network and
    share them and the starting probabilities.  Nothing is kept after
    the call returns.
    """
    if objective not in ("area", "power"):
        raise ValueError("objective must be 'area' or 'power'")
    gates_to_sop(net)
    memo = _Memo()
    probs = _propagate(net, input_probs, memo.plans)
    if objective == "area":
        result = _greedy(net, "area", input_probs, max_extractions, probs,
                         memo)
    else:
        alt = net.copy()
        alt_result = _greedy(alt, "area", input_probs, max_extractions,
                             probs, memo)
        result = _greedy(net, "power", input_probs, max_extractions, probs,
                         memo)
        if alt_result.switched_cap_after < result.switched_cap_after:
            net.take_over(alt)
            result = alt_result
    result.kernel_enumerations = len(memo.kernels)
    return result


def _greedy(net: Network, objective: str,
            input_probs: Optional[Dict[str, float]], max_extractions: int,
            probs: Dict[str, float], memo: _Memo) -> ExtractionResult:
    """One greedy extraction run on the SOP network ``net`` under
    ``objective``, from its signal probabilities ``probs``."""
    result = ExtractionResult(
        literals_before=net.num_literals(),
        switched_cap_before=_network_literal_activity(net, probs, memo))

    for step in range(max_extractions):
        best: Optional[Tuple[float, str, Cover]] = None
        for name, node in net.nodes.items():
            if node.is_source() or node.cover is None or \
                    len(node.cover) < 2:
                continue
            priced = _priced_kernels(node.cover, memo)
            if not priced:
                continue
            if objective == "power":
                fanin_probs = [probs[fi] for fi in node.fanins]
                fanin_acts = [activity_from_probability(p)
                              for p in fanin_probs]
            for pk in priced:
                if objective == "area":
                    value = pk.area
                else:
                    value = _kernel_power_value(pk, fanin_probs, fanin_acts)
                if value > 0 and (best is None or value > best[0]):
                    best = (value, name, pk.kernel)
        if best is None:
            break
        _value, name, kern = best
        new_name = net.fresh_name(f"_k{step}_")
        _apply_extraction(net, name, kern, new_name)
        result.extracted.append(new_name)
        probs = _propagate(net, input_probs, memo.plans)

    result.literals_after = net.num_literals()
    result.switched_cap_after = _network_literal_activity(net, probs, memo)
    return result
