"""Power-oriented lint rules grounded in the survey's claims.

* ``static-hazard`` (C2): nodes whose two-level realisation has a
  single-input-change static-1 hazard — the statically detectable
  part of the 10–40 % glitch overhead.
* ``reconvergent-fanout``: fanout stems whose branches reconverge,
  the exact topology under which the probabilistic activity
  estimator's spatial-independence assumption breaks (Najm [31]).
* ``hot-net`` (C1): activity × fanout ranking from *zero-delay static
  probabilities* — no simulation — flagging the nets whose switched
  capacitance dominates Eqn-1 power.
* ``gating-hazard`` (C11): clock gating is only safe when the derived
  enable cannot glitch; any hazard-prone node in a latch enable's
  combinational cone can clock the register spuriously.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import (ERROR, INFO, WARNING,
                                        Diagnostic)
from repro.analysis.hazards import (cone_nodes, node_hazard_variables)
from repro.analysis.linter import POWER, RuleContext, rule
from repro.power.activity import (activity_from_probability,
                                  signal_probability_propagation)


def _hazard_fanins(ctx: RuleContext,
                   cache: Dict[str, Optional[List[int]]],
                   name: str) -> Optional[List[int]]:
    """Memoized hazard-prone fanin indices of a node (None: too wide)."""
    if name not in cache:
        cache[name] = node_hazard_variables(
            ctx.net.nodes[name], ctx.config.hazard_max_vars)
    return cache[name]


@rule(id="static-hazard", severity=WARNING, category=POWER,
      description="two-level realisation has a single-input-change "
                  "static-1 hazard (C2: statically detectable glitch "
                  "source)",
      needs_complete=True, needs_dag=True, needs_covers=True)
def check_static_hazards(ctx: RuleContext) -> List[Diagnostic]:
    net = ctx.net
    cache: Dict[str, Optional[List[int]]] = {}
    out: List[Diagnostic] = []
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            continue
        vars_ = _hazard_fanins(ctx, cache, name)
        if not vars_:
            continue
        nets = [node.fanins[v] for v in vars_]
        out.append(Diagnostic(
            rule="static-hazard", severity=WARNING, site=name,
            message=f"node {name!r} has a static-1 hazard on "
                    f"single-input changes of "
                    f"{', '.join(repr(n) for n in nets)}",
            hint="add the consensus term or rebalance the fanin "
                 "paths to absorb the glitch",
            detail={"fanin_nets": nets,
                    "fanin_indices": list(vars_)}))
    return out


@rule(id="reconvergent-fanout", severity=INFO, category=POWER,
      description="fanout branches reconverge; the independence "
                  "assumption of probabilistic activity estimation "
                  "is unreliable in this region",
      needs_complete=True, needs_dag=True)
def check_reconvergence(ctx: RuleContext) -> List[Diagnostic]:
    net = ctx.net
    order = net.topo_order()
    stems = [n for n in order if sum(net.readers(n).values()) >= 2]
    stem_bit = {name: 1 << i for i, name in enumerate(stems)}
    # reach[n]: bitset of stems with a combinational path to n.
    reach: Dict[str, int] = {}
    first_merge: Dict[str, str] = {}
    for name in order:
        node = net.nodes[name]
        if node.is_source():
            reach[name] = 0
            continue
        seen = 0
        dup = 0
        for fi in node.fanins:
            mask = reach.get(fi, 0) | stem_bit.get(fi, 0)
            dup |= seen & mask
            seen |= mask
        reach[name] = seen
        if dup:
            for stem in stems:
                if dup & stem_bit[stem] and stem not in first_merge:
                    first_merge[stem] = name
    out: List[Diagnostic] = []
    for stem in stems:
        merge = first_merge.get(stem)
        if merge is None:
            continue
        out.append(Diagnostic(
            rule="reconvergent-fanout", severity=INFO, site=stem,
            message=f"fanout of {stem!r} reconverges at {merge!r}; "
                    f"probability propagation treats the branches "
                    f"as independent there",
            hint="use the BDD-exact or simulation estimator for "
                 "this region",
            detail={"merge": merge}))
    return out


@rule(id="hot-net", severity=INFO, category=POWER,
      description="highest activity x fanout nets from zero-delay "
                  "static probabilities (C1: switching dominates "
                  "well-designed CMOS power)",
      needs_complete=True, needs_dag=True, needs_covers=True)
def check_hot_nets(ctx: RuleContext) -> List[Diagnostic]:
    net = ctx.net
    top = ctx.config.hot_net_top
    if top <= 0 or not net.nodes:
        return []
    probs = signal_probability_propagation(net,
                                           ctx.config.input_probs)
    scored: List[Tuple[float, str, float, int]] = []
    for name, p in probs.items():
        fanout = sum(net.readers(name).values())
        if fanout == 0:
            continue
        score = activity_from_probability(p) * fanout
        if score > 0.0:
            scored.append((-score, name, p, fanout))
    scored.sort()
    out: List[Diagnostic] = []
    for rank, (neg_score, name, p, fanout) in \
            enumerate(scored[:top], start=1):
        out.append(Diagnostic(
            rule="hot-net", severity=INFO, site=name,
            message=f"hot net #{rank}: activity*fanout = "
                    f"{-neg_score:.3f} (p={p:.3f}, fanout={fanout})",
            hint="prime candidate for factoring, remapping or "
                 "buffer isolation",
            detail={"rank": rank, "score": -neg_score,
                    "probability": p, "fanout": fanout}))
    return out


@rule(id="gating-hazard", severity=ERROR, category=POWER,
      description="a latch enable (gated clock) must be glitch-free "
                  "in the C11 sense: no hazard-prone node in its "
                  "combinational cone",
      needs_complete=True, needs_dag=True, needs_covers=True)
def check_gating_safety(ctx: RuleContext) -> List[Diagnostic]:
    net = ctx.net
    cache: Dict[str, Optional[List[int]]] = {}
    out: List[Diagnostic] = []
    seen_enables: Set[str] = set()
    for latch in net.latches:
        enable = latch.enable
        if enable is None or enable in seen_enables or \
                enable not in net.nodes:
            continue
        seen_enables.add(enable)
        hazardous: List[str] = []
        unchecked: List[str] = []
        for name in cone_nodes(net, enable):
            if net.nodes[name].is_source():
                continue
            vars_ = _hazard_fanins(ctx, cache, name)
            if vars_ is None:
                unchecked.append(name)
            elif vars_:
                hazardous.append(name)
        if hazardous:
            out.append(Diagnostic(
                rule="gating-hazard", severity=ERROR, site=enable,
                message=f"gating enable {enable!r} of latch "
                        f"{latch.output!r} is not hazard-free: its "
                        f"cone contains hazard-prone "
                        f"{', '.join(repr(n) for n in hazardous)}",
                hint="derive the enable hazard-free (C11) or latch "
                     "it before it gates the clock",
                detail={"latch": latch.output,
                        "hazard_nodes": hazardous}))
        elif unchecked:
            out.append(Diagnostic(
                rule="gating-hazard", severity=WARNING, site=enable,
                message=f"gating enable {enable!r} of latch "
                        f"{latch.output!r} could not be fully "
                        f"analysed: {len(unchecked)} cone node(s) "
                        f"exceed the hazard-check width cap",
                detail={"latch": latch.output,
                        "unchecked": unchecked}))
    return out
