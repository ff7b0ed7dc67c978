"""Guarded evaluation / operand isolation (Section III-C.4; [44]).

When a multiplexer selects between two subcircuits, the deselected one
is unobservable (its value lies in the mux's observability don't-care
set).  Guarding its inputs — here with shield AND gates that force the
cone to a quiet constant while deselected, the operand-isolation variant
of the transparent-latch scheme in [44] — suppresses all switching
inside the idle cone without changing any output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.logic.gates import GateType
from repro.logic.netlist import Network


@dataclass
class GuardResult:
    """Summary of an operand-isolation pass."""

    cones_isolated: int = 0
    shields_added: int = 0
    nodes_guarded: int = 0
    guards: List[Tuple[str, str]] = field(default_factory=list)
    # (mux node, guarded leg) pairs


def _transitive_fanin(net: Network, root: str) -> Set[str]:
    seen: Set[str] = set()
    stack = [root]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        node = net.nodes[name]
        if not node.is_source():
            stack.extend(node.fanins)
    return seen


def _exclusive_cone(net: Network, leg: str, mux: str) -> Set[str]:
    """Gates in leg's fan-in whose every fanout path stays inside the
    cone (so they are unobservable whenever the mux deselects the leg)."""
    tfi = {n for n in _transitive_fanin(net, leg)
           if not net.nodes[n].is_source()}
    exclusive: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name in tfi:
            if name in exclusive or net.is_output(name):
                continue
            readers = net.readers(name)
            ok = True
            for r in readers:
                if r == mux and name == leg:
                    continue
                if r not in exclusive:
                    ok = False
                    break
            # Latches reading the node appear among its readers too and
            # are never exclusive.
            if ok and readers.get(mux, 0) <= 1:
                exclusive.add(name)
                changed = True
    return exclusive


def guarded_evaluation(net: Network, min_cone_size: int = 2,
                       input_probs: Optional[Dict[str, float]] = None,
                       max_active_probability: float = 0.25
                       ) -> GuardResult:
    """Isolate the exclusive input cones of every MUX leg (in place).

    For a mux ``m = MUX(s, d0, d1)``, the d0-cone is shielded with
    ``AND(x, ¬s)`` on each boundary signal x (active when s = 0) and the
    d1-cone with ``AND(x, s)``.  Only cones of at least
    ``min_cone_size`` gates are worth the shield gates' own power, and a
    leg is only isolated when its selection probability (estimated by
    probability propagation from ``input_probs``) is at most
    ``max_active_probability`` — shielding a frequently-selected cone
    is counter-productive: the shields add capacitance, and every
    select toggle slams the whole cone to zero and back.  The default
    threshold (0.25) is conservative; pass 1.0 to force isolation.
    """
    from repro.power.activity import signal_probability_propagation

    result = GuardResult()
    sel_probs = signal_probability_propagation(net, input_probs)
    muxes = [n.name for n in net.nodes.values()
             if n.kind == "gate" and n.gtype is GateType.MUX]
    claimed: Set[str] = set()
    for mux in muxes:
        sel, d0, d1 = net.nodes[mux].fanins
        p_sel = sel_probs.get(sel, 0.5)
        for leg, active_high in ((d0, False), (d1, True)):
            p_active = p_sel if active_high else 1.0 - p_sel
            if p_active > max_active_probability:
                continue
            node = net.nodes[leg]
            if node.is_source() or leg in claimed:
                continue
            cone = _exclusive_cone(net, leg, mux)
            if leg not in cone or len(cone) < min_cone_size:
                continue
            if cone & claimed:
                continue
            # Boundary: signals read by cone gates but outside the cone.
            boundary: Set[Tuple[str, str]] = set()
            for name in cone:
                for fi in net.nodes[name].fanins:
                    if fi not in cone:
                        boundary.add((name, fi))
            if not boundary:
                continue
            if active_high:
                guard = sel
            else:
                guard = f"_gd_inv_{mux}"
                if guard not in net.nodes:
                    net.add_gate(guard, GateType.NOT, [sel])
            shields: Dict[str, str] = {}
            for reader, src in sorted(boundary):
                if src == guard:
                    continue
                shield = shields.get(src)
                if shield is None:
                    shield = net.fresh_name(f"_gd_{mux}_")
                    net.add_gate(shield, GateType.AND, [src, guard])
                    shields[src] = shield
                    result.shields_added += 1
                net.replace_fanin(reader, src, shield)
            claimed |= cone
            result.cones_isolated += 1
            result.nodes_guarded += len(cone)
            result.guards.append((mux, leg))
    return result
