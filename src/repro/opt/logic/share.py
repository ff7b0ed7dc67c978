"""Shared product-term extraction across SOP nodes.

Multi-output two-level implementations (PLAs, FSM next-state logic)
share AND terms between outputs; in a Boolean network this is cube
extraction restricted to *identical* cubes, which is cheap to find and
always area-profitable when a cube is used at least twice.  Sharing
also helps power: the term is computed (and switches) once instead of
per output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.logic.cube import Cube
from repro.logic.netlist import Network, Node
from repro.logic.sop import Cover

Term = FrozenSet[Tuple[str, int]]   # {(signal name, phase)}


@dataclass
class SharingResult:
    """Outcome of a product-sharing pass."""

    terms_extracted: int = 0
    occurrences_replaced: int = 0
    literals_before: int = 0
    literals_after: int = 0


def _cube_terms(net: Network, node: Node) -> List[Term]:
    assert node.cover is not None
    out = []
    for cube in node.cover:
        out.append(frozenset((node.fanins[v], ph)
                             for v, ph in cube.literals()))
    return out


def share_product_terms(net: Network, min_literals: int = 2,
                        min_uses: int = 2) -> SharingResult:
    """Extract identical multi-literal cubes shared by several nodes.

    Only SOP nodes participate (run :func:`to_sop_network` or the gate
    conversion of the other passes first if needed).  Each shared term
    becomes a new single-cube SOP node; user nodes replace the cube
    with one positive literal of the new node.  In place.
    """
    result = SharingResult(literals_before=net.num_literals())
    uses: Dict[Term, List[str]] = {}
    for node in net.nodes.values():
        if node.is_source() or node.kind != "sop" or \
                node.cover is None:
            continue
        for term in set(_cube_terms(net, node)):
            if len(term) < min_literals:
                continue
            uses.setdefault(term, []).append(node.name)

    shared = {term: users for term, users in uses.items()
              if len(users) >= min_uses}
    # Extract larger terms first (they save more).
    for term in sorted(shared, key=lambda t: (-len(t), sorted(t))):
        users = [u for u in shared[term] if u in net.nodes]
        # Re-check presence: earlier extractions may have rewritten it.
        live_users = []
        for user in users:
            node = net.nodes[user]
            if node.kind == "sop" and term in _cube_terms(net, node):
                live_users.append(user)
        if len(live_users) < min_uses:
            continue
        signals = sorted({s for s, _ph in term})
        new_name = net.fresh_name("_pt")
        cube = Cube.from_literals(
            len(signals),
            [(signals.index(s), ph) for s, ph in term])
        net.add_sop(new_name, signals, Cover(len(signals), [cube]))
        result.terms_extracted += 1
        for user in live_users:
            node = net.nodes[user]
            new_fanins = list(node.fanins)
            if new_name not in new_fanins:
                new_fanins.append(new_name)
            idx = new_fanins.index(new_name)
            n_vars = len(new_fanins)
            new_cubes = []
            for c in node.cover:
                lits = frozenset((node.fanins[v], ph)
                                 for v, ph in c.literals())
                if lits == term:
                    new_cubes.append(Cube.from_literals(
                        n_vars, [(idx, 1)]))
                    result.occurrences_replaced += 1
                else:
                    new_cubes.append(Cube.from_literals(
                        n_vars,
                        [(new_fanins.index(node.fanins[v]), ph)
                         for v, ph in c.literals()]))
            net.set_function(user, Cover(n_vars, new_cubes),
                             fanins=new_fanins)
    result.literals_after = net.num_literals()
    return result
