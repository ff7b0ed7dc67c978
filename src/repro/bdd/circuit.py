"""Building BDDs for netlist nodes (global functions over PIs/latches)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bdd.bdd import BDD, BDDFunction
from repro.logic.cube import Cube
from repro.logic.netlist import Network
from repro.logic.sop import Cover
from repro.logic.transform import node_cover


def bdd_to_cover(func: BDDFunction, var_order: Sequence[str]) -> Cover:
    """Enumerate a BDD's paths-to-TRUE as an SOP cover over ``var_order``
    (every support variable of ``func`` must appear in ``var_order``)."""
    bdd = func.bdd
    index = {name: i for i, name in enumerate(var_order)}
    n = len(var_order)
    cubes: List[Cube] = []

    def walk(node: int, lits) -> None:
        if node == BDD.FALSE:
            return
        if node == BDD.TRUE:
            cubes.append(Cube.from_literals(n, lits))
            return
        name = bdd.var_names[bdd._level[node]]
        var = index[name]
        walk(bdd._lo[node], lits + [(var, 0)])
        walk(bdd._hi[node], lits + [(var, 1)])

    walk(func.node, [])
    return Cover(n, cubes).sccc()


def cover_function(manager: BDD, cover: Cover,
                   fanin_funcs: Sequence[BDDFunction]) -> BDDFunction:
    """BDD of an SOP ``cover`` whose variable ``i`` is ``fanin_funcs[i]``."""
    nodes = [func.node for func in fanin_funcs]
    and_, or_, not_ = manager._and, manager._or, manager._not
    acc = BDD.FALSE
    for cube in cover:
        term = BDD.TRUE
        for var, phase in cube.literals():
            lit = nodes[var]
            term = and_(term, lit if phase else not_(lit))
            if term == BDD.FALSE:
                break
        acc = or_(acc, term)
        if acc == BDD.TRUE:
            break
    return BDDFunction(manager, acc)


def network_bdds(net: Network, bdd: Optional[BDD] = None
                 ) -> Dict[str, BDDFunction]:
    """Global BDD of every node over primary inputs and latch outputs.

    Latch outputs are treated as free variables (combinational view).
    """
    manager = bdd if bdd is not None else BDD()
    funcs: Dict[str, BDDFunction] = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            funcs[name] = manager.var(name)
            continue
        funcs[name] = cover_function(
            manager, node_cover(node), [funcs[fi] for fi in node.fanins])
    return funcs
