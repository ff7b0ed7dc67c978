"""Global BDDs of netlist nodes and SOP covers of BDDs.

A BDD function is one more kind of word for the bit-parallel evaluator:
:func:`network_bdds` evaluates each node's cover with
:meth:`Cover.evaluate_words` on its fanins' functions, the call that
``Network.evaluate_words`` makes on int words.  :func:`bdd_to_cover`
goes back from a function to an SOP cover by path enumeration.
"""

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


def network_bdds(net: Network, bdd: Optional[BDD] = None
                 ) -> Dict[str, BDDFunction]:
    """Global BDD of every node over primary inputs and latch outputs.

    Latch outputs are treated as free variables (combinational view).
    Each node's cover is evaluated by :meth:`Cover.evaluate_words` with
    its fanins' functions as the words.
    """
    manager = bdd if bdd is not None else BDD()
    funcs: Dict[str, BDDFunction] = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            funcs[name] = manager.var(name)
            continue
        funcs[name] = node_cover(node).evaluate_words(
            [funcs[fi] for fi in node.fanins], manager.true)
    return funcs
