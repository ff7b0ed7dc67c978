"""Pure graph utilities for the static analyzer.

Everything here operates on a plain adjacency map ``{node: successor
list}`` and imports nothing from the rest of the package, so low
layers (``repro.logic.netlist``) may import it lazily without creating
an import cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set


def tarjan_scc(adj: Dict[str, Sequence[str]]) -> List[List[str]]:
    """Strongly connected components (Tarjan, iterative).

    Edges to nodes absent from ``adj`` are ignored.  Components are
    returned in reverse-topological order (callees first); node order
    inside a component follows discovery order.
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    for root in adj:
        if root in index:
            continue
        # Frame: (node, iterator position over successors).
        work: List[List[object]] = [[root, 0]]
        while work:
            frame = work[-1]
            node = frame[0]
            assert isinstance(node, str)
            pos = frame[1]
            assert isinstance(pos, int)
            if pos == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            succs = [s for s in adj.get(node, ()) if s in adj]
            recursed = False
            while pos < len(succs):
                succ = succs[pos]
                pos += 1
                frame[1] = pos
                if succ not in index:
                    work.append([succ, 0])
                    recursed = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if recursed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                assert isinstance(parent, str)
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp: List[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comp.reverse()
                components.append(comp)
    return components


def nontrivial_sccs(adj: Dict[str, Sequence[str]]) -> List[List[str]]:
    """SCCs that contain a cycle: size > 1, or a self-loop."""
    out: List[List[str]] = []
    for comp in tarjan_scc(adj):
        if len(comp) > 1:
            out.append(comp)
        elif comp and comp[0] in adj.get(comp[0], ()):
            out.append(comp)
    return out


def cycle_path(adj: Dict[str, Sequence[str]],
               within: Optional[Sequence[str]] = None
               ) -> Optional[List[str]]:
    """One concrete cycle as ``[a, b, ..., a]``, or ``None`` if acyclic.

    With ``within``, the search is restricted to that node subset
    (used to extract a witness cycle from a non-trivial SCC).
    """
    allowed: Optional[Set[str]] = set(within) if within is not None \
        else None

    def succs(node: str) -> List[str]:
        out: List[str] = []
        for s in adj.get(node, ()):
            if s not in adj:
                continue
            if allowed is not None and s not in allowed:
                continue
            out.append(s)
        return out

    state: Dict[str, int] = {}  # 0/absent=unseen 1=visiting 2=done
    roots = [n for n in adj
             if allowed is None or n in allowed]
    for root in roots:
        if state.get(root, 0) == 2:
            continue
        # Chain of currently-visiting nodes, in visit order.
        chain: List[str] = []
        stack: List[List[object]] = [[root, 0]]
        while stack:
            frame = stack[-1]
            node = frame[0]
            assert isinstance(node, str)
            pos = frame[1]
            assert isinstance(pos, int)
            if pos == 0:
                state[node] = 1
                chain.append(node)
            nxt = succs(node)
            advanced = False
            while pos < len(nxt):
                succ = nxt[pos]
                pos += 1
                frame[1] = pos
                st = state.get(succ, 0)
                if st == 1:
                    cyc = chain[chain.index(succ):] + [succ]
                    return cyc
                if st == 0:
                    stack.append([succ, 0])
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            state[node] = 2
            chain.pop()
    return None
