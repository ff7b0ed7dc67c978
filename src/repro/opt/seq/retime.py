"""Retiming (Section III-C.2; Leiserson–Saxe [24], low-power [29]).

A sequential network is abstracted into a retiming graph: vertices are
combinational gates plus a HOST vertex standing for the environment
(primary inputs and outputs), edges carry the register count between a
driver and a reader.  Classic results implemented here:

* W/D matrices and the Bellman–Ford feasibility test for a target clock
  period, giving minimum-period retiming by search over candidate
  periods;
* *low-power* retiming ([29]): among the retimings meeting the period,
  locally minimize Σ activity(driver) · registers-on-edge — registers
  are pushed onto low-activity signals, where they also filter glitches.

``apply_retiming`` reconstructs a :class:`Network` with the moved
registers.  A register that keeps its place (same root signal, same
depth behind it) keeps the original latch's initial value, and two
latches there that start differently stay two registers; a register
moved across a gate starts at 0, so the retimed machine may start in a
state the original never reaches (the experiments measure steady-state
activity, where the transient is irrelevant — see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.logic.netlist import Network, Node

HOST = "__host__"          # retained alias: the host *source* vertex
HOST_SRC = "__host__"
HOST_SINK = "__host_sink__"


@dataclass
class Edge:
    tail: str
    head: str
    weight: int
    signal: str      # name of the driving signal in the source network


class RetimingGraph:
    """Retiming abstraction of a sequential network (unit gate delays)."""

    def __init__(self, net: Network):
        self.net = net
        # The environment is split into a source and a sink vertex so no
        # spurious combinational path runs PO -> host -> PI; both are
        # pinned to the same retiming lag (see feasible_retiming).
        self.vertices: List[str] = [HOST_SRC, HOST_SINK]
        self.delay: Dict[str, float] = {HOST_SRC: 0.0, HOST_SINK: 0.0}
        self.edges: List[Edge] = []
        self._build()

    def _resolve(self, signal: str) -> Tuple[str, int, str]:
        """Trace latch chains back: returns (driver_vertex, weight,
        root_signal)."""
        weight = 0
        name = signal
        while self.net.nodes[name].kind == "latch":
            latch = self.net.latch_for_output(name)
            if latch.enable is not None:
                raise ValueError(
                    "retiming does not support enable-gated latches")
            weight += 1
            name = latch.data
        node = self.net.nodes[name]
        if node.kind == "input":
            return HOST, weight, name
        return name, weight, name

    def _build(self) -> None:
        net = self.net
        for name, node in net.nodes.items():
            if node.is_source():
                continue
            self.vertices.append(name)
            self.delay[name] = 1.0
        for name, node in net.nodes.items():
            if node.is_source():
                continue
            for fi in node.fanins:
                tail, weight, signal = self._resolve(fi)
                self.edges.append(Edge(tail, name, weight, signal))
        for out in net.outputs:
            tail, weight, signal = self._resolve(out)
            if tail != HOST_SRC:
                self.edges.append(Edge(tail, HOST_SINK, weight, signal))

    # -- W and D matrices ---------------------------------------------------

    def wd_matrices(self) -> Tuple[Dict[Tuple[str, str], int],
                                   Dict[Tuple[str, str], float]]:
        """W(u,v) = min registers u→v; D(u,v) = max delay over
        register-minimal paths (Leiserson–Saxe Lemma 3)."""
        INF = float("inf")
        verts = self.vertices
        dist: Dict[Tuple[str, str], Tuple[float, float]] = {}
        for u in verts:
            for v in verts:
                dist[(u, v)] = (INF, INF)
            # Identity path: no edges, no accumulated tail delay (the
            # head's own delay is added when D is read out).
            dist[(u, u)] = (0.0, 0.0)
        for e in self.edges:
            key = (e.tail, e.head)
            cand = (float(e.weight), -self.delay[e.tail])
            if cand < dist[key]:
                dist[key] = cand
        for k in verts:
            for u in verts:
                duk = dist[(u, k)]
                if duk[0] == INF:
                    continue
                for v in verts:
                    dkv = dist[(k, v)]
                    if dkv[0] == INF:
                        continue
                    cand = (duk[0] + dkv[0], duk[1] + dkv[1])
                    if cand < dist[(u, v)]:
                        dist[(u, v)] = cand
        W: Dict[Tuple[str, str], int] = {}
        D: Dict[Tuple[str, str], float] = {}
        for (u, v), (w, negd) in dist.items():
            if w == INF:
                continue
            W[(u, v)] = int(w)
            D[(u, v)] = -negd + self.delay[v]
        return W, D

    def feasible_retiming(self, period: float,
                          W: Optional[Dict[Tuple[str, str], int]] = None,
                          D: Optional[Dict[Tuple[str, str], float]] = None
                          ) -> Optional[Dict[str, int]]:
        """Bellman–Ford solve of the period constraints; None if
        infeasible."""
        if W is None or D is None:
            W, D = self.wd_matrices()
        constraints: List[Tuple[str, str, int]] = []
        for e in self.edges:
            constraints.append((e.tail, e.head, e.weight))  # r(t)-r(h) <= w
        # Pin the environment: source and sink lag must match so every
        # input-to-output path keeps its total register count.
        constraints.append((HOST_SRC, HOST_SINK, 0))
        constraints.append((HOST_SINK, HOST_SRC, 0))
        for (u, v), d in D.items():
            if d > period:
                constraints.append((u, v, W[(u, v)] - 1))
        r = {v: 0 for v in self.vertices}
        for _ in range(len(self.vertices) + 1):
            changed = False
            for tail, head, bound in constraints:
                if r[tail] - r[head] > bound:
                    r[tail] = r[head] + bound
                    changed = True
            if not changed:
                break
        else:
            return None
        shift = r[HOST_SRC]
        return {v: r[v] - shift for v in self.vertices}

    def clock_period(self, r: Optional[Dict[str, int]] = None) -> float:
        """Max combinational path delay under retiming r (default 0)."""
        r = r or {v: 0 for v in self.vertices}
        # Longest zero-weight path under retimed weights.
        arr = {v: self.delay[v] for v in self.vertices}
        order = list(self.vertices)
        for _ in range(len(order)):
            changed = False
            for e in self.edges:
                w = e.weight + r[e.head] - r[e.tail]
                if w == 0:
                    cand = arr[e.tail] + self.delay[e.head]
                    if cand > arr[e.head]:
                        arr[e.head] = cand
                        changed = True
            if not changed:
                break
        return max(arr.values())

    def register_cost(self, r: Dict[str, int],
                      activity: Optional[Dict[str, float]] = None
                      ) -> float:
        """Σ over edges of (activity-weighted) retimed register count.

        Registers shared among a driver's fanouts are counted once per
        distinct (driver, depth); this matches the shared latch chains
        that ``apply_retiming`` builds.
        """
        per_driver: Dict[str, int] = {}
        for e in self.edges:
            w = e.weight + r[e.head] - r[e.tail]
            per_driver[e.signal] = max(per_driver.get(e.signal, 0), w)
        total = 0.0
        for signal, depth in per_driver.items():
            a = 1.0 if activity is None else activity.get(signal, 0.5)
            total += a * depth
        return total


def min_period_retiming(graph: RetimingGraph
                        ) -> Tuple[float, Dict[str, int]]:
    """Binary search over candidate periods (the distinct D values)."""
    W, D = graph.wd_matrices()
    candidates = sorted(set(D.values()))
    best: Optional[Tuple[float, Dict[str, int]]] = None
    lo, hi = 0, len(candidates) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        r = graph.feasible_retiming(candidates[mid], W, D)
        if r is not None:
            best = (candidates[mid], r)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise RuntimeError("no feasible retiming at any candidate period")
    return best


def low_power_retiming(graph: RetimingGraph, period: float,
                       activity: Dict[str, float],
                       max_passes: int = 20
                       ) -> Dict[str, int]:
    """Local search minimizing activity-weighted register count at a
    fixed period ([29])."""
    W, D = graph.wd_matrices()
    r = graph.feasible_retiming(period, W, D)
    if r is None:
        raise ValueError(f"period {period} is infeasible")

    def legal(rr: Dict[str, int]) -> bool:
        for e in graph.edges:
            if e.weight + rr[e.head] - rr[e.tail] < 0:
                return False
        return graph.clock_period(rr) <= period + 1e-9

    cost = graph.register_cost(r, activity)
    for _ in range(max_passes):
        improved = False
        for v in graph.vertices:
            if v == HOST:
                continue
            for delta in (+1, -1):
                trial = dict(r)
                trial[v] = r[v] + delta
                if not legal(trial):
                    continue
                c = graph.register_cost(trial, activity)
                if c < cost - 1e-12:
                    r, cost = trial, c
                    improved = True
        if not improved:
            break
    return r


def apply_retiming(net: Network, r: Dict[str, int],
                   name: Optional[str] = None) -> Network:
    """Reconstruct the network with registers placed per retiming ``r``.

    Edge (u, v) receives ``w(u,v) + r(v) − r(u)`` registers; latch
    chains are shared per driver and initial values.  The register k
    deep behind signal s takes the initial value of the original
    latches k deep behind s; where the original has no such latch (the
    register moved across a gate) it starts at 0.  Where those latches
    start differently, each reader's register takes the value of the
    latch k deep on the reader's own original chain (0 if that chain is
    shorter), and registers whose initial values differ at any depth
    stay apart.
    """
    graph = RetimingGraph(net)
    inits: Dict[Tuple[str, int], Set[int]] = {}
    for latch in net.latches:
        _tail, k, signal = graph._resolve(latch.output)
        inits.setdefault((signal, k), set()).add(latch.init)
    out = Network(name or net.name + "_retimed")
    for pi in net.inputs:
        out.add_input(pi)

    # Gate bodies (fanins patched below).
    for node in net.nodes.values():
        if node.is_source():
            continue
        new = Node(node.name, node.kind, node.gtype, list(node.fanins),
                   node.cover.copy() if node.cover is not None else None)
        new.attrs = dict(node.attrs)
        out.set_node(new)

    # Keyed with the original weight too: a reader of both s and a
    # delayed s has one edge per depth from the same driver.
    edge_regs: Dict[Tuple[str, str, str, int], int] = {}
    for e in graph.edges:
        w = e.weight + r[e.head] - r[e.tail]
        if w < 0:
            raise ValueError("illegal retiming (negative edge weight)")
        edge_regs[(e.tail, e.head, e.signal, e.weight)] = w

    def history(fi: str, w: int) -> Tuple[str, Tuple[int, ...]]:
        """The root signal behind the original signal ``fi`` and the
        initial values of the ``w`` registers its reader now reads it
        through, nearest the root first."""
        _tail, w0, signal = graph._resolve(fi)
        own: List[int] = []
        name = fi
        while len(own) < w0:
            latch = net.latch_for_output(name)
            own.append(latch.init)
            name = latch.data
        own.reverse()
        values = []
        for k in range(1, w + 1):
            seen = inits.get((signal, k), ())
            if len(seen) == 1:
                values.append(next(iter(seen)))
            else:
                values.append(own[k - 1] if seen and k <= w0 else 0)
        return signal, tuple(values)

    chain: Dict[Tuple[str, Tuple[int, ...]], str] = {}

    def delayed(signal: str, values: Tuple[int, ...]) -> str:
        if not values:
            return signal
        key = (signal, values)
        if key not in chain:
            prev = delayed(signal, values[:-1])
            reg = f"_rt_{signal}_{len(values)}"
            if reg in out.nodes:
                # Another register at this depth starts differently.
                reg = out.fresh_name(reg + "_")
            out.add_latch(prev, reg, init=values[-1])
            chain[key] = reg
        return chain[key]

    # Patch fanins: reader v reading original signal fi (which resolved
    # to root signal s with weight w0) now reads s through w_r registers.
    for node in list(out.nodes.values()):
        if node.is_source() or node.kind == "latch":
            continue
        new_fanins = []
        for fi in node.fanins:
            tail, w0, signal = graph._resolve(fi)
            w = edge_regs[(tail, node.name, signal, w0)]
            new_fanins.append(delayed(*history(fi, w)))
        out.set_fanins(node.name, new_fanins)

    for outp in net.outputs:
        tail, w0, signal = graph._resolve(outp)
        if tail == HOST:
            w = w0  # PI feeding a PO directly: keep original depth
        else:
            w = edge_regs.get((tail, HOST_SINK, signal, w0), 0)
        out.set_output(delayed(*history(outp, w)))
    out.check()
    return out
