"""Slack-driven transistor sizing (Section II-B; [42], [3]).

Each gate carries a size factor (``node.attrs["size"]``).  Upsizing a
gate speeds it up (its drive resistance falls) but raises the load it
presents to its fanins and the energy it switches.  Switched
capacitance never falls when a size grows, so the all-minimum sizing is
the power optimum whenever it meets the delay target, and the optimizer
returns it at once.  Otherwise it starts from the all-maximum sizing and
walks downhill in power: it repeatedly downsizes the gate with positive
slack whose shrink saves switched capacitance while keeping the circuit
at or under the delay constraint — the "reduce sizes until slack
becomes zero" loop the paper describes.

Timing is static: a gate's delay is ``INTRINSIC_DELAY + DRIVE_PER_LOAD ·
load / size``, where the load sums its readers' size-scaled pin caps and
any primary-output or latch pin it drives.  Timing endpoints are the
primary outputs and every latch's data and enable nets.  Every analysis
reads the network's reader index, and the greedy walk keeps its
timing and power state incremental, so one move costs work in the part
of the circuit it changes.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.netlist import Network
from repro.power.model import PowerParameters


#: Default delay-model constants for unmapped gates.
INTRINSIC_DELAY = 0.5
DRIVE_PER_LOAD = 0.1

_INF = float("inf")


def _gate_delay(load: float, size: float) -> float:
    return INTRINSIC_DELAY + DRIVE_PER_LOAD * load / size


class _Timing:
    """Static-timing view of a network whose structure stays fixed.

    ``readers[n]`` is the network's reader index entry for ``n``
    (``Network.readers``), and a load is summed in the power model's
    order, so every float is the same whichever analysis asks.
    """

    def __init__(self, net: Network, params: PowerParameters):
        nodes = net.nodes
        self.net = net
        self.nodes = nodes
        self.pin = params.pin_cap_units
        self.output_load = params.output_load_units
        self.sources = {n for n, node in nodes.items() if node.is_source()}
        self.unique_fanins = {n: list(dict.fromkeys(node.fanins))
                              for n, node in nodes.items()}
        self.readers = {n: net.readers(n) for n in nodes}
        self.po = set(net.outputs)
        self.sinks = list(dict.fromkeys(
            list(net.outputs) + [l.data for l in net.latches]
            + [l.enable for l in net.latches if l.enable is not None]))
        self.sink_set = set(self.sinks)

    def load(self, name: str, sizes: Dict[str, float]) -> float:
        """External load capacitance seen by a node (pin caps scale
        with the reader's size)."""
        load = 0.0
        latches = 0
        pin = self.pin
        sources = self.sources
        for reader, times in self.readers[name].items():
            if reader in sources:
                latches += 1
            else:
                load += pin * sizes.get(reader, 1.0) * times
        if name in self.po:
            load += self.output_load
        for _ in range(latches):
            load += pin
        return load

    def delays(self, sizes: Dict[str, float]) -> Dict[str, float]:
        return {name: 0.0 if name in self.sources else
                _gate_delay(self.load(name, sizes), sizes.get(name, 1.0))
                for name in self.nodes}

    def arrivals(self, delays: Dict[str, float]) -> Dict[str, float]:
        arr: Dict[str, float] = {}
        for name in self.net.topo_order():
            if name in self.sources:
                arr[name] = 0.0
            else:
                arr[name] = delays[name] + max(
                    (arr[fi] for fi in self.nodes[name].fanins),
                    default=0.0)
        return arr

    def required_at(self, name: str, req: Dict[str, float],
                    delays: Dict[str, float], target: float) -> float:
        """Required time of one node from its readers' (``min`` is
        exact, so any order of readers gives the same float)."""
        r = min(_INF, target) if name in self.sink_set else _INF
        for reader in self.readers[name]:
            if reader not in self.sources:
                v = req[reader] - delays[reader]
                if v < r:
                    r = v
        return r

    def required(self, delays: Dict[str, float],
                 target: float) -> Dict[str, float]:
        req: Dict[str, float] = {}
        for name in reversed(self.net.topo_order()):
            req[name] = self.required_at(name, req, delays, target)
        return req


def critical_path_delay(net: Network,
                        sizes: Optional[Dict[str, float]] = None,
                        params: Optional[PowerParameters] = None) -> float:
    params = params or PowerParameters()
    sizes = sizes if sizes is not None else \
        {n: float(net.nodes[n].attrs.get("size", 1.0)) for n in net.nodes}
    t = _Timing(net, params)
    arr = t.arrivals(t.delays(sizes))
    return max((arr[s] for s in t.sinks), default=0.0)


def slacks(net: Network, sizes: Dict[str, float], target: float,
           params: PowerParameters) -> Dict[str, float]:
    """Per-node slack against a required arrival time at every timing
    endpoint (primary outputs, latch data and latch enables)."""
    t = _Timing(net, params)
    delays = t.delays(sizes)
    arr = t.arrivals(delays)
    req = t.required(delays, target)
    return {name: req[name] - arr[name] for name in net.nodes}


def switched_capacitance(net: Network, sizes: Dict[str, float],
                         activity: Dict[str, float],
                         params: PowerParameters) -> float:
    """Σ activity·C with size-scaled capacitances (the power objective)."""
    t = _Timing(net, params)
    total = 0.0
    for name, node in net.nodes.items():
        self_cap = params.self_cap_per_transistor * \
            node.num_transistors() * sizes.get(name, 1.0)
        cap = self_cap + t.load(name, sizes)
        total += cap * activity.get(name, 0.0)
    return total


@dataclass
class _Move:
    """A feasible, power-saving trial downsize and what it changes."""

    name: str
    size: float
    loads: Dict[str, float]
    delays: Dict[str, float]
    arrivals: Dict[str, float]
    terms: Dict[str, float]


class _Walk:
    """The greedy walk's timing and power state, kept current per move.

    The walk runs only when the all-minimum sizing misses the target.
    Holds every node's load, delay, arrival, required time, slack and
    power term (``activity · (self cap + load)``, the summand of
    :func:`switched_capacitance`).  A trial re-times only the fanout
    cone of the nodes whose delay it changes and stops where an arrival
    is unchanged; a commit re-derives required times backwards through
    the fanin cones of those nodes.  Every value is computed by the
    same formula, from the same floats, as a from-scratch analysis.
    ``sizes`` is the walk's own and is updated in place on commit.
    """

    def __init__(self, net: Network, sizes: Dict[str, float],
                 activity: Dict[str, float], params: PowerParameters,
                 target: float):
        t = _Timing(net, params)
        self.t = t
        self.order = net.topo_order()
        self.pos = {name: i for i, name in enumerate(self.order)}
        self.sizes = sizes
        self.target = target
        self.act = {n: activity.get(n, 0.0) for n in net.nodes}
        self.unit_cap = {n: params.self_cap_per_transistor *
                         node.num_transistors()
                         for n, node in net.nodes.items()}
        self.load = {n: t.load(n, sizes) for n in net.nodes}
        self.delay = t.delays(sizes)
        self.arr = t.arrivals(self.delay)
        self.req = t.required(self.delay, target)
        self.slack = {n: self.req[n] - self.arr[n] for n in net.nodes}
        self.term = {n: self._term(n, sizes.get(n, 1.0), self.load[n])
                     for n in net.nodes}
        # Recursive summation of the power terms errs by at most
        # (n - 1)·eps·Σ|term| (Higham, Accuracy and Stability, §4.2).
        # Terms only shrink as sizes fall, so a local saving above
        # twice that bound (with margin for its own rounding) orders
        # the two whole-network sums as switched_capacitance forms
        # them; closer calls compare those sums directly.
        scale = 0.0
        for v in self.term.values():
            scale += abs(v)
        self.tol = 4.0 * (len(net.nodes) + 8) * sys.float_info.epsilon \
            * scale
        # Endpoints already past the target: a trial is feasible only
        # if it brings each of them back.  Without endpoints the
        # critical delay is 0.0, so a negative target admits no move.
        self.late = {s for s in t.sinks if not self.arr[s] <= target}
        self.blocked = not t.sinks and not 0.0 <= target

    def _term(self, name: str, size: float, load: float) -> float:
        return (self.unit_cap[name] * size + load) * self.act[name]

    def _total(self, terms: Dict[str, float]) -> float:
        total = 0.0
        for name, v in self.term.items():
            total += terms.get(name, v)
        return total

    def _saves_power(self, terms: Dict[str, float]) -> bool:
        """``switched_capacitance(trial) < switched_capacitance(now)``,
        decided from the changed terms alone when the bound allows."""
        old = self.term
        saving = 0.0
        for name, v in terms.items():
            saving += old[name] - v
        if saving > self.tol:
            return True
        if all(v == old[name] for name, v in terms.items()):
            return False
        return self._total(terms) < self._total({})

    def try_downsize(self, name: str, size: float) -> Optional[_Move]:
        """The move ``name -> size`` if it keeps every endpoint within
        the target and saves switched capacitance, else ``None``."""
        t = self.t
        sizes = self.sizes
        old_size = sizes[name]
        sizes[name] = size
        loads = {f: t.load(f, sizes) for f in t.unique_fanins[name]}
        sizes[name] = old_size
        terms = {name: self._term(name, size, self.load[name])}
        for f, load in loads.items():
            terms[f] = self._term(f, sizes.get(f, 1.0), load)
        if not self._saves_power(terms):
            return None
        delays = {name: _gate_delay(self.load[name], size)}
        for f, load in loads.items():
            if f not in t.sources:
                delays[f] = _gate_delay(load, sizes[f])
        arrivals = self._retime(delays)
        if arrivals is None:
            return None
        return _Move(name, size, loads, delays, arrivals, terms)

    def _retime(self, delays: Dict[str, float]
                ) -> Optional[Dict[str, float]]:
        """Arrival times that change under ``delays``, or ``None`` when
        some endpoint would miss the target."""
        if self.blocked:
            return None
        t = self.t
        arr = self.arr
        order, pos, sources = self.order, self.pos, t.sources
        heap = [pos[n] for n in delays]
        heapq.heapify(heap)
        queued = set(delays)
        new: Dict[str, float] = {}
        while heap:
            n = order[heapq.heappop(heap)]
            d = delays[n] if n in delays else self.delay[n]
            a = d + max([new[fi] if fi in new else arr[fi]
                         for fi in t.nodes[n].fanins], default=0.0)
            if a == arr[n]:
                continue
            new[n] = a
            if n in t.sink_set and not a <= self.target:
                return None
            for reader in t.readers[n]:
                if reader not in queued and reader not in sources:
                    queued.add(reader)
                    heapq.heappush(heap, pos[reader])
        if any(s not in new for s in self.late):
            return None
        return new

    def commit(self, move: _Move) -> List[str]:
        """Apply ``move``; return the moved node and every node whose
        slack changed."""
        t = self.t
        self.sizes[move.name] = move.size
        self.load.update(move.loads)
        self.delay.update(move.delays)
        self.term.update(move.terms)
        self.arr.update(move.arrivals)
        self.late.difference_update(move.arrivals)
        touched = set(move.arrivals)
        # A node's required time reads its readers' delays: re-derive
        # it for the fanins of every node whose delay moved, then
        # through the fanin cones while it keeps changing.
        req, pos, order = self.req, self.pos, self.order
        seeds = {f for n in move.delays for f in t.unique_fanins[n]}
        heap = [-pos[n] for n in seeds]
        heapq.heapify(heap)
        while heap:
            n = order[-heapq.heappop(heap)]
            r = t.required_at(n, req, self.delay, self.target)
            if r == req[n]:
                continue
            req[n] = r
            touched.add(n)
            for f in t.unique_fanins[n]:
                if f not in seeds:
                    seeds.add(f)
                    heapq.heappush(heap, -pos[f])
        changed = [move.name]
        for n in touched:
            s = req[n] - self.arr[n]
            if s != self.slack[n]:
                self.slack[n] = s
                changed.append(n)
        return changed


def _walk_down(net: Network, sizes: Dict[str, float],
               ordered: List[float], activity: Dict[str, float],
               params: PowerParameters, target: float) -> int:
    """The greedy downhill walk from ``sizes`` (updated in place);
    returns the number of one-step downsizes it committed."""
    walk = _Walk(net, sizes, activity, params, target)
    index = {name: i for i, name in enumerate(net.nodes)}
    version = dict.fromkeys(sizes, 0)
    # Candidates keyed (-slack, node index); an entry is live while its
    # version is the node's, and each node has at most one live entry.
    heap: List[Tuple[float, int, int, str]] = []

    def push(name: str) -> None:
        version[name] += 1
        s = walk.slack[name]
        if s > 0 and sizes[name] > ordered[0]:
            heapq.heappush(heap, (-s, index[name], version[name], name))

    for name in sizes:
        push(name)
    moves = 0
    while True:
        tried = []
        move = None
        while heap:
            entry = heapq.heappop(heap)
            name = entry[3]
            if entry[2] != version[name]:
                continue
            tried.append(entry)
            idx = ordered.index(sizes[name])
            move = walk.try_downsize(name, float(ordered[idx - 1]))
            if move is not None:
                break
        if move is None:
            break
        for entry in tried:
            heapq.heappush(heap, entry)
        for name in walk.commit(move):
            if name in version:
                push(name)
        moves += 1
    if slacks(net, sizes, target, params) != walk.slack:
        raise RuntimeError("incremental slacks diverged from full STA")
    return moves


@dataclass
class SizingResult:
    """Outcome of the sizing optimization."""

    sizes: Dict[str, float]
    delay_target: float
    delay_before: float
    delay_after: float
    power_before: float        # switched capacitance at initial sizing
    power_after: float
    moves: int = 0

    @property
    def power_saving(self) -> float:
        if self.power_before == 0.0:
            return 0.0
        return 1.0 - self.power_after / self.power_before


def size_for_power(net: Network,
                   activity: Dict[str, float],
                   delay_target: Optional[float] = None,
                   allowed_sizes: Sequence[float] = (1.0, 2.0, 4.0),
                   params: Optional[PowerParameters] = None,
                   apply: bool = True) -> SizingResult:
    """Greedy slack-recycling downsizer.

    The target is ``delay_target`` (default: the all-max-size delay +
    5%).  When the all-minimum sizing meets it, that sizing is the power
    optimum (no size increase lowers switched capacitance) and is
    returned without a walk.  Otherwise the walk begins at the
    largest-size start, every gate at the largest allowed size, and
    repeatedly takes a downsizing move that saves power and keeps
    the critical delay within the target.  Each round tries the gates
    with positive slack, largest slack first (ties in ``net.nodes``
    order), one size step down, and commits the first move that
    passes.  ``moves`` counts one-step downsizes from the all-max
    start, so the all-minimum result reports every step of every gate.
    When ``apply`` is set the final sizes are written to node attrs.
    ``allowed_sizes`` must be non-empty and positive (``ValueError``
    otherwise).

    ``activity`` maps nodes to switching activity; sizing moves never
    change any node's logic function, so one estimate serves the whole
    downhill walk.
    """
    if not allowed_sizes:
        raise ValueError("allowed_sizes is empty")
    for s in allowed_sizes:
        if not s > 0:
            raise ValueError(f"allowed size {s!r} is not positive")
    params = params or PowerParameters()
    ordered = sorted(allowed_sizes)
    sizes = {name: float(ordered[-1])
             for name, node in net.nodes.items() if not node.is_source()}
    delay_before = critical_path_delay(net, sizes, params)
    target = delay_target if delay_target is not None \
        else delay_before * 1.05
    power_before = switched_capacitance(net, sizes, activity, params)

    # No size increase lowers switched capacitance, so the all-minimum
    # sizing is the power optimum whenever it meets the target.
    ones = {name: float(ordered[0]) for name in sizes}
    delay_after = critical_path_delay(net, ones, params)
    if delay_after <= target:
        sizes = ones
        moves = (len(set(ordered)) - 1) * len(sizes)
    else:
        moves = _walk_down(net, sizes, ordered, activity, params, target)
        delay_after = critical_path_delay(net, sizes, params)
    power_after = switched_capacitance(net, sizes, activity, params)
    if apply:
        for name, s in sizes.items():
            net.nodes[name].attrs["size"] = s
    return SizingResult(sizes=sizes, delay_target=target,
                        delay_before=delay_before, delay_after=delay_after,
                        power_before=power_before, power_after=power_after,
                        moves=moves)
