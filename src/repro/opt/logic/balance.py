"""Path balancing by unit-delay buffer insertion (Section III-A.2).

Spurious transitions arise when the paths converging at a gate have
unequal delays.  Inserting unit-delay buffers on the early inputs
equalizes path lengths without increasing the critical delay, trading
buffer capacitance for glitch power — exactly the trade studied by the
transition-reduction multiplier of [25].

``balance_paths`` supports full balancing (every skew removed) and a
selective mode that only spends buffers where the expected glitch saving
exceeds the buffer's own switching cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.power.activity import activity_from_simulation

@dataclass
class BalanceResult:
    """Outcome of a balancing pass."""

    buffers_added: int
    skew_before: float      # sum of input-arrival skews over all gates
    skew_after: float
    depth_before: float
    depth_after: float


def _total_skew(net: Network) -> float:
    arr = net.levels()
    total = 0.0
    for node in net.nodes.values():
        if node.is_source() or len(node.fanins) < 2:
            continue
        times = [arr[fi] for fi in node.fanins]
        total += sum(max(times) - t for t in times)
    return total


def balance_paths(net: Network, selective: bool = False,
                  activity: Optional[Dict[str, float]] = None,
                  min_skew: float = 1.0,
                  max_buffers: Optional[int] = None,
                  buffer_size: float = 0.25) -> BalanceResult:
    """Insert unit-delay buffers to equalize converging path delays.

    In selective mode only fanin edges whose skew is at least
    ``min_skew`` *and* whose gate shows nonzero activity (a proxy for
    glitch exposure) are padded, and at most ``max_buffers`` buffers are
    spent, largest skews first.  Modifies ``net`` in place.

    ``buffer_size`` is the transistor-size factor given to the inserted
    buffers (default: minimum-size delay elements).  The paper's caveat
    — "the addition of buffers increases capacitance which may offset
    the reduction in switching activity" — is a real effect here: with
    full-size buffers (size 1.0) the capacitance overhead typically
    exceeds the glitch saving; with minimum-size delay buffers the
    trade depends on how expensive the protected logic is.
    """
    depth_before = net.depth()
    skew_before = _total_skew(net)
    if selective and activity is None:
        activity, _ = activity_from_simulation(net, num_vectors=512)

    arr = net.levels()
    # Collect (skew, gate, fanin, slot) work items from the original
    # arrival profile; insertion is done afterwards so arrival times are
    # consistent while deciding.
    items = []
    for node in list(net.nodes.values()):
        if node.is_source() or len(node.fanins) < 2:
            continue
        latest = max(arr[fi] for fi in node.fanins)
        for slot, fi in enumerate(node.fanins):
            skew = latest - arr[fi]
            if skew <= 0:
                continue
            if selective:
                if skew < min_skew:
                    continue
                if activity is not None and \
                        activity.get(node.name, 0.0) <= 0.0:
                    continue
            items.append((skew, node.name, fi, slot))
    items.sort(key=lambda it: -it[0])

    added = 0
    for skew, gate, fanin, slot in items:
        need = int(round(skew))
        if max_buffers is not None:
            need = min(need, max_buffers - added)
        if need <= 0:
            if max_buffers is not None:
                break
            continue
        src = fanin
        node = net.nodes[gate]
        # The fanin list may have shifted if this gate got earlier edits;
        # re-locate by slot where possible.
        if slot >= len(node.fanins):
            continue
        current = node.fanins[slot]
        if current != fanin and not current.startswith("_bal"):
            continue
        for _ in range(need):
            buf = net.fresh_name("_bal")
            net.add_gate(buf, GateType.BUF, [src])
            net.nodes[buf].attrs["size"] = buffer_size
            src = buf
            added += 1
        net.set_fanins(gate, node.fanins[:slot] + (src,) +
                       node.fanins[slot + 1:])
        if max_buffers is not None and added >= max_buffers:
            break
    return BalanceResult(buffers_added=added,
                         skew_before=skew_before,
                         skew_after=_total_skew(net),
                         depth_before=depth_before,
                         depth_after=net.depth())
