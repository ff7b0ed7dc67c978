"""Standard pass adapters for the flow engine.

Each adapter wraps one optimization entry point as a registered
:class:`repro.core.passes.Pass` so declarative flows (``repro flow
--spec``) and the built-in :func:`repro.core.flow.low_power_flow` can
run it under trial-copy/rollback semantics.  Importing this module
populates the registry.

Adapter contract: ``apply(trial, ctx, params)`` may mutate ``trial`` in
place (return ``None``) or return a replacement network; all simulation
inside an adapter must derive from ``ctx.num_vectors`` / ``ctx.seed``
so a flow is reproducible from its trace header.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.passes import Pass, PassContext, register_pass
from repro.library.cells import generic_library
from repro.logic.netlist import Network
from repro.power.activity import activity_from_simulation


@register_pass("dontcare")
def _dontcare(params: Dict[str, Any]) -> Pass:
    """Don't-care re-minimization (§II-B).  ``size_cap`` skips the pass
    (outcome ``skipped``, reason ``size-cap``) on larger networks
    instead of silently omitting it."""
    from repro.opt.logic.dontcare import dontcare_power_optimization

    size_cap = params.get("size_cap")

    def guard(net: Network, ctx: PassContext,
              p: Dict[str, Any]) -> Optional[str]:
        if size_cap is not None and net.num_gates() > int(size_cap):
            return "size-cap"
        return None

    def apply(net: Network, ctx: PassContext,
              p: Dict[str, Any]) -> None:
        dontcare_power_optimization(net, ctx.input_probs)

    return Pass(name="dontcare", apply=apply, params=params, guard=guard)


@register_pass("extract")
def _extract(params: Dict[str, Any]) -> Pass:
    """Power-aware kernel extraction (§II-C)."""
    from repro.opt.logic.kernels import extract_kernels

    def apply(net: Network, ctx: PassContext,
              p: Dict[str, Any]) -> None:
        extract_kernels(net, p.get("objective", "power"),
                        ctx.input_probs)

    return Pass(name="extract", apply=apply, params=params)


@register_pass("map")
def _map(params: Dict[str, Any]) -> Pass:
    """Power-driven technology mapping (§II-D)."""
    from repro.opt.logic.mapping import tech_map

    def apply(net: Network, ctx: PassContext,
              p: Dict[str, Any]) -> Network:
        library = ctx.library or generic_library()
        res = tech_map(net, library, p.get("objective", "power"),
                       seed=ctx.seed)
        return res.mapped

    return Pass(name="map", apply=apply, params=params)


@register_pass("size")
def _size(params: Dict[str, Any]) -> Pass:
    """Slack-recycling transistor sizing (§III-B): downsizing may only
    recycle slack, so the unsized design's critical delay is held."""
    from repro.opt.circuit.sizing import (critical_path_delay,
                                          size_for_power)

    def apply(net: Network, ctx: PassContext,
              p: Dict[str, Any]) -> None:
        activity, _ = activity_from_simulation(
            net, ctx.num_vectors, ctx.seed, ctx.input_probs)
        ones = {n: 1.0 for n in net.nodes}
        target = critical_path_delay(net, ones, ctx.params)
        size_for_power(net, activity, delay_target=target,
                       params=ctx.params)

    return Pass(name="size", apply=apply, params=params)


@register_pass("balance")
def _balance(params: Dict[str, Any]) -> Pass:
    """Path-balancing buffer insertion (§III-A.2)."""
    from repro.opt.logic.balance import balance_paths

    def apply(net: Network, ctx: PassContext,
              p: Dict[str, Any]) -> None:
        max_buffers = p.get("max_buffers")
        balance_paths(
            net, selective=bool(p.get("selective", False)),
            min_skew=float(p.get("min_skew", 1.0)),
            max_buffers=None if max_buffers is None
            else int(max_buffers),
            buffer_size=float(p.get("buffer_size", 0.25)))

    return Pass(name="balance", apply=apply, params=params)


@register_pass("reorder")
def _reorder(params: Dict[str, Any]) -> Pass:
    """Transistor stack reordering (§III-B): put the low-probability
    signal nearest the output to cut internal-node switching."""
    from repro.opt.circuit.reorder import reorder_network_stacks

    def apply(net: Network, ctx: PassContext,
              p: Dict[str, Any]) -> None:
        reorder_network_stacks(net, input_probs=ctx.input_probs,
                               num_vectors=ctx.num_vectors,
                               seed=ctx.seed)

    return Pass(name="reorder", apply=apply, params=params)


@register_pass("sweep")
def _sweep(params: Dict[str, Any]) -> Pass:
    """Remove dangling logic left behind by earlier passes."""

    def apply(net: Network, ctx: PassContext,
              p: Dict[str, Any]) -> None:
        net.sweep()

    return Pass(name="sweep", apply=apply, params=params)
