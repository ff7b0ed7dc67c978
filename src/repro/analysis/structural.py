"""Structural lint rules: is this network a legal netlist at all?

Every rule here converts what used to be an opaque downstream crash
(``topo_order`` failure, ``KeyError`` deep in a simulator) or a
silently wrong number into a sited diagnostic.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.diagnostics import (ERROR, INFO, WARNING,
                                        Diagnostic)
from repro.analysis.graph import cycle_path, nontrivial_sccs
from repro.analysis.linter import STRUCTURAL, RuleContext, rule
from repro.sim.event import check_delay


@rule(id="combinational-cycle", severity=ERROR, category=STRUCTURAL,
      description="combinational logic must be acyclic; each "
                  "non-trivial SCC is reported as a concrete cycle "
                  "path (latch outputs legally break cycles)",
      invariant=True)
def check_cycles(ctx: RuleContext) -> List[Diagnostic]:
    adj = ctx.adjacency()
    out: List[Diagnostic] = []
    for comp in nontrivial_sccs(adj):
        witness = cycle_path(adj, within=comp) or (comp + comp[:1])
        path = " -> ".join(witness)
        out.append(Diagnostic(
            rule="combinational-cycle", severity=ERROR,
            site=witness[0],
            message=f"combinational cycle: {path}",
            hint="break the loop with a latch or re-derive the "
                 "offending fanin",
            detail={"cycle": witness, "scc_size": len(comp)}))
    return out


@rule(id="undriven-net", severity=ERROR, category=STRUCTURAL,
      description="every fanin, latch data/enable and primary output "
                  "must reference a defined node",
      invariant=True)
def check_undriven(ctx: RuleContext) -> List[Diagnostic]:
    net = ctx.net
    out: List[Diagnostic] = []

    def diag(missing: str, reader: str, role: str) -> Diagnostic:
        return Diagnostic(
            rule="undriven-net", severity=ERROR, site=missing,
            message=f"net {missing!r} is read as {role} of "
                    f"{reader!r} but no node drives it",
            hint="add a driver or remove the reference",
            detail={"reader": reader, "role": role})

    for node in net.nodes.values():
        for fi in node.fanins:
            if fi not in net.nodes:
                out.append(diag(fi, node.name, "fanin"))
    for latch in net.latches:
        if latch.data not in net.nodes:
            out.append(diag(latch.data, latch.output, "latch data"))
        if latch.enable is not None and latch.enable not in net.nodes:
            out.append(diag(latch.enable, latch.output,
                            "latch enable"))
    for po in net.outputs:
        if po not in net.nodes:
            out.append(Diagnostic(
                rule="undriven-net", severity=ERROR, site=po,
                message=f"primary output {po!r} is not driven by any "
                        f"node",
                hint="drive the output or drop it from .outputs",
                detail={"reader": po, "role": "primary output"}))
    return out


@rule(id="dangling-node", severity=WARNING, category=STRUCTURAL,
      description="internal node with no readers and no output role "
                  "(dead logic that still burns power in estimates)",
      needs_complete=True)
def check_dangling(ctx: RuleContext) -> List[Diagnostic]:
    net = ctx.net
    out: List[Diagnostic] = []
    for node in net.nodes.values():
        if node.is_source() or net.is_output(node.name):
            continue
        if not net.readers(node.name):
            out.append(Diagnostic(
                rule="dangling-node", severity=WARNING,
                site=node.name,
                message=f"node {node.name!r} drives nothing and is "
                        f"not a primary output",
                hint="Network.sweep() removes dead nodes"))
    return out


@rule(id="unreachable-cone", severity=WARNING, category=STRUCTURAL,
      description="logic with fanout that still cannot reach any "
                  "primary output or live latch",
      needs_complete=True, needs_dag=True)
def check_unreachable(ctx: RuleContext) -> List[Diagnostic]:
    net = ctx.net
    # Live = transitive fanin of the outputs, where a latch's
    # data/enable cones only count once the latch output itself is
    # live (a dead register does not keep its cone alive).
    live: Set[str] = set()
    work: List[str] = [o for o in net.outputs if o in net.nodes]
    latch_by_output = {latch.output: latch for latch in net.latches}
    while work:
        name = work.pop()
        if name in live:
            continue
        live.add(name)
        node = net.nodes[name]
        work.extend(fi for fi in node.fanins if fi not in live)
        latch = latch_by_output.get(name)
        if latch is not None:
            if latch.data not in live:
                work.append(latch.data)
            if latch.enable is not None and latch.enable not in live:
                work.append(latch.enable)
    out: List[Diagnostic] = []
    for node in net.nodes.values():
        if node.name in live or node.kind == "input":
            continue
        if not net.readers(node.name):
            continue  # fanout-free dead nodes are dangling-node's
        out.append(Diagnostic(
            rule="unreachable-cone", severity=WARNING,
            site=node.name,
            message=f"node {node.name!r} has readers but no path to "
                    f"any primary output or live latch",
            hint="the whole cone is dead; sweep it or add an output"))
    return out


@rule(id="unused-input", severity=INFO, category=STRUCTURAL,
      description="primary input that nothing reads",
      needs_complete=True)
def check_unused_inputs(ctx: RuleContext) -> List[Diagnostic]:
    net = ctx.net
    out: List[Diagnostic] = []
    for name in net.inputs:
        if not net.readers(name) and not net.is_output(name):
            out.append(Diagnostic(
                rule="unused-input", severity=INFO, site=name,
                message=f"primary input {name!r} is never read"))
    return out


@rule(id="duplicate-latch", severity=ERROR, category=STRUCTURAL,
      description="latch records must be consistent: unique outputs, "
                  "each backed by a latch-kind node",
      invariant=True)
def check_latches(ctx: RuleContext) -> List[Diagnostic]:
    net = ctx.net
    out: List[Diagnostic] = []
    seen: Dict[str, int] = {}
    for latch in net.latches:
        seen[latch.output] = seen.get(latch.output, 0) + 1
    for name, count in seen.items():
        if count > 1:
            out.append(Diagnostic(
                rule="duplicate-latch", severity=ERROR, site=name,
                message=f"{count} latches drive output {name!r}",
                hint="merge or rename the shadowed registers",
                detail={"count": count}))
    for latch in net.latches:
        node = net.nodes.get(latch.output)
        if node is None:
            out.append(Diagnostic(
                rule="duplicate-latch", severity=ERROR,
                site=latch.output,
                message=f"latch output {latch.output!r} has no "
                        f"backing node"))
        elif node.kind != "latch":
            out.append(Diagnostic(
                rule="duplicate-latch", severity=ERROR,
                site=latch.output,
                message=f"latch output {latch.output!r} is shadowed "
                        f"by a {node.kind} node of the same name",
                hint="a combinational node must not reuse a latch "
                     "output name"))
    declared = {latch.output for latch in net.latches}
    for node in net.nodes.values():
        if node.kind == "latch" and node.name not in declared:
            out.append(Diagnostic(
                rule="duplicate-latch", severity=ERROR,
                site=node.name,
                message=f"latch-kind node {node.name!r} has no latch "
                        f"record (stale reference after an edit)"))
    return out


@rule(id="invalid-cover", severity=ERROR, category=STRUCTURAL,
      description="SOP covers must match their fanin arity and hold "
                  "well-formed cubes",
      invariant=True)
def check_covers(ctx: RuleContext) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for node in ctx.net.nodes.values():
        if node.kind != "sop":
            continue
        cover = node.cover
        if cover is None:
            out.append(Diagnostic(
                rule="invalid-cover", severity=ERROR, site=node.name,
                message=f"sop node {node.name!r} has no cover"))
            continue
        if cover.num_vars != len(node.fanins):
            out.append(Diagnostic(
                rule="invalid-cover", severity=ERROR, site=node.name,
                message=f"cover arity {cover.num_vars} != "
                        f"{len(node.fanins)} fanins"))
            continue
        for i, cube in enumerate(cover.cubes):
            if cube.num_vars != cover.num_vars:
                out.append(Diagnostic(
                    rule="invalid-cover", severity=ERROR,
                    site=node.name,
                    message=f"cube {i} arity {cube.num_vars} != "
                            f"cover arity {cover.num_vars}"))
            elif cube.value & ~cube.mask:
                out.append(Diagnostic(
                    rule="invalid-cover", severity=ERROR,
                    site=node.name,
                    message=f"cube {i} has polarity bits outside its "
                            f"care mask (contradictory literal "
                            f"encoding)"))
        if node.fanins and cover.is_empty():
            out.append(Diagnostic(
                rule="invalid-cover", severity=INFO, site=node.name,
                message=f"node {node.name!r} has fanins but an empty "
                        f"(constant-0) cover",
                hint="collapse to a fanin-free constant node"))
    return out


@rule(id="malformed-delay", severity=ERROR, category=STRUCTURAL,
      description="attrs['delay'] annotations must be finite "
                  "non-negative ints or floats (the timed engines "
                  "read them through the same check)",
      invariant=True)
def check_delays(ctx: RuleContext) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for node in ctx.net.nodes.values():
        if "delay" not in node.attrs:
            continue
        try:
            check_delay(node.name, node.attrs["delay"])
        except ValueError as exc:
            out.append(Diagnostic(
                rule="malformed-delay", severity=ERROR,
                site=node.name, message=str(exc),
                hint="the timed simulators require finite "
                     "non-negative delays"))
    return out


@rule(id="duplicate-output", severity=WARNING, category=STRUCTURAL,
      description="the primary-output list must not repeat names",
      invariant=False)
def check_duplicate_outputs(ctx: RuleContext) -> List[Diagnostic]:
    seen: Set[str] = set()
    out: List[Diagnostic] = []
    for name in ctx.net.outputs:
        if name in seen:
            out.append(Diagnostic(
                rule="duplicate-output", severity=WARNING, site=name,
                message=f"primary output {name!r} is listed more "
                        f"than once",
                hint="replace_everywhere deduplicates outputs now; "
                     "rebuild the list"))
        seen.add(name)
    return out
