"""Minimal BLIF reader/writer.

Supports ``.model``, ``.inputs``, ``.outputs``, ``.names`` (SOP tables with
single-output cover rows) and ``.latch`` (with optional initial value).
This is the interchange format for user-supplied netlists, standing in for
the MCNC benchmark distribution.
"""

from __future__ import annotations

import io
from typing import Dict, List, TextIO, Tuple, Union

from repro.logic.cube import Cube
from repro.logic.netlist import NetlistError, Network
from repro.logic.sop import Cover


class BlifError(NetlistError):
    """Malformed BLIF input; messages carry 1-based line numbers."""


def _logical_lines(stream: TextIO) -> List[Tuple[int, List[str]]]:
    """Tokenised logical lines as ``(first_physical_lineno, tokens)``."""
    lines: List[Tuple[int, List[str]]] = []
    pending = ""
    pending_at = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.endswith("\\"):
            if not pending:
                pending_at = lineno
            pending += line[:-1] + " "
            continue
        start = pending_at if pending else lineno
        full = pending + line
        pending = ""
        lines.append((start, full.split()))
    if pending.strip():
        lines.append((pending_at, pending.split()))
    return lines


def read_blif(source: Union[str, TextIO],
              check: bool = True) -> Network:
    """Parse BLIF from a string or file-like object.

    With ``check=True`` (the default) the result is validated —
    undefined fanins, latch references to missing nets and structural
    problems raise :class:`BlifError`/:class:`NetlistError` naming the
    offending line.  ``check=False`` returns the network as written,
    so broken inputs can still be loaded for linting.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    tokens = _logical_lines(source)
    net = Network()
    i = 0
    pending_outputs: List[str] = []
    #: reader name -> (lineno, referenced net, role) for late checking
    refs: List[Tuple[int, str, str, str]] = []
    def_lines: Dict[str, int] = {}

    def define(lineno: int, name: str) -> None:
        if name in def_lines:
            raise BlifError(
                f"line {lineno}: {name!r} already defined at line "
                f"{def_lines[name]}")
        def_lines[name] = lineno

    while i < len(tokens):
        lineno, tok = tokens[i]
        key = tok[0]
        if key == ".model":
            net.name = tok[1] if len(tok) > 1 else "top"
            i += 1
        elif key == ".inputs":
            for name in tok[1:]:
                define(lineno, name)
                net.add_input(name)
            i += 1
        elif key == ".outputs":
            pending_outputs.extend(tok[1:])
            i += 1
        elif key == ".latch":
            if len(tok) < 3:
                raise BlifError(
                    f"line {lineno}: .latch needs input and output")
            data, out = tok[1], tok[2]
            init = 0
            if len(tok) >= 4 and tok[-1] in ("0", "1", "2", "3"):
                init = 1 if tok[-1] == "1" else 0
            define(lineno, out)
            net.add_latch(data, out, init=init)
            refs.append((lineno, out, data, "latch data"))
            i += 1
        elif key == ".names":
            signals = tok[1:]
            if not signals:
                raise BlifError(
                    f"line {lineno}: .names needs at least an output")
            out = signals[-1]
            fanins = signals[:-1]
            rows: List[Cube] = []
            head_line = lineno
            i += 1
            is_const1 = False
            while i < len(tokens) and \
                    not tokens[i][1][0].startswith("."):
                row_line, row = tokens[i]
                if len(fanins) == 0:
                    if row[0] == "1":
                        is_const1 = True
                elif len(row) != 2:
                    raise BlifError(
                        f"line {row_line}: bad cover row "
                        f"{' '.join(row)!r}")
                else:
                    pattern, value = row
                    if value != "1":
                        raise BlifError(
                            f"line {row_line}: only ON-set covers "
                            f"are supported")
                    if len(pattern) != len(fanins):
                        raise BlifError(
                            f"line {row_line}: cover row width "
                            f"{len(pattern)} != {len(fanins)} fanins")
                    rows.append(Cube.from_string(pattern))
                i += 1
            define(head_line, out)
            if not fanins:
                cover = Cover.one(0) if is_const1 else Cover.zero(0)
                net.add_sop(out, [], cover)
            else:
                net.add_sop(out, fanins, Cover(len(fanins), rows))
                for fi in fanins:
                    refs.append((head_line, out, fi, "fanin"))
        elif key == ".end":
            i += 1
        else:
            raise BlifError(
                f"line {lineno}: unsupported BLIF construct {key!r}")
    for out in pending_outputs:
        net.set_output(out)
    if check:
        for lineno, reader, ref, role in refs:
            if ref not in net.nodes:
                raise BlifError(
                    f"line {lineno}: {reader!r} reads undefined net "
                    f"{ref!r} as {role}")
        for out in pending_outputs:
            if out not in net.nodes:
                raise BlifError(
                    f"output {out!r} is never defined")
        net.check()
    return net


def write_blif(net: Network) -> str:
    """Serialise a network to BLIF text (gates become .names tables)."""
    from repro.logic.transform import node_cover  # local import: no cycle

    out = [f".model {net.name}"]
    if net.inputs:
        out.append(".inputs " + " ".join(net.inputs))
    if net.outputs:
        out.append(".outputs " + " ".join(net.outputs))
    for latch in net.latches:
        out.append(f".latch {latch.data} {latch.output} {latch.init}")
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            continue
        cover = node_cover(node)
        out.append(".names " + " ".join((*node.fanins, name)))
        if not node.fanins:
            if cover.is_tautology():
                out.append("1")
        else:
            for cube in cover:
                out.append(cube.to_string() + " 1")
    out.append(".end")
    return "\n".join(out) + "\n"
