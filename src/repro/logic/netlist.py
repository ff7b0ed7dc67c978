"""SIS-style Boolean network: the central netlist data structure.

A :class:`Network` is a DAG of named nodes.  Each node is one of:

* a primary input (``kind == "input"``),
* a latch output (``kind == "latch"``; the latch itself records its data
  input, initial value and optional clock-enable),
* a primitive gate (``kind == "gate"``; a :class:`~repro.logic.gates.GateType`
  over an ordered fanin list),
* an SOP node (``kind == "sop"``; a :class:`~repro.logic.sop.Cover` whose
  variable *i* is the node's *i*-th fanin) — the technology-independent
  representation used by the multilevel optimizations.

Primary outputs are a list of node names.  Combinational evaluation is
bit-parallel (Python ints as pattern vectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.logic.gates import GateType, eval_gate, gate_arity_ok, \
    gate_transistors
from repro.logic.sop import Cover


class NetlistError(Exception):
    """Structural error in a network."""


@dataclass
class Latch:
    """An edge-triggered register.

    ``enable`` (if set) names a node gating the clock: when the enable
    evaluates to 0 the latch holds its value (used by the gated-clock and
    precomputation optimizations).
    """

    data: str
    output: str
    init: int = 0
    enable: Optional[str] = None


class Node:
    """One vertex of a Boolean network."""

    __slots__ = ("name", "kind", "gtype", "fanins", "cover", "attrs")

    def __init__(self, name: str, kind: str,
                 gtype: Optional[GateType] = None,
                 fanins: Optional[List[str]] = None,
                 cover: Optional[Cover] = None):
        self.name = name
        self.kind = kind
        self.gtype = gtype
        self.fanins: List[str] = fanins or []
        self.cover = cover
        #: free-form per-node attributes (cell binding, transistor size, ...)
        self.attrs: Dict[str, object] = {}

    def is_source(self) -> bool:
        return self.kind in ("input", "latch")

    def num_transistors(self) -> int:
        """Transistor-count proxy for unmapped area/capacitance."""
        if self.kind == "gate":
            assert self.gtype is not None
            return gate_transistors(self.gtype, len(self.fanins))
        if self.kind == "sop":
            assert self.cover is not None
            # One transistor pair per literal plus output stage.
            return 2 * self.cover.num_literals() + 2
        return 0

    def __repr__(self) -> str:
        if self.kind == "gate":
            return f"Node({self.name}={self.gtype.value}({', '.join(self.fanins)}))"
        if self.kind == "sop":
            return f"Node({self.name}=SOP({', '.join(self.fanins)}))"
        return f"Node({self.name}:{self.kind})"


class Network:
    """A combinational / sequential Boolean network."""

    def __init__(self, name: str = "top"):
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.latches: List[Latch] = []
        self._topo_cache: Optional[List[str]] = None
        self._fanout_cache: Optional[Dict[str, List[str]]] = None
        #: compiled evaluation programs (repro.sim.compiled /
        #: repro.sim.timed); opaque here to avoid a layering cycle.
        #: Cleared by every structural mutation hook and re-validated
        #: against a structural fingerprint on use, so stale programs
        #: are never evaluated.
        self._compiled: Optional[object] = None
        self._timed: Optional[object] = None

    # -- construction ---------------------------------------------------

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._fanout_cache = None
        self._compiled = None
        self._timed = None

    def _check_new(self, name: str) -> None:
        if name in self.nodes:
            raise NetlistError(f"node {name!r} already exists")

    def add_input(self, name: str) -> str:
        self._check_new(name)
        self.nodes[name] = Node(name, "input")
        self.inputs.append(name)
        self._invalidate()
        return name

    def add_inputs(self, names: Iterable[str]) -> List[str]:
        return [self.add_input(n) for n in names]

    def add_gate(self, name: str, gtype: GateType,
                 fanins: Sequence[str]) -> str:
        self._check_new(name)
        if not gate_arity_ok(gtype, len(fanins)):
            raise NetlistError(
                f"gate {name!r}: {gtype.value} cannot take "
                f"{len(fanins)} inputs")
        self.nodes[name] = Node(name, "gate", gtype=gtype,
                                fanins=list(fanins))
        self._invalidate()
        return name

    def add_sop(self, name: str, fanins: Sequence[str], cover: Cover) -> str:
        self._check_new(name)
        if cover.num_vars != len(fanins):
            raise NetlistError(
                f"sop {name!r}: cover arity {cover.num_vars} != "
                f"{len(fanins)} fanins")
        self.nodes[name] = Node(name, "sop", fanins=list(fanins),
                                cover=cover)
        self._invalidate()
        return name

    def add_latch(self, data: str, output: str, init: int = 0,
                  enable: Optional[str] = None) -> Latch:
        self._check_new(output)
        self.nodes[output] = Node(output, "latch")
        latch = Latch(data=data, output=output, init=init, enable=enable)
        self.latches.append(latch)
        self._invalidate()
        return latch

    def set_output(self, name: str) -> None:
        if name not in self.outputs:
            self.outputs.append(name)

    def set_outputs(self, names: Iterable[str]) -> None:
        for n in names:
            self.set_output(n)

    # -- queries ----------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise NetlistError(f"no node named {name!r}") from None

    def gate_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if not n.is_source()]

    def latch_for_output(self, name: str) -> Latch:
        for latch in self.latches:
            if latch.output == name:
                return latch
        raise NetlistError(f"no latch with output {name!r}")

    def fanouts(self) -> Dict[str, List[str]]:
        """Map node name -> names of nodes reading it (latch data counts).

        The map is cached until the next structural mutation (the
        event-driven simulator reads it per construction); treat the
        returned dict as read-only.
        """
        if self._fanout_cache is not None:
            return self._fanout_cache
        fo: Dict[str, List[str]] = {n: [] for n in self.nodes}
        for node in self.nodes.values():
            for fi in node.fanins:
                fo[fi].append(node.name)
        for latch in self.latches:
            fo[latch.data].append(latch.output)
            if latch.enable is not None:
                fo[latch.enable].append(latch.output)
        self._fanout_cache = fo
        return fo

    def fanout_count(self, name: str) -> int:
        count = 0
        for node in self.nodes.values():
            count += node.fanins.count(name)
        for latch in self.latches:
            count += int(latch.data == name)
            count += int(latch.enable == name)
        if name in self.outputs:
            count += 1
        return count

    def _cycle_error(self, through: str) -> NetlistError:
        """Build the cycle diagnostic for :meth:`topo_order`.

        Extracts one concrete cycle with the analyzer's SCC machinery
        so the error names the full path instead of a single node.
        """
        from repro.analysis.graph import cycle_path

        adj = {n.name: ([] if n.is_source() else
                        [fi for fi in n.fanins if fi in self.nodes])
               for n in self.nodes.values()}
        path = cycle_path(adj)
        if path is None:  # pragma: no cover - detection just saw one
            return NetlistError(
                f"combinational cycle through {through!r}")
        return NetlistError(
            "combinational cycle: " + " -> ".join(path))

    def topo_order(self) -> List[str]:
        """Topological order of all nodes (sources first).

        Raises :class:`NetlistError` naming the offending cycle path
        (``combinational cycle: a -> b -> a``) on cyclic networks, and
        the missing node on dangling references.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        order: List[str] = []
        state: Dict[str, int] = {}  # 0=unseen 1=visiting 2=done

        for root in self.nodes:
            if state.get(root, 0) == 2:
                continue
            stack: List[Tuple[str, int]] = [(root, 0)]
            while stack:
                name, idx = stack.pop()
                if state.get(name, 0) == 2:
                    continue
                node = self.nodes.get(name)
                if node is None:
                    raise NetlistError(f"dangling reference to {name!r}")
                if node.is_source():
                    state[name] = 2
                    order.append(name)
                    continue
                if idx == 0:
                    if state.get(name, 0) == 1:
                        pass
                    state[name] = 1
                if idx < len(node.fanins):
                    stack.append((name, idx + 1))
                    fi = node.fanins[idx]
                    st = state.get(fi, 0)
                    if st == 1:
                        raise self._cycle_error(fi)
                    if st == 0:
                        stack.append((fi, 0))
                else:
                    state[name] = 2
                    order.append(name)
        self._topo_cache = order
        return order

    def levels(self, delays: Optional[Dict[str, float]] = None
               ) -> Dict[str, float]:
        """Arrival time of each node (unit delay per gate by default)."""
        arr: Dict[str, float] = {}
        for name in self.topo_order():
            node = self.nodes[name]
            if node.is_source():
                arr[name] = 0.0
            else:
                d = 1.0 if delays is None else delays.get(name, 1.0)
                arr[name] = d + max((arr[fi] for fi in node.fanins),
                                    default=0.0)
        return arr

    def depth(self) -> float:
        arr = self.levels()
        return max((arr[o] for o in self.outputs), default=0.0)

    def num_gates(self) -> int:
        return sum(1 for n in self.nodes.values() if not n.is_source())

    def num_transistors(self) -> int:
        return sum(n.num_transistors() for n in self.nodes.values())

    def num_literals(self) -> int:
        total = 0
        for n in self.nodes.values():
            if n.kind == "sop":
                total += n.cover.num_literals()
            elif n.kind == "gate":
                total += len(n.fanins)
        return total

    def stats(self) -> Dict[str, float]:
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "latches": len(self.latches),
            "gates": self.num_gates(),
            "transistors": self.num_transistors(),
            "depth": self.depth(),
        }

    # -- evaluation ---------------------------------------------------------

    def evaluate_words(self, input_words: Dict[str, int], mask: int,
                       state_words: Optional[Dict[str, int]] = None
                       ) -> Dict[str, int]:
        """Bit-parallel combinational evaluation.

        ``input_words`` maps PI names to pattern words; ``state_words`` maps
        latch-output names to their current values (default: init values
        replicated).  Returns a word for every node.

        This interpreted walk is the reference the tests and
        ``bench_compiled_sim`` compare :mod:`repro.sim.compiled` against;
        no library module calls it.  Simulate through
        ``get_compiled(net).evaluate_words`` / ``.step`` instead.
        """
        values: Dict[str, int] = {}
        for name in self.topo_order():
            node = self.nodes[name]
            if node.kind == "input":
                try:
                    values[name] = input_words[name] & mask
                except KeyError:
                    raise NetlistError(f"missing input value for {name!r}") \
                        from None
            elif node.kind == "latch":
                if state_words is not None and name in state_words:
                    values[name] = state_words[name] & mask
                else:
                    latch = self.latch_for_output(name)
                    values[name] = mask if latch.init else 0
            elif node.kind == "gate":
                ins = [values[fi] for fi in node.fanins]
                values[name] = eval_gate(node.gtype, ins, mask)
            else:  # sop
                ins = [values[fi] for fi in node.fanins]
                values[name] = node.cover.evaluate_words(ins, mask)
        return values

    def evaluate(self, input_values: Dict[str, int],
                 state: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Scalar evaluation: every value is 0 or 1 (a reference, like
        :meth:`evaluate_words`)."""
        words = self.evaluate_words(input_values, 1, state)
        return {k: v & 1 for k, v in words.items()}

    def initial_state(self) -> Dict[str, int]:
        return {latch.output: latch.init for latch in self.latches}

    # -- structural editing ---------------------------------------------------

    def replace_fanin(self, node_name: str, old: str, new: str) -> None:
        node = self.node(node_name)
        if old not in node.fanins:
            raise NetlistError(f"{old!r} is not a fanin of {node_name!r}")
        node.fanins = [new if f == old else f for f in node.fanins]
        self._invalidate()

    def replace_everywhere(self, old: str, new: str) -> None:
        """Redirect every reader of ``old`` (fanins, latches, POs) to ``new``."""
        for node in self.nodes.values():
            if old in node.fanins:
                node.fanins = [new if f == old else f for f in node.fanins]
        for latch in self.latches:
            if latch.data == old:
                latch.data = new
            if latch.enable == old:
                latch.enable = new
        # Dedup while renaming: with both old and new already listed,
        # a plain rename would leave the output twice.
        renamed = [new if o == old else o for o in self.outputs]
        seen = set()
        self.outputs = [o for o in renamed
                        if not (o in seen or seen.add(o))]
        self._invalidate()

    def insert_buffer(self, reader: str, fanin: str,
                      buf_name: str) -> str:
        """Insert a BUF between ``fanin`` and one fanin slot of ``reader``."""
        self.add_gate(buf_name, GateType.BUF, [fanin])
        self.replace_fanin(reader, fanin, buf_name)
        return buf_name

    def remove_node(self, name: str) -> None:
        node = self.node(name)
        if self.fanout_count(name):
            raise NetlistError(f"cannot remove {name!r}: it has fanout")
        if node.kind == "input":
            self.inputs.remove(name)
        if node.kind == "latch":
            self.latches = [l for l in self.latches if l.output != name]
        del self.nodes[name]
        self._invalidate()

    def sweep(self) -> int:
        """Remove dangling gates (no path to an output or latch). Returns
        the number of nodes removed.

        Counts every node's readers once (fanin slots, latch data and
        enable pins, outputs), then removes unread gates from a
        worklist, releasing their fanins as it goes: O(N + E)."""
        nodes = self.nodes
        count = dict.fromkeys(nodes, 0)
        for node in nodes.values():
            for fi in node.fanins:
                if fi in count:
                    count[fi] += 1
        for latch in self.latches:
            for pin in (latch.data, latch.enable):
                if pin in count:
                    count[pin] += 1
        for out in set(self.outputs):
            if out in count:
                count[out] += 1
        work = [n for n, c in count.items()
                if c == 0 and not nodes[n].is_source()]
        removed = 0
        while work:
            for fi in nodes.pop(work.pop()).fanins:
                if fi in count:
                    count[fi] -= 1
                    if count[fi] == 0 and not nodes[fi].is_source():
                        work.append(fi)
            removed += 1
        self._invalidate()
        return removed

    def copy(self, name: Optional[str] = None) -> "Network":
        net = Network(name or self.name)
        net.inputs = list(self.inputs)
        net.outputs = list(self.outputs)
        net.latches = [Latch(l.data, l.output, l.init, l.enable)
                       for l in self.latches]
        for n in self.nodes.values():
            node = Node(n.name, n.kind, n.gtype, list(n.fanins),
                        n.cover.copy() if n.cover is not None else None)
            node.attrs = dict(n.attrs)
            net.nodes[n.name] = node
        return net

    def fresh_name(self, prefix: str = "n") -> str:
        i = len(self.nodes)
        while f"{prefix}{i}" in self.nodes:
            i += 1
        return f"{prefix}{i}"

    def check(self) -> None:
        """Validate structural invariants; raises NetlistError on failure."""
        for node in self.nodes.values():
            for fi in node.fanins:
                if fi not in self.nodes:
                    raise NetlistError(
                        f"node {node.name!r} reads missing node {fi!r}")
        for latch in self.latches:
            if latch.data not in self.nodes:
                raise NetlistError(
                    f"latch {latch.output!r} reads missing {latch.data!r}")
            if latch.enable is not None and latch.enable not in self.nodes:
                raise NetlistError(
                    f"latch {latch.output!r} enable missing")
            if latch.output not in self.nodes or \
                    self.nodes[latch.output].kind != "latch":
                raise NetlistError(
                    f"latch output {latch.output!r} malformed")
        for out in self.outputs:
            if out not in self.nodes:
                raise NetlistError(f"missing output node {out!r}")
        self.topo_order()  # raises on cycles / dangling refs

    def __repr__(self) -> str:
        return (f"Network({self.name!r}: {len(self.inputs)} in, "
                f"{len(self.outputs)} out, {len(self.latches)} latches, "
                f"{self.num_gates()} gates)")
