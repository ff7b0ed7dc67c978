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

Structure and node functions are written only through :class:`Network`
methods, which keep one reader index current (:meth:`Network.readers`)
and record function edits (:meth:`Network.edits_since`).  Elsewhere
node and latch fields (but ``Node.attrs``) are read-only, so a stray
write fails at once instead of staling the index or a compiled program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic.gates import GateType, eval_gate, gate_arity_ok, \
    gate_transistors
from repro.logic.sop import Cover


class NetlistError(Exception):
    """Structural error in a network."""


@dataclass(frozen=True)
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
    __hash__ = None  # type: ignore[assignment]  # rewired in place


_READ_ONLY = frozenset(("name", "kind", "gtype", "fanins", "cover"))
#: writes a Node or Latch field past its read-only guard
_set = object.__setattr__

#: node kinds with no fanins to evaluate: primary inputs, latch outputs
_SOURCE_KINDS = ("input", "latch")


def _check_function(name: str, kind: str, function: object,
                    arity: int) -> str:
    """The :class:`Node` field that holds ``function``; raises
    :class:`NetlistError` on a wrong kind or arity."""
    if kind == "gate" and isinstance(function, GateType):
        if gate_arity_ok(function, arity):
            return "gtype"
        raise NetlistError(f"gate {name!r}: {function.value} cannot take "
                           f"{arity} inputs")
    if kind == "sop" and isinstance(function, Cover):
        if function.num_vars == arity:
            return "cover"
        raise NetlistError(f"sop {name!r}: cover arity "
                           f"{function.num_vars} != {arity} fanins")
    raise NetlistError(f"{kind} node {name!r} cannot take {function!r}")


class Node:
    """One vertex of a Boolean network; only ``attrs`` is writable."""

    __slots__ = ("name", "kind", "gtype", "fanins", "cover", "attrs")

    def __init__(self, name: str, kind: str,
                 gtype: Optional[GateType] = None,
                 fanins: Optional[Sequence[str]] = None,
                 cover: Optional[Cover] = None):
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "gtype", gtype)
        _set(self, "fanins", tuple(fanins or ()))
        _set(self, "cover", cover)
        #: free-form per-node attributes (cell binding, transistor size, ...)
        _set(self, "attrs", {})

    def __setattr__(self, field: str, value: object) -> None:
        if field in _READ_ONLY:
            raise AttributeError(f"Node.{field} is read-only: edit it "
                                 f"through a Network method")
        _set(self, field, value)

    # Default unpickling restores slots through the guarded setattr.
    def __getstate__(self) -> Tuple[object, ...]:
        return (self.name, self.kind, self.gtype, self.fanins, self.cover,
                self.attrs)

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        for field, value in zip(Node.__slots__, state):
            _set(self, field, value)

    def is_source(self) -> bool:
        return self.kind in _SOURCE_KINDS

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


def _latch_pins(latch: Latch) -> Tuple[str, ...]:
    """The nodes a latch reads: its data pin, then its enable pin."""
    if latch.enable is None:
        return (latch.data,)
    return (latch.data, latch.enable)


class Network:
    """A combinational / sequential Boolean network.

    ``nodes``, ``inputs``, ``outputs``, ``latches`` and node functions
    are written only through the methods below, which keep the reader
    index (``_readers``, see :meth:`readers`; any name with a reader has
    an entry, node or not) and the output set ``_po`` current.

    A function edit (:meth:`set_function` without ``fanins``) appends
    the node to the edit record.  Every other edit is structural: it
    drops the cached topological order, compiled programs and stored
    simulation run and starts a new record.
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.latches: List[Latch] = []
        self._readers: Dict[str, Dict[str, int]] = {}
        self._po: Set[str] = set()
        #: node -> insertion rank (``nodes`` order); ``_unsorted`` names
        #: the reader maps that fell out of rank order
        self._rank: Dict[str, int] = {}
        self._next_rank = 0
        self._unsorted: Set[str] = set()
        self._topo_cache: Optional[List[str]] = None
        #: the edit record: nodes given a new function since the last
        #: structural edit, in edit order
        self._edits: List[str] = []
        #: compiled evaluation programs (repro.sim.compiled /
        #: repro.sim.timed) and the last Monte-Carlo run
        #: (repro.power.activity); opaque here to avoid a layering
        #: cycle.  Structural edits drop all three; ``copy`` carries none.
        self._compiled: Optional[object] = None
        self._timed: Optional[object] = None
        self._sim: Optional[object] = None

    # -- the reader index -------------------------------------------------

    def _invalidate(self) -> None:
        self._edits = []
        self._topo_cache = None
        self._compiled = None
        self._timed = None
        self._sim = None

    def _link(self, reader: str, names: Iterable[str]) -> None:
        """Record one pin of ``reader`` on each of ``names``."""
        readers, rank = self._readers, self._rank
        r = rank[reader]
        for name in names:
            entry = readers.get(name)
            if entry is None:
                readers[name] = {reader: 1}
            elif reader in entry:
                entry[reader] += 1
            else:
                if entry and rank[next(reversed(entry))] > r:
                    self._unsorted.add(name)
                entry[reader] = 1

    def _unlink(self, reader: str, names: Iterable[str]) -> None:
        """Drop one pin of ``reader`` from each of ``names``."""
        readers = self._readers
        for name in names:
            entry = readers[name]
            left = entry[reader] - 1
            if left:
                entry[reader] = left
                continue
            del entry[reader]
            if not entry:
                del readers[name]

    def _rewire(self, reader: str, old: Tuple[str, ...],
                new: Tuple[str, ...]) -> None:
        """``reader`` now reads ``new`` instead of ``old``.  Linking
        first keeps a reader that stays in place in its readers' maps."""
        if new != old:
            self._link(reader, new)
            self._unlink(reader, old)
        self._invalidate()

    def _add(self, node: Node) -> str:
        name = node.name
        self._check_new(name)
        self.nodes[name] = node
        self._rank[name] = self._next_rank
        self._next_rank += 1
        self._rewire(name, (), node.fanins)
        return name

    # -- construction ---------------------------------------------------

    def _check_new(self, name: str) -> None:
        if name in self.nodes:
            raise NetlistError(f"node {name!r} already exists")

    def add_input(self, name: str) -> str:
        self._add(Node(name, "input"))
        self.inputs.append(name)
        return name

    def add_inputs(self, names: Iterable[str]) -> List[str]:
        return [self.add_input(n) for n in names]

    def add_gate(self, name: str, gtype: GateType,
                 fanins: Sequence[str]) -> str:
        self._check_new(name)
        _check_function(name, "gate", gtype, len(fanins))
        return self._add(Node(name, "gate", gtype=gtype, fanins=fanins))

    def add_sop(self, name: str, fanins: Sequence[str], cover: Cover) -> str:
        self._check_new(name)
        _check_function(name, "sop", cover, len(fanins))
        return self._add(Node(name, "sop", fanins=fanins, cover=cover))

    def add_latch(self, data: str, output: str, init: int = 0,
                  enable: Optional[str] = None) -> Latch:
        if init not in (0, 1) or not isinstance(init, int):
            raise NetlistError(
                f"latch {output!r}: init must be 0 or 1, got {init!r}")
        self._add(Node(output, "latch"))
        latch = Latch(data=data, output=output, init=init, enable=enable)
        self.latches.append(latch)
        self._link(output, _latch_pins(latch))
        return latch

    def set_output(self, name: str) -> None:
        if name not in self._po:
            self._po.add(name)
            self.outputs.append(name)

    def set_outputs(self, names: Iterable[str]) -> None:
        """Make ``names`` the primary outputs, in order (repeats dropped)."""
        self.outputs = list(dict.fromkeys(names))
        self._po = set(self.outputs)
        self._invalidate()

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

    def readers(self, name: str) -> Dict[str, int]:
        """Who reads ``name``, in ``nodes`` order: a gate or SOP reader
        -> its fanin slots on ``name``; a latch, keyed by its output ->
        its data and enable pins on ``name``.  Read-only."""
        entry = self._readers.get(name)
        if entry is None:
            return {}
        if name in self._unsorted:
            self._unsorted.discard(name)
            rank = self._rank
            items = sorted(entry.items(), key=lambda item: rank[item[0]])
            entry.clear()
            entry.update(items)
        return entry

    def is_output(self, name: str) -> bool:
        return name in self._po

    def fanouts(self) -> Dict[str, List[str]]:
        """Map node name -> names of nodes reading it, once per pin
        (a latch's data and enable pins count, under its output)."""
        return {n: [r for r, pins in self.readers(n).items()
                    for _ in range(pins)]
                for n in self.nodes}

    def fanout_count(self, name: str) -> int:
        """Pins reading ``name``, plus one if it is a primary output."""
        return sum(self._readers.get(name, {}).values()) + \
            (name in self._po)

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

        The order is that of a fanin-first depth-first search from each
        node in ``nodes`` order.  When ``nodes`` order is already
        topological (every gate and SOP node comes after all of its
        fanins, as generators, ``copy`` and most passes build them),
        that search returns exactly ``list(nodes)``, so one O(N + E)
        pass checks the insertion order and returns it; otherwise the
        search runs.  Cached until the next structural edit.

        Raises :class:`NetlistError` naming the offending cycle path
        (``combinational cycle: a -> b -> a``) on cyclic networks, and
        the missing node on dangling references.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        seen: Set[str] = set()
        add, covers = seen.add, seen.issuperset
        for name, node in self.nodes.items():
            if node.kind not in _SOURCE_KINDS and not covers(node.fanins):
                order = self._search_order()
                break
            add(name)
        else:
            order = list(self.nodes)
        self._topo_cache = order
        return order

    def _search_order(self) -> List[str]:
        """The depth-first search behind :meth:`topo_order`, with its
        cycle and dangling-reference diagnostics."""
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

    def evaluate_words(self, words: Dict[str, int], mask: int
                       ) -> Dict[str, int]:
        """Bit-parallel combinational evaluation.

        ``words`` maps source names to pattern words: every primary
        input must have one, and a latch output without one holds its
        init value (replicated).  Returns a word for every node.

        This interpreted walk is the reference the tests and
        ``bench_compiled_sim`` compare :mod:`repro.sim.compiled` against;
        no library module calls it.  Simulate through
        ``get_compiled(net).evaluate_words`` / ``.step`` / ``.run``
        instead.
        """
        values: Dict[str, int] = {}
        for name in self.topo_order():
            node = self.nodes[name]
            if node.kind == "input":
                try:
                    values[name] = words[name] & mask
                except KeyError:
                    raise NetlistError(f"missing input value for {name!r}") \
                        from None
            elif node.kind == "latch":
                if name in words:
                    values[name] = words[name] & mask
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

    def evaluate(self, values: Dict[str, int]) -> Dict[str, int]:
        """Scalar evaluation: every value is 0 or 1 (a reference, like
        :meth:`evaluate_words`, with the same source rules)."""
        words = self.evaluate_words(values, 1)
        return {k: v & 1 for k, v in words.items()}

    def initial_state(self) -> Dict[str, int]:
        return {latch.output: latch.init for latch in self.latches}

    # -- structural editing ---------------------------------------------------

    def set_fanins(self, name: str, fanins: Sequence[str]) -> None:
        """Rewire node ``name`` to read ``fanins``, unchecked: :meth:`check`
        and the linter diagnose dangling or cyclic wiring."""
        node = self.node(name)
        old = node.fanins
        _set(node, "fanins", tuple(fanins))
        self._rewire(name, old, node.fanins)

    def set_function(self, name: str, function: object,
                     fanins: Optional[Sequence[str]] = None) -> None:
        """Give node ``name`` a new local function: a :class:`GateType`
        for a gate node, a :class:`Cover` (variable *i* = fanin *i*) for
        an SOP node, checked against the arity.  With ``fanins`` the
        node is rewired too, a structural edit."""
        node = self.node(name)
        arity = len(node.fanins if fanins is None else fanins)
        _set(node, _check_function(name, node.kind, function, arity),
             function)
        if fanins is None:
            self._edits.append(name)
        else:
            self.set_fanins(name, fanins)

    def edit_mark(self) -> Tuple[List[str], int]:
        """The current position in the edit record."""
        return self._edits, len(self._edits)

    def edits_since(self, mark: Tuple[List[str], int]
                    ) -> Optional[List[str]]:
        """The nodes given a new function since ``mark`` (repeats
        kept), or ``None`` for a mark of another network or from before
        a structural edit."""
        edits, pos = mark
        return edits[pos:] if edits is self._edits else None

    def set_node(self, node: Node) -> None:
        """Put ``node`` in the network: it replaces the node of the same
        name in place, keeping its position in ``nodes``, or is added."""
        old = self.nodes.get(node.name)
        if old is None:
            self._add(node)
        else:
            self.nodes[node.name] = node
            self._rewire(node.name, old.fanins, node.fanins)

    def set_latch_pins(self, latch: Latch, data: str,
                       enable: Optional[str]) -> None:
        """Rewire the pins of one of this network's latches."""
        old = _latch_pins(latch)
        _set(latch, "data", data)
        _set(latch, "enable", enable)
        self._rewire(latch.output, old, _latch_pins(latch))

    def take_over(self, other: "Network") -> None:
        """Replace this network's contents with ``other``'s, keeping
        this network's name; ``other`` must not be used afterwards."""
        name = self.name
        self.__dict__.update(other.__dict__)
        self.name = name
        self._invalidate()

    def replace_fanin(self, node_name: str, old: str, new: str) -> None:
        node = self.node(node_name)
        if old not in node.fanins:
            raise NetlistError(f"{old!r} is not a fanin of {node_name!r}")
        self.set_fanins(node_name,
                        [new if f == old else f for f in node.fanins])

    def replace_everywhere(self, old: str, new: str) -> None:
        """Redirect every reader of ``old`` (fanins, latches, POs) to
        ``new``, in time proportional to those readers."""
        for reader in list(self._readers.get(old, ())):
            node = self.nodes[reader]
            if node.kind != "latch":
                self.set_fanins(reader, [new if f == old else f
                                         for f in node.fanins])
                continue
            for latch in self.latches:
                if latch.output == reader:
                    self.set_latch_pins(
                        latch, new if latch.data == old else latch.data,
                        new if latch.enable == old else latch.enable)
        if old in self._po:
            # Dedup while renaming: with both old and new already
            # listed, a plain rename would leave the output twice.
            self.set_outputs([new if o == old else o
                              for o in self.outputs])

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
            for latch in self.latches:
                if latch.output == name:
                    self._unlink(name, _latch_pins(latch))
            self.latches = [l for l in self.latches if l.output != name]
        del self.nodes[name], self._rank[name]
        self._unlink(name, node.fanins)
        self._invalidate()

    def sweep(self) -> int:
        """Remove dangling gates (no path to an output or latch). Returns
        the number of nodes removed.  A worklist of unread gates, refilled
        with each fanin a removal leaves unread: O(N + E)."""
        nodes = self.nodes
        work = [n for n, node in nodes.items()
                if not node.is_source() and not self.fanout_count(n)]
        removed = 0
        while work:
            name = work.pop()
            fanins = nodes[name].fanins
            self.remove_node(name)
            removed += 1
            for fi in dict.fromkeys(fanins):
                node = nodes.get(fi)
                if node is not None and not node.is_source() and \
                        not self.fanout_count(fi):
                    work.append(fi)
        return removed

    def copy(self, name: Optional[str] = None) -> "Network":
        net = Network(name or self.name)
        net.inputs = list(self.inputs)
        net.outputs = list(self.outputs)
        net.latches = [Latch(l.data, l.output, l.init, l.enable)
                       for l in self.latches]
        for n in self.nodes.values():
            node = Node(n.name, n.kind, n.gtype, n.fanins,
                        n.cover.copy() if n.cover is not None else None)
            _set(node, "attrs", dict(n.attrs))
            net.nodes[n.name] = node
        net._readers = {n: dict(r) for n, r in self._readers.items()}
        net._po = set(self._po)
        net._rank = dict(self._rank)
        net._next_rank = self._next_rank
        net._unsorted = set(self._unsorted)
        return net

    def fresh_name(self, prefix: str = "n") -> str:
        i = len(self.nodes)
        while f"{prefix}{i}" in self.nodes:
            i += 1
        return f"{prefix}{i}"

    def check(self) -> None:
        """Validate structural invariants; raises NetlistError on failure."""
        for name, readers in self._readers.items():
            if name not in self.nodes:
                raise NetlistError(
                    f"{next(iter(readers))!r} reads missing node {name!r}")
        for latch in self.latches:
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
