"""Data-flow graphs — the input representation of behavioral synthesis
(Section IV-B).

Operations are typed (``add``, ``mul``, ``input``, ``const``, ``output``)
and connected by data edges.  Helpers build the DSP kernels the
surveyed papers evaluate on (FIR filters, IIR biquads, reduction sums).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class Operation:
    """One DFG vertex."""

    name: str
    op: str                      # input / const / output / add / sub / mul
    operands: List[str] = field(default_factory=list)
    value: Optional[float] = None   # for const

    def is_compute(self) -> bool:
        return self.op not in ("input", "const", "output")


#: Default operation delays in control steps.
OP_DELAY = {"add": 1, "sub": 1, "mul": 2, "input": 0, "const": 0,
            "output": 0, "cmp": 1, "shift": 1}


class DFG:
    """A directed acyclic data-flow graph."""

    def __init__(self, name: str = "dfg"):
        self.name = name
        self.ops: Dict[str, Operation] = {}
        self.outputs: List[str] = []

    # -- construction ---------------------------------------------------

    def add(self, name: str, op: str,
            operands: Sequence[str] = (),
            value: Optional[float] = None) -> str:
        if name in self.ops:
            raise ValueError(f"operation {name!r} already exists")
        for o in operands:
            if o not in self.ops:
                raise ValueError(f"operand {o!r} undefined")
        self.ops[name] = Operation(name, op, list(operands), value)
        if op == "output":
            self.outputs.append(name)
        return name

    def inputs(self) -> List[str]:
        return [o.name for o in self.ops.values() if o.op == "input"]

    def compute_ops(self) -> List[Operation]:
        return [o for o in self.ops.values() if o.is_compute()]

    def consumers(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {n: [] for n in self.ops}
        for op in self.ops.values():
            for src in op.operands:
                out[src].append(op.name)
        return out

    def topo_order(self) -> List[str]:
        order: List[str] = []
        state: Dict[str, int] = {}

        def visit(name: str) -> None:
            st = state.get(name, 0)
            if st == 2:
                return
            if st == 1:
                raise ValueError(f"cycle through {name!r}")
            state[name] = 1
            for src in self.ops[name].operands:
                visit(src)
            state[name] = 2
            order.append(name)

        for name in self.ops:
            visit(name)
        return order

    def critical_path(self,
                      delays: Optional[Dict[str, int]] = None) -> int:
        delays = delays or OP_DELAY
        finish: Dict[str, int] = {}
        for name in self.topo_order():
            op = self.ops[name]
            d = delays.get(op.op, 1)
            start = max((finish[s] for s in op.operands), default=0)
            finish[name] = start + d
        return max(finish.values(), default=0)

    def evaluate(self, inputs: Dict[str, float]) -> Dict[str, float]:
        """Numeric evaluation (used to profile operand statistics)."""
        values: Dict[str, float] = {}
        for name in self.topo_order():
            op = self.ops[name]
            if op.op == "input":
                values[name] = inputs[name]
            elif op.op == "const":
                values[name] = op.value if op.value is not None else 0.0
            elif op.op == "output":
                values[name] = values[op.operands[0]]
            else:
                a = values[op.operands[0]]
                b = values[op.operands[1]] if len(op.operands) > 1 else 0.0
                if op.op == "add":
                    values[name] = a + b
                elif op.op == "sub":
                    values[name] = a - b
                elif op.op == "mul":
                    values[name] = a * b
                elif op.op == "shift":
                    values[name] = a * 2
                elif op.op == "cmp":
                    values[name] = float(a > b)
                else:
                    raise ValueError(f"unknown op {op.op!r}")
        return values

    def copy(self, name: Optional[str] = None) -> "DFG":
        d = DFG(name or self.name)
        for op in self.ops.values():
            d.ops[op.name] = Operation(op.name, op.op, list(op.operands),
                                       op.value)
        d.outputs = list(self.outputs)
        return d

    def __repr__(self) -> str:
        return (f"DFG({self.name!r}: {len(self.ops)} ops, "
                f"{len(self.compute_ops())} compute)")


# -- standard kernels -------------------------------------------------------


def fir_dfg(taps: int, name: str = "fir") -> DFG:
    """Direct-form FIR filter: y = Σ c_i · x_i (chained accumulation)."""
    dfg = DFG(name)
    acc = None
    for i in range(taps):
        x = dfg.add(f"x{i}", "input")
        c = dfg.add(f"c{i}", "const", value=float(i + 1))
        p = dfg.add(f"p{i}", "mul", [c, x])
        acc = p if acc is None else dfg.add(f"s{i}", "add", [acc, p])
    dfg.add("y", "output", [acc])
    return dfg


def iir_biquad_dfg(name: str = "biquad") -> DFG:
    """One biquad section (feed-forward part of the classic benchmark)."""
    dfg = DFG(name)
    x0 = dfg.add("x0", "input")
    x1 = dfg.add("x1", "input")
    x2 = dfg.add("x2", "input")
    b0 = dfg.add("b0", "const", value=0.5)
    b1 = dfg.add("b1", "const", value=0.25)
    b2 = dfg.add("b2", "const", value=0.125)
    m0 = dfg.add("m0", "mul", [b0, x0])
    m1 = dfg.add("m1", "mul", [b1, x1])
    m2 = dfg.add("m2", "mul", [b2, x2])
    a0 = dfg.add("a0", "add", [m0, m1])
    a1 = dfg.add("a1", "add", [a0, m2])
    dfg.add("y", "output", [a1])
    return dfg


def chained_sum_dfg(n: int, name: str = "chain") -> DFG:
    """Linear chain of additions — the tree-height-reduction workload."""
    dfg = DFG(name)
    acc = dfg.add("x0", "input")
    for i in range(1, n):
        x = dfg.add(f"x{i}", "input")
        acc = dfg.add(f"s{i}", "add", [acc, x])
    dfg.add("y", "output", [acc])
    return dfg
