"""RTL generation: scheduled + bound DFGs become gate-level netlists.

This is the back end of behavioral synthesis (§IV-B): given a schedule
and a functional-unit binding, emit a sequential :class:`Network` with

* one gate-level execution unit per FU instance (ripple adder /
  subtractor / truncated array multiplier),
* operand multiplexers steered by a one-hot control-step decoder,
* a register file from a (read-holding) left-edge allocation,
* a modulo-L control counter.

The generated hardware is bit-exact with ``DFG.evaluate`` modulo
2^width, so binding decisions can be validated by *measuring* the
netlist's power instead of trusting the operand-Hamming cost model.
Inputs are assumed stable for the whole iteration (the usual
registered-input assumption); constants are hard-wired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arch.dfg import DFG, OP_DELAY
from repro.arch.scheduling import Schedule, schedule_length
from repro.logic.cube import Cube
from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.logic.sop import Cover
from repro.logic.transform import instantiate
from repro.sim.compiled import get_compiled


@dataclass
class RTLResult:
    """The synthesized design plus its structural accounting."""

    network: Network
    width: int
    latency: int
    register_of: Dict[str, int]        # op name -> register index
    num_registers: int
    output_registers: Dict[str, int]   # DFG output name -> register

    def output_bits(self, output: str) -> List[str]:
        reg = self.output_registers[output]
        return [f"reg{reg}_{b}" for b in range(self.width)]


def _adder_unit(width: int, subtract: bool) -> Network:
    """Combinational adder/subtractor over a/b inputs (mod 2^width)."""
    from repro.logic.generators import ripple_carry_adder

    net = ripple_carry_adder(width, name="addsub")
    if not subtract:
        return net
    # a - b = a + ~b + 1: rewire b through inverters, tie cin to 1.
    sub = Network("subber")
    for i in range(width):
        sub.add_input(f"a{i}")
    for i in range(width):
        sub.add_input(f"b{i}")
    port = {f"a{i}": f"a{i}" for i in range(width)}
    for i in range(width):
        sub.add_gate(f"nb{i}", GateType.NOT, [f"b{i}"])
        port[f"b{i}"] = f"nb{i}"
    sub.add_gate("one", GateType.CONST1, [])
    port["cin"] = "one"
    rename = instantiate(sub, net, "add_", port)
    for i in range(width):
        sub.set_output(rename[f"s{i}"])
    return sub


def _mul_unit(width: int) -> Network:
    """Truncated (mod 2^width) multiplier."""
    from repro.logic.generators import array_multiplier

    net = array_multiplier(width, name="mul")
    trunc = Network("mul_trunc")
    for i in range(width):
        trunc.add_input(f"a{i}")
    for i in range(width):
        trunc.add_input(f"b{i}")
    port = {f"a{i}": f"a{i}" for i in range(width)}
    port.update({f"b{i}": f"b{i}" for i in range(width)})
    rename = instantiate(trunc, net, "m_", port)
    for i in range(width):
        trunc.set_output(rename[f"p{i}"])
    return trunc


_UNIT_BUILDERS = {
    "add": lambda w: _adder_unit(w, subtract=False),
    "sub": lambda w: _adder_unit(w, subtract=True),
    "mul": _mul_unit,
}


def _rtl_lifetimes(dfg: DFG, schedule: Schedule
                   ) -> Dict[str, Tuple[int, int]]:
    """Value lifetimes that hold through every reader's *occupancy*."""
    consumers = dfg.consumers()
    out: Dict[str, Tuple[int, int]] = {}
    for op in dfg.compute_ops():
        born = schedule[op.name] + OP_DELAY.get(op.op, 1)
        last = born + 1
        for reader in consumers[op.name]:
            r = dfg.ops[reader]
            if r.is_compute():
                last = max(last, schedule[reader] +
                           OP_DELAY.get(r.op, 1))
            else:
                last = float("inf")   # outputs stay live forever
        out[op.name] = (born, last)
    return out


def synthesize_datapath(dfg: DFG, schedule: Schedule,
                        fu_binding: Dict[str, Tuple[str, int]],
                        width: int = 4,
                        name: str = "datapath") -> RTLResult:
    """Emit the gate-level implementation of a scheduled, bound DFG.

    Supported ops: add, sub, mul.  DFG inputs become ``<name>_<bit>``
    primary inputs (stable across the iteration); constants are
    hard-wired from ``int(op.value)``.
    """
    for op in dfg.compute_ops():
        if op.op not in _UNIT_BUILDERS:
            raise ValueError(f"unsupported RTL op {op.op!r}")
    latency = max(1, schedule_length(dfg, schedule))
    net = Network(name)

    # -- control counter + one-hot step decoder -------------------------
    import math

    cbits = max(1, math.ceil(math.log2(latency)))
    count_vars = [f"cnt{j}" for j in range(cbits)]
    for j in range(cbits):
        net.add_latch(f"cnt_next{j}", count_vars[j], init=0)
    for j in range(cbits):
        cubes = []
        for k in range(latency):
            nxt = (k + 1) % latency
            if (nxt >> j) & 1:
                cubes.append(Cube.from_literals(
                    cbits, [(m, (k >> m) & 1) for m in range(cbits)]))
        net.add_sop(f"cnt_next{j}", count_vars, Cover(cbits, cubes))
    step_sig: List[str] = []
    for k in range(latency):
        cube = Cube.from_literals(
            cbits, [(m, (k >> m) & 1) for m in range(cbits)])
        net.add_sop(f"st{k}", count_vars, Cover(cbits, [cube]))
        step_sig.append(f"st{k}")

    zero = net.add_gate("zero", GateType.CONST0, [])
    one = net.add_gate("one", GateType.CONST1, [])

    # -- operand sources -------------------------------------------------
    source_bits: Dict[str, List[str]] = {}
    for op in dfg.ops.values():
        if op.op == "input":
            bits = []
            for b in range(width):
                net.add_input(f"{op.name}_{b}")
                bits.append(f"{op.name}_{b}")
            source_bits[op.name] = bits
        elif op.op == "const":
            value = int(op.value or 0) & ((1 << width) - 1)
            source_bits[op.name] = [one if (value >> b) & 1 else zero
                                    for b in range(width)]

    # -- register allocation (read-holding left edge) ----------------------
    lifetimes = _rtl_lifetimes(dfg, schedule)
    order = sorted(lifetimes, key=lambda n: (lifetimes[n][0],
                                             str(lifetimes[n][1])))
    free_at: List[float] = []
    register_of: Dict[str, int] = {}
    for vname in order:
        born, last = lifetimes[vname]
        slot = None
        for r, t in enumerate(free_at):
            if t <= born:
                slot = r
                break
        if slot is None:
            slot = len(free_at)
            free_at.append(last)
        else:
            free_at[slot] = last
        register_of[vname] = slot
    num_regs = len(free_at)
    for r in range(num_regs):
        for b in range(width):
            net.add_latch(f"regd{r}_{b}", f"reg{r}_{b}", init=0,
                          enable=f"regen{r}")
    for op_name, reg in register_of.items():
        source_bits[op_name] = [f"reg{reg}_{b}" for b in range(width)]

    # -- functional units ----------------------------------------------------
    # Group ops per FU instance.
    per_unit: Dict[Tuple[str, int], List[str]] = {}
    for op_name, inst in fu_binding.items():
        per_unit.setdefault(inst, []).append(op_name)

    def and_or_mux(target_prefix: str,
                   choices: List[Tuple[str, List[str]]]) -> List[str]:
        """AND-OR one-hot mux: choices are (select signal, bits)."""
        bits = []
        for b in range(width):
            terms = []
            for i, (sel, src) in enumerate(choices):
                t = net.add_gate(f"{target_prefix}_t{b}_{i}",
                                 GateType.AND, [sel, src[b]])
                terms.append(t)
            if len(terms) == 1:
                bits.append(terms[0])
            else:
                acc = terms[0]
                for i, t in enumerate(terms[1:]):
                    acc = net.add_gate(f"{target_prefix}_o{b}_{i}",
                                       GateType.OR, [acc, t])
                bits.append(acc)
        return bits

    result_bits: Dict[str, List[str]] = {}
    for (optype, index), op_names in sorted(per_unit.items()):
        unit_prefix = f"fu_{optype}{index}"
        choices_a: List[Tuple[str, List[str]]] = []
        choices_b: List[Tuple[str, List[str]]] = []
        for op_name in op_names:
            op = dfg.ops[op_name]
            start = schedule[op_name]
            dur = OP_DELAY.get(op.op, 1)
            sels = [step_sig[start + d] for d in range(dur)]
            if len(sels) == 1:
                sel = sels[0]
            else:
                sel = sels[0]
                for i, s in enumerate(sels[1:]):
                    sel = net.add_gate(
                        f"{unit_prefix}_{op_name}_sel{i}",
                        GateType.OR, [sel, s])
            choices_a.append((sel, source_bits[op.operands[0]]))
            choices_b.append((sel, source_bits[op.operands[1]]))
        in_a = and_or_mux(f"{unit_prefix}_ma", choices_a)
        in_b = and_or_mux(f"{unit_prefix}_mb", choices_b)
        unit = _UNIT_BUILDERS[optype](width)
        port = {}
        for b in range(width):
            port[f"a{b}"] = in_a[b]
            port[f"b{b}"] = in_b[b]
        if "cin" in unit.inputs:
            port["cin"] = zero
        rename = instantiate(net, unit, unit_prefix + "_", port)
        outs = [rename[unit.outputs[b]] for b in range(width)]
        for op_name in op_names:
            result_bits[op_name] = outs

    # -- register write network -------------------------------------------------
    writes: Dict[int, List[Tuple[str, str]]] = {}
    for op in dfg.compute_ops():
        reg = register_of[op.name]
        finish = schedule[op.name] + OP_DELAY.get(op.op, 1) - 1
        writes.setdefault(reg, []).append((step_sig[finish], op.name))
    for reg in range(num_regs):
        entries = writes.get(reg, [])
        if not entries:
            for b in range(width):
                net.add_gate(f"regd{reg}_{b}", GateType.BUF,
                             [f"reg{reg}_{b}"])
            net.add_gate(f"regen{reg}", GateType.CONST0, [])
            continue
        sels = [sel for sel, _ in entries]
        en = sels[0]
        for i, s in enumerate(sels[1:]):
            en = net.add_gate(f"regen{reg}_o{i}", GateType.OR, [en, s])
        net.add_gate(f"regen{reg}", GateType.BUF, [en])
        choices = [(sel, result_bits[op_name])
                   for sel, op_name in entries]
        bits = and_or_mux(f"regmux{reg}", choices)
        for b in range(width):
            net.add_gate(f"regd{reg}_{b}", GateType.BUF, [bits[b]])

    # -- outputs --------------------------------------------------------------
    output_registers: Dict[str, int] = {}
    for out_name in dfg.outputs:
        src = dfg.ops[out_name].operands[0]
        output_registers[out_name] = register_of[src]
        for b in range(width):
            net.set_output(f"reg{register_of[src]}_{b}")
    net.check()
    return RTLResult(network=net, width=width, latency=latency,
                     register_of=register_of, num_registers=num_regs,
                     output_registers=output_registers)


def run_iteration(rtl: RTLResult, inputs: Dict[str, int]
                  ) -> Dict[str, int]:
    """Clock the datapath through one full iteration; returns the DFG
    outputs (integers mod 2^width)."""
    net = rtl.network
    mask = (1 << rtl.width) - 1
    vec = {}
    for pi in net.inputs:
        base, bit = pi.rsplit("_", 1)
        vec[pi] = (inputs[base] >> int(bit)) & 1
    compiled = get_compiled(net)
    state = net.initial_state()
    for _ in range(rtl.latency):
        state, _values = compiled.step({**vec, **state}, 1)
    out = {}
    for name in rtl.output_registers:
        bits = rtl.output_bits(name)
        out[name] = sum(((state[b] & 1) << i)
                        for i, b in enumerate(bits)) & mask
    return out
