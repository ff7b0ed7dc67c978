"""Instruction-set simulator with energy accounting.

Implements the measurement-based methodology of [46] in simulation: the
"ground truth" energy of a program is the sum of per-instruction base
costs plus *inter-instruction* (circuit-state) overhead proportional to
the Hamming distance between consecutive opcode encodings, plus memory
penalties — the structure Tiwari et al. found in real current
measurements.  Two CPU profiles reproduce the scheduling contrast of
[40]/[46]/[23]: a large general-purpose CPU where the overhead is
marginal, and a small DSP where it is comparable to the base cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sw.isa import NUM_REGISTERS, Program


@dataclass(frozen=True)
class CPUProfile:
    """Energy/timing characterization of one processor."""

    name: str
    base_energy: Dict[str, float]      # nJ per instruction
    overhead_per_bit: float            # nJ per flipped opcode bit
    memory_energy: float               # extra nJ per memory access
    cycles: Dict[str, int]             # latency per opcode
    pairing: bool = False              # DSP instruction packing support

    def base(self, op: str) -> float:
        return self.base_energy.get(op, 1.0)

    def latency(self, op: str) -> int:
        return self.cycles.get(op, 1)


def big_cpu_profile() -> CPUProfile:
    """A wide general-purpose CPU: big base costs, tiny state overhead —
    instruction order barely matters ([46]'s 486DX2 observation)."""
    base = {"nop": 1.6, "li": 2.0, "mov": 2.0, "add": 2.2, "sub": 2.2,
            "and": 2.1, "or": 2.1, "xor": 2.1, "shl": 2.3, "shr": 2.3,
            "mul": 5.0, "mac": 5.5, "ld": 4.5, "st": 4.8, "beq": 2.6,
            "bne": 2.6, "blt": 2.6, "jmp": 2.4, "halt": 1.0}
    cycles = {"mul": 2, "mac": 2, "ld": 2, "st": 2}
    return CPUProfile(name="bigcpu", base_energy=base,
                      overhead_per_bit=0.05, memory_energy=3.0,
                      cycles=cycles)


def dsp_profile() -> CPUProfile:
    """A small DSP: lean base costs, strong inter-instruction overhead
    (exposed control path), MAC and packing support ([23])."""
    base = {"nop": 0.3, "li": 0.5, "mov": 0.5, "add": 0.6, "sub": 0.6,
            "and": 0.55, "or": 0.55, "xor": 0.55, "shl": 0.6,
            "shr": 0.6, "mul": 1.6, "mac": 1.8, "ld": 1.2, "st": 1.3,
            "beq": 0.8, "bne": 0.8, "blt": 0.8, "jmp": 0.7, "halt": 0.2}
    cycles = {"mul": 2, "mac": 2, "ld": 2, "st": 2}
    return CPUProfile(name="dsp", base_energy=base,
                      overhead_per_bit=0.35, memory_energy=1.5,
                      cycles=cycles, pairing=True)


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    cycles: int
    energy: float                # nJ
    instructions: int
    base_energy: float
    overhead_energy: float
    memory_energy: float
    registers: Dict[str, int] = field(default_factory=dict)
    memory: Dict[int, int] = field(default_factory=dict)
    opcode_trace: List[str] = field(default_factory=list)

    @property
    def average_power(self) -> float:
        """nJ per cycle — proportional to watts at fixed clock."""
        return self.energy / max(1, self.cycles)


class CPU:
    """Functional ISS for :mod:`repro.sw.isa` with energy accounting."""

    def __init__(self, profile: Optional[CPUProfile] = None):
        self.profile = profile or big_cpu_profile()

    def run(self, program: Program,
            registers: Optional[Dict[str, int]] = None,
            memory: Optional[Dict[int, int]] = None,
            max_instructions: int = 1_000_000) -> ExecutionResult:
        prof = self.profile
        regs: Dict[str, int] = {f"r{i}": 0 for i in range(NUM_REGISTERS)}
        if registers:
            regs.update(registers)
        mem: Dict[int, int] = dict(memory) if memory else {}
        labels = program.labels()
        pc = 0
        cycles = 0
        count = 0
        e_base = e_over = e_mem = 0.0
        prev_enc: Optional[int] = None
        trace: List[str] = []

        def val(r: Optional[str]) -> int:
            if r is None:
                return 0
            return regs.get(r, 0)

        while 0 <= pc < len(program.instructions):
            if count >= max_instructions:
                raise RuntimeError("instruction budget exceeded "
                                   "(runaway program?)")
            ins = program.instructions[pc]
            count += 1
            cycles += prof.latency(ins.op)
            e_base += prof.base(ins.op)
            enc = ins.encoding()
            if prev_enc is not None:
                e_over += prof.overhead_per_bit * \
                    (prev_enc ^ enc).bit_count()
            prev_enc = enc
            trace.append(ins.op)
            nxt = pc + 1
            op = ins.op
            if op == "halt":
                break
            elif op == "nop":
                pass
            elif op == "li":
                regs[ins.dst] = ins.imm or 0
            elif op == "mov":
                regs[ins.dst] = val(ins.src1)
            elif op in ("add", "sub", "and", "or", "xor", "mul"):
                a, b = val(ins.src1), val(ins.src2)
                if op == "add":
                    regs[ins.dst] = a + b
                elif op == "sub":
                    regs[ins.dst] = a - b
                elif op == "and":
                    regs[ins.dst] = a & b
                elif op == "or":
                    regs[ins.dst] = a | b
                elif op == "xor":
                    regs[ins.dst] = a ^ b
                else:
                    regs[ins.dst] = a * b
            elif op == "mac":
                regs[ins.dst] = val(ins.dst) + \
                    val(ins.src1) * val(ins.src2)
            elif op == "shl":
                regs[ins.dst] = val(ins.src1) << (ins.imm or 0)
            elif op == "shr":
                regs[ins.dst] = val(ins.src1) >> (ins.imm or 0)
            elif op == "ld":
                e_mem += prof.memory_energy
                regs[ins.dst] = mem.get(val(ins.src1) + (ins.imm or 0), 0)
            elif op == "st":
                e_mem += prof.memory_energy
                mem[val(ins.src1) + (ins.imm or 0)] = val(ins.dst)
            elif op in ("beq", "bne", "blt"):
                a, b = val(ins.dst), val(ins.src1)
                taken = (a == b) if op == "beq" else \
                    (a != b) if op == "bne" else (a < b)
                if taken:
                    nxt = labels[ins.target]
            elif op == "jmp":
                nxt = labels[ins.target]
            else:
                raise ValueError(f"unimplemented opcode {op!r}")
            pc = nxt
        return ExecutionResult(
            cycles=cycles, energy=e_base + e_over + e_mem,
            instructions=count, base_energy=e_base,
            overhead_energy=e_over, memory_energy=e_mem,
            registers=regs, memory=mem, opcode_trace=trace)
