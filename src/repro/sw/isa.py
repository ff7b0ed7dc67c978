"""A small RISC/DSP instruction set.

Stands in for the commercial CPUs of [46]/[45] (see DESIGN.md): 16
general registers, word-addressed memory, a multiply-accumulate for the
DSP experiments, and fixed opcode encodings so control-path switching
(the Hamming distance between consecutive opcodes, [40]) is measurable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


#: Opcode binary encodings.  Related operations share high bits so a
#: smart scheduler has real Hamming structure to exploit.
OPCODES: Dict[str, int] = {
    "nop":  0b000000,
    "li":   0b000001,
    "mov":  0b000011,
    "add":  0b010000,
    "sub":  0b010001,
    "and":  0b010100,
    "or":   0b010101,
    "xor":  0b010110,
    "shl":  0b011000,
    "shr":  0b011001,
    "mul":  0b011100,
    "mac":  0b010010,   # one bit from add: MAC slots into accumulate loops
    "ld":   0b100000,
    "st":   0b100001,
    "beq":  0b110000,
    "bne":  0b110001,
    "blt":  0b110010,
    "jmp":  0b110100,
    "halt": 0b111111,
}

NUM_REGISTERS = 16


@dataclass
class Instruction:
    """One instruction; unused fields stay None.

    Register operands are strings like ``"r3"`` (or virtual registers
    ``"v12"`` before allocation).  ``target`` is a label for branches.
    """

    op: str
    dst: Optional[str] = None
    src1: Optional[str] = None
    src2: Optional[str] = None
    imm: Optional[int] = None
    target: Optional[str] = None
    label: Optional[str] = None   # label *on* this instruction

    def reads(self) -> List[str]:
        regs = []
        if self.op == "st":
            # st value, addr, offset-imm
            for r in (self.dst, self.src1):
                if r is not None:
                    regs.append(r)
        else:
            for r in (self.src1, self.src2):
                if r is not None:
                    regs.append(r)
            if self.op == "mac" and self.dst is not None:
                regs.append(self.dst)   # accumulator read
            if self.op in ("beq", "bne", "blt") and self.dst is not None:
                regs.append(self.dst)
        return regs

    def writes(self) -> List[str]:
        if self.op in ("st", "beq", "bne", "blt", "jmp", "nop", "halt"):
            return []
        return [self.dst] if self.dst is not None else []

    def is_branch(self) -> bool:
        return self.op in ("beq", "bne", "blt", "jmp")

    def is_memory(self) -> bool:
        return self.op in ("ld", "st")

    def encoding(self) -> int:
        return OPCODES[self.op]

    def __str__(self) -> str:
        parts = [self.op]
        for f in (self.dst, self.src1, self.src2):
            if f is not None:
                parts.append(f)
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append(self.target)
        text = " ".join(parts)
        return f"{self.label}: {text}" if self.label else text


class Program:
    """A list of instructions with label resolution."""

    def __init__(self, instructions: Optional[Sequence[Instruction]]
                 = None, name: str = "prog"):
        self.name = name
        self.instructions: List[Instruction] = \
            list(instructions) if instructions else []

    def append(self, instr: Instruction) -> Instruction:
        self.instructions.append(instr)
        return instr

    def labels(self) -> Dict[str, int]:
        return {ins.label: i for i, ins in enumerate(self.instructions)
                if ins.label}

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, i: int) -> Instruction:
        return self.instructions[i]

    def copy(self) -> "Program":
        return Program([Instruction(i.op, i.dst, i.src1, i.src2, i.imm,
                                    i.target, i.label)
                        for i in self.instructions], self.name)


_REG = re.compile(r"^[rv]\d+$")


def assemble(text: str, name: str = "prog") -> Program:
    """Tiny assembler.

    Syntax, one instruction per line (``;`` comments)::

        loop:  add r1, r2, r3
               li  r4, 42
               ld  r5, r6, 0      ; r5 = mem[r6 + 0]
               st  r5, r6, 4      ; mem[r6 + 4] = r5
               beq r1, r2, loop
               halt
    """
    prog = Program(name=name)
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        label = None
        if ":" in line:
            label, line = line.split(":", 1)
            label = label.strip()
            line = line.strip()
            if not line:
                line = "nop"
        tokens = [t.strip() for t in re.split(r"[,\s]+", line) if t.strip()]
        op = tokens[0]
        if op not in OPCODES:
            raise ValueError(f"unknown opcode {op!r}")
        args = tokens[1:]
        ins = Instruction(op, label=label)
        if op in ("add", "sub", "and", "or", "xor", "mul", "mac"):
            ins.dst, ins.src1, ins.src2 = args
        elif op in ("shl", "shr"):
            ins.dst, ins.src1 = args[0], args[1]
            ins.imm = int(args[2])
        elif op == "li":
            ins.dst, ins.imm = args[0], int(args[1])
        elif op == "mov":
            ins.dst, ins.src1 = args
        elif op in ("ld", "st"):
            ins.dst, ins.src1 = args[0], args[1]
            ins.imm = int(args[2]) if len(args) > 2 else 0
        elif op in ("beq", "bne", "blt"):
            ins.dst, ins.src1, ins.target = args
        elif op == "jmp":
            ins.target = args[0]
        elif op in ("nop", "halt"):
            pass
        for r in (ins.dst, ins.src1, ins.src2):
            if r is not None and not _REG.match(r):
                raise ValueError(f"bad register {r!r} in {line!r}")
        prog.append(ins)
    return prog
