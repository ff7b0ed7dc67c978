"""Compilation choices that change software energy ([45]; Section V).

* :func:`linear_scan_allocate` — register allocation with spilling.
  Register operands are much cheaper than memory operands, so the
  number of architectural registers made available directly moves the
  program's energy (the paper's register-allocation observation).
* :func:`strength_reduce` — replace multiplies by constant powers of
  two with shifts (instruction selection: cheaper opcodes, same result).
* :func:`peephole_mac` — pack a multiply feeding an add into a single
  MAC (the DSP instruction-pairing optimization of [23]).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sw.isa import Instruction, Program


def _live_ranges(prog: Program) -> Dict[str, Tuple[int, int]]:
    ranges: Dict[str, Tuple[int, int]] = {}
    for i, ins in enumerate(prog):
        for r in list(ins.reads()) + list(ins.writes()):
            if not r.startswith("v"):
                continue
            if r not in ranges:
                ranges[r] = (i, i)
            else:
                ranges[r] = (ranges[r][0], i)
    return ranges


def linear_scan_allocate(prog: Program, num_regs: int,
                         spill_base: int = 0x1000,
                         reserved: Tuple[str, str] = ("r14", "r15")
                         ) -> Program:
    """Map virtual registers (``v*``) to ``r0..r{num_regs-1}``.

    Straight-line programs only (branches to labels are allowed but
    live ranges are computed linearly — adequate for the kernel loops
    used in the experiments).  Virtuals that do not fit are *spilled*:
    every use loads from a dedicated stack slot and every definition
    stores back, through the reserved scratch registers.
    """
    if num_regs < 1:
        raise ValueError("need at least one allocatable register")
    ranges = _live_ranges(prog)
    order = sorted(ranges, key=lambda v: ranges[v][0])
    pool = [f"r{i}" for i in range(num_regs)
            if f"r{i}" not in reserved]
    active: List[Tuple[int, str, str]] = []   # (end, virtual, phys)
    assignment: Dict[str, Optional[str]] = {}
    slots: Dict[str, int] = {}
    for v in order:
        start, end = ranges[v]
        active = [a for a in active if a[0] >= start]
        used = {phys for _e, _v, phys in active if _e >= start}
        free = [p for p in pool if p not in used]
        if free:
            phys = free[0]
            assignment[v] = phys
            active.append((end, v, phys))
        else:
            assignment[v] = None
            slots[v] = spill_base + 4 * len(slots)

    out = Program(name=prog.name + f"_r{num_regs}")
    scratch0, scratch1 = reserved
    for ins in prog:
        new = Instruction(ins.op, ins.dst, ins.src1, ins.src2, ins.imm,
                          ins.target, ins.label)
        loads: List[Instruction] = []
        stores: List[Instruction] = []
        scratches = [scratch0, scratch1]

        def map_read(r: Optional[str]) -> Optional[str]:
            if r is None or not r.startswith("v"):
                return r
            phys = assignment[r]
            if phys is not None:
                return phys
            s = scratches.pop(0)
            loads.append(Instruction("li", dst=s, imm=slots[r]))
            loads.append(Instruction("ld", dst=s, src1=s, imm=0))
            return s

        # Map reads first (the write may reuse a scratch afterwards).
        read_set = set(new.reads())
        if new.op == "st":
            new.dst = map_read(new.dst)
            new.src1 = map_read(new.src1)
        else:
            new.src1 = map_read(new.src1)
            new.src2 = map_read(new.src2)
            if new.op == "mac" and new.dst in read_set:
                new.dst = map_read(new.dst)
        for w in list(ins.writes()):
            if not w.startswith("v"):
                continue
            phys = assignment[w]
            if phys is not None:
                new.dst = phys
            else:
                # Write through a scratch, then store to the slot.
                s = scratch0
                new.dst = s
                stores.append(Instruction("li", dst=scratch1,
                                          imm=slots[w]))
                stores.append(Instruction("st", dst=s, src1=scratch1,
                                          imm=0))
        if loads and loads[0].label is None and new.label is not None:
            loads[0].label, new.label = new.label, None
        for l in loads:
            out.append(l)
        out.append(new)
        for s in stores:
            out.append(s)
    return out


def strength_reduce(prog: Program) -> Program:
    """Replace ``mul`` by a power-of-two constant with a shift.

    Detects the idiom ``li rK, 2^n`` followed (anywhere later, with rK
    unmodified) by ``mul rd, rs, rK``.
    """
    out = prog.copy()
    const_val: Dict[str, int] = {}
    for ins in out:
        if ins.op == "li":
            const_val[ins.dst] = ins.imm or 0
            continue
        if ins.op == "mul":
            for operand, other in ((ins.src2, ins.src1),
                                   (ins.src1, ins.src2)):
                v = const_val.get(operand)
                if v is not None and v > 0 and (v & (v - 1)) == 0:
                    ins.op = "shl"
                    ins.src1 = other
                    ins.src2 = None
                    ins.imm = v.bit_length() - 1
                    break
        for w in ins.writes():
            const_val.pop(w, None)
        if ins.is_branch():
            const_val.clear()
    return out


def peephole_mac(prog: Program) -> Program:
    """Fuse ``mul t, a, b`` + ``add acc, acc, t`` into
    ``mac acc, a, b`` when ``t`` dies at the add."""
    src = prog.copy()
    out = Program(name=prog.name + "_mac")
    i = 0
    instrs = src.instructions
    while i < len(instrs):
        ins = instrs[i]
        nxt = instrs[i + 1] if i + 1 < len(instrs) else None
        def dead_after(reg: str, start: int) -> bool:
            """True if ``reg`` is redefined before any later read."""
            for later in instrs[start:]:
                if reg in later.reads():
                    return False
                if reg in later.writes():
                    return True
            return True

        fusible = (
            ins.op == "mul" and nxt is not None and nxt.op == "add" and
            nxt.label is None and
            ins.dst in (nxt.src1, nxt.src2) and
            nxt.dst in (nxt.src1, nxt.src2) and nxt.dst != ins.dst and
            dead_after(ins.dst, i + 2))
        if fusible:
            out.append(Instruction("mac", dst=nxt.dst, src1=ins.src1,
                                   src2=ins.src2, label=ins.label))
            i += 2
        else:
            out.append(Instruction(ins.op, ins.dst, ins.src1, ins.src2,
                                   ins.imm, ins.target, ins.label))
            i += 1
    return out
