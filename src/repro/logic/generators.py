"""Parametric benchmark-circuit generators.

These stand in for the MCNC/ISCAS netlists used by the surveyed papers
(see DESIGN.md, substitutions table).  All generators return a
:class:`~repro.logic.netlist.Network` built from primitive gates.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.logic.gates import GateType
from repro.logic.netlist import Network


def _bit_names(prefix: str, n: int) -> List[str]:
    return [f"{prefix}{i}" for i in range(n)]


def ripple_carry_adder(n: int, name: str = "rca") -> Network:
    """n-bit ripple-carry adder: inputs a0..a{n-1}, b0..b{n-1}, cin;
    outputs s0..s{n-1}, cout."""
    net = Network(name)
    a = net.add_inputs(_bit_names("a", n))
    b = net.add_inputs(_bit_names("b", n))
    carry = net.add_input("cin")
    for i in range(n):
        p = net.add_gate(f"p{i}", GateType.XOR, [a[i], b[i]])
        net.add_gate(f"s{i}", GateType.XOR, [p, carry])
        g = net.add_gate(f"g{i}", GateType.AND, [a[i], b[i]])
        t = net.add_gate(f"t{i}", GateType.AND, [p, carry])
        carry = net.add_gate(f"c{i + 1}", GateType.OR, [g, t])
        net.set_output(f"s{i}")
    net.set_output(carry)
    return net


def comparator(n: int, name: str = "cmp") -> Network:
    """n-bit magnitude comparator computing C > D (Figure 1 of the paper).

    Built as a ripple from the LSB: gt_i = (c_i & ~d_i) | (eq_i & gt_{i-1}).
    Inputs c0..c{n-1}, d0..d{n-1}; output ``gt``.
    """
    net = Network(name)
    c = net.add_inputs(_bit_names("c", n))
    d = net.add_inputs(_bit_names("d", n))
    gt: Optional[str] = None
    for i in range(n):
        nd = net.add_gate(f"nd{i}", GateType.NOT, [d[i]])
        win = net.add_gate(f"win{i}", GateType.AND, [c[i], nd])
        if gt is None:
            gt = win
        else:
            eq = net.add_gate(f"eq{i}", GateType.XNOR, [c[i], d[i]])
            keep = net.add_gate(f"keep{i}", GateType.AND, [eq, gt])
            gt = net.add_gate(f"gt{i}", GateType.OR, [win, keep])
    assert gt is not None
    net.set_output(gt)
    return net


def equality_checker(n: int, name: str = "eq") -> Network:
    """n-bit equality comparator (balanced XNOR/AND tree)."""
    net = Network(name)
    a = net.add_inputs(_bit_names("a", n))
    b = net.add_inputs(_bit_names("b", n))
    layer = [net.add_gate(f"x{i}", GateType.XNOR, [a[i], b[i]])
             for i in range(n)]
    idx = 0
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(net.add_gate(f"and{idx}", GateType.AND,
                                    [layer[i], layer[i + 1]]))
            idx += 1
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    net.set_output(layer[0])
    return net


def parity_tree(n: int, balanced: bool = True, name: str = "parity"
                ) -> Network:
    """n-input XOR tree; ``balanced=False`` builds a chain (worst glitching)."""
    net = Network(name)
    ins = net.add_inputs(_bit_names("i", n))
    idx = 0
    if balanced:
        layer = list(ins)
        while len(layer) > 1:
            nxt = []
            for i in range(0, len(layer) - 1, 2):
                nxt.append(net.add_gate(f"x{idx}", GateType.XOR,
                                        [layer[i], layer[i + 1]]))
                idx += 1
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        net.set_output(layer[0])
    else:
        acc = ins[0]
        for i in range(1, n):
            acc = net.add_gate(f"x{idx}", GateType.XOR, [acc, ins[i]])
            idx += 1
        net.set_output(acc)
    return net


def array_multiplier(n: int, name: str = "mult") -> Network:
    """n x n unsigned array multiplier (carry-save array, ripple at end).

    Inputs a0.., b0..; outputs p0..p{2n-1}.  Deep reconvergent carry chains
    make it the classical glitching benchmark ([25] in the paper).
    """
    net = Network(name)
    a = net.add_inputs(_bit_names("a", n))
    b = net.add_inputs(_bit_names("b", n))
    # Partial products.
    pp = [[net.add_gate(f"pp{i}_{j}", GateType.AND, [a[i], b[j]])
           for j in range(n)] for i in range(n)]
    uid = [0]

    def full_adder(x: str, y: str, z: str) -> (str, str):
        k = uid[0]
        uid[0] += 1
        s1 = net.add_gate(f"fs{k}a", GateType.XOR, [x, y])
        s = net.add_gate(f"fs{k}", GateType.XOR, [s1, z])
        c = net.add_gate(f"fc{k}", GateType.MAJ, [x, y, z])
        return s, c

    def half_adder(x: str, y: str) -> (str, str):
        k = uid[0]
        uid[0] += 1
        s = net.add_gate(f"hs{k}", GateType.XOR, [x, y])
        c = net.add_gate(f"hc{k}", GateType.AND, [x, y])
        return s, c

    # Column-wise carry-save reduction.
    columns: List[List[str]] = [[] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            columns[i + j].append(pp[i][j])
    for col in range(2 * n):
        while len(columns[col]) > 1:
            if len(columns[col]) >= 3:
                x, y, z = columns[col][:3]
                del columns[col][:3]
                s, c = full_adder(x, y, z)
            else:
                x, y = columns[col][:2]
                del columns[col][:2]
                s, c = half_adder(x, y)
            columns[col].append(s)
            if col + 1 < 2 * n:
                columns[col + 1].append(c)
        out = columns[col][0] if columns[col] else None
        if out is None:
            out = net.add_gate(f"pz{col}", GateType.CONST0, [])
        buf = net.add_gate(f"p{col}", GateType.BUF, [out])
        net.set_output(buf)
    return net


def carry_lookahead_adder(n: int, block: int = 4,
                          name: str = "cla") -> Network:
    """n-bit block carry-lookahead adder.

    Generate/propagate are computed per bit; carries inside each
    ``block`` come from the expanded lookahead equations, and blocks
    are chained.  Shallower and glitchier than the ripple adder — the
    classic architecture-power trade for the E-series experiments.
    """
    net = Network(name)
    a = net.add_inputs(_bit_names("a", n))
    b = net.add_inputs(_bit_names("b", n))
    cin = net.add_input("cin")
    g = [net.add_gate(f"g{i}", GateType.AND, [a[i], b[i]])
         for i in range(n)]
    p = [net.add_gate(f"p{i}", GateType.XOR, [a[i], b[i]])
         for i in range(n)]
    carry = cin
    carries = [carry]
    uid = [0]

    def and_tree(parts):
        if len(parts) == 1:
            return parts[0]
        uid[0] += 1
        name_ = f"la{uid[0]}"
        if len(parts) == 2:
            return net.add_gate(name_, GateType.AND, parts)
        return net.add_gate(name_, GateType.AND,
                            [and_tree(parts[:-1]), parts[-1]])

    for base in range(0, n, block):
        width = min(block, n - base)
        for k in range(1, width + 1):
            # c_{base+k} = Σ_j g_{base+j}·Π_{m>j} p_{base+m}
            #              + (Π p) · c_base
            terms = []
            for j in range(k):
                parts = [g[base + j]] + \
                    [p[base + m] for m in range(j + 1, k)]
                terms.append(and_tree(parts))
            terms.append(and_tree([p[base + m] for m in range(k)] +
                                  [carry]))
            cname = f"c{base + k}"
            acc = terms[0]
            for t in terms[1:-1]:
                uid[0] += 1
                acc = net.add_gate(f"lo{uid[0]}", GateType.OR, [acc, t])
            acc = net.add_gate(cname, GateType.OR, [acc, terms[-1]])
            carries.append(acc)
        carry = carries[base + width]
    for i in range(n):
        net.add_gate(f"s{i}", GateType.XOR, [p[i], carries[i]])
        net.set_output(f"s{i}")
    net.set_output(carries[n])
    return net


def carry_select_adder(n: int, block: int = 4,
                       name: str = "csel") -> Network:
    """n-bit carry-select adder: each block computes both carry
    assumptions and muxes on the incoming carry — faster at the price
    of duplicated (power-hungry) logic."""
    net = Network(name)
    a = net.add_inputs(_bit_names("a", n))
    b = net.add_inputs(_bit_names("b", n))
    carry = net.add_input("cin")
    for base in range(0, n, block):
        width = min(block, n - base)
        outs = {}
        for assume in (0, 1):
            c = net.add_gate(f"k{base}_{assume}",
                             GateType.CONST1 if assume else
                             GateType.CONST0, [])
            for i in range(base, base + width):
                px = net.add_gate(f"px{i}_{assume}", GateType.XOR,
                                  [a[i], b[i]])
                outs[(i, assume)] = net.add_gate(
                    f"sx{i}_{assume}", GateType.XOR, [px, c])
                c = net.add_gate(f"cx{i}_{assume}", GateType.MAJ,
                                 [a[i], b[i], c])
            outs[(base + width, assume)] = c
        for i in range(base, base + width):
            net.add_gate(f"s{i}", GateType.MUX,
                         [carry, outs[(i, 0)], outs[(i, 1)]])
            net.set_output(f"s{i}")
        carry = net.add_gate(f"c{base + width}", GateType.MUX,
                             [carry, outs[(base + width, 0)],
                              outs[(base + width, 1)]])
    net.set_output(carry)
    return net


def wallace_multiplier(n: int, name: str = "wallace") -> Network:
    """n x n multiplier with Wallace-style balanced reduction.

    Functionally identical to :func:`array_multiplier` but the
    carry-save tree is reduced breadth-first (all rows in parallel per
    level), giving a shallower, better-balanced network.
    """
    net = Network(name)
    a = net.add_inputs(_bit_names("a", n))
    b = net.add_inputs(_bit_names("b", n))
    columns: List[List[str]] = [[] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            columns[i + j].append(
                net.add_gate(f"pp{i}_{j}", GateType.AND, [a[i], b[j]]))
    uid = [0]

    def fa(x, y, z):
        uid[0] += 1
        k = uid[0]
        s1 = net.add_gate(f"ws{k}a", GateType.XOR, [x, y])
        s = net.add_gate(f"ws{k}", GateType.XOR, [s1, z])
        c = net.add_gate(f"wc{k}", GateType.MAJ, [x, y, z])
        return s, c

    def ha(x, y):
        uid[0] += 1
        k = uid[0]
        s = net.add_gate(f"whs{k}", GateType.XOR, [x, y])
        c = net.add_gate(f"whc{k}", GateType.AND, [x, y])
        return s, c

    # Breadth-first reduction: compress every column level by level.
    while any(len(col) > 2 for col in columns):
        nxt: List[List[str]] = [[] for _ in range(2 * n)]
        for col in range(2 * n):
            items = columns[col]
            idx = 0
            while len(items) - idx >= 3:
                s, c = fa(items[idx], items[idx + 1], items[idx + 2])
                nxt[col].append(s)
                if col + 1 < 2 * n:
                    nxt[col + 1].append(c)
                idx += 3
            if len(items) - idx == 2:
                s, c = ha(items[idx], items[idx + 1])
                nxt[col].append(s)
                if col + 1 < 2 * n:
                    nxt[col + 1].append(c)
                idx += 2
            nxt[col].extend(items[idx:])
        columns = nxt
    # Final carry-propagate (ripple) stage.
    carry = None
    for col in range(2 * n):
        items = list(columns[col])
        if carry is not None:
            items.append(carry)
        carry = None
        if not items:
            out = net.add_gate(f"pz{col}", GateType.CONST0, [])
        elif len(items) == 1:
            out = items[0]
        elif len(items) == 2:
            out, carry = ha(items[0], items[1])
        else:
            out, carry = fa(items[0], items[1], items[2])
        buf = net.add_gate(f"p{col}", GateType.BUF, [out])
        net.set_output(buf)
    return net


def mux_tree(select_bits: int, name: str = "muxtree") -> Network:
    """2^k-to-1 multiplexer tree (k = select_bits)."""
    net = Network(name)
    n = 1 << select_bits
    data = net.add_inputs(_bit_names("d", n))
    sel = net.add_inputs(_bit_names("s", select_bits))
    layer = list(data)
    idx = 0
    for level in range(select_bits):
        nxt = []
        for i in range(0, len(layer), 2):
            nxt.append(net.add_gate(f"m{idx}", GateType.MUX,
                                    [sel[level], layer[i], layer[i + 1]]))
            idx += 1
        layer = nxt
    net.set_output(layer[0])
    return net


def decoder(select_bits: int, name: str = "dec") -> Network:
    """k-to-2^k one-hot decoder with an enable input."""
    net = Network(name)
    sel = net.add_inputs(_bit_names("s", select_bits))
    en = net.add_input("en")
    inv = [net.add_gate(f"ns{i}", GateType.NOT, [sel[i]])
           for i in range(select_bits)]
    for code in range(1 << select_bits):
        parts = [sel[i] if (code >> i) & 1 else inv[i]
                 for i in range(select_bits)] + [en]
        acc = parts[0]
        for j, p in enumerate(parts[1:]):
            acc = net.add_gate(f"d{code}_{j}", GateType.AND, [acc, p])
        out = net.add_gate(f"o{code}", GateType.BUF, [acc])
        net.set_output(out)
    return net


def alu_slice(n: int, name: str = "alu") -> Network:
    """Small ALU: op-selected AND / OR / XOR / ADD over two n-bit words.

    Inputs a*, b*, op0, op1; outputs y0..y{n-1}.
    """
    net = Network(name)
    a = net.add_inputs(_bit_names("a", n))
    b = net.add_inputs(_bit_names("b", n))
    op0 = net.add_input("op0")
    op1 = net.add_input("op1")
    carry = net.add_gate("c_in0", GateType.CONST0, [])
    for i in range(n):
        g_and = net.add_gate(f"and{i}", GateType.AND, [a[i], b[i]])
        g_or = net.add_gate(f"or{i}", GateType.OR, [a[i], b[i]])
        g_xor = net.add_gate(f"xor{i}", GateType.XOR, [a[i], b[i]])
        g_sum = net.add_gate(f"sum{i}", GateType.XOR, [g_xor, carry])
        carry_new = net.add_gate(f"cout{i}", GateType.MAJ,
                                 [a[i], b[i], carry])
        lo = net.add_gate(f"lo{i}", GateType.MUX, [op0, g_and, g_or])
        hi = net.add_gate(f"hi{i}", GateType.MUX, [op0, g_xor, g_sum])
        y = net.add_gate(f"y{i}", GateType.MUX, [op1, lo, hi])
        net.set_output(y)
        carry = carry_new
    return net


def random_logic(num_inputs: int, num_gates: int, seed: int = 0,
                 num_outputs: Optional[int] = None,
                 name: str = "rand") -> Network:
    """Random DAG of 2-input gates — the 'typical combinational logic'
    workload for the estimation experiments."""
    rng = random.Random(seed)
    net = Network(name)
    pool = net.add_inputs(_bit_names("i", num_inputs))
    choices = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
               GateType.XOR, GateType.XNOR]
    for g in range(num_gates):
        gtype = rng.choice(choices)
        f1 = rng.choice(pool)
        f2 = rng.choice(pool)
        while f2 == f1 and len(pool) > 1:
            f2 = rng.choice(pool)
        node = net.add_gate(f"g{g}", gtype, [f1, f2])
        pool.append(node)
    sinks = [n for n in pool if not net.readers(n) and
             net.nodes[n].kind != "input"]
    if num_outputs is not None:
        extra = [n for n in reversed(pool)
                 if net.nodes[n].kind != "input" and n not in sinks]
        sinks = (sinks + extra)[:max(num_outputs, len(sinks))]
    for s in sinks:
        net.set_output(s)
    if not net.outputs:
        net.set_output(pool[-1])
    return net


def register_file(words: int, width: int, name: str = "regfile") -> Network:
    """Tiny register file: ``words`` registers of ``width`` bits with a
    one-hot write-enable per word (for the gated-clock experiments).

    Inputs: d0..d{width-1} (write data), we0..we{words-1}.
    Outputs: r{w}_{i} for each stored bit.
    """
    net = Network(name)
    data = net.add_inputs(_bit_names("d", width))
    wes = net.add_inputs(_bit_names("we", words))
    for w in range(words):
        for i in range(width):
            q = f"r{w}_{i}"
            mux = net.add_gate(f"wm{w}_{i}", GateType.MUX,
                               [wes[w], q + "_fb", data[i]])
            net.add_latch(mux, q)
            net.add_gate(q + "_fb", GateType.BUF, [q])
            net.set_output(q)
    return net


def counter(n: int, name: str = "counter") -> Network:
    """n-bit synchronous binary counter with enable input ``en``."""
    net = Network(name)
    en = net.add_input("en")
    carry = en
    for i in range(n):
        q = f"q{i}"
        tog = net.add_gate(f"t{i}", GateType.XOR, [f"q{i}_pre", carry])
        carry = net.add_gate(f"cy{i}", GateType.AND, [f"q{i}_pre", carry])
        net.add_latch(tog, f"q{i}_pre")
        buf = net.add_gate(q, GateType.BUF, [f"q{i}_pre"])
        net.set_output(buf)
    return net
