"""FSM state minimization (substrate for Section III-C; [2]).

Classical partition refinement for completely-specified machines:
states are equivalent iff they emit the same outputs and transition to
equivalent states for every input.  Fewer states mean fewer flip-flops
and smaller next-state logic — the starting point the encoding and
clock-gating optimizations assume.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.opt.seq.stg import STG


def _behaviour_tables(stg: STG) -> Tuple[Dict[str, List[str]],
                                         Dict[str, List[str]]]:
    """Per state: next-state and output for every input minterm
    (unspecified minterms self-loop with all-zero output, matching
    ``STG.next_state``)."""
    nxt: Dict[str, List[str]] = {}
    out: Dict[str, List[str]] = {}
    for s in stg.states:
        nxt[s] = []
        out[s] = []
        for m in range(1 << stg.num_inputs):
            n, o = stg.next_state(s, m)
            nxt[s].append(n)
            out[s].append(o)
    return nxt, out


def equivalent_state_classes(stg: STG) -> List[List[str]]:
    """Partition of the states into equivalence classes."""
    nxt, out = _behaviour_tables(stg)
    # Initial partition by output signature.
    block_of: Dict[str, int] = {}
    signature_to_block: Dict[Tuple, int] = {}
    for s in stg.states:
        sig = tuple(out[s])
        if sig not in signature_to_block:
            signature_to_block[sig] = len(signature_to_block)
        block_of[s] = signature_to_block[sig]
    # Refine until stable.
    while True:
        signature_to_new: Dict[Tuple, int] = {}
        new_block: Dict[str, int] = {}
        for s in stg.states:
            sig = (block_of[s],
                   tuple(block_of[n] for n in nxt[s]))
            if sig not in signature_to_new:
                signature_to_new[sig] = len(signature_to_new)
            new_block[s] = signature_to_new[sig]
        if new_block == block_of:
            break
        block_of = new_block
    classes: Dict[int, List[str]] = {}
    for s in stg.states:
        classes.setdefault(block_of[s], []).append(s)
    return [classes[b] for b in sorted(classes)]


def minimize_stg(stg: STG) -> STG:
    """Minimized machine over class representatives.

    The representative of each class is its first state in declaration
    order; the reset state's class keeps the reset role.
    """
    classes = equivalent_state_classes(stg)
    rep_of: Dict[str, str] = {}
    for cls in classes:
        rep = cls[0]
        for s in cls:
            rep_of[s] = rep
    reduced = STG(stg.num_inputs, stg.num_outputs,
                  reset_state=rep_of.get(stg.reset_state))
    if reduced.reset_state:
        reduced.add_state(reduced.reset_state)
    seen = set()
    for t in stg.transitions:
        src = rep_of[t.src]
        if t.src != src:
            continue                     # keep one row per class
        key = (t.input_cube, src, rep_of[t.dst], t.output)
        if key in seen:
            continue
        seen.add(key)
        reduced.add_transition(t.input_cube, src, rep_of[t.dst],
                               t.output)
    return reduced
