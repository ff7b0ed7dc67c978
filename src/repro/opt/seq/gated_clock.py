"""Gated clocks (Section III-C.3; [9]) and FSM self-loop gating ([4]).

Two entry points:

* :func:`self_loop_clock_gating` — Benini/De Micheli: detect the STG's
  self-loop edges, synthesize the activation function Fa(x, s) that is 1
  exactly on those edges, and stop the state registers' clock when it
  holds (enable = ¬Fa).  The state cannot change on a self-loop, so the
  transformation is exact.
* :func:`convert_feedback_muxes` — the register-file idiom of [9]: a
  register fed by ``MUX(we, q, d)`` is rewritten as an enable-gated
  register, removing both the recirculating mux power and the clock
  power of idle cycles.

Clock power is modelled explicitly here (the main power model omits the
clock net): every un-gated flip-flop sees two clock-net transitions per
cycle on its clock-pin capacitance; a gated flip-flop sees them only in
enabled cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.logic.cube import Cube
from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.logic.sop import Cover
from repro.opt.seq.stg import STG, synthesize_fsm
from repro.power.model import PowerParameters


def clock_power(net: Network, enable_probability: Dict[str, float],
                params: Optional[PowerParameters] = None) -> float:
    """Average clock-distribution power.

    ``enable_probability[latch_output]`` is the fraction of cycles in
    which the latch is actually clocked (1.0 when un-gated).
    """
    params = params or PowerParameters()
    cap = params.pin_cap_units * params.cap_unit
    total = 0.0
    for latch in net.latches:
        p_en = enable_probability.get(latch.output, 1.0)
        # Two clock-net transitions per enabled cycle.
        total += 0.5 * cap * params.vdd ** 2 * params.frequency * \
            2.0 * p_en
    return total


@dataclass
class GatedClockResult:
    """A clock-gated FSM plus its activation statistics."""

    network: Network
    baseline: Network
    activation_probability: float   # P(Fa = 1): cycles with clock stopped
    fa_literals: int


def self_loop_clock_gating(stg: STG, encoding: Dict[str, int],
                           input_probs: Optional[Sequence[float]] = None,
                           minimize: bool = True) -> GatedClockResult:
    """Build baseline and clock-gated implementations of an encoded FSM.

    The activation function Fa is the union of (input cube × state code)
    conditions of the STG's self-loop edges; the state registers get
    ``enable = ¬Fa``.  Holding the state on those cycles is exact, so
    the gated machine is cycle-equivalent to the baseline.  The encoded
    machine is synthesized once; the gated one is a copy of it plus the
    enable logic.
    """
    baseline = synthesize_fsm(stg, encoding, minimize=minimize,
                              name="fsm_base")
    gated = baseline.copy("fsm_gated")
    num_bits = max(1, max(encoding.values()).bit_length())
    n_in = stg.num_inputs
    n_vars = n_in + num_bits

    fa_cubes: List[Cube] = []
    for t in stg.transitions:
        if t.src != t.dst:
            continue
        lits = list(t.input_cube.literals())
        code = encoding[t.src]
        for j in range(num_bits):
            lits.append((n_in + j, (code >> j) & 1))
        fa_cubes.append(Cube.from_literals(n_vars, lits))
    fa_cover = Cover(n_vars, fa_cubes)
    if minimize:
        fa_cover = fa_cover.minimize()
    enable_cover = fa_cover.complement().minimize()

    fanins = [f"x{i}" for i in range(n_in)] + \
        [f"s{j}" for j in range(num_bits)]
    gated.add_sop("_fa_n", fanins, enable_cover)
    for latch in gated.latches:
        gated.set_latch_pins(latch, latch.data, "_fa_n")
    gated.check()

    p_active = stg.self_loop_probability(input_probs)
    return GatedClockResult(network=gated, baseline=baseline,
                            activation_probability=p_active,
                            fa_literals=fa_cover.num_literals())


def convert_feedback_muxes(net: Network) -> int:
    """Rewrite ``q <- MUX(we, q, d)`` recirculation as enable latches.

    Detects latches whose data input is a MUX whose "hold" leg reads the
    latch output (directly or through BUFs).  Returns the number of
    latches converted; the mux (and feedback buffers) are swept.
    """

    def resolves_to(name: str, target: str) -> bool:
        seen = set()
        while name not in seen:
            seen.add(name)
            if name == target:
                return True
            node = net.nodes.get(name)
            if node is None or node.kind != "gate" or \
                    node.gtype is not GateType.BUF:
                return False
            name = node.fanins[0]
        return False

    converted = 0
    for latch in net.latches:
        data_node = net.nodes.get(latch.data)
        if data_node is None or data_node.kind != "gate" or \
                data_node.gtype is not GateType.MUX:
            continue
        sel, d0, d1 = data_node.fanins
        if resolves_to(d0, latch.output):
            net.set_latch_pins(latch, d1, sel)
            converted += 1
        elif resolves_to(d1, latch.output):
            # Selected-high leg recirculates: enable is the inverted
            # select; reuse an inverter per select signal.
            inv = f"_gcinv_{sel}"
            if inv not in net.nodes:
                net.add_gate(inv, GateType.NOT, [sel])
            net.set_latch_pins(latch, d0, inv)
            converted += 1
    net.sweep()
    return converted
