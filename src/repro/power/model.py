"""CMOS power model — Equation 1 of the paper.

    P = 1/2 · C · V_DD² · f · N  +  Q_SC · V_DD · f · N  +  I_leak · V_DD

with N the switching activity (transitions per cycle), applied per node
and summed.  Capacitance at a node output is a transistor-count model:
self (drain/wire) capacitance plus the gate capacitance of every fanin
pin it drives.  After technology mapping, cell data from
``repro.library`` overrides the proxy model via ``node.attrs``.

Loads come from the network's reader index (``Network.readers``), kept
current by every structural edit, and are summed in one order: readers
in ``net.nodes`` order, the primary-output load, then one pin per latch
reading the node — so every float is the same whichever caller asks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.logic.netlist import Network


@dataclass(frozen=True)
class PowerParameters:
    """Technology/operating-point parameters.

    Defaults approximate a mid-90s 0.8 µm process at 3.3 V / 20 MHz — the
    paper's era.  ``q_sc_fraction`` expresses the short-circuit charge per
    transition as a fraction of C·V_DD (typically 5–10% for balanced edge
    rates); ``leak_per_transistor`` is the average off-state current.
    """

    vdd: float = 3.3
    frequency: float = 20e6
    cap_unit: float = 10e-15       # F, one "unit" of capacitance
    pin_cap_units: float = 2.0     # gate cap per driven input pin
    self_cap_per_transistor: float = 0.5
    output_load_units: float = 4.0  # load presented by a primary output
    q_sc_fraction: float = 0.05
    leak_per_transistor: float = 0.2e-9  # A

    def scaled(self, vdd: Optional[float] = None,
               frequency: Optional[float] = None) -> "PowerParameters":
        """Copy with a new operating point (for voltage-scaling studies)."""
        return PowerParameters(
            vdd=self.vdd if vdd is None else vdd,
            frequency=self.frequency if frequency is None else frequency,
            cap_unit=self.cap_unit,
            pin_cap_units=self.pin_cap_units,
            self_cap_per_transistor=self.self_cap_per_transistor,
            output_load_units=self.output_load_units,
            q_sc_fraction=self.q_sc_fraction,
            leak_per_transistor=self.leak_per_transistor)


def node_capacitance(net: Network, name: str,
                     params: Optional[PowerParameters] = None) -> float:
    """Capacitance (in cap units) switched when node ``name`` toggles.

    Includes the node's own drain/wire capacitance and the input-pin
    capacitance of everything it drives.  A node's ``attrs["size"]``
    scales its pin and self capacitance (transistor sizing); a mapped
    node's ``attrs["cell"]`` supplies exact per-cell values.  Raises
    :class:`NetlistError` for a name that is not a node of ``net``.
    """
    params = params or PowerParameters()
    node = net.node(name)
    cell = node.attrs.get("cell")
    size = float(node.attrs.get("size", 1.0))
    if cell is not None:
        self_cap = cell.output_cap * size
    else:
        self_cap = params.self_cap_per_transistor * \
            node.num_transistors() * size
    load = 0.0
    latches = 0
    nodes = net.nodes
    for reader_name, times in net.readers(name).items():
        reader = nodes[reader_name]
        if reader.kind == "latch":
            latches += 1
            continue
        rcell = reader.attrs.get("cell")
        rsize = float(reader.attrs.get("size", 1.0))
        if rcell is not None:
            load += rcell.input_cap * rsize * times
        else:
            load += params.pin_cap_units * rsize * times
    if net.is_output(name):
        load += params.output_load_units
    for _ in range(latches):
        load += params.pin_cap_units
    return self_cap + load


@dataclass
class PowerReport:
    """Breakdown of average power for one operating point."""

    switching: float          # W
    short_circuit: float      # W
    leakage: float            # W
    per_node: Dict[str, float] = field(default_factory=dict)
    activity: Dict[str, float] = field(default_factory=dict)
    params: PowerParameters = field(default_factory=PowerParameters)

    @property
    def total(self) -> float:
        return self.switching + self.short_circuit + self.leakage

    @property
    def switching_fraction(self) -> float:
        return self.switching / self.total if self.total else 0.0

    def summary(self) -> str:
        lines = [
            f"total power       : {self.total * 1e3:10.4f} mW",
            f"  switching       : {self.switching * 1e3:10.4f} mW "
            f"({100 * self.switching_fraction:.1f}%)",
            f"  short-circuit   : {self.short_circuit * 1e3:10.4f} mW",
            f"  leakage         : {self.leakage * 1e3:10.4f} mW",
        ]
        return "\n".join(lines)


def power_report(net: Network, activity: Dict[str, float],
                 params: Optional[PowerParameters] = None) -> PowerReport:
    """Evaluate Eqn 1 over the network given per-node activities."""
    params = params or PowerParameters()
    per_node: Dict[str, float] = {}
    switching = short_circuit = 0.0
    transistors = 0
    for name, node in net.nodes.items():
        transistors += node.num_transistors()
        n_act = activity.get(name, 0.0)
        cap = node_capacitance(net, name, params) * params.cap_unit
        p_sw = 0.5 * cap * params.vdd ** 2 * params.frequency * n_act
        q_sc = params.q_sc_fraction * cap * params.vdd
        p_sc = q_sc * params.vdd * params.frequency * n_act
        per_node[name] = p_sw + p_sc
        switching += p_sw
        short_circuit += p_sc
    leakage = params.leak_per_transistor * transistors * params.vdd
    return PowerReport(switching=switching, short_circuit=short_circuit,
                       leakage=leakage, per_node=per_node,
                       activity=dict(activity), params=params)


def average_power(net: Network, num_vectors: int = 2048, seed: int = 0,
                  input_probs: Optional[Dict[str, float]] = None,
                  params: Optional[PowerParameters] = None) -> PowerReport:
    """Convenience: Monte-Carlo activity followed by Eqn-1 evaluation."""
    from repro.power.activity import activity_from_simulation

    activity, _probs = activity_from_simulation(net, num_vectors, seed,
                                                input_probs)
    return power_report(net, activity, params)
