"""Architecture-level power models (Section IV-A).

Three model families from the survey, in increasing fidelity:

* **UWN / PFA** ([15], [36]): a fixed effective capacitance per module
  activation, characterized under white-noise inputs; per-module powers
  are summed over the schedule, ignoring inter-module correlation.
* **activity-based / black-box capacitance** ([21], [22] Landman &
  Rabaey): effective capacitance is an affine function of the input
  switching statistics, ``C_eff = C0 + C1 · h`` with ``h`` the average
  input Hamming-distance fraction; characterized by regression against
  gate-level measurements.

`characterize_module` builds both models for any gate-level module by
bit-parallel simulation, so E14 can compare model predictions with
gate-level "ground truth" on arbitrary operand streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.dfg import DFG
from repro.arch.scheduling import Schedule
from repro.logic.netlist import Network
from repro.power.model import PowerParameters, node_capacitance
from repro.sim.functional import simulate_transitions
from repro.sim.vectors import words_from_vectors


@dataclass(frozen=True)
class Module:
    """A datapath execution unit with characterized power."""

    name: str
    op: str
    delay: int                 # control steps
    cap_per_op: float          # UWN effective switched capacitance
    cap_base: float = 0.0      # black-box model intercept (C0)
    cap_slope: float = 0.0     # black-box model slope (C1, per unit h)
    area: float = 1.0

    def energy(self, vdd: float, cap_unit: float,
               hamming_fraction: Optional[float] = None) -> float:
        """Energy per activation (J)."""
        if hamming_fraction is None or self.cap_slope == 0.0:
            cap = self.cap_per_op
        else:
            cap = self.cap_base + self.cap_slope * hamming_fraction
        return 0.5 * cap * cap_unit * vdd ** 2


class ModuleLibrary:
    """Module variants per op type ([17]: power/delay trade-offs)."""

    def __init__(self, modules: Sequence[Module]):
        self.modules = list(modules)

    def variants(self, op: str) -> List[Module]:
        return [m for m in self.modules if m.op == op]

    def fastest(self, op: str) -> Module:
        return min(self.variants(op), key=lambda m: m.delay)

    def lowest_power(self, op: str) -> Module:
        return min(self.variants(op), key=lambda m: m.cap_per_op)


def default_module_library() -> ModuleLibrary:
    """Characterization-shaped defaults (cap in the units of
    repro.power.model; an n-bit ripple adder switches ~an order of
    magnitude less capacitance than an array multiplier)."""
    return ModuleLibrary([
        Module("add_fast", "add", 1, cap_per_op=60.0, cap_base=12.0,
               cap_slope=96.0, area=2.0),
        Module("add_slow", "add", 2, cap_per_op=40.0, cap_base=8.0,
               cap_slope=64.0, area=1.0),
        Module("sub_fast", "sub", 1, cap_per_op=64.0, cap_base=13.0,
               cap_slope=102.0, area=2.0),
        Module("mul_fast", "mul", 2, cap_per_op=600.0, cap_base=120.0,
               cap_slope=960.0, area=10.0),
        Module("mul_slow", "mul", 3, cap_per_op=420.0, cap_base=84.0,
               cap_slope=672.0, area=6.0),
    ])


def pfa_power(dfg: DFG, schedule: Schedule,
              module_for_op: Dict[str, Module],
              params: Optional[PowerParameters] = None,
              samples_per_second: Optional[float] = None) -> float:
    """UWN/PFA power: Σ activations · E_module / sample period (W)."""
    from repro.arch.scheduling import schedule_length

    params = params or PowerParameters()
    length = max(1, schedule_length(dfg, schedule))
    rate = samples_per_second if samples_per_second is not None \
        else params.frequency / length
    energy = 0.0
    for op in dfg.compute_ops():
        module = module_for_op[op.op]
        energy += module.energy(params.vdd, params.cap_unit)
    return energy * rate


def activity_power(dfg: DFG, schedule: Schedule,
                   module_for_op: Dict[str, Module],
                   hamming_fractions: Dict[str, float],
                   params: Optional[PowerParameters] = None,
                   samples_per_second: Optional[float] = None) -> float:
    """Black-box capacitance power using per-op input statistics."""
    from repro.arch.scheduling import schedule_length

    params = params or PowerParameters()
    length = max(1, schedule_length(dfg, schedule))
    rate = samples_per_second if samples_per_second is not None \
        else params.frequency / length
    energy = 0.0
    for op in dfg.compute_ops():
        module = module_for_op[op.op]
        h = hamming_fractions.get(op.name, 0.5)
        energy += module.energy(params.vdd, params.cap_unit, h)
    return energy * rate


@dataclass
class ModuleCharacterization:
    """Measured models for one gate-level module."""

    module: Module
    samples: List[Tuple[float, float]]  # (hamming fraction, cap/op)

    def prediction_error(self, h: float, measured_cap: float,
                         model: str = "blackbox") -> float:
        if model == "uwn":
            pred = self.module.cap_per_op
        else:
            pred = self.module.cap_base + self.module.cap_slope * h
        return abs(pred - measured_cap) / max(measured_cap, 1e-12)


def measure_switched_cap(net: Network, vectors: List[Dict[str, int]],
                         params: Optional[PowerParameters] = None
                         ) -> float:
    """Gate-level ground truth: switched capacitance per input vector."""
    params = params or PowerParameters()
    count = len(vectors)
    words = words_from_vectors(vectors)
    for pi in net.inputs:
        words.setdefault(pi, 0)
    transitions = simulate_transitions(net, words, count)
    total = 0.0
    for name, t in transitions.items():
        total += t * node_capacitance(net, name, params)
    return total / max(1, count - 1)


def characterize_module(net: Network, op: str, name: str, delay: int = 1,
                        num_vectors: int = 512, seed: int = 0,
                        params: Optional[PowerParameters] = None
                        ) -> ModuleCharacterization:
    """Build UWN and black-box models for a gate-level module.

    Sweeps input streams with different temporal correlation (hence
    different average input Hamming fractions) and fits
    ``cap = C0 + C1·h`` by least squares; the UWN capacitance is the
    white-noise (h = 0.5) measurement.
    """
    rng = random.Random(seed)
    pis = list(net.inputs)
    samples: List[Tuple[float, float]] = []
    for correlation in (0.0, 0.25, 0.5, 0.75, 0.9):
        vectors: List[Dict[str, int]] = []
        prev = {pi: rng.getrandbits(1) for pi in pis}
        vectors.append(dict(prev))
        flips = 0
        for _ in range(num_vectors - 1):
            cur = {}
            for pi in pis:
                if rng.random() < correlation:
                    cur[pi] = prev[pi]
                else:
                    cur[pi] = rng.getrandbits(1)
                flips += cur[pi] ^ prev[pi]
            vectors.append(cur)
            prev = cur
        h = flips / ((num_vectors - 1) * len(pis))
        cap = measure_switched_cap(net, vectors, params)
        samples.append((h, cap))
    # Least-squares fit cap = C0 + C1 * h.
    n = len(samples)
    sx = sum(h for h, _ in samples)
    sy = sum(c for _, c in samples)
    sxx = sum(h * h for h, _ in samples)
    sxy = sum(h * c for h, c in samples)
    denom = n * sxx - sx * sx
    c1 = (n * sxy - sx * sy) / denom if denom else 0.0
    c0 = (sy - c1 * sx) / n
    uwn = min(samples, key=lambda s: abs(s[0] - 0.5))[1]
    module = Module(name=name, op=op, delay=delay, cap_per_op=uwn,
                    cap_base=c0, cap_slope=c1)
    return ModuleCharacterization(module=module, samples=samples)
