"""Switch-level model of a series transistor stack.

This is the model behind the transistor-reordering optimization of
Section II-A ([32], [42]): in a series pull-down (NAND-style) or pull-up
(NOR-style) chain, the *internal* nodes between transistors carry
parasitic drain/source capacitance, and how often they charge and
discharge depends on which input signal drives which position.

State model (per clock step, inputs switch simultaneously):

* the chain conducts iff all inputs are ON; then the output and all
  internal nodes are pulled to the rail (logic 0 for a pull-down);
* otherwise the output is restored by the complementary network
  (logic 1), and internal node *i* (between transistor *i* and *i+1*,
  transistor 1 adjacent to the output):

  - follows the output (charges) iff transistors 1..i are all ON,
  - is pulled to the rail iff transistors i+1..n are all ON,
  - otherwise floats and retains its previous value.

Energy is counted as C·V² per 0→1 charge event on each node.  Delay uses
the Elmore model of the discharge through the full stack triggered by the
last-arriving input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.power.markov import limit_distribution


@dataclass(frozen=True)
class StackEnergyModel:
    """Capacitance/resistance parameters of the stack (arbitrary units)."""

    c_output: float = 4.0      # load + drain cap at the gate output
    c_internal: float = 1.0    # drain+source cap at each internal node
    r_on: float = 1.0          # on-resistance of one transistor
    vdd: float = 1.0


class SeriesStack:
    """An n-transistor series chain with a given input-to-position order.

    ``order[k]`` is the index of the input signal placed at position
    ``k`` (position 0 is adjacent to the output node).
    """

    def __init__(self, num_inputs: int, order: Optional[Sequence[int]] = None,
                 model: Optional[StackEnergyModel] = None):
        self.n = num_inputs
        self.order = list(order) if order is not None \
            else list(range(num_inputs))
        if sorted(self.order) != list(range(num_inputs)):
            raise ValueError("order must be a permutation of inputs")
        self.model = model or StackEnergyModel()

    # -- steady-state node values ------------------------------------------

    def node_states(self, inputs: Sequence[int],
                    previous: Optional[List[float]] = None
                    ) -> List[float]:
        """Voltages (0/1, or retained value) of [output, int_1..int_{n-1}].

        ``inputs`` is indexed by signal; positions read through ``order``.
        """
        on = [inputs[self.order[k]] for k in range(self.n)]
        states: List[float] = [0.0] * self.n
        all_on = all(on)
        out_v = 0.0 if all_on else 1.0
        states[0] = out_v
        for i in range(1, self.n):
            conduct_above = all(on[:i])
            conduct_below = all(on[i:])
            if conduct_below:
                states[i] = 0.0
            elif conduct_above:
                states[i] = out_v
            else:
                states[i] = previous[i] if previous is not None else 0.0
        return states

    # -- energy -------------------------------------------------------------

    def _node_caps(self) -> List[float]:
        return [self.model.c_output] + \
            [self.model.c_internal] * (self.n - 1)

    def expected_energy(self, probs: Sequence[float]) -> float:
        """Exact expected charging energy per cycle in steady state.

        Inputs are spatially and temporally independent with
        ``probs[i] = P(input i = 1)``.  Because floating internal nodes
        retain state, the stack is a Markov chain over node-state
        vectors, walked once from its settled state under the first
        input vector of nonzero probability and solved exactly by
        :func:`~repro.power.markov.limit_distribution`.
        """
        caps = self._node_caps()
        vdd2 = self.model.vdd ** 2
        inputs = []
        for v in range(1 << self.n):
            bits = [(v >> i) & 1 for i in range(self.n)]
            p_v = math.prod(q if b else 1.0 - q for q, b in zip(probs, bits))
            if p_v > 0.0:
                inputs.append((bits, p_v))
        states = [tuple(self.node_states(inputs[0][0]))]
        index = {states[0]: 0}
        rows: List[List[Tuple[int, float]]] = []
        energy = []                 # per state: Σ_v P(v)·E(state → v)
        for state in states:
            rows.append([])
            energy.append(0.0)
            for bits, p_v in inputs:
                s1 = tuple(self.node_states(bits, previous=list(state)))
                if s1 not in index:
                    index[s1] = len(states)
                    states.append(s1)
                rows[-1].append((index[s1], p_v))
                energy[-1] += p_v * vdd2 * sum(
                    c * (a - b) for c, b, a in zip(caps, state, s1) if a > b)
        return sum(p * e for p, e in zip(limit_distribution(rows), energy))

    # -- delay ----------------------------------------------------------------

    def elmore_delay(self, arrival: Sequence[float]) -> float:
        """Gate settling time given per-input arrival times.

        When the last input (at position k) turns on, the output and the
        internal nodes above position k discharge through the whole
        stack; the Elmore delay of that RC ladder grows with k, so
        late-arriving signals belong near the output (the well-known
        rule the paper cites).
        """
        m = self.model
        worst = 0.0
        for k in range(self.n):
            # Nodes to discharge: output (index 0) and internals 1..k.
            tau = m.c_output * self.n * m.r_on
            for i in range(1, k + 1):
                tau += m.c_internal * (self.n - i) * m.r_on
            t = arrival[self.order[k]] + tau
            worst = max(worst, t)
        return worst
