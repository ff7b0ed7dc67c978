"""Exact average-power estimation for sequential circuits ([28]).

Monteiro & Devadas: the average power of a sequential machine under
stationary input statistics is an expectation over the chain's
stationary distribution, not over uniform random states.  This module
enumerates the reachable state space of a :class:`Network`, solves for
the stationary distribution of the (state × input) Markov chain, and
computes *exact* per-node switching activities:

    act(n) = Σ_{s,x} π(s)·P(x) · E_{x'}[ v_n(s,x) ≠ v_n(δ(s,x), x') ]

Feasible whenever ``|reachable states| × 2^inputs`` is small — the
regime in which the surveyed FSM optimizations operate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.logic.netlist import Network
from repro.sim.compiled import get_compiled
from repro.sim.vectors import exhaustive_words


def _popcount(x: int) -> int:
    return x.bit_count()


@dataclass
class SequentialAnalysis:
    """Reachable-state analysis results."""

    states: List[Tuple[int, ...]]          # latch-value vectors
    stationary: List[float]
    activities: Dict[str, float]
    node_probabilities: Dict[str, float]

    @property
    def num_states(self) -> int:
        return len(self.states)


def exact_sequential_activity(net: Network,
                              input_probs: Optional[Dict[str, float]]
                              = None,
                              max_states: int = 4096,
                              iterations: int = 2000
                              ) -> SequentialAnalysis:
    """Exact node activities of a sequential network.

    ``input_probs[pi]`` is P(pi = 1) per cycle (inputs temporally and
    spatially independent).  Raises if the reachable state space
    exceeds ``max_states``.
    """
    input_probs = input_probs or {}
    pis = list(net.inputs)
    latches = [l.output for l in net.latches]
    n_in = len(pis)
    num_minterms = 1 << n_in
    minterm_prob = []
    for m in range(num_minterms):
        p = 1.0
        for i, pi in enumerate(pis):
            q = input_probs.get(pi, 0.5)
            p *= q if (m >> i) & 1 else 1.0 - q
        minterm_prob.append(p)

    mask = (1 << num_minterms) - 1
    input_words = exhaustive_words(pis)
    compiled = get_compiled(net)

    # BFS over reachable states; per state, evaluate all inputs at once.
    init = tuple(l.init for l in net.latches)
    index: Dict[Tuple[int, ...], int] = {init: 0}
    states: List[Tuple[int, ...]] = [init]
    value_words: List[Dict[str, int]] = []
    successors: List[List[int]] = []       # [state][minterm] -> state idx
    frontier = [init]
    while frontier:
        nxt_frontier = []
        for state in frontier:
            state_words = {name: (mask if bit else 0)
                           for name, bit in zip(latches, state)}
            nxt, values = compiled.step(state_words, input_words, mask)
            value_words.append(values)
            succ_row = []
            for m in range(num_minterms):
                succ = tuple((nxt[l] >> m) & 1 for l in latches)
                if succ not in index:
                    if len(states) >= max_states:
                        raise RuntimeError(
                            f"reachable state space exceeds "
                            f"{max_states} states")
                    index[succ] = len(states)
                    states.append(succ)
                    nxt_frontier.append(succ)
                succ_row.append(index[succ])
            successors.append(succ_row)
        # value_words/successors are appended in BFS discovery order,
        # which matches `states` ordering because each state is
        # processed exactly once.
        frontier = nxt_frontier

    num_states = len(states)
    # Stationary distribution by power iteration.
    pi_dist = [1.0 / num_states] * num_states
    for _ in range(iterations):
        nxt = [0.0] * num_states
        for s in range(num_states):
            ps = pi_dist[s]
            if ps == 0.0:
                continue
            row = successors[s]
            for m in range(num_minterms):
                nxt[row[m]] += ps * minterm_prob[m]
        delta = sum(abs(a - b) for a, b in zip(nxt, pi_dist))
        pi_dist = nxt
        if delta < 1e-13:
            break

    # Per node: W[s] = Σ_x P(x)·v(s, x), then
    # act = Σ_{s,x} π(s) P(x) (v ? 1-W[succ] : W[succ]).
    activities: Dict[str, float] = {}
    probabilities: Dict[str, float] = {}
    node_names = list(net.nodes)
    for name in node_names:
        weighted_ones = []
        for s in range(num_states):
            w = value_words[s][name]
            total = 0.0
            for m in range(num_minterms):
                if (w >> m) & 1:
                    total += minterm_prob[m]
            weighted_ones.append(total)
        act = 0.0
        prob = 0.0
        for s in range(num_states):
            ps = pi_dist[s]
            if ps == 0.0:
                continue
            w = value_words[s][name]
            row = successors[s]
            prob += ps * weighted_ones[s]
            for m in range(num_minterms):
                pm = minterm_prob[m]
                if pm == 0.0:
                    continue
                wo = weighted_ones[row[m]]
                if (w >> m) & 1:
                    act += ps * pm * (1.0 - wo)
                else:
                    act += ps * pm * wo
        activities[name] = act
        probabilities[name] = prob
    return SequentialAnalysis(states=states, stationary=pi_dist,
                              activities=activities,
                              node_probabilities=probabilities)


def exact_sequential_power(net: Network,
                           input_probs: Optional[Dict[str, float]]
                           = None, params=None):
    """Convenience: exact activities followed by the Eqn-1 model."""
    from repro.power.model import power_report

    analysis = exact_sequential_activity(net, input_probs)
    return power_report(net, analysis.activities, params)
