"""Reference implementations the tests hold library code to.

Each oracle here is a slower or more direct computation of something the
library computes another way; no library module calls them, so they
live with the tests:

* :func:`minimize_exact` / :func:`is_minimum_size` — Quine–McCluskey
  exact two-level minimization, the ground truth for the heuristic
  ``Cover.minimize`` (≲ 10 variables);
* :func:`is_behaviourally_equivalent` — random co-simulation of two
  STGs, the check ``minimize_stg`` is held to;
* :func:`write_kiss` — the KISS writer that round-trips ``read_kiss``;
* :func:`stationary_distribution` — an STG's long-run state
  probabilities, straight from ``transition_matrix``;
* :func:`energy_of_sequence` — switch-level charging energy of a series
  stack over an explicit vector sequence, the reference for
  ``SeriesStack.expected_energy``;
* :func:`arrival_times` — static arrival times under a sizing, from the
  sizer's own timing model;
* :func:`cover_probability` — a cover's probability by Shannon
  recursion on the cover itself, the reference for the plans that
  ``Cover.probability`` evaluates.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.library.transistors import SeriesStack
from repro.logic.cube import Cube
from repro.logic.netlist import Network
from repro.logic.sop import Cover
from repro.opt.circuit.sizing import _Timing
from repro.opt.seq.stg import STG
from repro.power.model import PowerParameters

# -- exact two-level minimization (Quine–McCluskey + covering) --------------


def prime_implicants(on: Cover, dc: Optional[Cover] = None
                     ) -> List[Cube]:
    """All prime implicants of ON ∪ DC (Quine–McCluskey merging)."""
    n = on.num_vars
    dc = dc if dc is not None else Cover.zero(n)
    care = [m for m in range(1 << n)
            if on.evaluate(m) or dc.evaluate(m)]
    if not care:
        return []
    if len(care) == 1 << n:
        return [Cube.universe(n)]
    current: Set[Tuple[int, int]] = {((1 << n) - 1, m) for m in care}
    primes: List[Cube] = []
    while current:
        merged_from: Set[Tuple[int, int]] = set()
        nxt: Set[Tuple[int, int]] = set()
        by_mask: Dict[int, List[int]] = {}
        for mask, value in current:
            by_mask.setdefault(mask, []).append(value)
        for mask, values in by_mask.items():
            vset = set(values)
            for value in values:
                for bit_index in range(n):
                    bit = 1 << bit_index
                    if not mask & bit:
                        continue
                    partner = value ^ bit
                    if partner in vset:
                        merged_from.add((mask, value))
                        merged_from.add((mask, partner))
                        nxt.add((mask & ~bit, value & ~bit))
        for mask, value in current:
            if (mask, value) not in merged_from:
                primes.append(Cube(on.num_vars, mask, value))
        current = nxt
    # Deduplicate (merging can produce the same implicant twice).
    return list({(c.mask, c.value): c for c in primes}.values())


def _min_cover(minterms: List[int], primes: List[Cube]) -> List[Cube]:
    """Branch-and-bound minimum unate covering."""
    covers: List[Set[int]] = [
        {m for m in minterms if p.covers_minterm(m)} for p in primes]

    best: List[int] = list(range(len(primes)))

    def search(uncovered: Set[int], chosen: List[int],
               available: List[int]) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + 1 >= len(best):
            return
        # Essential/row-dominance style branching: pick the hardest
        # minterm and try each prime covering it.
        target = min(uncovered,
                     key=lambda m: sum(1 for i in available
                                       if m in covers[i]))
        candidates = [i for i in available if target in covers[i]]
        candidates.sort(key=lambda i: -len(covers[i] & uncovered))
        if not candidates:
            return            # uncoverable under this branch
        for i in candidates:
            search(uncovered - covers[i], chosen + [i],
                   [j for j in available if j != i])

    search(set(minterms), [], list(range(len(primes))))
    return [primes[i] for i in best]


def minimize_exact(on: Cover, dc: Optional[Cover] = None) -> Cover:
    """Exact minimum-cube cover of ON against the DC-set."""
    n = on.num_vars
    dc = dc if dc is not None else Cover.zero(n)
    care_on = [m for m in range(1 << n)
               if on.evaluate(m) and not dc.evaluate(m)]
    if not care_on:
        return Cover.zero(n)
    primes = prime_implicants(on, dc)
    chosen = _min_cover(care_on, primes)
    return Cover(n, chosen)


def is_minimum_size(cover: Cover, on: Cover,
                    dc: Optional[Cover] = None) -> bool:
    """True iff ``cover`` has as few cubes as the exact optimum."""
    return len(cover.sccc()) <= len(minimize_exact(on, dc))


# -- state transition graphs -------------------------------------------------


def is_behaviourally_equivalent(a: STG, b: STG, a_start: str,
                                b_start: str, length: int = 200,
                                seed: int = 0) -> bool:
    """Random co-simulation check between two machines."""
    rng = random.Random(seed)
    sa, sb = a_start, b_start
    for _ in range(length):
        m = rng.getrandbits(a.num_inputs) if a.num_inputs else 0
        sa, oa = a.next_state(sa, m)
        sb, ob = b.next_state(sb, m)
        if oa != ob:
            return False
    return True


def write_kiss(stg: STG) -> str:
    lines = [f".i {stg.num_inputs}", f".o {stg.num_outputs}",
             f".s {len(stg.states)}", f".p {len(stg.transitions)}"]
    if stg.reset_state:
        lines.append(f".r {stg.reset_state}")
    for t in stg.transitions:
        lines.append(f"{t.input_cube.to_string()} {t.src} {t.dst} "
                     f"{t.output}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


def stationary_distribution(stg: STG,
                            input_probs: Optional[Sequence[float]] = None
                            ) -> Dict[str, float]:
    """State probabilities in the long run from ``reset_state``
    (``states[0]`` when unset), by
    :func:`~repro.power.markov.limit_distribution`."""
    return stg._limit(stg.transition_matrix(input_probs))


# -- circuit level ------------------------------------------------------------


def energy_of_sequence(stack: SeriesStack,
                       vectors: Sequence[Sequence[int]]) -> float:
    """Total charging energy of ``stack`` over an input-vector
    sequence."""
    caps = stack._node_caps()
    vdd2 = stack.model.vdd ** 2
    energy = 0.0
    prev: Optional[List[float]] = None
    for vec in vectors:
        states = stack.node_states(vec, prev)
        if prev is not None:
            for c, before, after in zip(caps, prev, states):
                if after > before:
                    energy += c * (after - before) * vdd2
        prev = states
    return energy


def arrival_times(net: Network, sizes: Dict[str, float],
                  params: PowerParameters) -> Dict[str, float]:
    t = _Timing(net, params)
    return t.arrivals(t.delays(sizes))


# -- cover probability -------------------------------------------------------


def cover_probability(cover: Cover, probs: Sequence[float]) -> float:
    """Exact probability that ``cover`` is 1, ``probs[i]`` the
    probability of variable *i* (independent), by Shannon recursion on
    the cofactor covers."""
    if not cover.cubes:
        return 0.0
    if any(c.is_universe() for c in cover.cubes):
        return 1.0
    var = cover._most_binate_var()
    assert var is not None
    p = probs[var]
    hi = cover.cofactor_literal(var, 1)
    lo = cover.cofactor_literal(var, 0)
    return p * cover_probability(hi, probs) + \
        (1.0 - p) * cover_probability(lo, probs)
