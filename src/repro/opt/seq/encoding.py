"""Low-power state encoding (Section III-C.1; [35], [47], [18]).

The register-switching power of an encoded FSM is the expected Hamming
distance between consecutive state codes:

    cost(E) = Σ_{(s,t)} w(s,t) · H(E(s), E(t))

with w the stationary edge weights from the STG's Markov analysis.
High-weight state pairs should get uni-distant codes, balanced against
the combinational logic the encoding induces — `evaluate_encoding`
synthesizes the FSM and measures total power so both effects are seen.

Encoders: natural (enumeration order), one-hot, a weight-greedy
constructive embedding, and simulated annealing over code permutations.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.opt.seq.stg import STG, synthesize_fsm
from repro.power.activity import sequential_activity
from repro.power.model import PowerParameters, PowerReport, power_report


def encoding_cost(stg: STG, encoding: Dict[str, int],
                  weights: Optional[Dict[Tuple[str, str], float]] = None,
                  input_probs: Optional[Sequence[float]] = None) -> float:
    """Expected flip-flop transitions per cycle under the encoding."""
    if weights is None:
        weights = stg.edge_weights(input_probs)
    return sum(w * (encoding[s] ^ encoding[t]).bit_count()
               for (s, t), w in weights.items())


def encode_natural(stg: STG) -> Dict[str, int]:
    """States numbered in declaration order (the unoptimized baseline)."""
    return {s: i for i, s in enumerate(stg.states)}


def encode_onehot(stg: STG) -> Dict[str, int]:
    """One-hot encoding: every transition between distinct states costs
    exactly 2 flip-flop toggles, at the price of n flip-flops."""
    return {s: 1 << i for i, s in enumerate(stg.states)}


def encode_greedy(stg: STG,
                  input_probs: Optional[Sequence[float]] = None,
                  num_bits: Optional[int] = None) -> Dict[str, int]:
    """Constructive weight-greedy embedding.

    Edges are visited heaviest-first; each unplaced endpoint takes the
    free code of minimum Hamming distance from its (placed) partner —
    the "uni-distant codes for high-traffic pairs" intuition the paper
    states.
    """
    n = len(stg.states)
    bits = num_bits if num_bits is not None \
        else max(1, math.ceil(math.log2(max(2, n))))
    if (1 << bits) < n:
        raise ValueError("not enough code bits for the state count")
    free = set(range(1 << bits))
    weights = stg.edge_weights(input_probs)
    # Aggregate symmetric pair weights (excluding self-loops).
    pair_w: Dict[Tuple[str, str], float] = {}
    for (s, t), w in weights.items():
        if s == t:
            continue
        key = (min(s, t), max(s, t))
        pair_w[key] = pair_w.get(key, 0.0) + w
    order = sorted(pair_w.items(), key=lambda kv: -kv[1])
    encoding: Dict[str, int] = {}

    def place(state: str, near: Optional[int]) -> None:
        if state in encoding:
            return
        if near is None:
            code = min(free)
        else:
            code = min(free, key=lambda c: ((c ^ near).bit_count(), c))
        encoding[state] = code
        free.discard(code)

    for (s, t), _w in order:
        if s not in encoding and t not in encoding:
            place(s, None)
            place(t, encoding[s])
        elif s in encoding:
            place(t, encoding[s])
        else:
            place(s, encoding[t])
    for s in stg.states:
        place(s, None)
    return encoding


def _check_start(stg: STG, start: Dict[str, int], bits: int) -> None:
    """Raise ``ValueError`` naming the state unless ``start`` gives every
    state of ``stg`` (and nothing else) a distinct code in
    ``[0, 2**bits)``."""
    for state in stg.states:
        if state not in start:
            raise ValueError(f"start encoding has no code for {state!r}")
    known = set(stg.states)
    owner: Dict[int, str] = {}
    for state, code in start.items():
        if state not in known:
            raise ValueError(f"start encoding names {state!r}, which is "
                             "not a state of the STG")
        if not isinstance(code, int) or isinstance(code, bool) or \
                not 0 <= code < (1 << bits):
            raise ValueError(f"start code of {state!r} must be an int in "
                             f"[0, {1 << bits}), got {code!r}")
        if code in owner:
            raise ValueError(f"start code {code} of {state!r} is also "
                             f"the code of {owner[code]!r}")
        owner[code] = state


def encode_anneal(stg: STG,
                  input_probs: Optional[Sequence[float]] = None,
                  num_bits: Optional[int] = None, seed: int = 0,
                  iterations: int = 4000,
                  start: Optional[Dict[str, int]] = None
                  ) -> Dict[str, int]:
    """Simulated annealing over code assignments (swap / reassign moves),
    minimizing :func:`encoding_cost`.

    ``start`` (default: :func:`encode_greedy`) must give every state a
    distinct code that fits in the code bits; ``ValueError`` otherwise.
    Each distinct assignment is priced once per call: costs are memoized
    by the code tuple and summed in :func:`encoding_cost`'s term order,
    so the walk — and the result — is the same as re-pricing every
    proposal.  The result keeps the start encoding's key order.
    """
    rng = random.Random(seed)
    n = len(stg.states)
    bits = num_bits if num_bits is not None \
        else max(1, math.ceil(math.log2(max(2, n))))
    if (1 << bits) < n:
        raise ValueError("not enough code bits for the state count")
    if start is None:
        start = encode_greedy(stg, input_probs, bits)
    else:
        _check_start(stg, start, bits)
    weights = stg.edge_weights(input_probs)
    states = stg.states
    pos = {s: i for i, s in enumerate(states)}
    edges = [(pos[s], pos[t], w) for (s, t), w in weights.items()]
    codes = [start[s] for s in states]
    memo: Dict[Tuple[int, ...], float] = {}

    def price() -> float:
        key = tuple(codes)
        cost = memo.get(key)
        if cost is None:
            cost = memo[key] = sum(w * (codes[i] ^ codes[j]).bit_count()
                                   for i, j, w in edges)
        return cost

    cost = price()
    best = tuple(codes)
    best_cost = cost
    temp = max(cost, 1e-3)
    cooling = 0.999
    positions = range(n)
    free = sorted(set(range(1 << bits)).difference(codes))
    for _ in range(iterations):
        a = rng.choice(positions)
        if rng.random() < 0.5 and free:
            # Move a state to a free code.
            new_code = rng.choice(free)
            old_code = codes[a]
            codes[a] = new_code
            new_cost = price()
            if new_cost <= cost or \
                    rng.random() < math.exp((cost - new_cost) / temp):
                cost = new_cost
                del free[bisect.bisect_left(free, new_code)]
                bisect.insort(free, old_code)
            else:
                codes[a] = old_code
        else:
            b = rng.choice(positions)
            if a == b:
                continue
            codes[a], codes[b] = codes[b], codes[a]
            new_cost = price()
            if new_cost <= cost or \
                    rng.random() < math.exp((cost - new_cost) / temp):
                cost = new_cost
            else:
                codes[a], codes[b] = codes[b], codes[a]
        if cost < best_cost:
            best, best_cost = tuple(codes), cost
        temp *= cooling
    return {s: best[pos[s]] for s in start}


@dataclass
class EncodingResult:
    """Synthesis + power evaluation of one encoding."""

    encoding: Dict[str, int]
    register_cost: float        # expected FF transitions / cycle
    literals: int               # two-level logic complexity
    report: PowerReport

    @property
    def total_power(self) -> float:
        return self.report.total


def evaluate_encoding(stg: STG, encoding: Dict[str, int],
                      sequence_length: int = 2000, seed: int = 0,
                      input_probs: Optional[Sequence[float]] = None,
                      params: Optional[PowerParameters] = None
                      ) -> EncodingResult:
    """Synthesize the encoded FSM and measure its power on a random
    input sequence (register switching *and* induced logic)."""
    net = synthesize_fsm(stg, encoding)
    seq = stg.random_input_sequence(sequence_length, seed)
    names = [f"x{i}" for i in range(stg.num_inputs)]
    vectors = [{x: (v >> i) & 1 for i, x in enumerate(names)} for v in seq]
    activity = sequential_activity(net, vectors)
    report = power_report(net, activity, params)
    return EncodingResult(
        encoding=dict(encoding),
        register_cost=encoding_cost(stg, encoding,
                                    input_probs=input_probs),
        literals=net.num_literals(),
        report=report)
