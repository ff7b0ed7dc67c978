"""Stimulus generation with controllable signal statistics.

Patterns are packed bit-parallel: a *word* is a Python int whose bit *k*
is the value in pattern *k*.  This lets the zero-delay simulator evaluate
thousands of patterns per netlist traversal.
"""

from __future__ import annotations

import numbers
import random
from itertools import pairwise
from typing import Dict, Iterable, List, Optional, Sequence


def check_probabilities(probs: Optional[Dict[str, float]]) -> None:
    """Raise ``ValueError`` naming the first signal of ``probs`` whose
    probability is not a number in [0, 1]: a NaN, a bool or a
    non-number is not one."""
    for name, p in (probs or {}).items():
        if isinstance(p, bool) or not isinstance(p, numbers.Real) or \
                not 0.0 <= p <= 1.0:
            raise ValueError(f"probability of {name!r} must be a number "
                             f"in [0, 1], not {p!r}")


def random_words(names: Sequence[str], count: int, seed: int = 0,
                 probs: Optional[Dict[str, float]] = None,
                 hold: Optional[Dict[str, float]] = None
                 ) -> Dict[str, int]:
    """Bernoulli stimulus with optional temporal correlation.

    ``probs[name]`` is P(signal = 1), default 0.5.  ``hold[name]`` is
    the per-cycle probability of *keeping* the previous value (lag-one
    correlation, the "known signal statistics" of [21]/[22]); default
    0.0 gives temporally independent patterns.  A value of either map
    outside [0, 1] raises ``ValueError`` (:func:`check_probabilities`).
    """
    check_probabilities(probs)
    check_probabilities(hold)
    rng = random.Random(seed)
    words: Dict[str, int] = {}
    for name in names:
        p = 0.5 if probs is None else probs.get(name, 0.5)
        h = 0.0 if hold is None else hold.get(name, 0.0)
        w = 0
        if h <= 0.0 and p == 0.5:
            w = rng.getrandbits(count) if count else 0
        elif h <= 0.0:
            for k in range(count):
                if rng.random() < p:
                    w |= 1 << k
        else:
            bit = 1 if rng.random() < p else 0
            for k in range(count):
                if k and rng.random() >= h:
                    bit = 1 if rng.random() < p else 0
                if bit:
                    w |= 1 << k
        words[name] = w
    return words


def exhaustive_words(names: Sequence[str]) -> Dict[str, int]:
    """Every input combination once: pattern *m* of the
    ``2 ** len(names)`` patterns gives ``names[i]`` bit *i* of *m*."""
    count = 1 << len(names)
    words: Dict[str, int] = {}
    for i, name in enumerate(names):
        # Bit i of m has period 2**(i+1): 2**i zeros, then 2**i ones.
        half = 1 << i
        w, width = ((1 << half) - 1) << half, 2 * half
        while width < count:
            w |= w << width
            width *= 2
        words[name] = w
    return words


def words_from_vectors(vectors: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Pack a list of scalar input vectors into words."""
    words: Dict[str, int] = {}
    for k, vec in enumerate(vectors):
        for name, val in vec.items():
            if val:
                words[name] = words.get(name, 0) | (1 << k)
            else:
                words.setdefault(name, 0)
    return words


def vectors_from_words(words: Dict[str, int], count: int
                       ) -> List[Dict[str, int]]:
    """Unpack words into a list of scalar vectors."""
    return [{name: (w >> k) & 1 for name, w in words.items()}
            for k in range(count)]


def random_bus_stream(width: int, count: int, seed: int = 0,
                      correlation: float = 0.0) -> List[int]:
    """Stream of exactly ``count`` bus values of ``width`` bits.

    ``correlation`` in [0, 1) is the per-bit probability of *keeping* the
    previous value; 0 gives i.i.d. uniform words (the worst case for bus
    coding experiments), values near 1 give slowly-varying data.
    ``count <= 0`` yields an empty stream.
    """
    if count <= 0:
        return []
    rng = random.Random(seed)
    mask = (1 << width) - 1
    out: List[int] = []
    prev = rng.getrandbits(width)
    out.append(prev)
    for _ in range(count - 1):
        if correlation <= 0.0:
            val = rng.getrandbits(width)
        else:
            keep = 0
            for b in range(width):
                if rng.random() < correlation:
                    keep |= 1 << b
            val = (prev & keep) | (rng.getrandbits(width) & ~keep & mask)
        out.append(val)
        prev = val
    return out


def counter_bus_stream(width: int, count: int, start: int = 0,
                       stride: int = 1) -> List[int]:
    """Sequential address trace (for Gray-coding experiments)."""
    mask = (1 << width) - 1
    return [(start + k * stride) & mask for k in range(count)]


def hamming(a: int, b: int) -> int:
    """Hamming distance between two bus values."""
    return (a ^ b).bit_count()


def stream_transitions(stream: Iterable[int]) -> int:
    """Total bit flips between consecutive words of ``stream``."""
    return sum(hamming(a, b) for a, b in pairwise(stream))
