"""Number-representation effects on datapath switching ([7]-era
observation used by the behavioral transformations of Section IV-B).

Slowly-varying signals (audio, sensor data) cross zero constantly; in
two's complement a sign change flips the whole upper word (sign
extension), whereas sign-magnitude flips only the sign bit plus the
small magnitude difference.  The trade reverses for arithmetic cost —
sign-magnitude adders are messier — which is why the representation
choice is workload-dependent.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from repro.sim import vectors


def to_twos_complement(value: int, width: int) -> int:
    mask = (1 << width) - 1
    return value & mask


def to_sign_magnitude(value: int, width: int) -> int:
    mag_mask = (1 << (width - 1)) - 1
    if value < 0:
        return (1 << (width - 1)) | ((-value) & mag_mask)
    return value & mag_mask


def stream_transitions(values: Sequence[int], width: int,
                       representation: str = "twos") -> int:
    """Total bit flips of a signed-value stream in a representation."""
    if representation == "twos":
        encode = to_twos_complement
    elif representation == "sign-magnitude":
        encode = to_sign_magnitude
    else:
        raise ValueError("representation must be 'twos' or "
                         "'sign-magnitude'")
    return vectors.stream_transitions(encode(v, width) for v in values)


def sine_stream(count: int, amplitude: float, period: float,
                noise: float = 0.0, seed: int = 0) -> List[int]:
    """A slowly-varying zero-crossing signal (integer samples)."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        x = amplitude * math.sin(2 * math.pi * k / period)
        if noise:
            x += rng.gauss(0.0, noise)
        out.append(int(round(x)))
    return out


def representation_comparison(values: Sequence[int], width: int
                              ) -> Tuple[int, int, float]:
    """(two's-complement flips, sign-magnitude flips, SM/TC ratio)."""
    tc = stream_transitions(values, width, "twos")
    sm = stream_transitions(values, width, "sign-magnitude")
    return tc, sm, (sm / tc if tc else 1.0)
