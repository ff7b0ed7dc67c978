"""Low-power bus coding ([39], Stan & Burleson; Section III-C.1).

Bus wires carry large capacitance, so the cost metric is simply the
number of wire transitions per transfer.  Implemented schemes:

* **bus-invert**: one extra line E; send the complemented word whenever
  that halves the transitions — the paper's worked example.  Bounds the
  per-transfer transitions to ⌈(n+1)/2⌉ and cuts the expected count on
  random data.
* **partitioned bus-invert**: independent invert lines per sub-bus
  (better for wide buses, where one global decision is too coarse).
* **Gray coding** for sequential address streams (single-transition
  steps).
* **limited-weight codes**: transition signalling through a codebook
  that gives frequent symbols low-weight codewords.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.vectors import stream_transitions


@dataclass
class BusCodingResult:
    """Transition accounting for one coding scheme on one stream."""

    scheme: str
    width: int
    extra_lines: int
    transfers: int
    transitions_uncoded: int
    transitions_coded: int     # includes the extra lines' own flips
    encoded: List[Tuple[int, int]]  # (word on bus, extra-line value)

    @property
    def saving(self) -> float:
        if not self.transitions_uncoded:
            return 0.0
        return 1.0 - self.transitions_coded / self.transitions_uncoded

    @property
    def per_transfer(self) -> float:
        steps = max(1, self.transfers - 1)
        return self.transitions_coded / steps


def bus_invert(stream: Sequence[int], width: int) -> BusCodingResult:
    """Classic bus-invert coding with a single invert line."""
    mask = (1 << width) - 1
    encoded: List[Tuple[int, int]] = []
    transitions = 0
    prev_bus = 0
    prev_e = 0
    for i, value in enumerate(stream):
        value &= mask
        if i == 0:
            bus, e = value, 0
        else:
            dist = (prev_bus ^ value).bit_count()
            if 2 * dist > width:
                bus, e = ~value & mask, 1
            elif 2 * dist == width:
                # Tie: keep the previous E value so the invert line
                # itself does not flip.
                e = prev_e
                bus = ~value & mask if e else value
            else:
                bus, e = value, 0
            transitions += (prev_bus ^ bus).bit_count() + (prev_e ^ e)
        encoded.append((bus, e))
        prev_bus, prev_e = bus, e
    return BusCodingResult(
        scheme="bus-invert", width=width, extra_lines=1,
        transfers=len(stream),
        transitions_uncoded=stream_transitions(v & mask for v in stream),
        transitions_coded=transitions, encoded=encoded)


def partitioned_bus_invert(stream: Sequence[int], width: int,
                           partitions: int) -> BusCodingResult:
    """Bus-invert applied independently to ``partitions`` equal slices."""
    if width % partitions:
        raise ValueError("width must divide evenly into partitions")
    slice_w = width // partitions
    slice_mask = (1 << slice_w) - 1
    sub_results = []
    for p in range(partitions):
        sub = [(v >> (p * slice_w)) & slice_mask for v in stream]
        sub_results.append(bus_invert(sub, slice_w))
    total = sum(r.transitions_coded for r in sub_results)
    encoded = []
    for i in range(len(stream)):
        word = 0
        elines = 0
        for p, r in enumerate(sub_results):
            bus, e = r.encoded[i]
            word |= bus << (p * slice_w)
            elines |= e << p
        encoded.append((word, elines))
    return BusCodingResult(
        scheme=f"bus-invert/{partitions}", width=width,
        extra_lines=partitions, transfers=len(stream),
        transitions_uncoded=stream_transitions(
            v & ((1 << width) - 1) for v in stream),
        transitions_coded=total, encoded=encoded)


def _to_gray(x: int) -> int:
    return x ^ (x >> 1)


def gray_code_stream(stream: Sequence[int], width: int
                     ) -> BusCodingResult:
    """Gray-code the words (ideal for in-order address streams)."""
    mask = (1 << width) - 1
    encoded = [(_to_gray(v & mask), 0) for v in stream]
    return BusCodingResult(
        scheme="gray", width=width, extra_lines=0, transfers=len(stream),
        transitions_uncoded=stream_transitions(v & mask for v in stream),
        transitions_coded=stream_transitions(b for b, _ in encoded),
        encoded=encoded)


def _low_weight_codes(width: int, count: int) -> List[int]:
    """The ``count`` lowest-weight codewords of ``width`` bits."""
    codes = sorted(range(1 << width), key=lambda c: (c.bit_count(), c))
    if count > len(codes):
        raise ValueError("alphabet larger than the code space")
    return codes[:count]


def limited_weight_code(stream: Sequence[int], width: int,
                        code_width: Optional[int] = None
                        ) -> BusCodingResult:
    """Limited-weight coding with transition signalling.

    Symbols are ranked by frequency and assigned codewords in increasing
    Hamming weight; the bus carries XOR-accumulated codewords so each
    transfer flips exactly weight(code) wires.  ``code_width`` defaults
    to the bus width (a wider code trades wires for fewer transitions).
    """
    code_width = code_width or width
    freq = Counter(stream)
    symbols = [s for s, _n in freq.most_common()]
    codes = _low_weight_codes(code_width, len(symbols))
    book: Dict[int, int] = dict(zip(symbols, codes))
    encoded: List[Tuple[int, int]] = []
    transitions = 0
    bus = 0
    for i, value in enumerate(stream):
        code = book[value]
        if i > 0:
            bus ^= code          # transition signalling
            transitions += code.bit_count()
        else:
            bus = 0
        encoded.append((bus, 0))
    mask = (1 << width) - 1
    return BusCodingResult(
        scheme="limited-weight", width=code_width,
        extra_lines=max(0, code_width - width), transfers=len(stream),
        transitions_uncoded=stream_transitions(v & mask for v in stream),
        transitions_coded=transitions, encoded=encoded)
