"""One-hot residue arithmetic coding ([11], Chren; Section III-C.1).

A residue number system represents an integer by its residues modulo a
set of pairwise-coprime moduli; with each digit stored *one-hot*,
addition and multiplication by a constant become cyclic rotations of the
one-hot vector.  Any digit update flips at most two wires (the leaving
and the entering position), giving very low, data-independent switching
activity at the cost of more wires — the delay-power product argument
of [11].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import List, Sequence, Tuple

from repro.sim.vectors import stream_transitions


def residue_moduli_for(max_value: int,
                       candidates: Sequence[int] = (3, 5, 7, 11, 13, 16,
                                                    17, 19, 23)
                       ) -> List[int]:
    """Smallest prefix of pairwise-coprime moduli covering [0, max_value]."""
    chosen: List[int] = []
    rng = 1
    for m in candidates:
        if all(gcd(m, c) == 1 for c in chosen):
            chosen.append(m)
            rng *= m
            if rng > max_value:
                return chosen
    raise ValueError(f"cannot cover {max_value} with default moduli")


@dataclass(frozen=True)
class ResidueWord:
    """One RNS value: a tuple of residues, one per modulus."""

    digits: Tuple[int, ...]

    def wires(self, moduli: Sequence[int]) -> int:
        """Bit-vector of the full one-hot encoding (for flip counting)."""
        word = 0
        offset = 0
        for digit, m in zip(self.digits, moduli):
            word |= 1 << (offset + digit)
            offset += m
        return word


class OneHotResidue:
    """An RNS arithmetic unit over fixed moduli with one-hot digits."""

    def __init__(self, moduli: Sequence[int]):
        if len(set(moduli)) != len(moduli):
            raise ValueError("moduli must be distinct")
        for i, a in enumerate(moduli):
            for b in moduli[i + 1:]:
                if gcd(a, b) != 1:
                    raise ValueError("moduli must be pairwise coprime")
        self.moduli = list(moduli)
        self.range = prod(self.moduli)

    # -- codec -----------------------------------------------------------

    def encode(self, value: int) -> ResidueWord:
        return ResidueWord(tuple(value % m for m in self.moduli))

    def decode(self, word: ResidueWord) -> int:
        """Chinese-remainder reconstruction."""
        x = 0
        for digit, m in zip(word.digits, self.moduli):
            other = self.range // m
            inv = pow(other, -1, m)
            x += digit * other * inv
        return x % self.range

    # -- arithmetic (rotations in hardware) --------------------------------

    def add(self, a: ResidueWord, b: ResidueWord) -> ResidueWord:
        return ResidueWord(tuple((x + y) % m for x, y, m in
                                 zip(a.digits, b.digits, self.moduli)))

    def mul(self, a: ResidueWord, b: ResidueWord) -> ResidueWord:
        return ResidueWord(tuple((x * y) % m for x, y, m in
                                 zip(a.digits, b.digits, self.moduli)))

    def total_wires(self) -> int:
        return sum(self.moduli)

    # -- switching-activity accounting --------------------------------------

    def stream_transitions(self, values: Sequence[int]) -> int:
        """Wire flips when the one-hot datapath carries ``values``.

        Each digit change costs exactly two flips; at most
        2·len(moduli) per step regardless of data.
        """
        return stream_transitions(self.encode(v).wires(self.moduli)
                                  for v in values)

    @staticmethod
    def binary_transitions(values: Sequence[int], width: int) -> int:
        """Two's-complement datapath flips for the same stream."""
        mask = (1 << width) - 1
        return stream_transitions(v & mask for v in values)
