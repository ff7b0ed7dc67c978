"""Cube representation for two-level (SOP) logic.

A cube over ``n`` Boolean variables is a product term.  It is stored as a
pair of bit-masks:

* ``mask``  — bit *i* is set iff variable *i* appears in the cube;
* ``value`` — bit *i* gives the polarity of variable *i* (1 = positive
  literal).  Bits outside ``mask`` are kept at 0 so cubes hash cleanly.

The full universe (tautology) cube has ``mask == 0``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple


class Cube:
    """An immutable product term over ``num_vars`` variables."""

    __slots__ = ("num_vars", "mask", "value")

    def __init__(self, num_vars: int, mask: int = 0, value: int = 0):
        if mask >> num_vars:
            raise ValueError("mask has bits beyond num_vars")
        self.num_vars = num_vars
        self.mask = mask
        self.value = value & mask

    # -- constructors -------------------------------------------------

    @classmethod
    def universe(cls, num_vars: int) -> "Cube":
        """The cube covering every minterm."""
        return cls(num_vars, 0, 0)

    @classmethod
    def from_literals(cls, num_vars: int,
                      literals: Iterable[Tuple[int, int]]) -> "Cube":
        """Build a cube from ``(var_index, phase)`` pairs (phase 0 or 1)."""
        mask = value = 0
        for var, phase in literals:
            if not 0 <= var < num_vars:
                raise ValueError(f"variable index {var} out of range")
            bit = 1 << var
            if mask & bit and bool(value & bit) != bool(phase):
                raise ValueError(f"conflicting literals for variable {var}")
            mask |= bit
            if phase:
                value |= bit
        return cls(num_vars, mask, value)

    @classmethod
    def from_string(cls, text: str) -> "Cube":
        """Parse a PLA-style cube string, e.g. ``"1-0"`` (var 0 first)."""
        mask = value = 0
        for i, ch in enumerate(text):
            if ch == "1":
                mask |= 1 << i
                value |= 1 << i
            elif ch == "0":
                mask |= 1 << i
            elif ch not in "-2":
                raise ValueError(f"bad cube character {ch!r}")
        return cls(len(text), mask, value)

    @classmethod
    def from_minterm(cls, num_vars: int, minterm: int) -> "Cube":
        full = (1 << num_vars) - 1
        return cls(num_vars, full, minterm)

    # -- queries ------------------------------------------------------

    def literal(self, var: int) -> Optional[int]:
        """Phase of ``var`` in this cube (1, 0) or None if absent."""
        bit = 1 << var
        if not self.mask & bit:
            return None
        return 1 if self.value & bit else 0

    def num_literals(self) -> int:
        return self.mask.bit_count()

    def is_universe(self) -> bool:
        return self.mask == 0

    def covers_minterm(self, minterm: int) -> bool:
        return (minterm ^ self.value) & self.mask == 0

    def contains(self, other: "Cube") -> bool:
        """True iff every minterm of ``other`` is covered by ``self``."""
        return (self.mask & ~other.mask) == 0 and \
            (self.value ^ other.value) & self.mask == 0

    def distance(self, other: "Cube") -> int:
        """Number of variables on which the cubes conflict."""
        return (self.mask & other.mask & (self.value ^ other.value)
                ).bit_count()

    def literals(self) -> Iterator[Tuple[int, int]]:
        m = self.mask
        while m:
            bit = m & -m
            var = bit.bit_length() - 1
            yield var, 1 if self.value & bit else 0
            m ^= bit

    # -- algebra ------------------------------------------------------

    def intersect(self, other: "Cube") -> Optional["Cube"]:
        """Cube covering minterms in both, or None if disjoint."""
        if self.distance(other):
            return None
        return Cube(self.num_vars, self.mask | other.mask,
                    self.value | other.value)

    def supercube(self, other: "Cube") -> "Cube":
        """Smallest cube containing both cubes."""
        mask = self.mask & other.mask & ~(self.value ^ other.value)
        return Cube(self.num_vars, mask, self.value & mask)

    def consensus(self, other: "Cube") -> Optional["Cube"]:
        """Distance-1 consensus cube, or None when distance != 1."""
        conflict = self.mask & other.mask & (self.value ^ other.value)
        if conflict.bit_count() != 1:
            return None
        mask = (self.mask | other.mask) & ~conflict
        value = (self.value | other.value) & mask
        return Cube(self.num_vars, mask, value)

    def cofactor_literal(self, var: int, phase: int) -> Optional["Cube"]:
        """Shannon cofactor with respect to one literal.

        Returns None when the cube vanishes under the assignment.
        """
        bit = 1 << var
        if self.mask & bit:
            if bool(self.value & bit) != bool(phase):
                return None
            return Cube(self.num_vars, self.mask & ~bit, self.value & ~bit)
        return self

    def cofactor_cube(self, other: "Cube") -> Optional["Cube"]:
        """Cofactor of ``self`` with respect to cube ``other``."""
        if self.distance(other):
            return None
        mask = self.mask & ~other.mask
        return Cube(self.num_vars, mask, self.value & mask)

    def without_var(self, var: int) -> "Cube":
        bit = 1 << var
        return Cube(self.num_vars, self.mask & ~bit, self.value & ~bit)

    def count_minterms(self) -> int:
        return 1 << (self.num_vars - self.num_literals())

    # -- dunder -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cube) and self.num_vars == other.num_vars \
            and self.mask == other.mask and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.num_vars, self.mask, self.value))

    def __repr__(self) -> str:
        return f"Cube({self.to_string()!r})"

    def to_string(self) -> str:
        chars = []
        for i in range(self.num_vars):
            bit = 1 << i
            if not self.mask & bit:
                chars.append("-")
            else:
                chars.append("1" if self.value & bit else "0")
        return "".join(chars)
