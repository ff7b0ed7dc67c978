"""Formal equivalence checking for combinational and sequential nets."""

from repro.sim.functional import verify_equivalence_exact
from repro.verify.equivalence import EquivalenceResult, sequential_equivalent

__all__ = ["verify_equivalence_exact", "sequential_equivalent",
           "EquivalenceResult"]
