"""Unit tests for FSM state minimization."""

import pytest

from repro.opt.seq.minimize_fsm import (equivalent_state_classes,
                                        minimize_stg)
from repro.opt.seq.stg import STG
from tests.oracles import is_behaviourally_equivalent


def duplicated_ring(copies=2, length=3):
    """`copies` identical rings: all same-position states equivalent."""
    stg = STG(1, 1)
    for c in range(copies):
        for i in range(length):
            s = f"c{c}_{i}"
            nxt = f"c{c}_{(i + 1) % length}"
            out = "1" if i == length - 1 else "0"
            stg.add_transition("1", s, nxt, out)
            stg.add_transition("0", s, s, out)
    return stg


class TestClasses:
    def test_duplicates_merged(self):
        stg = duplicated_ring()
        classes = equivalent_state_classes(stg)
        assert len(classes) == 3
        for cls in classes:
            assert len(cls) == 2

    def test_distinct_states_kept_apart(self):
        stg = STG(1, 1)
        stg.add_transition("1", "a", "b", "0")
        stg.add_transition("0", "a", "a", "0")
        stg.add_transition("1", "b", "a", "1")
        stg.add_transition("0", "b", "b", "1")
        classes = equivalent_state_classes(stg)
        assert len(classes) == 2

    def test_output_difference_splits(self):
        stg = STG(1, 1)
        # Same structure, one state differs in output on one input.
        stg.add_transition("-", "p", "p", "0")
        stg.add_transition("1", "q", "q", "1")
        stg.add_transition("0", "q", "q", "0")
        classes = equivalent_state_classes(stg)
        assert len(classes) == 2


class TestMinimize:
    def test_reduces_and_preserves_behaviour(self):
        stg = duplicated_ring()
        red = minimize_stg(stg)
        assert len(red.states) == 3
        assert is_behaviourally_equivalent(stg, red, "c0_0",
                                           red.reset_state)
        assert is_behaviourally_equivalent(stg, red, "c1_0",
                                           red.reset_state)

    def test_already_minimal_unchanged(self):
        stg = STG(1, 1)
        stg.add_transition("1", "a", "b", "0")
        stg.add_transition("0", "a", "a", "1")
        stg.add_transition("1", "b", "a", "1")
        stg.add_transition("0", "b", "b", "0")
        red = minimize_stg(stg)
        assert len(red.states) == 2
        assert is_behaviourally_equivalent(stg, red, "a",
                                           red.reset_state)

    def test_reset_preserved(self):
        stg = duplicated_ring()
        red = minimize_stg(stg)
        assert red.reset_state in red.states

    def test_fewer_flipflops_after_minimization(self):
        """The point of minimization: fewer states, fewer state bits."""
        import math

        stg = duplicated_ring(copies=3, length=3)   # 9 -> 3 states
        red = minimize_stg(stg)
        bits_before = math.ceil(math.log2(len(stg.states)))
        bits_after = math.ceil(math.log2(len(red.states)))
        assert bits_after < bits_before
