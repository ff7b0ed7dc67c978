"""Unit tests for the technology library and switch-level stack model."""

import math
from fractions import Fraction

import pytest

from repro.library.cells import generic_library
from repro.library.transistors import SeriesStack, StackEnergyModel
from tests.oracles import energy_of_sequence


def exact_stack_energy(probs):
    """Expected charging energy per cycle of an identity-order stack,
    in exact arithmetic.  Inputs are independent from cycle to cycle,
    so each node is a two-state chain of its own and the energy is a
    sum over nodes.  The output charges when the stack stops
    conducting.  Internal node i is charged by a cycle with inputs
    0..i-1 on and i..n-1 not all on, discharged by one with i..n-1 all
    on, and floats otherwise: in the long run it was last discharged
    with probability D/(C + D), and a charging cycle follows with
    probability C."""
    model = StackEnergyModel()
    p = [Fraction(q) for q in probs]

    def all_on(ps):
        return math.prod(ps, start=Fraction(1))

    q = all_on(p)
    energy = Fraction(model.c_output) * q * (1 - q)
    for i in range(1, len(p)):
        charge = all_on(p[:i]) * (1 - all_on(p[i:]))
        discharge = all_on(p[i:])
        energy += (Fraction(model.c_internal) * discharge * charge
                   / (charge + discharge))
    return energy * Fraction(model.vdd) ** 2


class TestCells:
    def test_library_contents(self):
        lib = generic_library()
        assert len(lib) >= 20
        assert "nand2_x1" in lib.cells
        assert "inv_x2" in lib.cells

    def test_drive_strength_trade(self):
        lib = generic_library()
        x1, x2 = lib["nand2_x1"], lib["nand2_x2"]
        assert x2.area == 2 * x1.area
        assert x2.input_cap == 2 * x1.input_cap
        assert x2.delay(10.0) < x1.delay(10.0)

    def test_cell_functions(self):
        lib = generic_library()
        nand = lib["nand2_x1"]
        assert nand.cover.evaluate(0b00)
        assert not nand.cover.evaluate(0b11)
        aoi = lib["aoi21_x1"]
        # out = !(p0 p1 + p2)
        for m in range(8):
            p0, p1, p2 = m & 1, (m >> 1) & 1, (m >> 2) & 1
            assert aoi.cover.evaluate(m) == (not (p0 and p1 or p2))


class TestSeriesStack:
    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            SeriesStack(3, [0, 0, 1])

    def test_all_on_discharges_everything(self):
        stack = SeriesStack(3)
        states = stack.node_states([1, 1, 1])
        assert states == [0.0, 0.0, 0.0]

    def test_all_off_output_high(self):
        stack = SeriesStack(3)
        states = stack.node_states([0, 0, 0])
        assert states[0] == 1.0

    def test_internal_node_follows_output(self):
        # Top transistor on, bottom off: internal node 1 charges.
        stack = SeriesStack(2)
        states = stack.node_states([1, 0])
        assert states[0] == 1.0 and states[1] == 1.0

    def test_floating_node_retains(self):
        stack = SeriesStack(3)
        prev = [1.0, 1.0, 0.0]
        # Input pattern leaving node 2 floating (top off, bottom off).
        states = stack.node_states([0, 0, 0], previous=prev)
        assert states[2] == prev[2]

    def test_expected_energy_matches_simulation(self):
        import random
        stack = SeriesStack(3)
        probs = [0.7, 0.5, 0.3]
        analytic = stack.expected_energy(probs)
        rng = random.Random(0)
        vectors = [[int(rng.random() < p) for p in probs]
                   for _ in range(20000)]
        sim = energy_of_sequence(stack, vectors) / (len(vectors) - 1)
        # The analytic value is exact; the slack is for sampling noise.
        assert sim == pytest.approx(analytic, rel=0.15)

    @pytest.mark.parametrize("probs", [[0.002] * 4,
                                       [0.1 * k for k in range(1, 9)]])
    def test_expected_energy_is_exact(self, probs):
        got = SeriesStack(len(probs)).expected_energy(probs)
        assert got == pytest.approx(float(exact_stack_energy(probs)),
                                    rel=1e-9)

    def test_expected_energy_steps_each_state_once(self, monkeypatch):
        probs = [0.1 * k for k in range(1, 9)]
        stack = SeriesStack(len(probs))
        vectors = [[(v >> i) & 1 for i in range(len(probs))]
                   for v in range(1 << len(probs))]
        states = [tuple(stack.node_states(vectors[0]))]
        for state in states:
            for vec in vectors:
                nxt = tuple(stack.node_states(vec, list(state)))
                if nxt not in states:
                    states.append(nxt)
        calls = []
        node_states = SeriesStack.node_states

        def counted(self, *args, **kwargs):
            calls.append(args)
            return node_states(self, *args, **kwargs)

        monkeypatch.setattr(SeriesStack, "node_states", counted)
        stack.expected_energy(probs)
        assert len(calls) <= len(states) * len(vectors) + 1

    def test_ordering_changes_energy(self):
        probs = [0.95, 0.5, 0.05]
        e_identity = SeriesStack(3, [0, 1, 2]).expected_energy(probs)
        e_reversed = SeriesStack(3, [2, 1, 0]).expected_energy(probs)
        assert e_identity != e_reversed

    def test_elmore_prefers_late_near_output(self):
        stack = SeriesStack(3)
        # Input 2 arrives last.
        arrival = [0.0, 0.0, 5.0]
        d_bad = SeriesStack(3, [0, 1, 2]).elmore_delay(arrival)
        d_good = SeriesStack(3, [2, 0, 1]).elmore_delay(arrival)
        assert d_good < d_bad

    def test_model_parameters_scale(self):
        big = StackEnergyModel(c_output=8.0)
        e1 = SeriesStack(2, model=StackEnergyModel()).expected_energy(
            [0.5, 0.5])
        e2 = SeriesStack(2, model=big).expected_energy([0.5, 0.5])
        assert e2 > e1
