"""Unit tests for the benchmark-circuit generators (functional
correctness against Python arithmetic)."""

import random

import pytest

from repro.logic.generators import (alu_slice, array_multiplier,
                                    comparator, counter,
                                    equality_checker, mux_tree,
                                    parity_tree, random_logic,
                                    register_file, ripple_carry_adder)
from repro.sim.compiled import get_compiled


def bits(value, n, prefix):
    return {f"{prefix}{i}": (value >> i) & 1 for i in range(n)}


class TestAdder:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_exhaustive(self, n):
        net = ripple_carry_adder(n)
        for a in range(1 << n):
            for b in range(1 << n):
                for cin in (0, 1):
                    vec = {**bits(a, n, "a"), **bits(b, n, "b"),
                           "cin": cin}
                    out = net.evaluate(vec)
                    s = sum(out[f"s{i}"] << i for i in range(n))
                    s += out[f"c{n}"] << n
                    assert s == a + b + cin

    def test_structure(self):
        net = ripple_carry_adder(8)
        assert len(net.inputs) == 17
        assert len(net.outputs) == 9
        net.check()


class TestComparator:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_random(self, n):
        net = comparator(n)
        rng = random.Random(n)
        for _ in range(200):
            c = rng.randrange(1 << n)
            d = rng.randrange(1 << n)
            vec = {**bits(c, n, "c"), **bits(d, n, "d")}
            assert net.evaluate(vec)[net.outputs[0]] == int(c > d)


class TestEquality:
    def test_random(self):
        net = equality_checker(6)
        rng = random.Random(1)
        for _ in range(100):
            a = rng.randrange(64)
            b = a if rng.random() < 0.5 else rng.randrange(64)
            vec = {**bits(a, 6, "a"), **bits(b, 6, "b")}
            assert net.evaluate(vec)[net.outputs[0]] == int(a == b)


class TestParity:
    @pytest.mark.parametrize("balanced", [True, False])
    def test_function(self, balanced):
        net = parity_tree(7, balanced=balanced)
        rng = random.Random(2)
        for _ in range(50):
            v = rng.randrange(1 << 7)
            vec = bits(v, 7, "i")
            assert net.evaluate(vec)[net.outputs[0]] == \
                bin(v).count("1") % 2

    def test_chain_is_deeper(self):
        assert parity_tree(8, balanced=False).depth() > \
            parity_tree(8, balanced=True).depth()


class TestMultiplier:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random(self, n):
        net = array_multiplier(n)
        rng = random.Random(n)
        for _ in range(60):
            a = rng.randrange(1 << n)
            b = rng.randrange(1 << n)
            vec = {**bits(a, n, "a"), **bits(b, n, "b")}
            out = net.evaluate(vec)
            p = sum(out[f"p{k}"] << k for k in range(2 * n))
            assert p == a * b


class TestMuxTree:
    def test_selects_right_input(self):
        net = mux_tree(3)
        rng = random.Random(3)
        for _ in range(50):
            data = rng.randrange(256)
            sel = rng.randrange(8)
            vec = {**bits(data, 8, "d"), **bits(sel, 3, "s")}
            assert net.evaluate(vec)[net.outputs[0]] == (data >> sel) & 1


class TestALU:
    def test_ops(self):
        n = 4
        net = alu_slice(n)
        rng = random.Random(4)
        for _ in range(80):
            a = rng.randrange(1 << n)
            b = rng.randrange(1 << n)
            op = rng.randrange(4)
            vec = {**bits(a, n, "a"), **bits(b, n, "b"),
                   "op0": op & 1, "op1": (op >> 1) & 1}
            out = net.evaluate(vec)
            y = sum(out[f"y{i}"] << i for i in range(n))
            expected = [a & b, a | b, a ^ b, (a + b) % (1 << n)][op]
            assert y == expected, (a, b, op)


class TestRandomLogic:
    def test_reproducible(self):
        a = random_logic(6, 20, seed=1)
        b = random_logic(6, 20, seed=1)
        assert a.evaluate({f"i{k}": 1 for k in range(6)}) == \
            b.evaluate({f"i{k}": 1 for k in range(6)})

    def test_has_outputs(self):
        net = random_logic(5, 15, seed=0)
        assert net.outputs
        net.check()


class TestSequentialGenerators:
    def test_counter_counts(self):
        net = counter(3)
        step = get_compiled(net).step
        state = net.initial_state()
        values = []
        for _ in range(10):
            state, vals = step(state, {"en": 1}, 1)
            values.append(sum(state[f"q{i}_pre"] << i for i in range(3)))
        assert values == [(k + 1) % 8 for k in range(10)]

    def test_counter_enable_holds(self):
        net = counter(3)
        step = get_compiled(net).step
        state = net.initial_state()
        state, _ = step(state, {"en": 1}, 1)
        before = dict(state)
        state, _ = step(state, {"en": 0}, 1)
        assert state == before

    def test_register_file_write(self):
        net = register_file(2, 4)
        state = net.initial_state()
        vec = {**bits(0b1011, 4, "d"), "we0": 1, "we1": 0}
        state, _ = get_compiled(net).step(state, vec, 1)
        assert sum(state[f"r0_{i}"] << i for i in range(4)) == 0b1011
        assert sum(state[f"r1_{i}"] << i for i in range(4)) == 0
