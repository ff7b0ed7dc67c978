"""Unit tests for repro.logic.sop (covers, tautology, minimization)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.cube import Cube
from repro.logic.sop import (Cover, _cover_key, _evaluate_plan, _memo_plan,
                             minterm_count, truth_table)
from tests.oracles import cover_probability


def brute_equal(a: Cover, b: Cover) -> bool:
    n = a.num_vars
    return all(a.evaluate(m) == b.evaluate(m) for m in range(1 << n))


class TestBasics:
    def test_zero_and_one(self):
        z = Cover.zero(3)
        o = Cover.one(3)
        assert not any(z.evaluate(m) for m in range(8))
        assert all(o.evaluate(m) for m in range(8))

    def test_from_strings(self):
        c = Cover.from_strings(["1-", "-1"])
        assert c.evaluate(0b01) and c.evaluate(0b10) and c.evaluate(0b11)
        assert not c.evaluate(0b00)

    def test_from_minterms(self):
        c = Cover.from_minterms(3, [0, 5])
        assert sorted(c.minterms()) == [0, 5]

    def test_num_literals(self):
        assert Cover.from_strings(["1-0", "01-"]).num_literals() == 4

    def test_support(self):
        c = Cover.from_strings(["1--", "--0"])
        assert c.support() == 0b101

    def test_evaluate_words(self):
        c = Cover.from_strings(["11"])  # AND
        # patterns: (0,0) (0,1) (1,0) (1,1)
        words = [0b1100, 0b1010]
        assert c.evaluate_words(words, 0b1111) == 0b1000

    def test_sccc_removes_contained(self):
        c = Cover.from_strings(["1--", "11-", "111"])
        assert len(c.sccc()) == 1


class TestTautologyAndContainment:
    def test_tautology_true(self):
        c = Cover.from_strings(["1-", "0-"])
        assert c.is_tautology()

    def test_tautology_false(self):
        assert not Cover.from_strings(["11", "00"]).is_tautology()

    def test_empty_not_tautology(self):
        assert not Cover.zero(2).is_tautology()

    def test_universe_cube_tautology(self):
        assert Cover.one(4).is_tautology()

    def test_contains_cube(self):
        c = Cover.from_strings(["1-", "-1"])
        assert c.contains_cube(Cube.from_string("11"))
        assert c.contains_cube(Cube.from_string("10"))
        assert not c.contains_cube(Cube.from_string("0-"))

    def test_cover_containment_and_equivalence(self):
        a = Cover.from_strings(["1-", "-1"])
        b = Cover.from_strings(["11", "10", "01"])
        assert a.is_equivalent(b)
        assert a.contains_cover(b) and b.contains_cover(a)

    def test_xor_not_equivalent_to_or(self):
        xor = Cover.from_strings(["10", "01"])
        orr = Cover.from_strings(["1-", "-1"])
        assert not xor.is_equivalent(orr)
        assert orr.contains_cover(xor)
        assert not xor.contains_cover(orr)


class TestComplement:
    @pytest.mark.parametrize("rows", [
        ["11"], ["1-", "-1"], ["10", "01"], ["1-0", "01-", "--1"],
        ["1111"], ["0000"],
    ])
    def test_complement_is_complement(self, rows):
        c = Cover.from_strings(rows)
        comp = c.complement()
        n = c.num_vars
        for m in range(1 << n):
            assert c.evaluate(m) != comp.evaluate(m)

    def test_complement_empty(self):
        assert Cover.zero(2).complement().is_tautology()

    def test_complement_universe(self):
        assert Cover.one(2).complement().is_empty()

    def test_double_complement(self):
        c = Cover.from_strings(["1-0", "-11"])
        assert c.complement().complement().is_equivalent(c)


class TestBooleanOps:
    def test_union(self):
        a = Cover.from_strings(["11"])
        b = Cover.from_strings(["00"])
        u = a.union(b)
        assert u.evaluate(0b11) and u.evaluate(0b00)
        assert not u.evaluate(0b01)

    def test_intersect(self):
        a = Cover.from_strings(["1-"])
        b = Cover.from_strings(["-1"])
        i = a.intersect(b)
        assert i.minterms() == [0b11]

    def test_intersect_disjoint(self):
        a = Cover.from_strings(["1-"])
        b = Cover.from_strings(["0-"])
        assert a.intersect(b).is_empty()


class TestProbability:
    def test_single_literal(self):
        c = Cover.from_strings(["1-"])
        assert c.probability([0.3, 0.9]) == pytest.approx(0.3)

    def test_and_gate(self):
        c = Cover.from_strings(["11"])
        assert c.probability([0.5, 0.5]) == pytest.approx(0.25)

    def test_or_gate(self):
        c = Cover.from_strings(["1-", "-1"])
        assert c.probability([0.5, 0.5]) == pytest.approx(0.75)

    def test_xor_gate(self):
        c = Cover.from_strings(["10", "01"])
        assert c.probability([0.3, 0.4]) == pytest.approx(
            0.3 * 0.6 + 0.7 * 0.4)

    def test_overlapping_cubes_not_double_counted(self):
        c = Cover.from_strings(["1-", "11"])
        assert c.probability([0.5, 0.5]) == pytest.approx(0.5)

    def test_tautology_probability_one(self):
        assert Cover.one(3).probability([0.1, 0.2, 0.3]) == 1.0


@st.composite
def _covers(draw):
    """A cover over 1–5 variables: empty, the tautology, or up to six
    random cubes with possible duplicates and unused variables."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["empty", "one", "cubes", "cubes"]))
    if kind == "empty":
        return Cover.zero(n)
    if kind == "one":
        extra = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=2))
        return Cover(n, [Cube.universe(n)] +
                     [Cube(n, m, m) for m in extra])
    cubes = []
    for _ in range(draw(st.integers(1, 6))):
        mask = draw(st.integers(0, (1 << n) - 1))
        cubes.append(Cube(n, mask, draw(st.integers(0, (1 << n) - 1))
                          & mask))
    if draw(st.booleans()):
        cubes.append(draw(st.sampled_from(cubes)))
    return Cover(n, cubes)


def _phase_twin(cover: Cover) -> Cover:
    """``cover`` with every literal's phase flipped: the same masks."""
    return Cover(cover.num_vars, [Cube(cover.num_vars, c.mask,
                                       c.mask & ~c.value)
                                  for c in cover.cubes])


_PROB = st.one_of(st.sampled_from([0.0, 1.0, 0.5]),
                  st.floats(0.0, 1.0, allow_nan=False))


class TestProbabilityPlan:
    """``Cover.probability`` and its memoized form evaluate the cover's
    Shannon plan; both must equal the recursion on the cover exactly."""

    @settings(max_examples=300, deadline=None)
    @given(covers=st.lists(_covers(), min_size=1, max_size=6),
           probs=st.lists(_PROB, min_size=5, max_size=5))
    def test_plan_equals_recursion(self, covers, probs):
        plans: dict = {}
        covers = [c for cover in covers for c in (cover, _phase_twin(cover))]
        for cover in covers + covers:
            want = cover_probability(cover, probs)
            assert cover.probability(probs) == want
            assert _evaluate_plan(_memo_plan(cover, plans), probs) == want
        assert len(plans) == len({_cover_key(c) for c in covers})

    def test_key_is_content_in_order(self):
        a = Cover.from_strings(["1-", "-1"])
        assert _cover_key(a) == (2, ((0b01, 0b01), (0b10, 0b10)))
        assert _cover_key(a) == _cover_key(a.copy())
        assert _cover_key(a) != _cover_key(_phase_twin(a))
        assert _cover_key(Cover.zero(2)) != _cover_key(Cover.zero(3))


class TestMinimize:
    def test_merges_adjacent_cubes(self):
        on = Cover.from_minterms(2, [0b00, 0b01])   # x0' (var0 = 0)
        mini = on.minimize()
        assert len(mini) == 1
        assert mini.is_equivalent(on)

    def test_with_dont_cares(self):
        # ON = {11}, DC = {10}: minimizer may expand to x0.
        on = Cover.from_strings(["11"])
        dc = Cover.from_strings(["10"])
        mini = on.minimize(dc)
        assert mini.num_literals() <= on.num_literals()
        # Result must cover ON and avoid OFF (= {0-}).
        assert mini.contains_cover(on)
        off = Cover.from_strings(["0-"])
        assert mini.intersect(off).is_empty()

    def test_full_dc_becomes_tautology(self):
        on = Cover.from_strings(["11"])
        dc = on.complement()
        assert on.minimize(dc).is_tautology()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_function_preserved(self, seed):
        import random
        rng = random.Random(seed)
        n = 4
        minterms = [m for m in range(1 << n) if rng.random() < 0.4]
        if not minterms:
            minterms = [3]
        on = Cover.from_minterms(n, minterms)
        mini = on.minimize()
        assert mini.is_equivalent(on)
        assert mini.num_literals() <= on.num_literals()

    def test_empty_cover(self):
        assert Cover.zero(3).minimize().is_empty()

    def test_reduce_is_sequential_regression(self):
        """Regression: simultaneous REDUCE let two cubes both shed a
        shared minterm (found by the product-machine checker on a
        clock-gated FSM).  Minterms 000 and 111 are each covered by two
        cubes of this cover."""
        cover = Cover.from_strings(["00-", "11-", "1-1", "0-0"])
        mini = cover.minimize()
        assert mini.is_equivalent(cover)
        assert mini.evaluate(0b000) and mini.evaluate(0b111)

    @pytest.mark.parametrize("seed", range(10))
    def test_minimize_stress_four_vars(self, seed):
        import random
        rng = random.Random(seed * 7 + 1)
        minterms = [m for m in range(16) if rng.random() < 0.55]
        if not minterms:
            minterms = [seed]
        on = Cover.from_minterms(4, minterms)
        mini = on.minimize()
        assert mini.is_equivalent(on)


class TestHelpers:
    def test_minterm_count(self):
        c = Cover.from_strings(["1-", "-1"])
        assert minterm_count(c) == 3

    def test_minterm_count_disjoint(self):
        c = Cover.from_strings(["11", "00"])
        assert minterm_count(c) == 2

    def test_truth_table(self):
        c = Cover.from_strings(["11"])
        assert truth_table(c) == 0b1000
