"""Tests for exact two-level minimization (Quine–McCluskey)."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.logic.sop import Cover
from tests.oracles import minimize_exact, prime_implicants


class TestPrimes:
    def test_textbook_example(self):
        # f = Σm(0,1,2,5,6,7) over 3 vars has exactly six primes
        # (cube strings are LSB-first: position 0 = variable x0).
        on = Cover.from_minterms(3, [0, 1, 2, 5, 6, 7])
        primes = prime_implicants(on)
        strings = {p.to_string() for p in primes}
        assert strings == {"-00", "-11", "0-0", "01-", "1-1", "10-"}

    def test_tautology(self):
        on = Cover.from_minterms(2, [0, 1, 2, 3])
        primes = prime_implicants(on)
        assert [p.to_string() for p in primes] == ["--"]

    def test_empty(self):
        assert prime_implicants(Cover.zero(3)) == []

    def test_primes_cover_on_set(self):
        on = Cover.from_minterms(4, [1, 3, 5, 7, 9, 14])
        primes = prime_implicants(on)
        for m in range(16):
            covered = any(p.covers_minterm(m) for p in primes)
            assert covered == on.evaluate(m)

    def test_dc_grows_primes(self):
        on = Cover.from_minterms(3, [1])
        dc = Cover.from_minterms(3, [3, 5, 7])
        with_dc = prime_implicants(on, dc)
        without = prime_implicants(on)
        assert max(8 // p.count_minterms() for p in with_dc) <= \
            max(8 // p.count_minterms() for p in without)


class TestExactCover:
    def test_known_minimum(self):
        # Σm(0,1,2,5,6,7): minimum cover has 3 cubes.
        on = Cover.from_minterms(3, [0, 1, 2, 5, 6, 7])
        mini = minimize_exact(on)
        assert len(mini) == 3
        assert mini.is_equivalent(on)

    def test_respects_dc(self):
        on = Cover.from_strings(["11"])
        dc = Cover.from_strings(["10"])
        mini = minimize_exact(on, dc)
        assert len(mini) == 1
        assert mini.cubes[0].num_literals() == 1

    def test_fully_dc_on_set(self):
        on = Cover.from_strings(["1-"])
        dc = Cover.from_strings(["1-"])
        assert minimize_exact(on, dc).is_empty()

    @pytest.mark.parametrize("seed", range(8))
    def test_heuristic_vs_exact(self, seed):
        """The espresso-style heuristic must produce a legal cover and
        stay within one cube of the exact minimum on small functions."""
        rng = random.Random(seed)
        n = 4
        minterms = [m for m in range(1 << n) if rng.random() < 0.4]
        if not minterms:
            minterms = [seed % (1 << n)]
        on = Cover.from_minterms(n, minterms)
        heur = on.minimize()
        exact = minimize_exact(on)
        assert heur.is_equivalent(on)
        assert exact.is_equivalent(on)
        assert len(heur.sccc()) <= len(exact) + 1


@st.composite
def small_functions(draw):
    n = 3
    minterms = [m for m in range(1 << n) if draw(st.booleans())]
    return Cover.from_minterms(n, minterms) if minterms \
        else Cover.zero(n)


@given(small_functions())
@settings(max_examples=40, deadline=None)
def test_exact_is_equivalent_and_no_bigger(on):
    exact = minimize_exact(on)
    heur = on.minimize()
    if on.is_empty():
        assert exact.is_empty()
        return
    assert exact.is_equivalent(on)
    assert len(exact) <= len(heur.sccc())
