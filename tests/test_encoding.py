"""Unit tests for low-power state encoding."""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.opt.seq.encoding import (encode_anneal, encode_greedy,
                                    encode_natural, encode_onehot,
                                    encoding_cost, evaluate_encoding)
from repro.opt.seq.fsm_benchmarks import load_benchmark
from repro.opt.seq.stg import STG


def ring_stg(n=4):
    """Ring counter with heavy self-loops (p=1/2)."""
    stg = STG(1, 1)
    names = [f"s{i}" for i in range(n)]
    for i, s in enumerate(names):
        nxt = names[(i + 1) % n]
        out = "1" if i == n - 1 else "0"
        stg.add_transition("0", s, s, out)
        stg.add_transition("1", s, nxt, out)
    return stg


def hub_stg():
    """Star-shaped STG: hub <-> each spoke, hub traffic dominates."""
    stg = STG(2, 1)
    for k, spoke in enumerate(["p", "q", "r"]):
        cube = format(k, "02b")
        stg.add_transition(cube, "hub", spoke, "0")
        stg.add_transition("--", spoke, "hub", "1")
    stg.add_transition("11", "hub", "hub", "0")
    return stg


class TestEncoders:
    def test_natural_is_identity_order(self):
        stg = ring_stg()
        assert encode_natural(stg) == {"s0": 0, "s1": 1, "s2": 2,
                                       "s3": 3}

    def test_onehot_codes(self):
        stg = ring_stg()
        enc = encode_onehot(stg)
        assert sorted(enc.values()) == [1, 2, 4, 8]

    def test_greedy_produces_unique_codes(self):
        stg = ring_stg(6)
        enc = encode_greedy(stg)
        assert len(set(enc.values())) == 6
        assert max(enc.values()) < 8   # 3 bits suffice

    def test_greedy_beats_natural_on_ring(self):
        stg = ring_stg(4)
        nat = encoding_cost(stg, encode_natural(stg))
        gre = encoding_cost(stg, encode_greedy(stg))
        assert gre <= nat

    def test_anneal_at_least_as_good_as_greedy(self):
        stg = hub_stg()
        greedy = encode_greedy(stg)
        annealed = encode_anneal(stg, iterations=2000, seed=1)
        assert encoding_cost(stg, annealed) <= \
            encoding_cost(stg, greedy) + 1e-9

    def test_hub_gets_central_code(self):
        """The hub state should be uni-distant from most spokes."""
        stg = hub_stg()
        enc = encode_anneal(stg, iterations=3000, seed=0)
        hub = enc["hub"]
        dists = [bin(hub ^ enc[s]).count("1") for s in ("p", "q", "r")]
        assert sum(dists) <= 4

    def test_num_bits_too_small_rejected(self):
        stg = ring_stg(6)
        with pytest.raises(ValueError):
            encode_greedy(stg, num_bits=2)


class TestCost:
    def test_cost_formula(self):
        stg = ring_stg(2)   # two states, moves with p=0.5
        enc = {"s0": 0, "s1": 1}
        # w(s0->s1) = w(s1->s0) = 0.25 each; Hamming 1.
        assert encoding_cost(stg, enc) == pytest.approx(0.5)

    def test_onehot_cost_is_twice_move_probability(self):
        stg = ring_stg(4)
        cost = encoding_cost(stg, encode_onehot(stg))
        assert cost == pytest.approx(2 * 0.5)


class TestEvaluate:
    def test_evaluation_consistency(self):
        stg = ring_stg(4)
        nat = evaluate_encoding(stg, encode_natural(stg), 600)
        ann = evaluate_encoding(stg, encode_anneal(stg, iterations=1500),
                                600)
        # Lower register cost should translate to lower measured power
        # on this register-dominated machine.
        if ann.register_cost < nat.register_cost:
            assert ann.total_power < nat.total_power * 1.05

    def test_result_fields(self):
        stg = ring_stg(4)
        res = evaluate_encoding(stg, encode_natural(stg), 200)
        assert res.literals > 0
        assert res.report.total > 0
        assert set(res.encoding) == set(stg.states)


class TestAnnealStart:
    """A start encoding must give every state a distinct code that fits
    in the code bits; anything else is refused, naming the state."""

    @pytest.mark.parametrize("start, named", [
        ({"s0": 0, "s1": 0, "s2": 0, "s3": 0}, "'s1'"),
        ({"s0": 0, "s1": 1, "s2": 2, "s3": 3, "ghost": 3}, "'ghost'"),
        ({"s0": -1, "s1": 1, "s2": 2, "s3": 3}, "'s0'"),
        ({"s0": 0, "s1": 1, "s2": 2, "s3": 4}, "'s3'"),
        ({"s0": 0, "s1": 1, "s3": 3}, "'s2'"),
        ({"s0": 0, "s1": 1, "s2": 2.0, "s3": 3}, "'s2'"),
        ({"s0": 0, "s1": True, "s2": 2, "s3": 3}, "'s1'"),
    ])
    def test_malformed_start_is_refused(self, start, named):
        stg = load_benchmark("detector")
        assert stg.states == ["s0", "s1", "s2", "s3"]
        with pytest.raises(ValueError, match=named):
            encode_anneal(stg, iterations=50, start=start)

    def test_code_bits_are_checked_with_a_start(self):
        stg = ring_stg(6)
        start = {f"s{i}": i for i in range(6)}
        with pytest.raises(ValueError, match="not enough code bits"):
            encode_anneal(stg, num_bits=2, iterations=10, start=start)

    def test_valid_start_keeps_its_key_order(self):
        stg = load_benchmark("detector")
        start = {"s3": 0, "s1": 3, "s0": 1, "s2": 2}
        enc = encode_anneal(stg, iterations=0, start=start)
        assert list(enc.items()) == list(start.items())
        wide = encode_anneal(stg, num_bits=3, iterations=300, start=start)
        assert list(wide) == list(start)
        assert len(set(wide.values())) == 4
        assert all(0 <= c < 8 for c in wide.values())


def _reference_anneal(stg, input_probs=None, num_bits=None, seed=0,
                      iterations=4000, start=None):
    """The annealer as it was before costs were memoized: every proposal
    is re-priced with :func:`encoding_cost` and the free codes are
    rebuilt each time.  The differential test holds the memoized one to
    it, choice by choice."""
    rng = random.Random(seed)
    n = len(stg.states)
    bits = num_bits if num_bits is not None \
        else max(1, math.ceil(math.log2(max(2, n))))
    codes = list(range(1 << bits))
    weights = stg.edge_weights(input_probs)
    encoding = dict(start) if start is not None else encode_greedy(
        stg, input_probs, bits)
    cost = encoding_cost(stg, encoding, weights)
    best = dict(encoding)
    best_cost = cost
    temp = max(cost, 1e-3)
    cooling = 0.999
    states = stg.states
    used = set(encoding.values())
    for _ in range(iterations):
        a = rng.choice(states)
        if rng.random() < 0.5 and len(used) < len(codes):
            free = [c for c in codes if c not in used]
            new_code = rng.choice(free)
            old_code = encoding[a]
            encoding[a] = new_code
            new_cost = encoding_cost(stg, encoding, weights)
            if new_cost <= cost or \
                    rng.random() < math.exp((cost - new_cost) / temp):
                cost = new_cost
                used.discard(old_code)
                used.add(new_code)
            else:
                encoding[a] = old_code
        else:
            b = rng.choice(states)
            if a == b:
                continue
            encoding[a], encoding[b] = encoding[b], encoding[a]
            new_cost = encoding_cost(stg, encoding, weights)
            if new_cost <= cost or \
                    rng.random() < math.exp((cost - new_cost) / temp):
                cost = new_cost
            else:
                encoding[a], encoding[b] = encoding[b], encoding[a]
        if cost < best_cost:
            best, best_cost = dict(encoding), cost
        temp *= cooling
    return best


@st.composite
def anneal_cases(draw):
    """A random completely specified STG (2-12 states, 1-2 inputs, states
    declared in shuffled order) with annealer arguments."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    n = draw(st.integers(2, 12))
    n_in = draw(st.integers(1, 2))
    names = [f"q{i}" for i in range(n)]
    rng.shuffle(names)
    stg = STG(n_in, 1, states=names)
    for s in names:
        for v in range(1 << n_in):
            stg.add_transition(format(v, f"0{n_in}b"), s,
                               rng.choice(names), str(rng.getrandbits(1)))
    min_bits = max(1, math.ceil(math.log2(n)))
    num_bits = draw(st.one_of(st.none(),
                              st.integers(min_bits, min_bits + 2)))
    start = None
    if draw(st.booleans()):
        bits = num_bits if num_bits is not None else min_bits
        keys = list(names)
        rng.shuffle(keys)
        start = dict(zip(keys, rng.sample(range(1 << bits), n)))
    return (stg, dict(num_bits=num_bits, start=start,
                      seed=draw(st.integers(0, 2 ** 32)),
                      iterations=draw(st.integers(0, 600))))


def _walk(anneal, stg, kwargs):
    """``anneal``'s result plus the argument of every ``math.exp`` call
    it made: each uphill proposal's cost rise over the temperature, so
    two runs agree on it only if they walk the same path at the same
    temperatures."""
    exp, rises = math.exp, []

    def spy(x):
        rises.append(x)
        return exp(x)

    with mock.patch.object(math, "exp", spy):
        result = anneal(stg, **kwargs)
    return list(result.items()), rises


class TestAnnealDifferential:
    @given(anneal_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        stg, kwargs = case
        assert _walk(encode_anneal, stg, kwargs) == \
            _walk(_reference_anneal, stg, kwargs)

    def test_bundled_machines_match_reference(self):
        for name in ("detector", "traffic", "elevator"):
            stg = load_benchmark(name)
            for seed in range(3):
                for num_bits in (None, 3):
                    kwargs = dict(num_bits=num_bits, seed=seed,
                                  iterations=2500)
                    assert _walk(encode_anneal, stg, kwargs) == \
                        _walk(_reference_anneal, stg, kwargs)
