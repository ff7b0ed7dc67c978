"""Property-based tests over random completely-specified FSMs:
synthesis, encoding, clock gating, minimization and the exact
sequential estimator must all agree with each other."""

import random

from hypothesis import example, given, settings, strategies as st

from repro.opt.seq.encoding import (encode_anneal, encode_greedy,
                                    encode_natural, encoding_cost)
from repro.opt.seq.gated_clock import self_loop_clock_gating
from repro.opt.seq.minimize_fsm import minimize_stg
from repro.opt.seq.stg import STG, synthesize_fsm
from repro.power.sequential import exact_sequential_activity
from repro.sim.compiled import get_compiled
from repro.verify.equivalence import sequential_equivalent
from tests.oracles import (is_behaviourally_equivalent,
                           stationary_distribution)

SETTINGS = settings(max_examples=15, deadline=None)


@st.composite
def random_fsms(draw, max_states=5):
    """A random completely-specified 1-input Moore-ish machine."""
    return _fsm(draw(st.integers(0, 10 ** 6)),
                draw(st.integers(2, max_states)))


def _fsm(seed, n):
    rng = random.Random(seed)
    stg = STG(1, 1)
    states = [f"s{i}" for i in range(n)]
    for s in states:
        out = str(rng.getrandbits(1))
        stg.add_transition("0", s, rng.choice(states), out)
        stg.add_transition("1", s, rng.choice(states), out)
    return stg


@given(random_fsms())
@SETTINGS
def test_synthesis_tracks_stg(stg):
    enc = encode_natural(stg)
    net = synthesize_fsm(stg, enc)
    step = get_compiled(net).step
    rng = random.Random(1)
    state = net.initial_state()
    stg_state = stg.reset_state
    bits = max(1, max(enc.values()).bit_length())
    for _ in range(40):
        x = rng.getrandbits(1)
        state, vals = step({"x0": x} | state, 1)
        stg_state, out = stg.next_state(stg_state, x)
        got = sum(state[f"s{j}"] << j for j in range(bits))
        assert got == enc[stg_state]
        assert vals["z0"] == int(out)


@given(random_fsms())
@SETTINGS
def test_optimized_encodings_never_worse(stg):
    nat = encoding_cost(stg, encode_natural(stg))
    gre = encoding_cost(stg, encode_greedy(stg))
    ann = encoding_cost(stg, encode_anneal(stg, iterations=600,
                                           seed=0))
    assert gre <= nat + 1e-9 or ann <= nat + 1e-9
    assert ann <= gre + 1e-9


@given(random_fsms())
@SETTINGS
def test_clock_gating_formally_equivalent(stg):
    res = self_loop_clock_gating(stg, encode_natural(stg))
    assert sequential_equivalent(res.baseline, res.network,
                                 max_joint_states=5000).equivalent


@given(random_fsms())
@SETTINGS
def test_minimization_preserves_behaviour(stg):
    red = minimize_stg(stg)
    assert len(red.states) <= len(stg.states)
    assert is_behaviourally_equivalent(stg, red, stg.reset_state,
                                       red.reset_state, length=120)


def _lane_activities(net):
    """Node activities averaged over 4,096 independent trajectories
    from reset, stepped word-parallel, one lane per trajectory."""
    lanes, burn_in, cycles = 4096, 64, 256
    step = get_compiled(net).step
    mask = (1 << lanes) - 1
    rng = random.Random(3)
    state = {l.output: mask if l.init else 0 for l in net.latches}
    toggles = dict.fromkeys(net.nodes, 0)
    prev = None
    for t in range(burn_in + cycles + 1):
        state, values = step({"x0": rng.getrandbits(lanes)} | state,
                             mask)
        if t > burn_in:
            for name in toggles:
                toggles[name] += (values[name] ^ prev[name]).bit_count()
        prev = values
    return {name: n / (lanes * cycles) for name, n in toggles.items()}


@given(random_fsms())
@example(_fsm(640, 4))  # two closed classes
@example(_fsm(526, 5))  # periodic: every cycle has even length
@SETTINGS
def test_exact_estimator_matches_simulation(stg):
    net = synthesize_fsm(stg, encode_natural(stg))
    analysis = exact_sequential_activity(net)
    # Under any stationary distribution a latch output repeats its data
    # input one cycle later: same probability, same activity.
    for latch in net.latches:
        for stat in (analysis.node_probabilities, analysis.activities):
            assert abs(stat[latch.output] - stat[latch.data]) < 1e-9, \
                latch.output
    # One trajectory settles in one closed class of the state graph;
    # the estimator's limit from reset is the average over many.
    for name, act in _lane_activities(net).items():
        assert abs(analysis.activities[name] - act) < 0.06, name


@given(random_fsms())
@SETTINGS
def test_stationary_distribution_is_stochastic(stg):
    pi = stationary_distribution(stg)
    assert abs(sum(pi.values()) - 1.0) < 1e-6
    assert all(p >= -1e-12 for p in pi.values())
