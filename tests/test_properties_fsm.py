"""Property-based tests over random completely-specified FSMs:
synthesis, encoding, clock gating, minimization and the exact
sequential estimator must all agree with each other."""

import random

from hypothesis import given, settings, strategies as st

from repro.opt.seq.encoding import (encode_anneal, encode_greedy,
                                    encode_natural, encoding_cost)
from repro.opt.seq.gated_clock import self_loop_clock_gating
from repro.opt.seq.minimize_fsm import (is_behaviourally_equivalent,
                                        minimize_stg)
from repro.opt.seq.stg import STG, synthesize_fsm
from repro.power.sequential import exact_sequential_activity
from repro.sim.compiled import get_compiled
from repro.sim.functional import sequential_transitions
from repro.verify.equivalence import sequential_equivalent

SETTINGS = settings(max_examples=15, deadline=None)


@st.composite
def random_fsms(draw, max_states=5):
    """A random completely-specified 1-input Moore-ish machine."""
    seed = draw(st.integers(0, 10 ** 6))
    n = draw(st.integers(2, max_states))
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
        state, vals = step(state, {"x0": x}, 1)
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


@given(random_fsms())
@SETTINGS
def test_exact_estimator_matches_simulation(stg):
    net = synthesize_fsm(stg, encode_natural(stg))
    analysis = exact_sequential_activity(net)
    rng = random.Random(3)
    vecs = [{"x0": rng.getrandbits(1)} for _ in range(6000)]
    sim_tr, _ = sequential_transitions(net, vecs)
    for name, count in sim_tr.items():
        sim_act = count / (len(vecs) - 1)
        assert abs(analysis.activities[name] - sim_act) < 0.06, name


@given(random_fsms())
@SETTINGS
def test_stationary_distribution_is_stochastic(stg):
    pi = stg.stationary_distribution()
    assert abs(sum(pi.values()) - 1.0) < 1e-6
    assert all(p >= -1e-12 for p in pi.values())
