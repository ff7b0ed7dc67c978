"""Unit tests for STG / KISS / FSM synthesis."""

import pytest

from repro.logic.cube import Cube
from repro.opt.seq.stg import STG, read_kiss, synthesize_fsm, write_kiss
from repro.sim.compiled import get_compiled


def four_state_counter_stg():
    """Completely specified 4-state up-counter with enable."""
    stg = STG(1, 1)
    names = ["s0", "s1", "s2", "s3"]
    for i, s in enumerate(names):
        nxt = names[(i + 1) % 4]
        out = "1" if s == "s3" else "0"
        stg.add_transition("0", s, s, out)
        stg.add_transition("1", s, nxt, out)
    return stg


class TestSTG:
    def test_states_registered(self):
        stg = four_state_counter_stg()
        assert stg.states == ["s0", "s1", "s2", "s3"]
        assert stg.reset_state == "s0"

    def test_next_state(self):
        stg = four_state_counter_stg()
        assert stg.next_state("s0", 1) == ("s1", "0")
        assert stg.next_state("s0", 0) == ("s0", "0")
        assert stg.next_state("s3", 1) == ("s0", "1")

    def test_arity_checks(self):
        stg = STG(2, 1)
        with pytest.raises(ValueError):
            stg.add_transition("0", "a", "b", "1")       # input width
        with pytest.raises(ValueError):
            stg.add_transition("00", "a", "b", "11")     # output width

    def test_transition_matrix_rows_sum_to_one(self):
        stg = four_state_counter_stg()
        m = stg.transition_matrix()
        for s, row in m.items():
            assert sum(row.values()) == pytest.approx(1.0)

    def test_stationary_uniform_for_symmetric_ring(self):
        stg = four_state_counter_stg()
        pi = stg.stationary_distribution()
        for s in stg.states:
            assert pi[s] == pytest.approx(0.25, abs=1e-6)

    def test_stationary_with_biased_inputs(self):
        stg = four_state_counter_stg()
        pi = stg.stationary_distribution(input_probs=[0.9])
        # Symmetric ring: still uniform, but converges differently.
        assert sum(pi.values()) == pytest.approx(1.0)

    def test_self_loop_probability(self):
        stg = four_state_counter_stg()
        assert stg.self_loop_probability() == pytest.approx(0.5)
        assert stg.self_loop_probability([0.1]) == pytest.approx(0.9)

    def test_unspecified_input_self_loops(self):
        stg = STG(1, 1)
        stg.add_transition("1", "a", "b", "1")
        m = stg.transition_matrix()
        assert m["a"]["a"] == pytest.approx(0.5)   # implicit hold

    def test_edge_weights_sum_to_one(self):
        stg = four_state_counter_stg()
        w = stg.edge_weights()
        assert sum(w.values()) == pytest.approx(1.0)


class TestKiss:
    KISS = """
.i 1
.o 1
.s 2
.p 4
.r off
0 off off 0
1 off on 0
0 on on 1
1 on off 1
.e
"""

    def test_parse(self):
        stg = read_kiss(self.KISS)
        assert stg.num_inputs == 1 and stg.num_outputs == 1
        assert stg.reset_state == "off"
        assert len(stg.transitions) == 4

    def test_roundtrip(self):
        stg = read_kiss(self.KISS)
        back = read_kiss(write_kiss(stg))
        assert back.states == stg.states
        assert len(back.transitions) == len(stg.transitions)

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            read_kiss("0 a b 1\n")


class TestSynthesis:
    def test_synthesized_fsm_tracks_stg(self):
        stg = four_state_counter_stg()
        encoding = {"s0": 0, "s1": 1, "s2": 2, "s3": 3}
        net = synthesize_fsm(stg, encoding)
        step = get_compiled(net).step
        state = net.initial_state()
        stg_state = "s0"
        import random
        rng = random.Random(0)
        for _ in range(60):
            x = rng.getrandbits(1)
            state, vals = step(state, {"x0": x}, 1)
            stg_state, out = stg.next_state(stg_state, x)
            code = encoding[stg_state]
            got = sum(state[f"s{j}"] << j for j in range(2))
            assert got == code
            assert vals["z0"] == int(out)

    def test_onehot_synthesis(self):
        stg = four_state_counter_stg()
        encoding = {"s0": 1, "s1": 2, "s2": 4, "s3": 8}
        net = synthesize_fsm(stg, encoding)
        assert len(net.latches) == 4
        state = net.initial_state()
        state, _ = get_compiled(net).step(state, {"x0": 1}, 1)
        assert sum(state[f"s{j}"] << j for j in range(4)) == 2

    def test_duplicate_codes_rejected(self):
        stg = four_state_counter_stg()
        with pytest.raises(ValueError):
            synthesize_fsm(stg, {"s0": 0, "s1": 0, "s2": 1, "s3": 2})

    def test_reset_state_loaded(self):
        stg = four_state_counter_stg()
        encoding = {"s0": 3, "s1": 1, "s2": 2, "s3": 0}
        net = synthesize_fsm(stg, encoding)
        assert net.initial_state() == {"s0": 1, "s1": 1}
