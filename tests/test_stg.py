"""Unit tests for STG / KISS / FSM synthesis."""

import pytest

from repro.opt.seq.encoding import encode_natural, encoding_cost
from repro.opt.seq.fsm_benchmarks import load_benchmark
from repro.opt.seq.stg import STG, read_kiss, synthesize_fsm
from repro.sim.compiled import get_compiled
from tests.oracles import stationary_distribution, write_kiss


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
        pi = stationary_distribution(stg)
        for s in stg.states:
            assert pi[s] == pytest.approx(0.25, abs=1e-6)

    def test_stationary_with_biased_inputs(self):
        stg = four_state_counter_stg()
        pi = stationary_distribution(stg, input_probs=[0.9])
        # Symmetric ring: still uniform, but converges differently.
        assert sum(pi.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [1.5, -0.5, float("nan"), True, "1"])
    def test_bad_input_probability_rejected(self, bad):
        # Every STG-level estimator goes through transition_matrix.
        stg = load_benchmark("detector")
        enc = encode_natural(stg)
        for call in (stg.transition_matrix,
                     lambda p: stationary_distribution(stg, p),
                     stg.edge_weights, stg.self_loop_probability,
                     lambda p: encoding_cost(stg, enc, input_probs=p)):
            with pytest.raises(ValueError, match="'input 0'"):
                call([bad])

    def test_wrong_probability_count_rejected(self):
        stg = STG(2, 1)
        stg.add_transition("1-", "a", "b", "0")
        for probs in ([0.5], [0.5, 0.5, 0.5], []):
            with pytest.raises(ValueError,
                               match=f"expected 2 input probabilities, "
                                     f"not {len(probs)}"):
                stationary_distribution(stg, probs)
        assert sum(stg.transition_matrix([0.5, 1.0])["a"].values()) == \
            pytest.approx(1.0)

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

    def test_periodic_stg(self):
        """s0 -> s1; s1 -> s0 | s2; s2 -> s1 has period 2: iterating
        from the uniform vector only oscillates around the limit."""
        stg = STG(1, 0)
        stg.add_transition("-", "s0", "s1", "")
        stg.add_transition("0", "s1", "s0", "")
        stg.add_transition("1", "s1", "s2", "")
        stg.add_transition("-", "s2", "s1", "")
        pi = stationary_distribution(stg)
        assert [pi["s0"], pi["s1"], pi["s2"]] == \
            pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
        assert stg.edge_weights()[("s0", "s1")] == \
            pytest.approx(0.25, abs=1e-12)
        assert stg.self_loop_probability() == 0.0

    def test_states_unreachable_from_reset_get_zero(self):
        stg = STG(1, 0, reset_state="b")
        stg.add_transition("-", "a", "a", "")
        stg.add_transition("0", "b", "b", "")
        stg.add_transition("1", "b", "c", "")
        stg.add_transition("-", "c", "b", "")
        pi = stationary_distribution(stg)
        assert pi == pytest.approx({"a": 0.0, "b": 2 / 3, "c": 1 / 3},
                                   abs=1e-12)


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
            state, vals = step({"x0": x} | state, 1)
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
        state, _ = get_compiled(net).step({"x0": 1} | state, 1)
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
