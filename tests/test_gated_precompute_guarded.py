"""Unit tests for gated clocks, precomputation, guarded evaluation."""

import random

import pytest

from repro.logic.blif import write_blif
from repro.logic.cube import Cube
from repro.logic.gates import GateType
from repro.logic.generators import comparator, register_file
from repro.logic.netlist import Network
from repro.logic.sop import Cover
from repro.opt.seq import gated_clock
from repro.opt.seq.encoding import encode_anneal, encode_natural
from repro.opt.seq.fsm_benchmarks import benchmark_names, load_benchmark
from repro.opt.seq.minimize_fsm import minimize_stg
from repro.opt.seq.gated_clock import (clock_power,
                                       convert_feedback_muxes,
                                       self_loop_clock_gating)
from repro.opt.seq.guarded import guarded_evaluation
from repro.opt.seq.precompute import (disable_probability,
                                      precomputed_comparator,
                                      select_precompute_inputs)
from repro.opt.seq.stg import STG, synthesize_fsm
from repro.power.activity import sequential_activity
from repro.power.model import power_report
from repro.sim.functional import (sequential_transitions,
                                  verify_equivalence)


def idle_heavy_stg():
    """FSM that self-loops with probability 3/4 in every state."""
    stg = STG(2, 1)
    for i, s in enumerate(["s0", "s1", "s2", "s3"]):
        nxt = f"s{(i + 1) % 4}"
        out = "1" if i == 3 else "0"
        stg.add_transition("11", s, nxt, out)
        for cube in ("0-", "10"):
            stg.add_transition(cube, s, s, out)
    return stg


class TestGatedClock:
    def test_gated_fsm_equivalent(self):
        stg = idle_heavy_stg()
        res = self_loop_clock_gating(stg, encode_natural(stg))
        rng = random.Random(0)
        vecs = [{"x0": rng.getrandbits(1), "x1": rng.getrandbits(1)}
                for _ in range(300)]
        _, tb = sequential_transitions(res.baseline, vecs)
        _, tg = sequential_transitions(res.network, vecs)
        assert [t["z0"] for t in tb] == [t["z0"] for t in tg]

    def test_activation_probability(self):
        stg = idle_heavy_stg()
        res = self_loop_clock_gating(stg, encode_natural(stg))
        assert res.activation_probability == pytest.approx(0.75)

    def test_clock_power_reduced(self):
        stg = idle_heavy_stg()
        res = self_loop_clock_gating(stg, encode_natural(stg))
        base = clock_power(res.baseline, {})
        en = {l.output: 0.25 for l in res.network.latches}
        gated = clock_power(res.network, en)
        assert gated < 0.5 * base

    def test_enable_signal_matches_self_loop(self):
        stg = idle_heavy_stg()
        res = self_loop_clock_gating(stg, encode_natural(stg))
        rng = random.Random(1)
        vecs = [{"x0": rng.getrandbits(1), "x1": rng.getrandbits(1)}
                for _ in range(500)]
        _, trace = sequential_transitions(res.network, vecs)
        en_rate = sum(t["_fa_n"] for t in trace) / len(trace)
        assert en_rate == pytest.approx(0.25, abs=0.07)


def _reference_gating(stg, encoding, minimize=True):
    """Baseline and gated machines built with one synthesis each, as
    :func:`self_loop_clock_gating` once built them."""
    baseline = synthesize_fsm(stg, encoding, minimize=minimize,
                              name="fsm_base")
    gated = synthesize_fsm(stg, encoding, minimize=minimize,
                           name="fsm_gated")
    num_bits = max(1, max(encoding.values()).bit_length())
    n_in = stg.num_inputs
    n_vars = n_in + num_bits
    fa_cubes = []
    for t in stg.transitions:
        if t.src != t.dst:
            continue
        lits = list(t.input_cube.literals())
        code = encoding[t.src]
        for j in range(num_bits):
            lits.append((n_in + j, (code >> j) & 1))
        fa_cubes.append(Cube.from_literals(n_vars, lits))
    fa_cover = Cover(n_vars, fa_cubes)
    if minimize:
        fa_cover = fa_cover.minimize()
    fanins = [f"x{i}" for i in range(n_in)] + \
        [f"s{j}" for j in range(num_bits)]
    gated.add_sop("_fa_n", fanins, fa_cover.complement().minimize())
    for latch in gated.latches:
        gated.set_latch_pins(latch, latch.data, "_fa_n")
    return baseline, gated


class TestGatedClockSynthesis:
    """The encoded machine is synthesized once; the gated machine is a
    copy of it plus the enable logic."""

    def test_synthesizes_the_encoded_machine_once(self, monkeypatch):
        calls = []
        real = gated_clock.synthesize_fsm

        def counting(*args, **kwargs):
            calls.append(kwargs.get("name"))
            return real(*args, **kwargs)

        monkeypatch.setattr(gated_clock, "synthesize_fsm", counting)
        stg = load_benchmark("traffic")
        res = self_loop_clock_gating(stg, encode_natural(stg))
        assert calls == ["fsm_base"]
        assert res.network.name == "fsm_gated"
        assert res.baseline.name == "fsm_base"
        assert all(l.enable is None for l in res.baseline.latches)
        assert "_fa_n" not in res.baseline.nodes

    @pytest.mark.parametrize("name", benchmark_names())
    def test_blif_equals_two_synthesis_reference(self, name):
        machine = load_benchmark(name)
        for stg in (machine, minimize_stg(machine)):
            for encoding in (encode_natural(stg),
                             encode_anneal(stg, iterations=500, seed=3)):
                for minimize in (True, False):
                    res = self_loop_clock_gating(stg, encoding,
                                                 minimize=minimize)
                    base, gated = _reference_gating(stg, encoding,
                                                    minimize)
                    assert write_blif(res.baseline) == write_blif(base)
                    assert write_blif(res.network) == write_blif(gated)


class TestFeedbackMuxConversion:
    def test_register_file_conversion(self):
        net = register_file(2, 4)
        ref = net.copy()
        converted = convert_feedback_muxes(net)
        assert converted == 8
        assert all(l.enable is not None for l in net.latches)
        rng = random.Random(2)
        vecs = []
        for _ in range(60):
            v = {f"d{i}": rng.getrandbits(1) for i in range(4)}
            v["we0"] = rng.getrandbits(1)
            v["we1"] = rng.getrandbits(1)
            vecs.append(v)
        _, t1 = sequential_transitions(ref, vecs)
        _, t2 = sequential_transitions(net, vecs)
        for a, b in zip(t1, t2):
            for out in ref.outputs:
                assert a[out] == b[out]

    def test_conversion_saves_power(self):
        net = register_file(4, 8)
        ref = net.copy()
        convert_feedback_muxes(net)
        rng = random.Random(3)
        vecs = []
        for _ in range(200):
            v = {f"d{i}": rng.getrandbits(1) for i in range(8)}
            # One-hot, mostly idle writes.
            for w in range(4):
                v[f"we{w}"] = 0
            if rng.random() < 0.3:
                v[f"we{rng.randrange(4)}"] = 1
            vecs.append(v)
        p_ref = power_report(ref, sequential_activity(ref, vecs)).total
        p_new = power_report(net, sequential_activity(net, vecs)).total
        assert p_new < p_ref


class TestPrecompute:
    def test_comparator_disable_probability(self):
        """Figure 1: MSB pair disables the rest half the time."""
        pre = precomputed_comparator(8)
        assert pre.disable_probability == pytest.approx(0.5)

    def test_outputs_match_baseline(self):
        pre = precomputed_comparator(6)
        rng = random.Random(4)
        vecs = []
        for _ in range(200):
            c, d = rng.getrandbits(6), rng.getrandbits(6)
            v = {f"c{i}": (c >> i) & 1 for i in range(6)}
            v.update({f"d{i}": (d >> i) & 1 for i in range(6)})
            vecs.append(v)
        _, tb = sequential_transitions(pre.baseline, vecs)
        _, tg = sequential_transitions(pre.network, vecs)
        out = pre.baseline.outputs[0]
        assert [t[out] for t in tb][1:] == [t[out] for t in tg][1:]

    def test_power_saving(self):
        pre = precomputed_comparator(8)
        rng = random.Random(5)
        vecs = []
        for _ in range(400):
            c, d = rng.getrandbits(8), rng.getrandbits(8)
            v = {f"c{i}": (c >> i) & 1 for i in range(8)}
            v.update({f"d{i}": (d >> i) & 1 for i in range(8)})
            vecs.append(v)
        pb = power_report(pre.baseline,
                          sequential_activity(pre.baseline, vecs)).total
        pg = power_report(pre.network,
                          sequential_activity(pre.network, vecs)).total
        assert pg < pb * 0.9

    def test_selection_finds_msbs(self):
        net = comparator(4)
        sel = select_precompute_inputs(net, 2)
        assert set(sel) == {"c3", "d3"}

    def test_selection_greedy_path(self):
        net = comparator(7)   # 14 inputs > exhaustive_limit
        sel = select_precompute_inputs(net, 2, exhaustive_limit=4)
        assert set(sel) == {"c6", "d6"}

    def test_disable_probability_function(self):
        net = comparator(4)
        p = disable_probability(net, ["c3", "d3"])
        assert p == pytest.approx(0.5)
        p_bad = disable_probability(net, ["c0", "d0"])
        assert p_bad < p

    def test_skewed_inputs_raise_disable_probability(self):
        net = comparator(4)
        probs = {"c3": 0.95, "d3": 0.05}
        p = disable_probability(net, ["c3", "d3"], probs)
        assert p > 0.85


class TestGuarded:
    def make_mux_net(self):
        net = Network("g")
        net.add_inputs(["s", "a", "b", "c", "d"])
        net.add_gate("x1", GateType.XOR, ["a", "b"])
        net.add_gate("x2", GateType.AND, ["x1", "c"])
        net.add_gate("y1", GateType.OR, ["c", "d"])
        net.add_gate("y2", GateType.XNOR, ["y1", "a"])
        net.add_gate("m", GateType.MUX, ["s", "x2", "y2"])
        net.set_output("m")
        return net

    def test_equivalence_preserved(self):
        net = self.make_mux_net()
        ref = net.copy()
        res = guarded_evaluation(net, max_active_probability=1.0)
        assert res.cones_isolated >= 1
        assert verify_equivalence(ref, net, 512)

    def test_idle_cone_stops_switching(self):
        net = self.make_mux_net()
        guarded_evaluation(net, max_active_probability=1.0)
        # Hold s=1 (selects y leg): the x cone must be quiet.
        from repro.sim.functional import simulate_transitions
        from repro.sim.vectors import random_words

        words = random_words(net.inputs, 256, seed=6)
        words["s"] = (1 << 256) - 1
        tr = simulate_transitions(net, words, 256)
        assert tr["x2"] == 0

    def test_shared_signals_not_isolated(self):
        """y1/y2 read inputs also used elsewhere; exclusivity analysis
        must not guard nodes with external fanout."""
        net = self.make_mux_net()
        net.add_gate("extra", GateType.BUF, ["y2"])
        net.set_output("extra")
        ref = net.copy()
        res = guarded_evaluation(net, max_active_probability=1.0)
        assert verify_equivalence(ref, net, 512)
        assert all(leg != "y2" for _m, leg in res.guards)

    def test_min_cone_size(self):
        net = self.make_mux_net()
        res = guarded_evaluation(net, min_cone_size=10, max_active_probability=1.0)
        assert res.cones_isolated == 0

    def test_hot_leg_declined(self):
        """A leg selected most of the time must not be isolated."""
        net = self.make_mux_net()
        res = guarded_evaluation(net, input_probs={"s": 0.95})
        # d1 (selected when s=1) is hot; only the d0 cone qualifies.
        assert all(leg != "y2" for _m, leg in res.guards)

    def test_toggling_select_declined_by_default(self):
        """With p(select)=0.5 both legs exceed the default threshold."""
        net = self.make_mux_net()
        res = guarded_evaluation(net)
        assert res.cones_isolated == 0
