"""Tests for the FSM benchmark suite, product sharing, and the decoder
generator."""

import random

import pytest

from repro.logic.generators import decoder
from repro.logic.netlist import Network
from repro.logic.sop import Cover
from repro.opt.logic.share import share_product_terms
from repro.opt.seq.fsm_benchmarks import all_benchmarks, load_benchmark
from repro.opt.seq.minimize_fsm import minimize_stg
from repro.opt.seq.stg import synthesize_fsm
from repro.opt.seq.encoding import encode_natural
from repro.sim.functional import verify_equivalence


class TestFsmSuite:
    def test_all_load(self):
        machines = all_benchmarks()
        assert len(machines) == 6
        for name, stg in machines.items():
            assert stg.states, name
            assert stg.reset_state in stg.states

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            load_benchmark("nonexistent")

    def test_rows_sum_to_one(self):
        """All bundled machines are completely specified."""
        for name, stg in all_benchmarks().items():
            for s, row in stg.transition_matrix().items():
                assert sum(row.values()) == pytest.approx(1.0), \
                    (name, s)

    def test_redundant_minimizes(self):
        stg = load_benchmark("redundant")
        red = minimize_stg(stg)
        assert len(stg.states) == 6
        assert len(red.states) == 3

    def test_others_already_minimal(self):
        for name in ("detector", "vending", "traffic"):
            stg = load_benchmark(name)
            red = minimize_stg(stg)
            assert len(red.states) == len(stg.states), name

    def test_detector_detects(self):
        stg = load_benchmark("detector")
        state = stg.reset_state
        outs = []
        for bit in [1, 0, 1, 1, 1, 0, 1, 1]:
            state, o = stg.next_state(state, bit)
            outs.append(o)
        # "1011" completes at index 3 and (overlapping) at index 7.
        assert outs[3] == "1" and outs[7] == "1"
        assert outs[0] == "0" and outs[4] == "0"

    def test_all_synthesizable(self):
        for name, stg in all_benchmarks().items():
            net = synthesize_fsm(stg, encode_natural(stg))
            net.check()
            assert len(net.outputs) == stg.num_outputs


class TestProductSharing:
    def make_net(self):
        net = Network()
        net.add_inputs(["a", "b", "c", "d", "e"])
        # a·b·c shared by three functions.
        net.add_sop("f", ["a", "b", "c", "d"],
                    Cover.from_strings(["111-", "---1"]))
        net.add_sop("g", ["a", "b", "c", "e"],
                    Cover.from_strings(["111-", "---0"]))
        net.add_sop("h", ["a", "b", "c"],
                    Cover.from_strings(["111"]))
        net.set_outputs(["f", "g", "h"])
        return net

    def test_extracts_and_preserves(self):
        net = self.make_net()
        ref = net.copy()
        res = share_product_terms(net)
        assert res.terms_extracted == 1
        assert res.occurrences_replaced == 3
        assert verify_equivalence(ref, net, 256)
        assert res.literals_after < res.literals_before

    def test_min_uses_respected(self):
        net = self.make_net()
        res = share_product_terms(net, min_uses=4)
        assert res.terms_extracted == 0

    def test_single_literal_terms_skipped(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_sop("f", ["a"], Cover.from_strings(["1"]))
        net.add_sop("g", ["a", "b"], Cover.from_strings(["1-", "-1"]))
        net.set_outputs(["f", "g"])
        res = share_product_terms(net)
        assert res.terms_extracted == 0

    def test_fsm_logic_sharing(self):
        """FSM next-state bits share (input x state) product terms."""
        from repro.opt.seq.fsm_benchmarks import load_benchmark

        stg = load_benchmark("detector")
        net = synthesize_fsm(stg, encode_natural(stg), minimize=False)
        ref = net.copy()
        res = share_product_terms(net)
        assert res.terms_extracted > 0
        assert res.literals_after < res.literals_before
        # Sequential equivalence: same output trace.
        import random

        from repro.sim.functional import sequential_transitions

        rng = random.Random(4)
        vecs = [{"x0": rng.getrandbits(1)} for _ in range(300)]
        _, t1 = sequential_transitions(ref, vecs)
        _, t2 = sequential_transitions(net, vecs)
        assert [t["z0"] for t in t1] == [t["z0"] for t in t2]


class TestNewGenerators:
    def test_decoder(self):
        net = decoder(3)
        for code in range(8):
            for en in (0, 1):
                vec = {f"s{i}": (code >> i) & 1 for i in range(3)}
                vec["en"] = en
                out = net.evaluate(vec)
                onehot = sum(out[f"o{k}"] << k for k in range(8))
                assert onehot == ((1 << code) if en else 0)


class TestCliFsm:
    def test_bundled_benchmark(self, capsys):
        from repro.tools.cli import main

        assert main(["fsm", "redundant", "--vectors", "300"]) == 0
        out = capsys.readouterr().out
        assert "states" in out and "6 -> 3" in out

    def test_kiss_file(self, tmp_path, capsys):
        from repro.opt.seq.fsm_benchmarks import TRAFFIC
        from repro.tools.cli import main

        path = tmp_path / "t.kiss"
        path.write_text(TRAFFIC)
        assert main(["fsm", str(path), "--vectors", "300"]) == 0
