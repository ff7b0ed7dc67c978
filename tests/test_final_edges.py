"""Last-mile edge cases across packages."""

import pytest

from repro.logic.sop import Cover
from repro.opt.datapath.bus_coding import bus_invert
from repro.opt.datapath.number_repr import (to_sign_magnitude,
                                            to_twos_complement)
from repro.opt.datapath.residue import OneHotResidue
from repro.power.glitch import timed_average_power
from tests.oracles import is_minimum_size, minimize_exact


class TestExactHelpers:
    def test_is_minimum_size(self):
        on = Cover.from_minterms(3, [0, 1, 2, 5, 6, 7])
        assert is_minimum_size(minimize_exact(on), on)
        fat = Cover.from_minterms(3, [0, 1, 2, 5, 6, 7])
        assert not is_minimum_size(fat, on)   # 6 minterm cubes > 3


class TestNumberEncodings:
    @pytest.mark.parametrize("v", [-128, -1, 0, 1, 127])
    def test_twos_complement_roundtrip(self, v):
        enc = to_twos_complement(v, 8)
        dec = enc - 256 if enc >= 128 else enc
        assert dec == v

    @pytest.mark.parametrize("v", [-127, -1, 0, 1, 127])
    def test_sign_magnitude_roundtrip(self, v):
        enc = to_sign_magnitude(v, 8)
        mag = enc & 0x7F
        dec = -mag if enc & 0x80 else mag
        assert dec == v


class TestResidueBinaryBaseline:
    def test_binary_transitions_helper(self):
        t = OneHotResidue.binary_transitions([0b0000, 0b1111, 0b0000],
                                             4)
        assert t == 8


class TestBusResultProperties:
    def test_per_transfer(self):
        res = bus_invert([0, 0xFF, 0, 0xFF], 8)
        assert res.per_transfer == pytest.approx(
            res.transitions_coded / 3)

    def test_single_word_stream(self):
        res = bus_invert([0xAB], 8)
        assert res.transitions_coded == 0
        assert res.saving == 0.0


class TestTimedPowerOptions:
    def test_custom_delays_accepted(self):
        from repro.logic.generators import parity_tree

        net = parity_tree(6, balanced=False)
        fast = timed_average_power(net, 64, seed=1,
                                   delays={n: 1.0 for n in net.nodes})
        slow_map = {}
        for name, node in net.nodes.items():
            if not node.is_source():
                slow_map[name] = 1.0
        # Uniform delays: identical counts either way.
        same = timed_average_power(net, 64, seed=1, delays=slow_map)
        assert fast.total == pytest.approx(same.total)

    def test_input_probs_change_power(self):
        from repro.logic.generators import ripple_carry_adder

        net = ripple_carry_adder(4)
        busy = timed_average_power(net, 128, seed=2).total
        quiet = timed_average_power(
            net, 128, seed=2,
            input_probs={n: 0.02 for n in net.inputs}).total
        assert quiet < busy


class TestCliErrors:
    def test_fsm_missing_file(self, tmp_path):
        from repro.tools.cli import main

        with pytest.raises(FileNotFoundError):
            main(["fsm", str(tmp_path / "nope.kiss")])


class TestRtlWorstStrategyCorrect:
    def test_worst_binding_still_bit_exact(self):
        """The 'worst' binding is a power experiment, never a
        functional one: the hardware must still compute correctly."""
        import random

        from repro.arch.allocation import bind_operations
        from repro.arch.dfg import fir_dfg
        from repro.arch.rtl import run_iteration, synthesize_datapath
        from repro.arch.scheduling import list_schedule

        dfg = fir_dfg(3)
        sched = list_schedule(dfg, {"add": 1, "mul": 2})
        binding = bind_operations(dfg, sched, "worst").binding
        rtl = synthesize_datapath(dfg, sched, binding, width=4)
        rng = random.Random(9)
        for _ in range(15):
            ints = {n: rng.randrange(16) for n in dfg.inputs()}
            got = run_iteration(rtl, ints)["y"]
            ref = dfg.evaluate({k: float(v) for k, v in ints.items()})
            assert got == int(round(ref["y"])) & 15
