"""Small-surface tests: utility functions and result-object behaviour
not covered elsewhere."""

import pytest

from repro.core.report import format_table
from repro.library.cells import generic_library
from repro.logic.gates import GateType
from repro.logic.generators import ripple_carry_adder
from repro.logic.netlist import Network
from repro.power.model import PowerParameters
from repro.opt.circuit.reorder import ReorderResult
from repro.opt.seq.stg import STG


class TestPowerParameters:
    def test_scaled_copy(self):
        p = PowerParameters()
        q = p.scaled(vdd=1.5)
        assert q.vdd == 1.5
        assert q.frequency == p.frequency
        assert p.vdd == 3.3   # original untouched (frozen)

    def test_frozen(self):
        with pytest.raises(Exception):
            PowerParameters().vdd = 5.0


class TestReportFormatting:
    def test_mixed_types(self):
        text = format_table(["a", "b"], [[1, 0.123456789],
                                         ["xx", 2.0]])
        assert "0.1235" in text
        assert "xx" in text

    def test_column_width_tracks_content(self):
        text = format_table(["h"], [["wide-content-cell"]])
        first, second = text.splitlines()[:2]
        assert len(second) >= len("wide-content-cell")


class TestLibraryAccess:
    def test_getitem_len_iter(self):
        lib = generic_library()
        assert lib["inv_x1"].num_inputs == 1
        assert len(list(iter(lib))) == len(lib)

    def test_cell_delay_model(self):
        inv = generic_library()["inv_x1"]
        assert inv.delay(10.0) > inv.delay(1.0)
        assert "inv_x1" in repr(inv)


class TestStgUtilities:
    def test_random_sequence_deterministic(self):
        stg = STG(3, 0)
        stg.add_state("s")
        a = stg.random_input_sequence(20, seed=5)
        b = stg.random_input_sequence(20, seed=5)
        assert a == b
        assert all(0 <= v < 8 for v in a)

    def test_zero_input_machine(self):
        # A machine without inputs: the stimulus is all zeros.
        stg = STG(0, 1)
        stg.add_state("a")
        assert stg.random_input_sequence(5) == [0] * 5

    def test_repr(self):
        stg = STG(1, 1)
        stg.add_transition("1", "a", "b", "0")
        assert "2 states" in repr(stg)


class TestReorderResultProperties:
    def test_zero_baseline(self):
        r = ReorderResult(best_order=[0], best_energy=0.0,
                          best_delay=0.0, baseline_energy=0.0,
                          baseline_delay=0.0, worst_energy=0.0)
        assert r.energy_saving == 0.0
        assert r.spread == 1.0


class TestNetworkEdgeCases:
    def test_repr(self):
        net = ripple_carry_adder(2)
        text = repr(net)
        assert "rca" in text and "gates" in text

    def test_empty_network_stats(self):
        net = Network("empty")
        assert net.depth() == 0.0
        assert net.num_gates() == 0
        assert net.topo_order() == []

    def test_node_repr_variants(self):
        net = Network()
        net.add_input("a")
        net.add_gate("g", GateType.NOT, ["a"])
        from repro.logic.sop import Cover

        net.add_sop("s", ["a"], Cover.from_strings(["1"]))
        assert "not" in repr(net.nodes["g"])
        assert "SOP" in repr(net.nodes["s"])
        assert "input" in repr(net.nodes["a"])

    def test_fanout_count_enable(self):
        net = Network()
        net.add_inputs(["d", "en"])
        net.add_latch("d", "q", enable="en")
        net.set_output("q")
        assert net.fanout_count("en") == 1
        assert net.fanout_count("d") == 1
