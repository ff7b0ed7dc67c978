"""Unit tests for repro.logic.netlist."""

import pytest

from repro.logic.gates import GateType
from repro.logic.netlist import Latch, NetlistError, Network
from repro.logic.sop import Cover
from repro.sim.compiled import get_compiled


def small_net():
    net = Network("t")
    net.add_inputs(["a", "b"])
    net.add_gate("g", GateType.AND, ["a", "b"])
    net.add_gate("h", GateType.NOT, ["g"])
    net.set_output("h")
    return net


class TestConstruction:
    def test_duplicate_name_rejected(self):
        net = small_net()
        with pytest.raises(NetlistError):
            net.add_gate("g", GateType.OR, ["a", "b"])
        with pytest.raises(NetlistError):
            net.add_input("a")

    def test_bad_arity_rejected(self):
        net = Network()
        net.add_inputs(["a", "b", "c"])
        with pytest.raises(NetlistError):
            net.add_gate("x", GateType.NOT, ["a", "b"])
        with pytest.raises(NetlistError):
            net.add_gate("y", GateType.MUX, ["a", "b"])

    def test_sop_arity_check(self):
        net = Network()
        net.add_inputs(["a", "b"])
        with pytest.raises(NetlistError):
            net.add_sop("s", ["a", "b"], Cover.from_strings(["1-0"]))

    def test_set_output_idempotent(self):
        net = small_net()
        net.set_output("h")
        assert net.outputs.count("h") == 1

    def test_latch(self):
        net = Network()
        net.add_input("d")
        latch = net.add_latch("d", "q", init=1)
        assert isinstance(latch, Latch)
        assert net.latch_for_output("q").init == 1
        with pytest.raises(NetlistError):
            net.latch_for_output("d")


class TestEvaluation:
    def test_scalar_eval(self):
        net = small_net()
        assert net.evaluate({"a": 1, "b": 1})["h"] == 0
        assert net.evaluate({"a": 1, "b": 0})["h"] == 1

    def test_missing_input_raises(self):
        net = small_net()
        with pytest.raises(NetlistError):
            net.evaluate({"a": 1})

    def test_word_eval_matches_scalar(self):
        net = small_net()
        words = {"a": 0b1100, "b": 0b1010}
        vals = net.evaluate_words(words, 0b1111)
        for k in range(4):
            scalar = net.evaluate({"a": (0b1100 >> k) & 1,
                                   "b": (0b1010 >> k) & 1})
            assert (vals["h"] >> k) & 1 == scalar["h"]

    def test_sop_node_eval(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_sop("x", ["a", "b"], Cover.from_strings(["10", "01"]))
        net.set_output("x")
        assert net.evaluate({"a": 1, "b": 0})["x"] == 1
        assert net.evaluate({"a": 1, "b": 1})["x"] == 0

    def test_latch_defaults_to_init(self):
        net = Network()
        net.add_input("d")
        net.add_latch("d", "q", init=1)
        net.add_gate("o", GateType.BUF, ["q"])
        net.set_output("o")
        assert net.evaluate({"d": 0})["o"] == 1

    def test_step_enable(self):
        net = Network()
        net.add_inputs(["d", "en"])
        net.add_latch("d", "q", init=0, enable="en")
        step = get_compiled(net).step
        state = net.initial_state()
        state, _ = step(state, {"d": 1, "en": 0}, 1)
        assert state["q"] == 0          # held
        state, _ = step(state, {"d": 1, "en": 1}, 1)
        assert state["q"] == 1          # loaded
        # A missing state word is the init value; a 0 enable bit holds
        # it, lane by lane.
        state, _ = step({}, {"d": 0b11, "en": 0b01}, 0b11)
        assert state["q"] == 0b01
        net.latches[0].init = 1
        state, _ = get_compiled(net).step({}, {"d": 0b00, "en": 0b01},
                                          0b11)
        assert state["q"] == 0b10

    def test_sequential_counter_behaviour(self):
        net = Network()
        net.add_input("d")
        net.add_gate("nq", GateType.NOT, ["q"])
        net.add_latch("nq", "q", init=0)
        net.set_output("q")
        step = get_compiled(net).step
        state = net.initial_state()
        seen = []
        for _ in range(4):
            state, vals = step(state, {"d": 0}, 1)
            seen.append(state["q"])
        assert seen == [1, 0, 1, 0]


class TestStructure:
    def test_topo_order(self):
        net = small_net()
        order = net.topo_order()
        assert order.index("g") < order.index("h")
        assert order.index("a") < order.index("g")

    def test_cycle_detected(self):
        net = Network()
        net.add_input("a")
        net.add_gate("x", GateType.AND, ["a", "y"])
        net.add_gate("y", GateType.BUF, ["x"])
        with pytest.raises(NetlistError):
            net.topo_order()

    def test_levels_and_depth(self):
        net = small_net()
        levels = net.levels()
        assert levels["a"] == 0
        assert levels["g"] == 1
        assert levels["h"] == 2
        assert net.depth() == 2

    def test_fanouts(self):
        net = small_net()
        fo = net.fanouts()
        assert fo["g"] == ["h"]
        assert sorted(fo["a"]) == ["g"]

    def test_fanout_count_includes_outputs(self):
        net = small_net()
        assert net.fanout_count("h") == 1   # PO counts

    def test_stats(self):
        s = small_net().stats()
        assert s["inputs"] == 2 and s["gates"] == 2

    def test_replace_fanin(self):
        net = small_net()
        net.add_input("c")
        net.replace_fanin("g", "b", "c")
        assert net.nodes["g"].fanins == ["a", "c"]
        with pytest.raises(NetlistError):
            net.replace_fanin("g", "zz", "a")

    def test_replace_everywhere(self):
        net = small_net()
        net.add_input("c")
        net.replace_everywhere("g", "c")
        assert net.nodes["h"].fanins == ["c"]

    def test_insert_buffer(self):
        net = small_net()
        net.insert_buffer("h", "g", "buf1")
        assert net.nodes["h"].fanins == ["buf1"]
        assert net.evaluate({"a": 1, "b": 1})["h"] == 0

    def test_remove_node_with_fanout_rejected(self):
        net = small_net()
        with pytest.raises(NetlistError):
            net.remove_node("g")

    def test_sweep(self):
        net = small_net()
        net.add_gate("dead", GateType.OR, ["a", "b"])
        removed = net.sweep()
        assert removed == 1
        assert "dead" not in net.nodes

    def test_copy_is_deep(self):
        net = small_net()
        cp = net.copy()
        cp.nodes["g"].fanins[0] = "b"
        assert net.nodes["g"].fanins[0] == "a"

    def test_check_catches_dangling(self):
        net = small_net()
        net.nodes["g"].fanins[0] = "nope"
        with pytest.raises(NetlistError):
            net.check()

    def test_fresh_name(self):
        net = small_net()
        name = net.fresh_name("g")
        assert name not in net.nodes

    def test_transistor_counts(self):
        net = small_net()
        # AND = 6, NOT = 2
        assert net.num_transistors() == 8


class TestCycleDiagnostics:
    def test_cycle_error_names_the_path(self):
        net = Network()
        net.add_input("a")
        net.add_gate("x", GateType.AND, ["a", "y"])
        net.add_gate("y", GateType.BUF, ["x"])
        with pytest.raises(NetlistError,
                           match="combinational cycle: "):
            net.topo_order()
        try:
            net.topo_order()
        except NetlistError as exc:
            msg = str(exc)
        path = msg.split(": ", 1)[1].split(" -> ")
        assert path[0] == path[-1]
        assert set(path) == {"x", "y"}

    def test_self_loop_named(self):
        net = Network()
        net.add_input("a")
        net.add_gate("x", GateType.AND, ["a", "x"])
        with pytest.raises(NetlistError, match="x -> x"):
            net.topo_order()


class TestEditAudit:
    def test_replace_everywhere_dedups_outputs(self):
        net = small_net()
        net.add_gate("h2", GateType.NOT, ["g"])
        net.set_output("h2")
        # both h and h2 are POs; redirecting h2 onto h must not
        # leave h listed twice
        net.replace_everywhere("h2", "h")
        assert net.outputs == ["h"]

    def test_replace_everywhere_plain_rename_keeps_order(self):
        net = small_net()
        net.add_input("c")
        net.set_output("c")
        net.replace_everywhere("c", "h")
        assert net.outputs == ["h"]

    def test_sweep_then_check_is_clean(self):
        net = small_net()
        net.add_gate("d1", GateType.OR, ["a", "b"])
        net.add_gate("d2", GateType.NOT, ["d1"])
        removed = net.sweep()
        assert removed == 2
        net.check()   # no stale references survive the sweep

    def test_remove_latch_drops_record(self):
        net = Network()
        net.add_input("d")
        net.add_latch("d", "q")
        net.remove_node("q")
        assert net.latches == [] and "q" not in net.nodes
