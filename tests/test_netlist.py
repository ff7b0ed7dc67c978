"""Unit tests for repro.logic.netlist."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.blif import write_blif
from repro.logic.gates import GateType
from repro.logic.generators import random_logic
from repro.logic.netlist import Latch, NetlistError, Network, Node
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

    @pytest.mark.parametrize("init", [2, -1, 1.0, "1", None])
    def test_latch_init_must_be_a_bit(self, init):
        # The engines read any other init differently (the compiled
        # ones as "nonzero", the event oracle as "low bit").
        net = Network()
        net.add_input("d")
        with pytest.raises(NetlistError, match="latch 'q'.*init"):
            net.add_latch("d", "q", init=init)
        assert "q" not in net.nodes and not net.latches


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

    @staticmethod
    def _enabled_latch(init):
        net = Network()
        net.add_inputs(["d", "en"])
        net.add_latch("d", "q", init=init, enable="en")
        return net

    def test_step_enable(self):
        net = self._enabled_latch(0)
        step = get_compiled(net).step
        state = net.initial_state()
        state, _ = step({"d": 1, "en": 0} | state, 1)
        assert state["q"] == 0          # held
        state, _ = step({"d": 1, "en": 1} | state, 1)
        assert state["q"] == 1          # loaded
        # A missing latch word is the init value; a 0 enable bit holds
        # it, lane by lane.
        state, _ = step({"d": 0b11, "en": 0b01}, 0b11)
        assert state["q"] == 0b01
        state, _ = get_compiled(self._enabled_latch(1)).step(
            {"d": 0b00, "en": 0b01}, 0b11)
        assert state["q"] == 0b10
        with pytest.raises(AttributeError):
            net.latches[0].init = 1     # latches are rewired by Network

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
            state, vals = step({"d": 0} | state, 1)
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
        assert net.nodes["g"].fanins == ("a", "c")
        with pytest.raises(NetlistError):
            net.replace_fanin("g", "zz", "a")

    def test_replace_everywhere(self):
        net = small_net()
        net.add_input("c")
        net.replace_everywhere("g", "c")
        assert net.nodes["h"].fanins == ("c",)

    def test_insert_buffer(self):
        net = small_net()
        net.insert_buffer("h", "g", "buf1")
        assert net.nodes["h"].fanins == ("buf1",)
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
        cp.set_fanins("g", ["b", "b"])
        assert net.nodes["g"].fanins[0] == "a"
        assert net.readers("a") == {"g": 1}

    def test_check_catches_dangling(self):
        net = small_net()
        net.set_fanins("g", ["nope", "b"])
        with pytest.raises(NetlistError):
            net.check()

    def test_fanin_slots_are_read_only(self):
        net = small_net()
        with pytest.raises(TypeError):
            net.nodes["g"].fanins[0] = "b"

    def test_node_fields_are_read_only(self):
        net = small_net()
        net.add_sop("s", ["a"], Cover.one(1))
        for name, field, value in [("s", "cover", Cover.one(1)),
                                   ("g", "gtype", GateType.OR),
                                   ("g", "fanins", ("a", "a")),
                                   ("g", "name", "x"),
                                   ("g", "kind", "sop")]:
            with pytest.raises(AttributeError, match="read-only"):
                setattr(net.nodes[name], field, value)
        net.nodes["g"].attrs["size"] = 2.0      # attrs stay writable
        assert net.nodes["g"].gtype is GateType.AND

    def test_set_function(self):
        net = small_net()
        net.add_sop("s", ["a", "b"], Cover.one(2))
        net.set_function("g", GateType.XOR)
        net.set_function("s", Cover.one(2).complement())
        assert net.evaluate({"a": 1, "b": 1})["h"] == 1
        assert net.evaluate({"a": 1, "b": 1})["s"] == 0
        for name, function in [("g", GateType.NOT),       # arity
                               ("s", Cover.one(3)),       # arity
                               ("g", Cover.one(2)),       # kind
                               ("s", GateType.AND),       # kind
                               ("a", GateType.BUF)]:      # a source
            with pytest.raises(NetlistError):
                net.set_function(name, function)
        net.set_function("g", GateType.NOT, fanins=["b"])
        assert net.nodes["g"].fanins == ("b",)
        assert net.readers("a") == {"s": 1}
        with pytest.raises(NetlistError):
            net.set_function("g", GateType.MUX, fanins=["a", "b"])
        assert net.nodes["g"].gtype is GateType.NOT

    def test_edit_record(self):
        net = small_net()
        mark = net.edit_mark()
        assert net.edits_since(mark) == []
        net.set_function("g", GateType.OR)
        net.set_function("h", GateType.BUF)
        net.set_function("g", GateType.AND)
        assert net.edits_since(mark) == ["g", "h", "g"]
        later = net.edit_mark()
        assert net.edits_since(later) == []
        assert net.copy().edits_since(later) is None    # another network
        net.set_function("g", GateType.XOR, fanins=["a", "a"])
        assert net.edits_since(later) is None           # structural edit

    def test_pickle_round_trip(self):
        net = small_net()
        net.add_sop("s", ["a", "g"], Cover.one(2).complement())
        net.add_latch("s", "q", init=1, enable="h")
        net.nodes["g"].attrs["size"] = 2.5
        back = pickle.loads(pickle.dumps(net))
        assert write_blif(back) == write_blif(net)
        assert back.nodes["g"].attrs == {"size": 2.5}
        assert back.latches == net.latches
        assert {n: back.readers(n) for n in back.nodes} == \
            {n: net.readers(n) for n in net.nodes}
        with pytest.raises(AttributeError):
            back.nodes["s"].cover = Cover.one(2)
        back.set_function("s", Cover.one(2))
        assert back.evaluate({"a": 0, "b": 0})["s"] == 1

    def test_set_node_keeps_position(self):
        net = small_net()
        net.set_node(Node("g", "gate", GateType.OR, ["b", "b"]))
        assert list(net.nodes) == ["a", "b", "g", "h"]
        assert net.readers("a") == {} and net.readers("b") == {"g": 2}

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


def _reference_sweep(net):
    """``Network.sweep`` as a rescan to a fixpoint: every round removes
    each non-source, non-output node with no reader left.  Works on the
    node dict alone, so it reads nothing the reader index keeps; the
    network it leaves is only compared, never used."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for name in list(net.nodes):
            node = net.nodes[name]
            if node.is_source() or name in net.outputs:
                continue
            read = any(name in other.fanins
                       for other in net.nodes.values()) or \
                any(name in (latch.data, latch.enable)
                    for latch in net.latches)
            if not read:
                del net.nodes[name]
                removed += 1
                changed = True
    return removed


def _dangling_case(seed, gates, extra):
    """``random_logic`` plus dangling cones over its nodes, some of
    them kept alive by latch data or enable pins, one gate reading a
    dangling node twice and a dangling two-gate cycle."""
    rng = random.Random(seed)
    net = random_logic(5, gates, seed)
    for i in range(extra):
        pool = list(net.nodes)
        gtype = rng.choice([GateType.AND, GateType.XOR, GateType.NOR])
        net.add_gate(f"d{i}", gtype, [rng.choice(pool), rng.choice(pool)])
    pool = list(net.nodes)
    net.add_gate("twice", GateType.OR, ["d0", "d0", rng.choice(pool)])
    net.add_gate("c0", GateType.AND, ["c1", rng.choice(pool)])
    net.add_gate("c1", GateType.NOT, ["c0"])
    for i in range(rng.randint(0, 3)):
        data, enable = rng.choice(pool), rng.choice(pool + [None])
        net.add_latch(data, f"q{i}", enable=enable)
        if rng.random() < 0.5:
            net.add_gate(f"r{i}", GateType.NOT, [f"q{i}"])
    if rng.random() < 0.3:
        net.add_latch("twice", "qq", enable="twice")
    return net


class TestSweepDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 25))
    def test_matches_reference(self, seed, gates, extra):
        net = _dangling_case(seed, gates, extra)
        ref = net.copy()
        assert net.sweep() == _reference_sweep(ref)
        assert list(net.nodes) == list(ref.nodes)
        assert net.latches == ref.latches

    def test_latch_pins_keep_cones_alive(self):
        net = small_net()
        net.add_gate("d1", GateType.OR, ["a", "b"])
        net.add_gate("d2", GateType.NOT, ["d1"])
        net.add_gate("e1", GateType.AND, ["a", "b"])
        net.add_gate("dead", GateType.XOR, ["d2", "e1"])
        net.add_latch("d2", "q", enable="e1")
        assert net.sweep() == 1
        assert list(net.nodes) == ["a", "b", "g", "h", "d1", "d2", "e1",
                                   "q"]


def _reference_topo_order(net):
    """A fanin-first depth-first search from each node in ``nodes``
    order, with the cycle and dangling-reference diagnostics: the order
    ``topo_order`` must return, on in-order and out-of-order networks
    alike."""
    order = []
    state = {}  # 0=unseen 1=visiting 2=done
    for root in net.nodes:
        if state.get(root, 0) == 2:
            continue
        stack = [(root, 0)]
        while stack:
            name, idx = stack.pop()
            if state.get(name, 0) == 2:
                continue
            node = net.nodes.get(name)
            if node is None:
                raise NetlistError(f"dangling reference to {name!r}")
            if node.is_source():
                state[name] = 2
                order.append(name)
                continue
            if idx == 0:
                state[name] = 1
            if idx < len(node.fanins):
                stack.append((name, idx + 1))
                fi = node.fanins[idx]
                st_fi = state.get(fi, 0)
                if st_fi == 1:
                    raise net._cycle_error(fi)
                if st_fi == 0:
                    stack.append((fi, 0))
            else:
                state[name] = 2
                order.append(name)
    return order


def _fanin_cone(net, name):
    """``name`` and every node it depends on through gate fanins."""
    cone, work = set(), [name]
    while work:
        n = work.pop()
        if n in cone:
            continue
        cone.add(n)
        work.extend(net.nodes[n].fanins)
    return cone


def _rewire_onto_later(net, rng, edits):
    """Make ``edits`` gates read a node added after them, alternately
    through ``set_fanins`` and by replacing the node with ``set_node``;
    no edit closes a cycle."""
    for _ in range(edits):
        pos = {n: i for i, n in enumerate(net.nodes)}
        gates = [n for n, node in net.nodes.items() if not node.is_source()]
        u = rng.choice(gates)
        later = [v for v in net.nodes
                 if pos[v] > pos[u] and u not in _fanin_cone(net, v)]
        if not later:
            continue
        node = net.nodes[u]
        fanins = list(node.fanins)
        fanins[rng.randrange(len(fanins))] = rng.choice(later)
        if rng.random() < 0.5:
            net.set_fanins(u, fanins)
        else:
            net.set_node(Node(u, "gate", gtype=node.gtype, fanins=fanins))


def _topo_outcome(order_of, net):
    try:
        return order_of(net)
    except NetlistError as exc:
        return f"NetlistError: {exc}"


class TestTopoOrderDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 40))
    def test_in_order_networks(self, seed, inputs, gates):
        net = random_logic(inputs, gates, seed)
        order = net.topo_order()
        assert order == _reference_topo_order(net) == list(net.nodes)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 40), st.integers(1, 6))
    def test_rewired_onto_later_nodes(self, seed, gates, edits):
        net = random_logic(4, gates, seed)
        _rewire_onto_later(net, random.Random(seed), edits)
        assert net.topo_order() == _reference_topo_order(net)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 20))
    def test_latch_added_after_its_readers(self, seed, gates):
        rng = random.Random(seed)
        net = Network()
        pool = net.add_inputs(["a", "b"]) + ["q"]
        for g in range(gates):
            pool.append(net.add_gate(f"g{g}", GateType.NAND,
                                     [rng.choice(pool), rng.choice(pool)]))
        net.add_latch(pool[-1], "q", enable=rng.choice([None, "a"]))
        order = net.topo_order()
        assert order == _reference_topo_order(net)
        for reader in net.readers("q"):
            if reader != "q":
                assert order.index("q") < order.index(reader)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 30),
           st.sampled_from(["cycle", "self-loop", "dangling"]))
    def test_diagnostics_match(self, seed, gates, defect):
        rng = random.Random(seed)
        net = random_logic(3, gates, seed)
        names = list(net.nodes)
        u = rng.choice([n for n in names if not net.nodes[n].is_source()])
        if defect == "cycle":
            readers = [n for n in names[names.index(u):]
                       if u in _fanin_cone(net, n)]
            bad = rng.choice(readers)
        else:
            bad = u if defect == "self-loop" else "missing"
        fanins = list(net.nodes[u].fanins)
        fanins[rng.randrange(len(fanins))] = bad
        net.set_fanins(u, fanins)
        expected = _topo_outcome(_reference_topo_order, net)
        assert expected.startswith("NetlistError: ")
        assert _topo_outcome(Network.topo_order, net) == expected
