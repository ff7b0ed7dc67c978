"""Unit tests for repro.power (activity estimation, model, glitch)."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.library.cells import generic_library
from repro.logic.gates import GateType, gate_arity_ok
from repro.logic.generators import (comparator, parity_tree, random_logic,
                                    ripple_carry_adder)
from repro.logic.netlist import NetlistError, Network, Node
from repro.logic.sop import Cover
from repro.opt.logic.mapping import tech_map
from repro.power.activity import (activity_from_probability,
                                  activity_from_simulation,
                                  sequential_activity,
                                  signal_probability_exact,
                                  signal_probability_propagation,
                                  stored_node_words,
                                  transition_density)
from repro.power.glitch import glitch_report
from repro.power.model import (PowerParameters, average_power,
                               node_capacitance, power_report)
from repro.sim.compiled import get_compiled
from repro.sim.vectors import random_words


class TestProbabilities:
    def test_propagation_on_tree_is_exact(self):
        """Without reconvergence the independence assumption is exact."""
        net = parity_tree(4, balanced=True)
        approx = signal_probability_propagation(net)
        exact = signal_probability_exact(net)
        for name in approx:
            assert approx[name] == pytest.approx(exact[name], abs=1e-9)

    def test_exact_handles_reconvergence(self):
        # z = a AND a' == 0; propagation (independence) says 0.25.
        net = Network()
        net.add_input("a")
        net.add_gate("na", GateType.NOT, ["a"])
        net.add_gate("z", GateType.AND, ["a", "na"])
        net.set_output("z")
        assert signal_probability_exact(net)["z"] == 0.0
        assert signal_probability_propagation(net)["z"] == \
            pytest.approx(0.25)

    def test_comparator_output_probability(self):
        """P(C > D) = (1 - 2^-n)/2 for uniform n-bit inputs."""
        net = comparator(4)
        p = signal_probability_exact(net)[net.outputs[0]]
        assert p == pytest.approx((1 - 2 ** -4) / 2)

    def test_input_probs_respected(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("g", GateType.AND, ["a", "b"])
        net.set_output("g")
        p = signal_probability_propagation(net, {"a": 1.0, "b": 0.25})
        assert p["g"] == pytest.approx(0.25)

    @pytest.mark.parametrize("bad", [1.5, -0.125, float("nan"),
                                     float("inf"), True, "0.5", None])
    def test_bad_input_probability_is_named(self, bad):
        net = random_logic(4, 6, 1)
        probs = {"i1": 0.25, "i0": bad}
        for estimate in (signal_probability_propagation,
                         signal_probability_exact):
            with pytest.raises(ValueError, match="'i0'"):
                estimate(net, probs)
        with pytest.raises(ValueError, match="'i0'"):
            random_words(["i0", "i1"], 8, 0, probs)
        with pytest.raises(ValueError, match="'i0'"):
            random_words(["i0", "i1"], 8, 0, None, probs)
        with pytest.raises(ValueError, match="'i0'"):
            activity_from_simulation(net, 8, 0, probs)

    def test_probability_bounds_are_accepted(self):
        net = random_logic(4, 6, 1)
        probs = {"i0": 0, "i1": 1, "i2": 0.0, "i3": 1.0}
        assert signal_probability_propagation(net, probs)["i1"] == 1
        assert signal_probability_exact(net, probs)["i0"] == 0.0
        assert random_words(["i0", "i1"], 8, 0, probs) == \
            {"i0": 0, "i1": 0xFF}


class TestActivity:
    def test_activity_from_probability(self):
        assert activity_from_probability(0.5) == 0.5
        assert activity_from_probability(0.0) == 0.0
        assert activity_from_probability(1.0) == 0.0

    def test_simulation_close_to_analytic(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("g", GateType.AND, ["a", "b"])
        net.set_output("g")
        act, prob = activity_from_simulation(net, 8000, seed=1)
        # P(g)=0.25, activity = 2*0.25*0.75 = 0.375
        assert prob["g"] == pytest.approx(0.25, abs=0.03)
        assert act["g"] == pytest.approx(0.375, abs=0.03)

    def test_transition_density_inverter_passthrough(self):
        net = Network()
        net.add_input("a")
        net.add_gate("n", GateType.NOT, ["a"])
        net.set_output("n")
        d = transition_density(net, input_densities={"a": 0.3})
        assert d["n"] == pytest.approx(0.3)

    def test_transition_density_and_gate(self):
        """Najm: D(and) = p_b D(a) + p_a D(b)."""
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("g", GateType.AND, ["a", "b"])
        net.set_output("g")
        d = transition_density(net, input_probs={"a": 0.5, "b": 0.5})
        assert d["g"] == pytest.approx(0.5 * 0.5 + 0.5 * 0.5)

    def test_transition_density_xor_sums_input_densities(self):
        """Every input of an XOR tree is always sensitized, so Najm's
        density adds input densities — an upper bound on zero-delay
        activity (it counts glitches from non-coincident arrivals)."""
        net = parity_tree(6, balanced=True)
        d = transition_density(net)
        out = net.outputs[0]
        assert d[out] == pytest.approx(6 * 0.5)
        act, _ = activity_from_simulation(net, 4000, seed=4)
        assert d[out] >= act[out]

    def test_transition_density_bounds_activity_on_and_tree(self):
        net = Network()
        net.add_inputs(["a", "b", "c", "d"])
        net.add_gate("x", GateType.AND, ["a", "b"])
        net.add_gate("y", GateType.AND, ["c", "d"])
        net.add_gate("z", GateType.AND, ["x", "y"])
        net.set_output("z")
        d = transition_density(net)
        act, _ = activity_from_simulation(net, 8000, seed=4)
        # Density treats input transitions as non-coincident, so it
        # upper-bounds the zero-delay activity but stays within ~3x.
        assert act["z"] <= d["z"] <= 3.0 * act["z"]

    def test_sequential_activity_counts_held_registers(self):
        net = Network()
        net.add_inputs(["d", "en"])
        net.add_latch("d", "q", enable="en")
        net.add_gate("o", GateType.BUF, ["q"])
        net.set_output("o")
        seq = [{"d": k & 1, "en": 0} for k in range(20)]
        act = sequential_activity(net, seq)
        assert act["q"] == 0.0


class TestPowerModel:
    def test_capacitance_components(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("g", GateType.AND, ["a", "b"])
        net.add_gate("h", GateType.NOT, ["g"])
        net.set_output("h")
        params = PowerParameters()
        cap_g = node_capacitance(net, "g", params)
        # self (6 transistors * 0.5) + NOT pin (2.0)
        assert cap_g == pytest.approx(3.0 + 2.0)
        cap_h = node_capacitance(net, "h", params)
        # self (2 * 0.5) + PO load (4.0)
        assert cap_h == pytest.approx(1.0 + 4.0)

    def test_size_scales_capacitance(self):
        net = Network()
        net.add_input("a")
        net.add_gate("g", GateType.NOT, ["a"])
        net.set_output("g")
        base = node_capacitance(net, "g")
        net.nodes["g"].attrs["size"] = 2.0
        assert node_capacitance(net, "g") == pytest.approx(
            base + 1.0)   # self cap doubles (1.0 -> 2.0)

    def test_report_totals(self):
        net = ripple_carry_adder(4)
        rep = average_power(net, 512)
        assert rep.total == pytest.approx(
            rep.switching + rep.short_circuit + rep.leakage)
        assert rep.total > 0
        assert "total power" in rep.summary()

    def test_switching_dominates(self):
        """Claim C1: switching activity >90% of total power."""
        net = ripple_carry_adder(8)
        rep = average_power(net, 1024)
        assert rep.switching_fraction > 0.85

    def test_voltage_scaling_quadratic(self):
        net = ripple_carry_adder(4)
        act, _ = activity_from_simulation(net, 512)
        p33 = power_report(net, act, PowerParameters(vdd=3.3))
        p165 = power_report(net, act, PowerParameters(vdd=1.65))
        assert p165.switching == pytest.approx(p33.switching / 4)

    def test_zero_activity_zero_dynamic(self):
        net = ripple_carry_adder(2)
        rep = power_report(net, {})
        assert rep.switching == 0.0
        assert rep.leakage > 0.0

    def test_missing_node_is_a_diagnostic(self):
        net = Network()
        net.add_input("a")
        with pytest.raises(NetlistError, match="'missing'"):
            node_capacitance(net, "missing")


def _reference_reader_counts(net, name):
    counts = {}
    for node in net.nodes.values():
        times = node.fanins.count(name)
        if times:
            counts[node.name] = times
    return counts


def _reference_node_capacitance(net, name, params=None):
    """The power model before the reader index: one scan of the whole
    network per node, reading nothing the index keeps."""
    params = params or PowerParameters()
    node = net.nodes[name]
    cell = node.attrs.get("cell")
    size = float(node.attrs.get("size", 1.0))
    if cell is not None:
        self_cap = cell.output_cap * size
    else:
        self_cap = params.self_cap_per_transistor * \
            node.num_transistors() * size
    load = 0.0
    for reader_name, times in _reference_reader_counts(net, name).items():
        reader = net.nodes[reader_name]
        rcell = reader.attrs.get("cell")
        rsize = float(reader.attrs.get("size", 1.0))
        if rcell is not None:
            load += rcell.input_cap * rsize * times
        else:
            load += params.pin_cap_units * rsize * times
    if name in net.outputs:
        load += params.output_load_units
    for latch in net.latches:
        if latch.data == name or latch.enable == name:
            load += params.pin_cap_units
    return self_cap + load


def _power_case(seed, gates, mapped, sized):
    """A random circuit with every load shape the model sums: repeated
    fanin slots, a PO that is also a latch data pin, a PO that is also
    a latch enable, and a latch whose data and enable are one node."""
    rng = random.Random(seed)
    net = random_logic(6, gates, seed)
    if mapped:
        net = tech_map(net, generic_library(), "power").mapped
    names = [n for n, node in net.nodes.items() if not node.is_source()]
    x, y = rng.choice(names), rng.choice(names)
    z = rng.choice(net.outputs)
    net.add_gate("twice", GateType.AND, [x, y, x])
    net.set_output("twice")
    net.set_output(x)
    net.add_latch(x, "q0", enable=z)
    net.add_latch(y, "q1", enable=y)
    net.add_gate("rd", GateType.OR, ["q0", "q1", "q1"])
    net.set_output("rd")
    if sized:
        for name in rng.sample(names, len(names) // 2):
            net.nodes[name].attrs["size"] = rng.choice(
                [0.5, 1.5, 2.0, 3.25])
    return net


def _rebuilt_readers(net):
    """The reader index built from scratch off the node dict and the
    latch records: name -> {reader: pins} in ``nodes`` order, for every
    name with a reader."""
    pins = {}
    for latch in net.latches:
        pins.setdefault(latch.output, []).extend(
            p for p in (latch.data, latch.enable) if p is not None)
    readers = {}
    for name, node in net.nodes.items():
        for src in list(node.fanins) + pins.get(name, []):
            entry = readers.setdefault(src, {})
            entry[name] = entry.get(name, 0) + 1
    return readers


def _assert_index_exact(net, params):
    want = _rebuilt_readers(net)
    assert set(net._readers) == set(want)
    for name in set(want) | set(net.nodes):
        assert list(net.readers(name).items()) == \
            list(want.get(name, {}).items())
    assert net._po == set(net.outputs)
    for name in net.nodes:
        assert net.fanout_count(name) == \
            sum(want.get(name, {}).values()) + (name in net.outputs)
        assert node_capacitance(net, name, params) == \
            _reference_node_capacitance(net, name, params)
    assert net.fanouts() == {
        n: [r for r, k in want.get(n, {}).items() for _ in range(k)]
        for n in net.nodes}


def _other_function(node, rng):
    """A random local function of ``node``'s kind and arity."""
    if node.kind == "gate":
        return rng.choice([g for g in GateType
                           if gate_arity_ok(g, len(node.fanins))])
    n = len(node.fanins)
    return rng.choice([node.cover.complement(), Cover.one(n), Cover(n)])


def _assert_simulation_exact(net):
    sources = [n for n, node in net.nodes.items() if node.is_source()]
    words = random_words(sources, 32, 7)
    mask = (1 << 32) - 1
    try:
        want = net.evaluate_words(words, mask)
    except NetlistError:                  # a cycle or a dangling fanin
        with pytest.raises(NetlistError):
            get_compiled(net).evaluate_words(words, mask)
        return
    assert get_compiled(net).evaluate_words(words, mask) == want
    # net.copy() carries no stored run: a full re-simulation
    assert activity_from_simulation(net, 32, 7) == \
        activity_from_simulation(net.copy(), 32, 7)


def _mutate(net, op, rng, fresh):
    """Apply one public edit; returns the network to keep checking
    (``copy`` hands back a new one)."""
    names = list(net.nodes)
    gates = [n for n, node in net.nodes.items()
             if node.kind in ("gate", "sop")]
    if op == "add_gate":
        net.add_gate(fresh(), rng.choice([GateType.AND, GateType.XOR]),
                     [rng.choice(names), rng.choice(names)])
    elif op == "add_input":
        net.add_input(fresh())
    elif op == "add_latch":
        net.add_latch(rng.choice(names), fresh(),
                      enable=rng.choice(names + [None]))
    elif op == "add_sop_reading_ghost":
        ghost = fresh()
        net.add_sop(fresh(), [ghost, rng.choice(names)],
                    Cover.one(2))
        if rng.random() < 0.5:
            net.add_gate(ghost, GateType.NOT, [rng.choice(names)])
    elif op == "set_fanins" and gates:
        name = rng.choice(gates)
        net.set_fanins(name, [rng.choice(names)
                              for _ in net.nodes[name].fanins])
    elif op == "set_function" and gates:
        name = rng.choice(gates)
        net.set_function(name, _other_function(net.nodes[name], rng))
    elif op == "set_function_undo" and gates:
        node = net.nodes[rng.choice(gates)]
        old = node.gtype if node.kind == "gate" else node.cover
        net.set_function(node.name, _other_function(node, rng))
        net.set_function(node.name, old)
    elif op == "set_function_rewire" and gates:
        node = net.nodes[rng.choice(gates)]
        net.set_function(node.name, _other_function(node, rng),
                         fanins=[rng.choice(names) for _ in node.fanins])
    elif op == "set_node" and gates:
        name = rng.choice(gates)
        node = Node(name, "gate", GateType.OR,
                    [rng.choice(names) for _ in range(3)])
        node.attrs = dict(net.nodes[name].attrs)
        node.attrs.pop("cell", None)
        net.set_node(node)
    elif op == "replace_fanin" and gates:
        name = rng.choice(gates)
        net.replace_fanin(name, rng.choice(net.nodes[name].fanins),
                          rng.choice(names))
    elif op == "replace_everywhere":
        old, new = rng.choice(names), rng.choice(names)
        if rng.random() < 0.3 and len(net.outputs) >= 2:
            old, new = rng.sample(net.outputs, 2)   # output dedup
        net.replace_everywhere(old, new)
        assert old == new or net.fanout_count(old) == 0
    elif op == "insert_buffer" and gates:
        reader = rng.choice(gates)
        net.insert_buffer(reader, rng.choice(net.nodes[reader].fanins),
                          fresh())
    elif op == "remove_node":
        unread = [n for n in names if net.fanout_count(n) == 0]
        if unread:
            net.remove_node(rng.choice(unread))
    elif op == "sweep":
        net.sweep()
    elif op == "set_latch_pins" and net.latches:
        net.set_latch_pins(rng.choice(net.latches), rng.choice(names),
                           rng.choice(names + [None]))
    elif op == "set_outputs":
        net.set_outputs(rng.sample(names, rng.randint(0, 4)))
    elif op == "set_output":
        net.set_output(rng.choice(names))
    elif op == "copy":
        return net.copy()
    elif op == "take_over":
        other = net.copy("other")
        _mutate(other, rng.choice(["add_gate", "set_fanins", "sweep"]),
                rng, fresh)
        net.take_over(other)
        assert net.name != "other"
    return net


_MUTATIONS = ["add_gate", "add_input", "add_latch",
              "add_sop_reading_ghost", "set_fanins", "set_node",
              "replace_fanin", "replace_everywhere", "insert_buffer",
              "remove_node", "sweep", "set_latch_pins", "set_outputs",
              "set_output", "copy", "take_over", "set_function",
              "set_function_undo", "set_function_rewire"]


class TestReaderIndexDifferential:
    """The network's reader index gives the same floats, bit for bit,
    as the per-node network scan it replaced, in every batch caller."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 60), st.booleans(),
           st.booleans(), st.booleans())
    def test_matches_reference(self, seed, gates, mapped, sized, custom):
        net = _power_case(seed, gates, mapped, sized)
        params = (PowerParameters(pin_cap_units=1.7, output_load_units=3.1,
                                  self_cap_per_transistor=0.35)
                  if custom else PowerParameters())
        rng = random.Random(seed)
        activity = {n: rng.random() for n in net.nodes}

        for name in net.nodes:
            want = _reference_node_capacitance(net, name, params)
            assert node_capacitance(net, name, params) == want
            assert node_capacitance(net, name) == \
                _reference_node_capacitance(net, name)

        report = power_report(net, activity, params)
        glitch = glitch_report(net, num_vectors=32, seed=seed,
                               params=params)
        ref = _reference_node_capacitance
        with mock.patch("repro.power.model.node_capacitance", ref), \
                mock.patch("repro.power.glitch.node_capacitance", ref):
            want_report = power_report(net, activity, params)
            want_glitch = glitch_report(net, num_vectors=32, seed=seed,
                                        params=params)
        assert report.per_node == want_report.per_node
        assert report.total == want_report.total
        assert glitch.cap_weighted_timed == want_glitch.cap_weighted_timed
        assert glitch.cap_weighted_functional == \
            want_glitch.cap_weighted_functional

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 30), st.booleans(),
           st.booleans(), st.booleans(),
           st.lists(st.sampled_from(_MUTATIONS), max_size=12))
    def test_mutations_keep_index_exact(self, seed, gates, mapped, sized,
                                        custom, ops):
        """After every public structural edit the maintained index
        equals a from-scratch rebuild, and every node capacitance
        equals the network-scan reference bit for bit."""
        net = _power_case(seed, gates, mapped, sized)
        params = (PowerParameters(pin_cap_units=1.7, output_load_units=3.1,
                                  self_cap_per_transistor=0.35)
                  if custom else PowerParameters())
        rng = random.Random(seed)
        counter = iter(range(10**6))

        def fresh():
            return f"m{next(counter)}"

        _assert_index_exact(net, params)
        for op in ops:
            net = _mutate(net, op, rng, fresh)
            _assert_index_exact(net, params)

    def test_index_shape(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("g", GateType.AND, ["a", "b", "a"])
        net.add_gate("h", GateType.NOT, ["g"])
        net.set_outputs(["h", "g"])
        net.add_latch("g", "q", enable="h")
        net.add_latch("h", "r", enable="h")
        readers = {n: list(net.readers(n).items()) for n in net.nodes}
        # Fanin slots per gate reader; data and enable pins per latch,
        # keyed by the latch output; readers in ``nodes`` order.
        assert readers == {"a": [("g", 2)], "b": [("g", 1)],
                           "g": [("h", 1), ("q", 1)],
                           "h": [("q", 1), ("r", 2)], "q": [], "r": []}
        assert net.is_output("g") and net.is_output("h")
        assert not net.is_output("a")
        # The PO load, then one pin per latch, however many of its
        # pins the node drives.
        params = PowerParameters(pin_cap_units=1.5)
        self_cap = params.self_cap_per_transistor * 2
        assert node_capacitance(net, "h", params) == \
            self_cap + 4.0 + 1.5 + 1.5



class TestEditRecord:
    """Function edits reach the compiled program and the network's
    stored simulation run through the network's edit record."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 30), st.booleans(),
           st.lists(st.sampled_from(_MUTATIONS + ["set_function"] * 4
                                    + ["set_function_undo"] * 4),
                    max_size=12))
    def test_mutations_keep_simulation_exact(self, seed, gates, mapped,
                                             ops):
        """After every edit the cached compiled program evaluates like
        the interpreted walk, and the run the network stored across the
        edits gives what a fresh simulation gives."""
        net = _power_case(seed, gates, mapped, False)
        rng = random.Random(seed)
        counter = iter(range(10**6))

        def fresh():
            return f"m{next(counter)}"

        _assert_simulation_exact(net)
        for op in ops:
            net = _mutate(net, op, rng, fresh)
            _assert_simulation_exact(net)

    def test_structural_edit_and_copy_drop_the_stored_run(self):
        net = ripple_carry_adder(3)
        activity_from_simulation(net, 64, 0)
        assert net._sim is not None
        assert net.copy()._sim is None
        net.set_function("s0", GateType.XNOR)     # a function edit keeps it
        assert net._sim is not None
        net.add_gate("spare", GateType.NOT, ["s0"])
        assert net._sim is None
        assert activity_from_simulation(net, 64, 0) == \
            activity_from_simulation(net.copy(), 64, 0)
        other = net.copy()
        activity_from_simulation(other, 64, 0)
        net.take_over(other)
        assert net._sim is None

    def test_stored_node_words_only_while_the_run_is_current(self):
        net = ripple_carry_adder(3)
        assert stored_node_words(net, 64, 0) is None
        activity_from_simulation(net, 64, 0, {"a0": 0.3})
        words = stored_node_words(net, 64, 0, {"a0": 0.3})
        stimulus = random_words([n.name for n in net.nodes.values()
                                 if n.is_source()], 64, 0, {"a0": 0.3})
        assert words == get_compiled(net).evaluate_words(stimulus,
                                                         (1 << 64) - 1)
        # Another stimulus: other vectors, seed or probabilities.
        assert stored_node_words(net, 32, 0, {"a0": 0.3}) is None
        assert stored_node_words(net, 64, 1, {"a0": 0.3}) is None
        assert stored_node_words(net, 64, 0) is None
        # A function edit, even one undone, makes the run stale.
        net.set_function("s0", GateType.XNOR)
        net.set_function("s0", GateType.XOR)
        assert stored_node_words(net, 64, 0, {"a0": 0.3}) is None
        activity_from_simulation(net, 64, 0, {"a0": 0.3})
        assert stored_node_words(net, 64, 0, {"a0": 0.3}) == words


class TestGlitch:
    def test_glitch_fraction_in_paper_band(self):
        """Claim C2: spurious transitions are 10-40% of activity in
        typical (unbalanced, reconvergent) logic."""
        from repro.logic.generators import array_multiplier

        rep = glitch_report(array_multiplier(4), num_vectors=128, seed=1)
        assert 0.05 < rep.glitch_power_fraction < 0.5

    def test_balanced_tree_has_no_glitches(self):
        rep = glitch_report(parity_tree(8, balanced=True),
                            num_vectors=64, seed=0)
        assert rep.glitch_fraction == pytest.approx(0.0)

    def test_per_node_glitches_nonnegative(self):
        rep = glitch_report(parity_tree(6, balanced=False),
                            num_vectors=64, seed=0)
        assert rep.total_timed >= rep.total_functional
