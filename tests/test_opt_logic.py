"""Unit tests for logic-level optimizations (don't-cares, balancing,
kernel extraction, technology mapping)."""

import hashlib
import itertools
import random
from collections import Counter
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bdd.bdd import BDD
from repro.bdd.circuit import network_bdds
from repro.library.cells import Library, generic_library
from repro.logic.blif import write_blif
from repro.logic.gates import GateType, eval_gate
from repro.logic.cube import Cube
from repro.logic.generators import (alu_slice, array_multiplier,
                                    comparator, parity_tree,
                                    random_logic, ripple_carry_adder)
from repro.logic.netlist import NetlistError, Network, Node
from repro.logic.sop import Cover, minterm_count, truth_table
from repro.logic.transform import gate_cover, gates_to_sop, node_cover
from repro.opt.logic import dontcare as dontcare_module
from repro.opt.logic.balance import balance_paths
from repro.opt.logic.dontcare import (DontCareResult, _node_cost,
                                      controllability_dont_cares,
                                      dontcare_power_optimization,
                                      observability_dont_cares)
from repro.opt.logic.kernels import extract_kernels
from repro.opt.logic.mapping import (_EXPANSION, _expand, _expansion,
                                     _library_patterns, _node_cuts,
                                     _pattern_table, _positions,
                                     _subject_graph, _trivial_cut, tech_map)
from repro.power.activity import (activity_from_simulation,
                                  signal_probability_propagation,
                                  stored_node_words)
from repro.power.glitch import glitch_report
from repro.power.model import PowerParameters, node_capacitance
from repro.sim.compiled import get_compiled
from repro.sim.functional import verify_equivalence
from repro.sim.vectors import exhaustive_words, random_words


def reconvergent_net():
    net = Network()
    net.add_inputs(["a", "b"])
    net.add_gate("x", GateType.AND, ["a", "b"])
    net.add_gate("y", GateType.OR, ["a", "b"])
    net.add_gate("z", GateType.AND, ["x", "y"])
    net.set_output("z")
    return net


class TestDontCares:
    def test_cdc_finds_unreachable_combo(self):
        net = reconvergent_net()
        cdc = controllability_dont_cares(net, "z")
        # (x=1, y=0) can never occur.
        assert cdc.to_strings() == ["10"]

    def test_cdc_empty_when_all_reachable(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("z", GateType.AND, ["a", "b"])
        net.set_output("z")
        assert controllability_dont_cares(net, "z").is_empty()

    def test_odc_of_masked_node(self):
        # out = g AND a: when a=0, g is unobservable.
        net = Network()
        net.add_inputs(["a", "b", "c"])
        net.add_gate("g", GateType.OR, ["b", "c"])
        net.add_gate("out", GateType.AND, ["g", "a"])
        net.set_output("out")
        odc = observability_dont_cares(net, "g")
        assert odc.evaluate({"a": 0, "b": 0, "c": 0})
        assert not odc.evaluate({"a": 1, "b": 0, "c": 0})

    def test_unknown_node_is_an_error(self):
        net = reconvergent_net()
        with pytest.raises(NetlistError):
            observability_dont_cares(net, "no_such_node")
        with pytest.raises(NetlistError):
            controllability_dont_cares(net, "no_such_node")

    def test_empty_network_is_left_unchanged(self):
        # As a network of constants only: nothing to visit, no change.
        assert dontcare_power_optimization(Network("e")) == \
            DontCareResult(0, 0.0, 0.0, 0, 0)
        net = Network("k")
        net.add_gate("one", GateType.CONST1, [])
        net.set_output("one")
        res = dontcare_power_optimization(net)
        assert res.nodes_changed == 0
        assert res.switched_cap_before == res.switched_cap_after

    def test_optimization_preserves_outputs(self):
        net = reconvergent_net()
        ref = net.copy()
        res = dontcare_power_optimization(net)
        assert verify_equivalence(ref, net, 64)
        assert res.switched_cap_before > 0

    @pytest.mark.parametrize("seed", [2, 7])
    def test_random_networks_preserved(self, seed):
        net = random_logic(6, 18, seed=seed)
        ref = net.copy()
        res = dontcare_power_optimization(net, num_vectors=256)
        assert verify_equivalence(ref, net, 512, seed=seed)
        # The simulation-gated loop never accepts a worsening move.
        assert res.switched_cap_after <= res.switched_cap_before + 1e-9


# -- differential reference for the don't-care pass ------------------------
#
# The pass as it stood before it shared ``bdd_to_cover``, the cover->BDD
# loop and one fanin relation per node with the rest of the package:
# its own path enumerator, its own ODC rebuild loop, and separate
# auxiliary variables for the CDC and ODC images.

def _ref_bdd_to_cover(func, var_order: List[str]) -> Cover:
    bdd = func.bdd
    index = {name: i for i, name in enumerate(var_order)}
    n = len(var_order)
    cubes: List[Cube] = []

    def walk(node: int, lits: List[Tuple[int, int]]) -> None:
        if node == BDD.FALSE:
            return
        if node == BDD.TRUE:
            cubes.append(Cube.from_literals(n, lits))
            return
        var = index[bdd.var_names[bdd._level[node]]]
        walk(bdd._lo[node], lits + [(var, 0)])
        walk(bdd._hi[node], lits + [(var, 1)])

    walk(func.node, [])
    return Cover(n, cubes).sccc()


def _ref_cdc(net: Network, node_name: str, funcs) -> Cover:
    node = net.node(node_name)
    bdd = next(iter(funcs.values())).bdd
    aux = [f"__cdc_{node_name}_{i}" for i in range(len(node.fanins))]
    relation = bdd.true
    for a, fi in zip(aux, node.fanins):
        relation = relation & ~(bdd.var(a) ^ funcs[fi])
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    return _ref_bdd_to_cover(~relation.exists(sources), aux)


def _ref_odc(net: Network, node_name: str, funcs):
    bdd = next(iter(funcs.values())).bdd
    shadow = f"__odc_{node_name}"
    y = bdd.var(shadow)
    alt = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if name == node_name:
            alt[name] = y
            continue
        if node.is_source():
            alt[name] = funcs[name]
            continue
        fanin_funcs = [alt[fi] for fi in node.fanins]
        acc = bdd.false
        for cube in node_cover(node):
            term = bdd.true
            for var, phase in cube.literals():
                lit = fanin_funcs[var]
                term = term & (lit if phase else ~lit)
                if term.is_false:
                    break
            acc = acc | term
        alt[name] = acc
    odc = bdd.true
    for out in net.outputs:
        odc = odc & ~(alt[out].restrict({shadow: 1})
                      ^ alt[out].restrict({shadow: 0}))
    return odc


def _ref_dc(net: Network, node_name: str, funcs) -> Cover:
    """The CDCs united with the fanin combinations reachable only under
    the ODC, each image from an auxiliary relation."""
    node = net.node(node_name)
    dc = _ref_cdc(net, node_name, funcs)
    odc_global = _ref_odc(net, node_name, funcs)
    if not odc_global.is_false:
        bdd = odc_global.bdd
        aux = [f"__odcimg_{node_name}_{i}" for i in range(len(node.fanins))]
        relation = bdd.true
        for a, fi in zip(aux, node.fanins):
            relation = relation & ~(bdd.var(a) ^ funcs[fi])
        sources = [n.name for n in net.nodes.values() if n.is_source()]
        img = (relation & odc_global).exists(sources)
        reach_all = relation.exists(sources)
        non_odc = (relation & ~odc_global).exists(sources)
        dc = dc.union(_ref_bdd_to_cover(reach_all & img & ~non_odc, aux))
    return dc


def _reference_dontcare(net: Network, input_probs=None,
                        num_vectors: int = 512,
                        seed: int = 0) -> DontCareResult:
    for name in list(net.nodes):
        node = net.nodes[name]
        if node.kind == "gate" and node.fanins:
            new = Node(name, "sop", fanins=list(node.fanins),
                       cover=gate_cover(node.gtype, len(node.fanins)))
            new.attrs = dict(node.attrs)
            net.set_node(new)
    params = PowerParameters()
    probs = signal_probability_propagation(net, input_probs)

    def total_cost():
        # net.copy() carries no stored run: a full re-simulation.
        act, _p = activity_from_simulation(
            net.copy(), num_vectors, seed, input_probs)
        cap = 0.0
        lits = 0
        for name, node in net.nodes.items():
            if node.is_source():
                continue
            cap += act.get(name, 0.0) * node_capacitance(net, name, params)
            lits += node.cover.num_literals() if node.cover else 0
        return cap, lits

    cap_before, lits_before = total_cost()
    funcs = network_bdds(net)
    changed = 0
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source() or node.kind != "sop" or not node.fanins:
            continue
        if len(node.fanins) > 10:
            continue
        dc = _ref_dc(net, name, funcs)
        if dc.is_empty():
            continue
        on = node.cover
        fanin_probs = [probs[fi] for fi in node.fanins]
        self_cap = 0.5 * (2 * on.num_literals() + 2)
        load = node_capacitance(net, name, params) - self_cap
        candidates = [on, on.minimize(dc), on.union(dc).minimize()]
        best = min(candidates,
                   key=lambda c: _node_cost(c, fanin_probs, load))
        if best is not on and not best.is_equivalent(on):
            before_cap, _lits = total_cost()
            net.set_function(name, best)
            after_cap, _lits = total_cost()
            if after_cap < before_cap:
                changed += 1
                probs = signal_probability_propagation(net, input_probs)
                funcs = network_bdds(net)
            else:
                net.set_function(name, on)
    cap_after, lits_after = total_cost()
    return DontCareResult(nodes_changed=changed,
                          switched_cap_before=cap_before,
                          switched_cap_after=cap_after,
                          literals_before=lits_before,
                          literals_after=lits_after)


def _node_views(net: Network) -> Dict[str, tuple]:
    return {name: (node.kind, node.gtype, tuple(node.fanins),
                   None if node.cover is None
                   else (node.cover.num_vars, tuple(node.cover.cubes)))
            for name, node in net.nodes.items()}


def _assert_matches_reference(net: Network, input_probs=None,
                              num_vectors: int = 512,
                              seed: int = 0) -> None:
    got_net, ref_net = net.copy(), net.copy()
    got = dontcare_power_optimization(got_net, input_probs, num_vectors,
                                      seed)
    want = _reference_dontcare(ref_net, input_probs, num_vectors, seed)
    for field in ("nodes_changed", "switched_cap_before",
                  "switched_cap_after", "literals_before", "literals_after"):
        assert getattr(got, field) == getattr(want, field), field
    assert _node_views(got_net) == _node_views(ref_net)


class TestDontCareDifferential:
    """The pass gives the same result and the same covers, bit for bit,
    as the reference with its own BDD code."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 8), st.integers(4, 60),
           st.sampled_from([64, 256, 512]), st.booleans())
    def test_random_logic(self, seed, inputs, gates, vectors, skewed):
        net = random_logic(inputs, gates, seed=seed)
        rng = random.Random(seed)
        probs = ({pi: rng.uniform(0.05, 0.95) for pi in net.inputs}
                 if skewed else None)
        _assert_matches_reference(net, probs, vectors, seed % 7)

    @pytest.mark.parametrize("make", [lambda: array_multiplier(4),
                                      lambda: ripple_carry_adder(6),
                                      lambda: comparator(8)],
                             ids=["mult4", "rca6", "cmp8"])
    def test_datapath(self, make):
        _assert_matches_reference(make())

    def test_flow_logic_largest_class(self):
        # flow-logic's largest circuits: 16 inputs, 120 gates.
        _assert_matches_reference(random_logic(16, 120, seed=5))


class TestDontCarePinned:
    """The reference above runs on the same BDD kernel, so a kernel that
    is canonical but wrong would pass the differential test.  These
    digests of the pass result and every node's cover after the pass
    were recorded with the three-operand ITE kernel and the per-node
    auxiliary relation."""

    PINNED = {
        "rand16_90_0":
            "b06db229f196f4d75feee0329874fcbbc1b554edd3300753732d041d1d4678d4",
        "rand16_90_1":
            "94f69d380f097663bd4d2b7914db6ba9b0c0a2aba972b7501aa79a274488f405",
        "rand16_120_5":
            "9ecccf3f32ff6afb12b831e49790ef6f2d5ea94a5908b870df342dd0dc366397",
        "rca8":
            "4d75ecf07d6919ebf2b72583467f7fd2452cbfba9641874fab39b4878250a3c5",
        "cmp8":
            "4c13b5e4bd7f85e417d95b734dcc53bafd438c9bff621c0f161271e0032b5798",
        "mult4":
            "d76e90b5fcc9e34c4eeb85a71629cf57b6c31c50553b83d8e1af2ca15522a793",
    }
    MAKE = {"rand16_90_0": lambda: random_logic(16, 90, 0),
            "rand16_90_1": lambda: random_logic(16, 90, 1),
            "rand16_120_5": lambda: random_logic(16, 120, 5),
            "rca8": lambda: ripple_carry_adder(8),
            "cmp8": lambda: comparator(8),
            "mult4": lambda: array_multiplier(4)}

    @pytest.mark.parametrize("circuit", sorted(PINNED))
    def test_pass_pinned(self, circuit):
        net = self.MAKE[circuit]()
        res = dontcare_power_optimization(net)
        digest = hashlib.sha256(repr(res).encode())
        for name, node in sorted(net.nodes.items()):
            digest.update(repr((name, node.kind, tuple(node.fanins),
                                None if node.cover is None
                                else node.cover.to_strings())).encode())
        assert digest.hexdigest() == self.PINNED[circuit]

    @pytest.mark.parametrize("circuit", sorted(PINNED))
    def test_cdc_matches_reference_relation(self, circuit):
        net = self.MAKE[circuit]()
        funcs = network_bdds(net)
        for name in net.nodes:
            got = controllability_dont_cares(net, name, funcs)
            want = _ref_cdc(net, name, funcs)
            assert (got.num_vars, got.cubes) == \
                (want.num_vars, want.cubes), name


def _transitive_fanout(net: Network, name: str) -> Set[str]:
    """``name`` and every node reached from it through gate and SOP
    readers (a latch ends the walk)."""
    cone, todo = {name}, [name]
    while todo:
        for reader in net.readers(todo.pop()):
            if reader not in cone and not net.nodes[reader].is_source():
                cone.add(reader)
                todo.append(reader)
    return cone


def _forced_changes(net: Network, node_name: str, funcs, value) -> Set[str]:
    """``node_name`` and every node whose global function changes when
    that of ``node_name`` is replaced by ``value``, from a re-composition
    of the whole network."""
    bdd = value.bdd
    alt = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if name == node_name:
            alt[name] = value
        elif node.is_source():
            alt[name] = funcs[name]
        else:
            fanin_funcs = [alt[fi] for fi in node.fanins]
            acc = bdd.false
            for cube in node_cover(node):
                term = bdd.true
                for var, phase in cube.literals():
                    lit = fanin_funcs[var]
                    term = term & (lit if phase else ~lit)
                acc = acc | term
            alt[name] = acc
    return {node_name} | {n for n, f in alt.items() if f != funcs[n]}


def _assert_odcs_match_reference(net: Network) -> None:
    funcs = network_bdds(net)
    for name in net.nodes:
        got = observability_dont_cares(net, name, funcs)
        assert got.equiv(_ref_odc(net, name, funcs)), name


def latch_net() -> Network:
    """A node (``d``) feeding a latch data pin, another (``e``) a latch
    enable pin, and a primary input (``a``) that is also an output."""
    net = Network()
    net.add_inputs(["a", "b", "c"])
    net.add_latch("d", "q")
    net.add_latch("g", "q2", enable="e")
    net.add_gate("g", GateType.AND, ["a", "q"])
    net.add_gate("d", GateType.OR, ["g", "b"])
    net.add_gate("e", GateType.XOR, ["g", "c"])
    net.add_gate("out", GateType.AND, ["d", "c"])
    net.add_gate("h", GateType.OR, ["q2", "a"])
    net.set_outputs(["out", "a", "h"])
    return net


class TestConeObservability:
    """The ODC computed on the node's fanout cone equals the one from
    re-composing the whole network with a free variable."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 16), st.integers(4, 120))
    @example(seed=1, inputs=16, gates=120)
    def test_random_logic(self, seed, inputs, gates):
        _assert_odcs_match_reference(random_logic(inputs, gates,
                                                  seed=seed))

    def test_latches_and_input_outputs(self):
        net = latch_net()
        net.check()
        _assert_odcs_match_reference(net)
        funcs = network_bdds(net)
        # d reaches an output only through out; the latch hides it
        # from the next cycle.
        odc_d = observability_dont_cares(net, "d", funcs)
        assert odc_d.equiv(~funcs["c"])
        assert observability_dont_cares(net, "a", funcs).is_false


def _exact_dc(net: Network, name: str, funcs) -> Cover:
    """The engine's don't-care cover of ``name`` on BDD words."""
    true = next(iter(funcs.values())).bdd.true
    return dontcare_module._dont_cares(
        BDD(), dontcare_module._care(net, name, funcs, true),
        [funcs[fi] for fi in net.nodes[name].fanins])


def _witness(net: Network, name: str, words: Dict[str, int],
             mask: int) -> bool:
    """The engine's simulation witness: the image of the care set on
    the Monte-Carlo words is the whole fanin space."""
    return dontcare_module._fanin_image(
        BDD(), dontcare_module._care(net, name, words, mask),
        [words[fi] for fi in net.nodes[name].fanins]).is_true


def _assert_dc_covers_match_reference(net: Network) -> None:
    funcs = network_bdds(net)
    for name, node in net.nodes.items():
        if node.is_source() or not node.fanins:
            continue
        got = _exact_dc(net, name, funcs)
        assert got.is_equivalent(_ref_dc(net, name, funcs)), name


class TestDontCareCover:
    """Each node's don't-care cover, the complement of its care set's
    image, is the set of the reference's CDCs and ODC-only fanin
    combinations."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 12), st.integers(4, 60))
    def test_random_logic(self, seed, inputs, gates):
        _assert_dc_covers_match_reference(random_logic(inputs, gates,
                                                       seed=seed))

    def test_latches_and_input_outputs(self):
        _assert_dc_covers_match_reference(latch_net())


class TestDontCareWork:
    """The pass does work in proportion to fanout cones."""

    def test_odc_query_evaluates_the_cone_twice(self, monkeypatch):
        """A cone member's cover is evaluated once per forced value of
        the node under which one of its fanins changed, so at most
        twice; only a walk cut short by a full care set does less."""
        evaluated: List[str] = []
        real_node_cover = dontcare_module.node_cover

        def recording_node_cover(node):
            evaluated.append(node.name)
            return real_node_cover(node)

        monkeypatch.setattr(dontcare_module, "node_cover",
                            recording_node_cover)
        net = random_logic(8, 60, seed=3)
        funcs = network_bdds(net)
        bdd = next(iter(funcs.values())).bdd
        sizes, cut, full = set(), 0, 0
        for name in net.nodes:
            cone = _transitive_fanout(net, name)
            sizes.add(len(cone))
            # Per forced value, the nodes whose function it changes, from
            # a re-composition of the whole network.
            changed = [_forced_changes(net, name, funcs, value)
                       for value in (bdd.true, bdd.false)]
            want = Counter(member for moved in changed
                           for member in cone - {name}
                           if not moved.isdisjoint(net.nodes[member].fanins))
            evaluated.clear()
            odc = observability_dont_cares(net, name, funcs)
            got = Counter(evaluated)
            assert all(n <= 2 for n in got.values()), name
            if odc.is_false and got != want:
                # A care set that is already full ends the walk early.
                cut += 1
                assert all(got[m] <= want[m] for m in got), name
            else:
                full += 1
                assert got == want, name
        assert 1 in sizes and max(sizes) < len(net.nodes)
        assert cut and full

    def test_one_image_and_one_cover_per_visited_node(self, monkeypatch):
        """One Monte-Carlo image per visited node, and one exact image
        and one cover per node that image leaves open."""
        simulated: List[Tuple[int, bool]] = []
        exact: List[int] = []
        covers = [0]
        real_image = dontcare_module._fanin_image
        real_to_cover = dontcare_module.bdd_to_cover

        def recording_image(img, care, fanin_words):
            image = real_image(img, care, fanin_words)
            if isinstance(care, int):
                simulated.append((len(fanin_words), image.is_true))
            else:
                exact.append(len(fanin_words))
            return image

        def counting_to_cover(*args):
            covers[0] += 1
            return real_to_cover(*args)

        monkeypatch.setattr(dontcare_module, "_fanin_image",
                            recording_image)
        monkeypatch.setattr(dontcare_module, "bdd_to_cover",
                            counting_to_cover)
        net = random_logic(12, 80, seed=4)
        order = [net.nodes[name] for name in net.topo_order()]
        visited = [len(n.fanins) for n in order if not n.is_source() and
                   0 < len(n.fanins) <= dontcare_module.MAX_FANINS]
        res = dontcare_power_optimization(net)
        assert [k for k, _proved in simulated] == visited
        assert exact == [k for k, proved in simulated if not proved]
        assert covers[0] == len(exact)
        assert res.witnessed == len(visited) - len(exact) > 0

    def test_fanin_variables_are_shared(self, monkeypatch):
        """The source manager holds only source variables; every image
        of the pass is built in one manager of at most MAX_FANINS fanin
        variables."""
        managers = []
        images = set()
        real = dontcare_module.network_bdds
        real_image = dontcare_module._fanin_image

        def capturing(net, *args):
            funcs = real(net, *args)
            managers.append(next(iter(funcs.values())).bdd)
            return funcs

        def capturing_image(img, care, fanin_words):
            images.add(img)
            return real_image(img, care, fanin_words)

        monkeypatch.setattr(dontcare_module, "network_bdds", capturing)
        monkeypatch.setattr(dontcare_module, "_fanin_image",
                            capturing_image)
        net = random_logic(16, 100, seed=0)
        sources = [n.name for n in net.nodes.values() if n.is_source()]
        fanins = sum(len(n.fanins) for n in net.nodes.values())
        res = dontcare_power_optimization(net)
        bdd, = managers
        img, = images
        assert fanins > dontcare_module.MAX_FANINS
        assert sorted(bdd.var_names) == sorted(sources)
        assert img is not bdd
        assert 0 < len(img.var_names) <= dontcare_module.MAX_FANINS
        assert res.bdd_nodes == bdd.num_nodes()

    def test_pass_builds_network_bdds_once(self, monkeypatch):
        calls = []
        real = dontcare_module.network_bdds

        def counting(net, *args):
            calls.append(net)
            return real(net, *args)

        monkeypatch.setattr(dontcare_module, "network_bdds", counting)
        res = dontcare_power_optimization(random_logic(16, 100, seed=0))
        assert res.nodes_changed >= 2
        assert len(calls) == 1


def _assert_witness_sound(net: Network, num_vectors: int, seed: int,
                          input_probs=None) -> int:
    """Every node the simulation witness proves has an empty exact
    don't-care cover; returns how many it proved."""
    gates_to_sop(net)
    activity_from_simulation(net, num_vectors, seed, input_probs)
    words = stored_node_words(net, num_vectors, seed, input_probs)
    funcs = network_bdds(net)
    proved = 0
    for name, node in net.nodes.items():
        if node.is_source() or not node.fanins:
            continue
        if _witness(net, name, words, (1 << num_vectors) - 1):
            proved += 1
            assert _exact_dc(net, name, funcs).is_empty(), name
    return proved


class TestDontCareWitness:
    """The simulation witness in front of the exact path (the engine
    run on the Monte-Carlo words) is sound, and a node it cannot prove
    takes the BDD path."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 12), st.integers(4, 60),
           st.sampled_from([16, 64, 512]), st.booleans())
    @example(seed=1, inputs=16, gates=120, vectors=512, skewed=False)
    def test_random_logic(self, seed, inputs, gates, vectors, skewed):
        net = random_logic(inputs, gates, seed=seed)
        rng = random.Random(seed)
        probs = ({pi: rng.uniform(0.05, 0.95) for pi in net.inputs}
                 if skewed else None)
        _assert_witness_sound(net, vectors, seed % 7, probs)

    @pytest.mark.parametrize("vectors", [8, 64, 512])
    def test_latches_and_input_outputs(self, vectors):
        _assert_witness_sound(latch_net(), vectors, 0)

    def test_a_stuck_input_forces_the_exact_path(self):
        # ``a`` is 0 on every vector, so no vector shows x = 1 and
        # neither node is proved; the exact path finds both don't-care
        # sets empty, as the witness does on unskewed vectors.
        net = Network()
        net.add_inputs(["a", "b", "c"])
        net.add_gate("x", GateType.AND, ["a", "b"])
        net.add_gate("y", GateType.OR, ["x", "c"])
        net.set_outputs(["y"])
        probs = {"a": 0.0}
        gates_to_sop(net)
        activity_from_simulation(net, 256, 0, probs)
        words = stored_node_words(net, 256, 0, probs)
        funcs = network_bdds(net)
        for name in ("x", "y"):
            assert not _witness(net, name, words, (1 << 256) - 1)
            assert _exact_dc(net, name, funcs).is_empty()
        assert _assert_witness_sound(net.copy(), 256, 0) == 2
        res = dontcare_power_optimization(net.copy(), probs, 256)
        assert res.witnessed == 0
        _assert_matches_reference(net, probs, 256)

    def test_one_vector_proves_nothing(self):
        net = random_logic(6, 30, seed=1)
        res = dontcare_power_optimization(net.copy(), num_vectors=1)
        assert res.witnessed == 0
        _assert_matches_reference(net, None, 1)


def _exhaustive_node_words(net: Network) -> Tuple[Dict[str, int], int]:
    """Every node's word over all assignments of the sources (inputs
    and latch outputs), and the mask of those patterns."""
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    mask = (1 << (1 << len(sources))) - 1
    stimulus = exhaustive_words(sources)
    words = get_compiled(net).evaluate_words(stimulus, mask)
    return words, mask


def _assert_images_agree_across_kinds(net: Network) -> None:
    """On exhaustive int words the engine's care-set image is exact, so
    it must be the image it builds on BDD words, node for node (one
    image manager holds both, so equal images are one node)."""
    words, mask = _exhaustive_node_words(net)
    funcs = network_bdds(net)
    true = next(iter(funcs.values())).bdd.true
    img = BDD()
    for name, node in net.nodes.items():
        fanins = node.fanins
        from_ints = dontcare_module._fanin_image(
            img, dontcare_module._care(net, name, words, mask),
            [words[fi] for fi in fanins])
        from_bdds = dontcare_module._fanin_image(
            img, dontcare_module._care(net, name, funcs, true),
            [funcs[fi] for fi in fanins])
        assert from_ints == from_bdds, name


class TestDontCareWordKinds:
    """The engine gives one answer on both kinds of words."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 12), st.integers(4, 60))
    @example(seed=1, inputs=12, gates=60)
    def test_random_logic(self, seed, inputs, gates):
        _assert_images_agree_across_kinds(random_logic(inputs, gates,
                                                       seed=seed))

    def test_latches_and_input_outputs(self):
        _assert_images_agree_across_kinds(latch_net())

    def test_wide_node_cdc(self):
        # Wider than MAX_FANINS: the public CDC call still takes it.
        net = Network()
        net.add_inputs([f"a{i}" for i in range(8)])
        net.add_gate("n0", GateType.NOT, ["a0"])
        net.add_gate("x1", GateType.AND, ["a1", "a2"])
        net.add_gate("o2", GateType.OR, ["a2", "a3"])
        net.add_gate("e4", GateType.XOR, ["a4", "a5"])
        fanins = [f"a{i}" for i in range(8)] + ["n0", "x1", "o2", "e4"]
        net.add_gate("z", GateType.AND, fanins)
        net.set_output("z")
        assert len(fanins) > dontcare_module.MAX_FANINS
        words, mask = _exhaustive_node_words(net)
        from_ints = dontcare_module._dont_cares(
            BDD(), mask, [words[fi] for fi in fanins])
        got = controllability_dont_cares(net, "z")
        assert (got.num_vars, got.cubes) == \
            (from_ints.num_vars, from_ints.cubes)
        want = _ref_cdc(net, "z", network_bdds(net))
        assert (got.num_vars, got.cubes) == (want.num_vars, want.cubes)
        # 2^8 of the 2^12 fanin assignments occur.
        assert minterm_count(got) == (1 << 12) - (1 << 8)


def _from_scratch_switched_cap(net: Network, num_vectors: int,
                               seed: int) -> float:
    """Σ activity·``node_capacitance`` over the non-source nodes in
    ``net.nodes`` order, from a fresh simulation of a copy."""
    act, _p = activity_from_simulation(net.copy(), num_vectors, seed)
    cap = 0.0
    for name, node in net.nodes.items():
        if not node.is_source():
            cap += act.get(name, 0.0) * node_capacitance(net, name)
    return cap


class TestDontCareCost:
    """The pass keeps one capacitance per node across its trials; its
    switched capacitances equal a from-scratch sum, bit for bit."""

    @pytest.mark.parametrize("make,vectors,seed", [
        (lambda: random_logic(16, 100, seed=0), 512, 3),
        (lambda: random_logic(7, 22, seed=2), 256, 3),
        # Rolls back a trial cover with another literal count.
        (lambda: random_logic(7, 22, seed=4), 128, 4),
        (lambda: ripple_carry_adder(6), 512, 3),
        (latch_net, 128, 3)], ids=["rand16_100_0", "rand7_22_2",
                                   "rand7_22_4", "rca6", "latches"])
    def test_switched_cap_matches_from_scratch_sum(self, make, vectors,
                                                   seed):
        net = make()
        start = net.copy()
        gates_to_sop(start)
        res = dontcare_power_optimization(net, num_vectors=vectors,
                                          seed=seed)
        assert res.switched_cap_before == \
            _from_scratch_switched_cap(start, vectors, seed)
        assert res.switched_cap_after == \
            _from_scratch_switched_cap(net, vectors, seed)

    def test_accepted_rewrites_are_priced(self):
        net = random_logic(16, 100, seed=0)
        res = dontcare_power_optimization(net)
        assert res.nodes_changed >= 2
        assert res.switched_cap_after < res.switched_cap_before
        assert res.switched_cap_after == \
            _from_scratch_switched_cap(net, 512, 0)


class TestBalance:
    def test_full_balance_kills_glitches(self):
        net = parity_tree(8, balanced=False)
        before = glitch_report(net, 128, seed=3)
        res = balance_paths(net)
        after = glitch_report(net, 128, seed=3)
        assert before.glitch_fraction > 0.1
        assert after.glitch_fraction == pytest.approx(0.0, abs=1e-9)
        assert res.buffers_added > 0
        assert res.skew_after == pytest.approx(0.0)

    def test_function_preserved(self):
        net = parity_tree(6, balanced=False)
        ref = net.copy()
        balance_paths(net)
        assert verify_equivalence(ref, net, 256)

    def test_critical_path_unchanged(self):
        net = parity_tree(8, balanced=False)
        d0 = net.depth()
        res = balance_paths(net)
        assert res.depth_after == d0

    def test_budgeted_balance(self):
        net = array_multiplier(3)
        res = balance_paths(net, max_buffers=5)
        assert res.buffers_added <= 5

    def test_selective_balance_spends_less(self):
        full = parity_tree(8, balanced=False)
        sel = parity_tree(8, balanced=False)
        r_full = balance_paths(full)
        r_sel = balance_paths(sel, selective=True, min_skew=3.0)
        assert r_sel.buffers_added < r_full.buffers_added

    def test_already_balanced_noop(self):
        net = parity_tree(8, balanced=True)
        res = balance_paths(net)
        assert res.buffers_added == 0


class TestKernelExtraction:
    def make_net(self):
        net = Network()
        net.add_inputs(["a", "b", "c", "d", "e"])
        cov = Cover.from_strings(["1-1--", "1--1-", "-11--", "-1-1-",
                                  "----1"])
        net.add_sop("f", ["a", "b", "c", "d", "e"], cov)
        net.set_output("f")
        return net

    def test_area_extraction_reduces_literals(self):
        net = self.make_net()
        ref = net.copy()
        res = extract_kernels(net, "area")
        assert res.literals_after < res.literals_before
        assert verify_equivalence(ref, net, 32)

    def test_power_extraction_reduces_cost(self):
        net = self.make_net()
        ref = net.copy()
        res = extract_kernels(
            net, "power",
            input_probs={"a": 0.9, "b": 0.9, "c": 0.5, "d": 0.5})
        assert res.switched_cap_after < res.switched_cap_before
        assert verify_equivalence(ref, net, 32)

    def test_objectives_can_differ(self):
        """With skewed probabilities the power objective may pick a
        different decomposition than the area objective."""
        probs = {"a": 0.99, "b": 0.99, "c": 0.5, "d": 0.5, "e": 0.5}
        net_a = self.make_net()
        net_p = self.make_net()
        res_a = extract_kernels(net_a, "area", input_probs=probs)
        res_p = extract_kernels(net_p, "power", input_probs=probs)
        # Power-driven extraction is at least as good on power cost.
        assert res_p.switched_cap_after <= res_a.switched_cap_after + 1e-9

    def test_bad_objective_rejected(self):
        with pytest.raises(ValueError):
            extract_kernels(self.make_net(), "delay")

    def test_gate_network_converted(self):
        net = ripple_carry_adder(3)
        ref = net.copy()
        extract_kernels(net, "area")
        assert verify_equivalence(ref, net, 256)


class TestTechMapping:
    @pytest.fixture(scope="class")
    def lib(self):
        return generic_library()

    @pytest.mark.parametrize("objective", ["area", "power", "delay"])
    def test_mapping_preserves_function(self, lib, objective):
        net = ripple_carry_adder(3)
        res = tech_map(net, lib, objective)
        assert verify_equivalence(net, res.mapped, 256)

    def test_all_nodes_carry_cells(self, lib):
        net = comparator(4)
        res = tech_map(net, lib, "area")
        for node in res.mapped.nodes.values():
            if node.is_source() or node.kind != "sop":
                continue
            assert "cell" in node.attrs

    def test_area_objective_minimizes_area(self, lib):
        net = ripple_carry_adder(4)
        res_a = tech_map(net, lib, "area")
        res_d = tech_map(net, lib, "delay")
        assert res_a.total_area <= res_d.total_area

    def test_power_objective_minimizes_power_cost(self, lib):
        net = comparator(6)
        res_p = tech_map(net, lib, "power", seed=1)
        res_a = tech_map(net, lib, "area", seed=1)
        # Power cost of the power-mapped netlist must not exceed the
        # area-mapped one under the same stimulus.
        from repro.power.model import average_power

        p_power = average_power(res_p.mapped, 512, seed=2).total
        p_area = average_power(res_a.mapped, 512, seed=2).total
        assert p_power <= p_area * 1.1

    def test_delay_objective_is_fastest(self, lib):
        net = ripple_carry_adder(4)
        res_d = tech_map(net, lib, "delay")
        res_a = tech_map(net, lib, "area")
        assert res_d.arrival <= res_a.arrival + 1e-9

    def test_constants_survive(self, lib):
        net = alu_slice(3)
        res = tech_map(net, lib, "area")
        assert verify_equivalence(net, res.mapped, 256)

    def test_cells_used_accounting(self, lib):
        net = ripple_carry_adder(3)
        res = tech_map(net, lib, "area")
        assert sum(res.cells_used.values()) == \
            sum(1 for n in res.mapped.nodes.values()
                if n.attrs.get("cell"))

    def test_bad_objective_rejected(self, lib):
        with pytest.raises(ValueError):
            tech_map(ripple_carry_adder(2), lib, "speed")

    @pytest.mark.parametrize("objective", ["area", "power", "delay"])
    def test_power_cost_prices_estimated_activity(self, lib, objective):
        # The activity tech_map estimates is the subject graph's
        # same-seed simulation, under every objective.
        net = comparator(6)
        subject = _subject_graph(net, "balanced", None)
        activity, _ = activity_from_simulation(subject, num_vectors=1024,
                                               seed=3)
        estimated = tech_map(net, lib, objective, seed=3)
        passed = tech_map(net, lib, objective, activity=activity, seed=3)
        assert estimated.power_cost > 0.0
        assert estimated.power_cost == passed.power_cost
        assert write_blif(estimated.mapped) == write_blif(passed.mapped)

    @pytest.mark.parametrize("objective", ["area", "power", "delay"])
    def test_truncated_cuts_fall_back_to_fanin_cut(self, lib, objective):
        # Two inputs and a constant reconverge so heavily that every
        # node's twelve kept cuts are one-leaf cuts; OR(_and44, _and45)
        # then matches only through its fanin cut.
        from repro.logic.blif import read_blif
        from repro.sim.functional import verify_equivalence_exact

        net = read_blif("""\
.model h20000
.inputs i0 i1
.outputs g8 g10 g12 g13
.names one
1
.names one i1 g0
0- 1
-0 1
.names i1 i0 one g1
01- 1
1-1 1
.names g0 one g2
00 1
.names g2 g2 i0 g3
01- 1
1-1 1
.names g2 g3 g4
00 1
.names one g0 g5
0- 1
-0 1
.names g2 g5 g6
00 1
11 1
.names g0 g3 g7
0- 1
-0 1
.names g3 g1 g8
11 1
.names g6 g4 g9
00 1
11 1
.names one g10
0 1
.names g2 g9 g11
01 1
10 1
.names g7 g12
0 1
.names g11 g11 g13
00 1
11 1
.end
""")
        res = tech_map(net, lib, objective)
        assert verify_equivalence_exact(net, res.mapped)


def _kept_cuts(subject: Network, node_cuts=_node_cuts):
    """Every node's kept cuts, enumerated as ``tech_map`` does (by
    ``node_cuts``)."""
    cuts: Dict[str, list] = {}
    for name in subject.topo_order():
        node = subject.nodes[name]
        if node.is_source() or not node.fanins:
            cuts[name] = [_trivial_cut(name)]
        else:
            cuts[name] = node_cuts(name, node, cuts)
    return cuts


def _reference_node_cuts(name: str, node: Node, cuts: Dict[str, list],
                         k: int = 4, max_cuts_per_node: int = 12) -> list:
    """Reference enumeration: leaf-count buckets of frozensets in
    first-seen order, leaf positions by ``leaves.index`` and every
    expansion recomputed by ``_expand``."""
    buckets: List[Dict] = [{} for _ in range(k + 1)]
    if len(node.fanins) == 1:
        for c in cuts[node.fanins[0]]:
            buckets[len(c[0])].setdefault(c[1], (c,))
    else:
        for c1 in cuts[node.fanins[0]]:
            for c2 in cuts[node.fanins[1]]:
                u = c1[1] | c2[1]
                if len(u) <= k and u not in buckets[len(u)]:
                    buckets[len(u)][u] = (c1, c2)
    out = [_trivial_cut(name)]
    for bucket in buckets:
        for u, parts in bucket.items():
            leaves = tuple(sorted(u))
            n = len(leaves)
            words = [_expand(c[2], tuple(leaves.index(l) for l in c[0]), n)
                     for c in parts]
            mask = (1 << (1 << n)) - 1
            out.append((leaves, u, eval_gate(node.gtype, words, mask)))
            if len(out) >= max_cuts_per_node:
                return out
    return out


def _table_at(tt: int, leaf_words: List[int], mask: int) -> int:
    """The function with truth table ``tt`` evaluated on words."""
    out = 0
    for m in range(1 << len(leaf_words)):
        if (tt >> m) & 1:
            term = mask
            for i, w in enumerate(leaf_words):
                term &= w if (m >> i) & 1 else ~w
            out |= term
    return out & mask


def _cone_table(net: Network, root: str, leaves: Tuple[str, ...]) -> int:
    """Reference: ``root``'s truth table over ``leaves``, recomputed by
    recursion through its cone (every leaf a free variable)."""
    mask = (1 << (1 << len(leaves))) - 1
    memo = exhaustive_words(leaves)

    def value(name: str) -> int:
        if name not in memo:
            node = net.nodes[name]
            memo[name] = eval_gate(node.gtype,
                                   [value(fi) for fi in node.fanins],
                                   mask)
        return memo[name]

    return value(root)


def _fanin_closure(net: Network) -> Dict[str, Set[str]]:
    """Strict transitive fanin of every node."""
    tfi: Dict[str, Set[str]] = {}
    for name in net.topo_order():
        node = net.nodes[name]
        tfi[name] = set()
        if not node.is_source():
            for fi in node.fanins:
                tfi[name] |= tfi[fi] | {fi}
    return tfi


class TestCarriedCutTables:
    """Cut truth tables are merged from the fanin cuts' tables during
    enumeration, never recomputed from the cone."""

    CIRCUITS = [("mult4", lambda: array_multiplier(4)),
                ("mult6", lambda: array_multiplier(6))] + [
        (f"rand{g}_{s}", lambda g=g, s=s: random_logic(16, g, s))
        for g, s in ((60, 0), (60, 1), (90, 2), (125, 3), (140, 0),
                     (140, 2))]

    @pytest.mark.parametrize("name, make", CIRCUITS,
                             ids=[c[0] for c in CIRCUITS])
    def test_tables_reproduce_simulation(self, name, make):
        subject = _subject_graph(make(), "balanced", None)
        mask = (1 << 256) - 1
        words = get_compiled(subject).evaluate_words(
            random_words(subject.inputs, 256, seed=7), mask)
        tfi = _fanin_closure(subject)
        independent = 0
        for root, kept in _kept_cuts(subject).items():
            assert kept[0][0] == (root,)
            assert len(kept) <= 12
            for leaves, leafset, tt in kept:
                assert leafset == set(leaves)
                assert list(leaves) == sorted(leaves)
                assert _table_at(tt, [words[l] for l in leaves],
                                 mask) == words[root], (root, leaves)
                if leaves != (root,) and \
                        not any(tfi[l] & leafset for l in leaves):
                    independent += 1
                    assert tt == _cone_table(subject, root, leaves), \
                        (root, leaves)
        assert independent > 0

    def test_node_with_three_fanins_rejected(self):
        net = Network()
        net.add_inputs(["a", "b", "c"])
        net.add_gate("z", GateType.AND, ["a", "b", "c"])
        net.set_output("z")
        with pytest.raises(ValueError, match="'z' has 3 fanins"):
            _kept_cuts(net)

    # SHA-256 of the mapped BLIF and the costs (area, power cost,
    # arrival), recorded before the tables were carried with the cuts
    # (seed 1).  The random circuits hold union cuts with a leaf inside
    # another fanin cut's cone, where the merged and cone tables
    # differ off the consistent assignments.  The area and delay power
    # costs were re-recorded once activity came to be estimated under
    # every objective (they read 0.0 before); no BLIF, area or arrival
    # changed.
    PINNED = {
        ("mult8", "area"): (
            "355df9a3d640df43c9a0a6a173984c2a1d408894ce6905b401a75173d2cb420f",
            2912.0, 980.6735092864119, 65.28000000000007),
        ("mult8", "power"): (
            "355df9a3d640df43c9a0a6a173984c2a1d408894ce6905b401a75173d2cb420f",
            4076.80000000002, 621.8572336265883, 102.41599999999997),
        ("mult8", "delay"): (
            "c0be8288646b3a37a2de0237dd91c7da7f99e83c1297ea90316875083e0ba1b4",
            7504.0, 2838.8035190615824, 52.079999999999984),
        ("rand140_0", "area"): (
            "925a3dd8c9be753aec98c759e92dbb6d30beec7dccd0973bb207c00996801553",
            1014.0, 468.7429130009775, 12.000000000000002),
        ("rand140_0", "power"): (
            "6deb8c6688874f4b2ad581ef4ddc6098b9b2dae71d8b9ed08d343966d95ace05",
            1461.6, 306.4590909090909, 19.0),
        ("rand140_0", "delay"): (
            "04d9217f2e6aad9ad7e78c55011f89a6b3130735e80144ce3dfe654659966cb0",
            2656.0, 1376.7038123167165, 9.06),
        ("rand140_2", "area"): (
            "23b7bb0021f537ec84484f2865909d76b037e03c3297ae4fe1572b882620bd0e",
            1058.0, 500.92277614858267, 10.440000000000001),
        ("rand140_2", "power"): (
            "594d0ede308387838b004014991953f501717927d3eae5c4a135a53dd88bbebc",
            1383.2000000000003, 292.3575757575758, 16.618000000000002),
        ("rand140_2", "delay"): (
            "9ee3684164342374863d411df121c109c9b1e77fb0c1d31c579de3ee4ba3b29d",
            2640.0, 1370.2932551319643, 8.200000000000001),
    }
    MAKE = {"mult8": lambda: array_multiplier(8),
            "rand140_0": lambda: random_logic(16, 140, 0),
            "rand140_2": lambda: random_logic(16, 140, 2)}

    @pytest.mark.parametrize("circuit", ["rand140_0", "rand140_2"])
    def test_pinned_circuits_hold_merged_only_tables(self, circuit):
        subject = _subject_graph(self.MAKE[circuit](), "balanced", None)
        differ = [(root, leaves)
                  for root, kept in _kept_cuts(subject).items()
                  for leaves, _, tt in kept[1:]
                  if tt != _cone_table(subject, root, leaves)]
        assert differ

    @pytest.mark.parametrize("circuit, objective", sorted(PINNED),
                             ids=[f"{c}-{o}" for c, o in sorted(PINNED)])
    def test_mapped_blif_pinned(self, circuit, objective):
        res = tech_map(self.MAKE[circuit](), generic_library(),
                       objective, seed=1)
        digest = hashlib.sha256(write_blif(res.mapped).encode())
        assert (digest.hexdigest(), res.total_area, res.power_cost,
                res.arrival) == self.PINNED[circuit, objective]


def _permuted(tt: int, n: int, perm: Tuple[int, ...]) -> int:
    """Reference: ``tt`` over cell pins re-expressed over cut leaves,
    leaf i driving pin perm[i]."""
    out = 0
    for m in range(1 << n):
        pins = sum(1 << perm[i] for i in range(n) if (m >> i) & 1)
        out |= ((tt >> pins) & 1) << m
    return out


class TestLibraryPatterns:
    def test_built_once_per_library_content(self):
        _library_patterns(generic_library())
        hits = _pattern_table.cache_info().hits
        library = generic_library()
        patterns = _library_patterns(library)
        assert _pattern_table.cache_info().hits == hits + 1
        cells = {id(c) for c in library}
        assert all(id(cell) in cells
                   for entries in patterns.values() for cell, _, _ in entries)

    def test_first_permutation_of_each_cell(self):
        library = generic_library()
        every: Dict[Tuple[int, int], List[Tuple[str, tuple]]] = {}
        for cell in library:
            n = cell.num_inputs
            if 0 < n <= 4:
                for perm in itertools.permutations(range(n)):
                    tt = _permuted(truth_table(cell.cover), n, perm)
                    every.setdefault((n, tt), []).append((cell.name, perm))
        first = {key: [e for i, e in enumerate(entries)
                       if all(e[0] != f[0] for f in entries[:i])]
                 for key, entries in every.items()}
        patterns = _library_patterns(library)
        assert {key: [(c.name, perm) for c, perm, _ in entries]
                for key, entries in patterns.items()} == first
        assert all(delay == cell.delay(4.0)
                   for entries in patterns.values()
                   for cell, _, delay in entries)


class TestCutEnumerationReference:
    """The table-driven enumeration keeps exactly the reference's cuts:
    the same leaves, in the same order, with the same truth tables."""

    @settings(max_examples=40, deadline=None)
    @given(n_in=st.integers(2, 16), gates=st.integers(5, 150),
           seed=st.integers(0, 2 ** 16),
           consts=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                     st.booleans()), max_size=4))
    @example(n_in=16, gates=140, seed=0, consts=[])
    @example(n_in=4, gates=60, seed=3, consts=[(7, True), (9, False)])
    def test_kept_cuts_match_reference(self, n_in, gates, seed, consts):
        subject = _subject_graph(random_logic(n_in, gates, seed),
                                 "balanced", None)
        # propagate_constants leaves no constant inside a subject graph
        # built this way, so constant gates are wired in afterwards.
        two = [name for name, node in subject.nodes.items()
               if len(node.fanins) == 2]
        for pick, value in consts:
            name = two[pick % len(two)]
            const = subject.add_gate(
                subject.fresh_name("k"),
                GateType.CONST1 if value else GateType.CONST0, [])
            subject.set_fanins(name, [const, subject.nodes[name].fanins[1]])
        assert _kept_cuts(subject) == \
            _kept_cuts(subject, _reference_node_cuts)

    def test_expansion_tables_exhaustive(self):
        for n in range(2, 5):
            # Every selection of fewer than n of the n positions.
            for sel in range(1, (1 << n) - 1):
                pos = _positions(sel)
                assert list(pos) == sorted(pos)
                assert sum(1 << p for p in pos) == sel
                table = _expansion(n, sel)
                assert _EXPANSION[n, sel] is table
                assert len(table) == 1 << (1 << len(pos))
                assert table == [_expand(tt, pos, n)
                                 for tt in range(len(table))]

    def test_no_table_built_at_import(self):
        import subprocess
        import sys

        code = ("import repro.opt.logic.mapping as m; "
                "assert not m._EXPANSION, len(m._EXPANSION)")
        subprocess.run([sys.executable, "-c", code], check=True)


class TestDeepMapping:
    """Reconstruction of the mapped netlist has no recursion limit."""

    @staticmethod
    def _chain(gates: int) -> Network:
        # Each gate reads the two signals before it.  The chain
        # reconverges so heavily that the kept cuts soon stop reaching
        # the inputs, and the cover is thousands of cells deep.
        net = Network("chain")
        net.add_inputs(["a", "b"])
        before, last = "b", "a"
        for i in range(gates):
            gtype = GateType.NAND if i % 2 == 0 else GateType.XOR
            before, last = last, net.add_gate(f"g{i}", gtype, [last, before])
        net.set_output(last)
        return net

    def test_deep_chain_maps_and_flow_adopts(self):
        import sys

        from repro.core.flow import run_flow
        from repro.core.passes import FlowSpec
        from repro.sim.functional import verify_equivalence_exact

        net = self._chain(6000)
        # The delay objective: area and power costs, summed over cut
        # leaves, overflow the float range on a chain this reconvergent.
        flow = run_flow(net, FlowSpec(passes=[("map",
                                               {"objective": "delay"})]))
        stage = {s.name: s for s in flow.stages}["map"]
        assert (stage.outcome, stage.reason) == ("adopted", "")
        assert flow.final.depth() > sys.getrecursionlimit()
        assert verify_equivalence_exact(net, flow.final)

    def test_cost_overflow_is_diagnosed(self):
        from repro.core.flow import run_flow
        from repro.core.passes import FlowSpec

        # Every node has a library match, but the leaf-summed area cost
        # leaves the float range about 1,500 levels down the chain.
        flow = run_flow(self._chain(6000),
                        FlowSpec(passes=[("map", {"objective": "area"})]))
        stage = {s.name: s for s in flow.stages}["map"]
        assert stage.outcome == "rolled_back"
        assert "the area cost overflowed to inf at node" in stage.reason

    def test_missing_cell_is_diagnosed(self):
        net = Network("inv")
        net.add_input("a")
        net.add_gate("z", GateType.NOT, ["a"])
        net.set_output("z")
        no_inverter = Library([c for c in generic_library()
                               if not c.name.startswith("inv")])
        with pytest.raises(RuntimeError, match="no library match for node"):
            tech_map(net, no_inverter, "area")
