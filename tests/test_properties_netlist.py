"""Property-based tests over random netlists: every network
transformation in the toolkit must preserve function, and the
simulators must agree with each other under their contracts."""

import random

from hypothesis import given, settings, strategies as st

from repro.library.cells import generic_library
from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.logic.transform import (collapse_buffers,
                                   decompose_to_primitives,
                                   propagate_constants, to_sop_network)
from repro.opt.logic.balance import balance_paths
from repro.opt.logic.kernels import extract_kernels
from repro.opt.logic.mapping import tech_map
from repro.sim.functional import (simulate_transitions,
                                  verify_equivalence,
                                  verify_equivalence_exact)
from repro.sim.timed import timed_transitions_from_words
from repro.sim.vectors import random_words


@st.composite
def random_networks(draw, max_inputs=5, max_gates=14):
    """A random combinational DAG of primitive gates (+ constants)."""
    num_inputs = draw(st.integers(2, max_inputs))
    num_gates = draw(st.integers(1, max_gates))
    seed = draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    net = Network(f"h{seed}")
    pool = net.add_inputs([f"i{k}" for k in range(num_inputs)])
    if draw(st.booleans()):
        pool.append(net.add_gate("one", GateType.CONST1, []))
    two_in = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
              GateType.XOR, GateType.XNOR]
    for g in range(num_gates):
        r = rng.random()
        if r < 0.15:
            node = net.add_gate(f"g{g}", GateType.NOT,
                                [rng.choice(pool)])
        elif r < 0.25 and len(pool) >= 3:
            node = net.add_gate(f"g{g}", GateType.MUX,
                                [rng.choice(pool) for _ in range(3)])
        else:
            node = net.add_gate(f"g{g}", rng.choice(two_in),
                                [rng.choice(pool), rng.choice(pool)])
        pool.append(node)
    fo = net.fanouts()
    sinks = [n for n in pool if not fo[n] and
             not net.nodes[n].is_source()]
    for s in sinks or pool[-1:]:
        net.set_output(s)
    if not net.outputs:
        net.set_output(pool[-1])
    return net


SETTINGS = settings(max_examples=25, deadline=None)


@given(random_networks())
@SETTINGS
def test_to_sop_preserves_function(net):
    sop = to_sop_network(net)
    assert verify_equivalence_exact(net, sop)


@given(random_networks())
@SETTINGS
def test_decompose_preserves_function(net):
    prim = decompose_to_primitives(net)
    assert verify_equivalence_exact(net, prim)
    for node in prim.nodes.values():
        if not node.is_source():
            assert len(node.fanins) <= 2


@given(random_networks())
@SETTINGS
def test_constant_propagation_preserves_function(net):
    work = net.copy()
    propagate_constants(work)
    collapse_buffers(work)
    assert verify_equivalence(net, work, 128)


@given(random_networks())
@SETTINGS
def test_balancing_preserves_function_and_depth(net):
    work = net.copy()
    d0 = work.depth()
    balance_paths(work)
    assert work.depth() == d0
    assert verify_equivalence(net, work, 128)


@given(random_networks())
@SETTINGS
def test_extraction_preserves_function(net):
    work = net.copy()
    extract_kernels(work, "area", max_extractions=10)
    assert verify_equivalence(net, work, 128)


@given(random_networks())
@SETTINGS
def test_mapping_preserves_function(net):
    res = tech_map(net, generic_library(), "area")
    assert verify_equivalence_exact(net, res.mapped)


@given(random_networks(), st.integers(0, 1000))
@SETTINGS
def test_timed_transitions_dominate_functional(net, seed):
    """The event-driven count is a per-node upper bound on the
    zero-delay count for any stimulus (glitches only add)."""
    count = 48
    words = random_words(net.inputs, count, seed)
    func = simulate_transitions(net, words, count)
    timed = timed_transitions_from_words(net, words, count)
    for name in func:
        assert timed[name] >= func[name]


@given(random_networks())
@SETTINGS
def test_exact_equivalence_is_reflexive_and_detects_negation(net):
    assert verify_equivalence_exact(net, net.copy())
    mutated = net.copy()
    out = mutated.outputs[0]
    inv = mutated.fresh_name("_neg")
    mutated.add_gate(inv, GateType.NOT, [out])
    mutated.set_outputs([inv if o == out else o for o in mutated.outputs])
    # Negating one output breaks equivalence unless it was constant…
    from repro.bdd.circuit import network_bdds

    funcs = network_bdds(net)
    if not (funcs[out].is_true or funcs[out].is_false):
        assert not verify_equivalence_exact(net, mutated)
