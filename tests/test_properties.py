"""Property-based tests (hypothesis) on the core data structures and
invariants: cubes, covers, BDDs, bus codes, simulators, RNS."""

import random

from hypothesis import given, settings, strategies as st

from repro.bdd.bdd import BDD
from repro.logic.cube import Cube
from repro.logic.sop import Cover
from repro.opt.datapath.bus_coding import bus_invert
from repro.opt.datapath.residue import OneHotResidue
from repro.sim.vectors import words_from_vectors, vectors_from_words

# -- strategies --------------------------------------------------------------

NVARS = 4


@st.composite
def cubes(draw, num_vars=NVARS):
    mask = draw(st.integers(0, (1 << num_vars) - 1))
    value = draw(st.integers(0, (1 << num_vars) - 1))
    return Cube(num_vars, mask, value)


@st.composite
def covers(draw, num_vars=NVARS, max_cubes=5):
    n = draw(st.integers(0, max_cubes))
    return Cover(num_vars, [draw(cubes(num_vars)) for _ in range(n)])


# -- cube properties ----------------------------------------------------------


@given(cubes(), cubes())
def test_intersection_covers_common_minterms(a, b):
    c = a.intersect(b)
    for m in range(1 << NVARS):
        both = a.covers_minterm(m) and b.covers_minterm(m)
        assert both == (c is not None and c.covers_minterm(m))


@given(cubes(), cubes())
def test_supercube_contains_both(a, b):
    s = a.supercube(b)
    assert s.contains(a) and s.contains(b)


@given(cubes(), cubes())
def test_containment_is_minterm_subsumption(a, b):
    claim = a.contains(b)
    subset = all(a.covers_minterm(m)
                 for m in range(1 << NVARS) if b.covers_minterm(m))
    assert claim == subset


@given(cubes())
def test_minterm_count_matches_enumeration(c):
    count = sum(1 for m in range(1 << NVARS) if c.covers_minterm(m))
    assert count == c.count_minterms()


# -- cover properties --------------------------------------------------------


@given(covers())
def test_complement_partitions_space(cover):
    comp = cover.complement()
    for m in range(1 << NVARS):
        assert cover.evaluate(m) != comp.evaluate(m)


@given(covers())
def test_sccc_preserves_function(cover):
    reduced = cover.sccc()
    for m in range(1 << NVARS):
        assert cover.evaluate(m) == reduced.evaluate(m)
    assert len(reduced) <= len(cover)


@given(covers())
@settings(max_examples=40)
def test_minimize_preserves_function(cover):
    mini = cover.minimize()
    for m in range(1 << NVARS):
        assert cover.evaluate(m) == mini.evaluate(m)
    assert mini.num_literals() <= max(cover.num_literals(),
                                      cover.sccc().num_literals())


@given(covers(), covers())
@settings(max_examples=40)
def test_minimize_with_dc_stays_in_band(on, dc):
    mini = on.minimize(dc)
    for m in range(1 << NVARS):
        if on.evaluate(m) and not dc.evaluate(m):
            assert mini.evaluate(m)            # covers the care ON-set
        elif not on.evaluate(m) and not dc.evaluate(m):
            assert not mini.evaluate(m)        # avoids the OFF-set


@given(covers())
def test_tautology_matches_enumeration(cover):
    assert cover.is_tautology() == \
        all(cover.evaluate(m) for m in range(1 << NVARS))


@given(covers(),
       st.lists(st.floats(0.01, 0.99), min_size=NVARS, max_size=NVARS))
def test_probability_matches_enumeration(cover, probs):
    expected = 0.0
    for m in range(1 << NVARS):
        if cover.evaluate(m):
            p = 1.0
            for i in range(NVARS):
                p *= probs[i] if (m >> i) & 1 else 1 - probs[i]
            expected += p
    assert abs(cover.probability(probs) - expected) < 1e-9


# -- BDD properties -----------------------------------------------------------


@st.composite
def bool_exprs(draw, depth=3):
    """Random expression tree over 3 variables as (fn, evaluator)."""
    if depth == 0 or draw(st.booleans()):
        var = draw(st.sampled_from(["a", "b", "c"]))
        return ("var", var)
    op = draw(st.sampled_from(["and", "or", "xor", "not"]))
    if op == "not":
        return ("not", draw(bool_exprs(depth=depth - 1)))
    return (op, draw(bool_exprs(depth=depth - 1)),
            draw(bool_exprs(depth=depth - 1)))


def build_bdd(expr, mgr):
    if expr[0] == "var":
        return mgr.var(expr[1])
    if expr[0] == "not":
        return ~build_bdd(expr[1], mgr)
    l, r = build_bdd(expr[1], mgr), build_bdd(expr[2], mgr)
    return {"and": l & r, "or": l | r, "xor": l ^ r}[expr[0]]


def eval_expr(expr, env):
    if expr[0] == "var":
        return env[expr[1]]
    if expr[0] == "not":
        return 1 - eval_expr(expr[1], env)
    l, r = eval_expr(expr[1], env), eval_expr(expr[2], env)
    return {"and": l & r, "or": l | r, "xor": l ^ r}[expr[0]]


@given(bool_exprs())
@settings(max_examples=60)
def test_bdd_agrees_with_direct_evaluation(expr):
    mgr = BDD(["a", "b", "c"])
    f = build_bdd(expr, mgr)
    for m in range(8):
        env = {"a": m & 1, "b": (m >> 1) & 1, "c": (m >> 2) & 1}
        assert f.evaluate(env) == bool(eval_expr(expr, env))


@given(bool_exprs(), bool_exprs())
@settings(max_examples=40)
def test_bdd_canonicity(e1, e2):
    """Equal functions get equal node ids; different functions don't."""
    mgr = BDD(["a", "b", "c"])
    f1, f2 = build_bdd(e1, mgr), build_bdd(e2, mgr)
    same = all(
        f1.evaluate({"a": m & 1, "b": (m >> 1) & 1, "c": (m >> 2) & 1})
        == f2.evaluate({"a": m & 1, "b": (m >> 1) & 1,
                        "c": (m >> 2) & 1})
        for m in range(8))
    assert (f1.node == f2.node) == same


# -- bus coding ---------------------------------------------------------------


@given(st.lists(st.integers(0, 255), min_size=2, max_size=60))
def test_bus_invert_decodable_and_never_worse(stream):
    res = bus_invert(stream, 8)
    for original, (bus, e) in zip(stream, res.encoded):
        decoded = (~bus & 0xFF) if e else bus
        assert decoded == original
    assert res.transitions_coded <= res.transitions_uncoded + \
        (len(stream) - 1)  # invert line overhead is bounded by 1/step


@given(st.lists(st.integers(0, 104), min_size=1, max_size=40))
def test_residue_roundtrip_and_add(stream):
    ohr = OneHotResidue([3, 5, 7])
    for v in stream:
        assert ohr.decode(ohr.encode(v)) == v
    acc = ohr.encode(0)
    total = 0
    for v in stream:
        acc = ohr.add(acc, ohr.encode(v))
        total = (total + v) % 105
    assert ohr.decode(acc) == total


# -- simulation packing --------------------------------------------------------


@given(st.lists(st.fixed_dictionaries(
    {"a": st.integers(0, 1), "b": st.integers(0, 1)}),
    min_size=1, max_size=30))
def test_pack_unpack_roundtrip(vectors):
    words = words_from_vectors(vectors)
    assert vectors_from_words(words, len(vectors)) == vectors


# -- network invariants ---------------------------------------------------------


@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
@settings(max_examples=30)
def test_adder_network_is_an_adder(a, b):
    from repro.logic.generators import ripple_carry_adder

    net = ripple_carry_adder(16)
    vec = {f"a{i}": (a >> i) & 1 for i in range(16)}
    vec.update({f"b{i}": (b >> i) & 1 for i in range(16)})
    vec["cin"] = 0
    out = net.evaluate(vec)
    s = sum(out[f"s{i}"] << i for i in range(16)) + (out["c16"] << 16)
    assert s == a + b


@given(st.integers(0, 10 ** 9))
@settings(max_examples=50)
def test_gray_code_adjacent_single_flip(n):
    from repro.opt.datapath.bus_coding import _to_gray

    g1, g2 = _to_gray(n), _to_gray(n + 1)
    assert bin(g1 ^ g2).count("1") == 1


# -- compiled simulation -------------------------------------------------------


@given(st.integers(0, 10 ** 6), st.integers(4, 9), st.integers(10, 40),
       st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_compiled_and_interpreted_agree_on_random_networks(
        net_seed, num_inputs, num_gates, stim_seed):
    from repro.logic.generators import random_logic
    from repro.sim.compiled import get_compiled
    from repro.sim.vectors import random_words

    net = random_logic(num_inputs, num_gates, seed=net_seed)
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    words = random_words(sources, 64, stim_seed)
    mask = (1 << 64) - 1
    assert net.evaluate_words(words, mask) == \
        get_compiled(net).evaluate_words(words, mask)


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_incremental_resimulation_agrees_after_random_edit(
        net_seed, stim_seed, edit_seed):
    from repro.logic.gates import GateType
    from repro.logic.generators import random_logic
    from repro.sim.compiled import get_compiled
    from repro.sim.vectors import random_words

    flip = {GateType.AND: GateType.NAND, GateType.NAND: GateType.AND,
            GateType.OR: GateType.NOR, GateType.NOR: GateType.OR,
            GateType.XOR: GateType.XNOR, GateType.XNOR: GateType.XOR}
    net = random_logic(8, 30, seed=net_seed)
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    words = random_words(sources, 64, stim_seed)
    mask = (1 << 64) - 1
    prev = get_compiled(net).evaluate_words(words, mask)
    gates = [n for n in net.gate_nodes() if n.gtype in flip]
    gate = gates[random.Random(edit_seed).randrange(len(gates))]
    net.set_function(gate.name, flip[gate.gtype])
    inc = get_compiled(net).evaluate_incremental(prev, [gate.name],
                                                 words, mask)
    assert inc == net.evaluate_words(words, mask)


@given(st.integers(0, 10 ** 6), st.permutations(list(range(4))),
       st.booleans())
@settings(max_examples=25, deadline=None)
def test_equivalence_verdict_invariant_under_output_order(
        net_seed, perm, corrupt):
    from repro.logic.gates import GateType
    from repro.logic.generators import random_logic
    from repro.sim.functional import (verify_equivalence,
                                      verify_equivalence_exact)

    net = random_logic(5, 12, seed=net_seed)
    net.set_outputs(net.outputs[:4])
    perm = [i for i in perm if i < len(net.outputs)]
    other = net.copy()
    if corrupt:
        victim = other.nodes[other.outputs[0]]
        if victim.kind == "gate":
            other.set_function(
                victim.name, GateType.NOT if victim.gtype is not
                GateType.NOT else GateType.BUF, fanins=victim.fanins[:1])
        else:
            other.set_function(victim.name, victim.cover.complement())
    expected = verify_equivalence(net, other, num_vectors=64)
    expected_exact = verify_equivalence_exact(net, other)
    other.set_outputs([other.outputs[i] for i in perm])
    assert verify_equivalence(net, other, num_vectors=64) == expected
    assert verify_equivalence_exact(net, other) == expected_exact
