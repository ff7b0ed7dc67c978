"""Unit tests for the ROBDD package."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.bdd import BDD


@pytest.fixture
def mgr():
    return BDD(["a", "b", "c"])


class TestBasics:
    def test_terminals(self, mgr):
        assert mgr.true.is_true
        assert mgr.false.is_false
        assert (~mgr.true).is_false

    def test_var(self, mgr):
        a = mgr.var("a")
        assert a.evaluate({"a": 1})
        assert not a.evaluate({"a": 0})

    def test_hash_consing(self, mgr):
        a1 = mgr.var("a")
        a2 = mgr.var("a")
        assert a1.node == a2.node

    def test_truth_is_satisfiability(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.true and a and a & ~b and not mgr.false
        assert not (a & ~a) and not (a & b & ~b)
        assert bool(a ^ a) is False and bool(a | ~a) is True

    def test_new_variable_on_demand(self, mgr):
        d = mgr.var("d")
        assert "d" in mgr.var_level

    def test_duplicate_variable_rejected(self, mgr):
        with pytest.raises(ValueError):
            mgr.add_variable("a")


class TestOperators:
    def test_and_or_not(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a & b
        assert f.evaluate({"a": 1, "b": 1})
        assert not f.evaluate({"a": 1, "b": 0})
        g = a | b
        assert g.evaluate({"a": 0, "b": 1})
        assert not g.evaluate({"a": 0, "b": 0})
        assert (~a).evaluate({"a": 0})

    def test_xor(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a ^ b
        assert f.evaluate({"a": 1, "b": 0})
        assert not f.evaluate({"a": 1, "b": 1})

    def test_canonicity(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f1 = ~(a & b)
        f2 = ~a | ~b
        assert f1.node == f2.node   # De Morgan, canonical form

    def test_bool_coercion(self, mgr):
        a = mgr.var("a")
        assert (a & True).node == a.node
        assert (a & False).is_false
        assert (a | True).is_true

    def test_implies_equiv(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        # f implies g iff f and not-g are disjoint.
        assert not ((a & b) & ~a)
        assert a & ~(a & b)
        assert (a & b).equiv(b & a)

    def test_mixing_managers_rejected(self, mgr):
        other = BDD(["x"])
        with pytest.raises(ValueError):
            mgr.var("a") & other.var("x")


_QVARS = [f"v{i}" for i in range(6)]


def _from_truth_table(bdd, names, table):
    """The function of ``names`` whose value on minterm ``m`` (bit ``i``
    of ``m`` is ``names[i]``) is bit ``m`` of ``table``."""
    f = bdd.false
    for m in range(1 << len(names)):
        if table >> m & 1:
            term = bdd.true
            for i, name in enumerate(names):
                v = bdd.var(name)
                term = term & (v if m >> i & 1 else ~v)
            f = f | term
    return f


def _iterated(f, names, kind):
    """Quantification by definition, one variable at a time:
    f|v=0 OR f|v=1 (exists), f|v=0 AND f|v=1 (forall)."""
    for v in names:
        lo, hi = f.restrict({v: 0}), f.restrict({v: 1})
        f = (lo | hi) if kind == "exists" else (lo & hi)
    return f


class TestQuantification:
    def test_exists(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = (a & b).exists(["b"])
        assert f.node == a.node

    def test_forall(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = (a | b).forall(["b"])
        assert f.node == a.node
        g = (a & b).forall(["b"])
        assert g.is_false

    def test_empty_set_is_identity(self, mgr):
        f = mgr.var("a") ^ mgr.var("c")
        assert f.exists([]) is f
        assert f.forall([]).node == f.node

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, (1 << 16) - 1),
           st.lists(st.sampled_from(_QVARS), unique=True))
    def test_set_quantifier_matches_iterated_restrict(self, table,
                                                      variables):
        # f is a random function of v0..v3; v4 and v5 exist in the
        # manager but lie outside its support.
        bdd = BDD(_QVARS)
        f = _from_truth_table(bdd, _QVARS[:4], table)
        for order in (variables, variables[::-1]):
            assert f.exists(order).equiv(_iterated(f, order, "exists"))
            assert f.forall(order).equiv(_iterated(f, order, "forall"))

    def test_restrict(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = (a & b).restrict({"a": 1})
        assert f.node == b.node
        assert (a & b).restrict({"a": 0}).is_false

_KVARS = [f"x{i}" for i in range(6)]
_FULL = (1 << 64) - 1
#: Truth table of each variable over the 64 minterms of x0..x5 (bit i
#: of a minterm is x_i).
_VAR_TT = [sum(1 << m for m in range(64) if m >> i & 1) for i in range(6)]


def _shannon(bdd, levels, table, depth, minterm):
    """ROBDD of ``table`` built straight from the truth table by Shannon
    expansion with ``_mk``, involving no apply operation; ``minterm``
    holds the values of the variables above ``depth``."""
    if depth == len(levels):
        return table >> minterm & 1
    lo = _shannon(bdd, levels, table, depth + 1, minterm)
    hi = _shannon(bdd, levels, table, depth + 1, minterm | 1 << depth)
    return bdd._mk(levels[depth], lo, hi)


def _cofactor(table, i, phase):
    bit = 1 << i
    return sum((table >> ((m & ~bit) | (bit if phase else 0)) & 1) << m
               for m in range(64))


def _leaves():
    return st.one_of(st.sampled_from(range(6)).map(lambda i: ("var", i)),
                     st.sampled_from([("const", 0), ("const", 1)]))


def _grow(kids):
    subset = st.lists(st.sampled_from(_KVARS), unique=True, max_size=3)
    return st.one_of(
        st.tuples(st.just("not"), kids),
        st.tuples(st.sampled_from(["and", "or", "xor"]), kids, kids),
        st.tuples(st.sampled_from(["exists", "forall"]), kids, subset),
        st.tuples(st.just("restrict"), kids,
                  st.dictionaries(st.sampled_from(_KVARS),
                                  st.integers(0, 1), max_size=3)))


_EXPRESSIONS = st.recursive(_leaves(), _grow, max_leaves=12)


class TestKernelProperty:
    """Every operation gives the canonical node of its truth table."""

    def _check(self, bdd, levels, expr):
        """(function, truth table) of ``expr``, asserting at every
        subexpression that the function's node is the one built from
        its truth table."""
        op = expr[0]
        if op == "var":
            f, t = bdd.var(_KVARS[expr[1]]), _VAR_TT[expr[1]]
        elif op == "const":
            f, t = (bdd.true, _FULL) if expr[1] else (bdd.false, 0)
        elif op == "not":
            a, ta = self._check(bdd, levels, expr[1])
            f, t = ~a, _FULL ^ ta
        elif op in ("and", "or", "xor"):
            a, ta = self._check(bdd, levels, expr[1])
            b, tb = self._check(bdd, levels, expr[2])
            if op == "and":
                f, t = a & b, ta & tb
            elif op == "or":
                f, t = a | b, ta | tb
            else:
                f, t = a ^ b, ta ^ tb
            # A function is true when satisfiable, as its truth table
            # is when non-zero.
            assert bool(a & ~b) == bool(ta & ~tb)
            assert bool(a & b) == bool(ta & tb)
        elif op in ("exists", "forall"):
            a, t = self._check(bdd, levels, expr[1])
            for name in expr[2]:
                lo, hi = (_cofactor(t, _KVARS.index(name), p)
                          for p in (0, 1))
                t = (lo | hi) if op == "exists" else (lo & hi)
            f = a.exists(expr[2]) if op == "exists" else a.forall(expr[2])
        else:
            a, t = self._check(bdd, levels, expr[1])
            for name, phase in expr[2].items():
                t = _cofactor(t, _KVARS.index(name), phase)
            f = a.restrict(expr[2])
        assert f.node == _shannon(bdd, levels, t, 0, 0), expr
        return f, t

    @settings(max_examples=300, deadline=None)
    @given(_EXPRESSIONS)
    def test_result_is_canonical_node_of_truth_table(self, expr):
        bdd = BDD(_KVARS)
        levels = [bdd.level_of(name) for name in _KVARS]
        self._check(bdd, levels, expr)

    @settings(max_examples=200, deadline=None)
    @given(_EXPRESSIONS, _EXPRESSIONS)
    def test_commuted_and_double_negated_reuse_the_cache(self, ef, eg):
        # The swapped operands and the complement of a complement hit
        # the memo tables: same node, no new node, no new entry.
        bdd = BDD(_KVARS)
        levels = [bdd.level_of(name) for name in _KVARS]
        f, _ = self._check(bdd, levels, ef)
        g, _ = self._check(bdd, levels, eg)
        for op, cache in ((lambda x, y: x & y, bdd._and_cache),
                          (lambda x, y: x | y, bdd._or_cache),
                          (lambda x, y: x ^ y, bdd._xor_cache)):
            h = op(f, g)
            work = (bdd.num_nodes(), len(cache))
            assert op(g, f).node == h.node
            assert (bdd.num_nodes(), len(cache)) == work
        nf = ~f
        work = (bdd.num_nodes(), len(bdd._not_cache))
        assert (~nf).node == f.node
        assert (bdd.num_nodes(), len(bdd._not_cache)) == work


class TestUnknownVariable:
    """Naming a variable the manager does not know is a diagnostic."""

    def test_restrict(self, mgr):
        with pytest.raises(ValueError, match="'zz'"):
            mgr.var("a").restrict({"zz": 1})

    def test_exists(self, mgr):
        with pytest.raises(ValueError, match="'zz'"):
            mgr.var("a").exists(["b", "zz"])

    def test_forall(self, mgr):
        with pytest.raises(ValueError, match="'zz'"):
            mgr.var("a").forall(["zz"])

class TestAnalysis:
    def test_probability_uniform(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert (a & b).probability({}) == pytest.approx(0.25)
        assert (a | b).probability({}) == pytest.approx(0.75)
        assert (a ^ b).probability({}) == pytest.approx(0.5)

    def test_probability_biased(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        p = (a & b).probability({"a": 0.9, "b": 0.1})
        assert p == pytest.approx(0.09)

    def test_num_nodes_grows(self, mgr):
        before = mgr.num_nodes()
        f = mgr.var("a") ^ mgr.var("b") ^ mgr.var("c")
        assert mgr.num_nodes() > before


class TestCircuitBdds:
    def test_adder_bdds(self):
        from repro.bdd.circuit import network_bdds
        from repro.logic.generators import ripple_carry_adder

        net = ripple_carry_adder(3)
        funcs = network_bdds(net)
        for a in range(8):
            for b in range(8):
                assign = {f"a{i}": (a >> i) & 1 for i in range(3)}
                assign.update({f"b{i}": (b >> i) & 1 for i in range(3)})
                assign["cin"] = 0
                s = sum(funcs[f"s{i}"].evaluate(assign) << i
                        for i in range(3))
                s += funcs["c3"].evaluate(assign) << 3
                assert s == a + b

    def test_constant_gates(self):
        from repro.bdd.circuit import network_bdds
        from repro.logic.gates import GateType
        from repro.logic.netlist import Network

        net = Network()
        net.add_inputs(["a"])
        net.add_gate("zero", GateType.CONST0, [])
        net.add_gate("one", GateType.CONST1, [])
        net.add_gate("x", GateType.OR, ["a", "zero"])
        net.add_gate("y", GateType.NAND, ["a", "one"])
        net.set_outputs(["x", "y"])
        funcs = network_bdds(net)
        assert funcs["zero"].is_false and funcs["one"].is_true
        assert funcs["x"] == funcs["a"]
        assert funcs["y"] == ~funcs["a"]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, 1)),
                          max_size=n),
                 max_size=5))))
    def test_cover_evaluate_words_on_bdd_words(self, case):
        # The bit-parallel evaluator on BDD words gives the cover's
        # function: it agrees with Cover.evaluate on every minterm.
        from repro.logic.cube import Cube
        from repro.logic.sop import Cover

        n, cubes = case
        names = [f"v{i}" for i in range(n)]
        covers = [Cover(n, []), Cover(n, [Cube.from_literals(n, [])])]
        if n:
            covers.append(Cover(n, [Cube.from_literals(n, dict(lits).items())
                                    for lits in cubes]))
        mgr = BDD(names)
        words = [mgr.var(name) for name in names]
        for cover in covers:
            f = cover.evaluate_words(words, mgr.true)
            assert f.bdd is mgr
            for m in range(1 << n):
                assign = {name: (m >> i) & 1 for i, name in enumerate(names)}
                assert f.evaluate(assign) == cover.evaluate(m)
        assert covers[0].evaluate_words(words, mgr.true).is_false
        assert covers[1].evaluate_words(words, mgr.true).is_true

    def test_bdd_to_cover_roundtrip(self):
        from repro.bdd.circuit import bdd_to_cover

        mgr = BDD(["x", "y", "z"])
        x, y, z = mgr.var("x"), mgr.var("y"), mgr.var("z")
        f = (x & y) | (~x & z)
        cover = bdd_to_cover(f, ["x", "y", "z"])
        for m in range(8):
            assign = {"x": m & 1, "y": (m >> 1) & 1, "z": (m >> 2) & 1}
            assert cover.evaluate(m) == f.evaluate(assign)
