"""Unit tests for repro.logic.factor (division, kernels, factoring)."""

import pytest

from repro.logic.cube import Cube
from repro.logic.factor import (algebraic_divide, best_kernel,
                                common_cube, factor,
                                is_cube_free,
                                kernel_value, kernels, make_cube_free)
from repro.logic.sop import Cover


def cover_ab_cd():
    # (a + b)(c + d) = ac + ad + bc + bd over vars a,b,c,d
    return Cover.from_strings(["1-1-", "1--1", "-11-", "-1-1"])


class TestCubeFree:
    def test_common_cube(self):
        c = Cover.from_strings(["11-", "1-1"])
        assert common_cube(c) == frozenset([(0, 1)])

    def test_make_cube_free(self):
        c = Cover.from_strings(["11-", "1-1"])
        cf = make_cube_free(c)
        assert common_cube(cf) == frozenset()
        assert cf.to_strings() in (["-1-", "--1"], ["--1", "-1-"])

    def test_is_cube_free(self):
        assert is_cube_free(Cover.from_strings(["1-", "-1"]))
        assert not is_cube_free(Cover.from_strings(["11", "1-"]))
        assert not is_cube_free(Cover.from_strings(["11"]))


class TestDivision:
    def test_exact_division(self):
        f = cover_ab_cd()
        divisor = Cover.from_strings(["--1-", "---1"])  # c + d
        q, r = algebraic_divide(f, divisor)
        assert sorted(q.to_strings()) == ["-1--", "1---"]  # a + b
        assert r.is_empty()

    def test_division_with_remainder(self):
        # f = ac + ad + e
        f = Cover.from_strings(["1-1--", "1--1-", "----1"])
        divisor = Cover.from_strings(["--1--", "---1-"])
        q, r = algebraic_divide(f, divisor)
        assert q.to_strings() == ["1----"]
        assert r.to_strings() == ["----1"]

    def test_non_divisor(self):
        f = Cover.from_strings(["11"])
        divisor = Cover.from_strings(["0-"])
        q, r = algebraic_divide(f, divisor)
        assert q.is_empty()
        assert r.to_strings() == f.to_strings()

    def test_divide_by_empty_raises(self):
        with pytest.raises(ValueError):
            algebraic_divide(cover_ab_cd(), Cover.zero(4))

    def test_reconstruction(self):
        """quotient * divisor + remainder == original."""
        f = Cover.from_strings(["1-1--", "1--1-", "-11--", "-1-1-",
                                "----1"])
        divisor = Cover.from_strings(["--1--", "---1-"])
        q, r = algebraic_divide(f, divisor)
        product = q.intersect(divisor)   # algebraic product == AND here
        rebuilt = product.union(r)
        assert rebuilt.is_equivalent(f)


class TestKernels:
    def test_finds_c_plus_d(self):
        ks = [set(k.to_strings()) for k, _ in kernels(cover_ab_cd())]
        assert {"--1-", "---1"} in ks      # c + d
        assert {"1---", "-1--"} in ks      # a + b

    def test_kernels_are_cube_free(self):
        for k, _cok in kernels(cover_ab_cd()):
            assert common_cube(k) == frozenset()

    def test_single_cube_has_no_kernels(self):
        assert kernels(Cover.from_strings(["111"])) == []

    def test_kernel_value_positive(self):
        f = cover_ab_cd()
        kern = Cover.from_strings(["--1-", "---1"])
        assert kernel_value(f, kern) > 0

    def test_best_kernel(self):
        choice = best_kernel(cover_ab_cd())
        assert choice is not None
        kern, value = choice
        assert value > 0

    def test_no_worthwhile_kernel(self):
        # x0 x1 + x2 x3: kernels exist but save nothing.
        f = Cover.from_strings(["11--", "--11"])
        assert best_kernel(f) is None


class TestFactor:
    def test_factored_form_correct(self):
        f = cover_ab_cd()
        tree = factor(f)
        assert tree.literal_count() == 4
        text = tree.to_string(["a", "b", "c", "d"])
        assert "a" in text and "d" in text

    def test_factor_preserves_function(self):
        """Factored literal count <= flat count; structure checked by
        re-evaluating the expression tree."""
        f = Cover.from_strings(["1-1--", "1--1-", "-11--", "-1-1-",
                                "----1"])
        tree = factor(f)

        def eval_tree(node, minterm):
            if node.op == "lit":
                var, phase = node.literal
                bit = (minterm >> var) & 1
                return bit == phase
            if node.op == "and":
                return all(eval_tree(c, minterm) for c in node.children)
            return any(eval_tree(c, minterm) for c in node.children)

        for m in range(1 << 5):
            assert eval_tree(tree, m) == f.evaluate(m)

    def test_single_cube(self):
        tree = factor(Cover.from_strings(["110"]))
        assert tree.literal_count() == 3
