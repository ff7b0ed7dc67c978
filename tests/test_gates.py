"""Unit tests for repro.logic.gates."""

from repro.logic.gates import (GateType, eval_gate, gate_arity_ok,
                               gate_transistors)


class TestEvalGate:
    M = 0b1111

    def test_and_or(self):
        a, b = 0b1100, 0b1010
        assert eval_gate(GateType.AND, [a, b], self.M) == 0b1000
        assert eval_gate(GateType.OR, [a, b], self.M) == 0b1110

    def test_nand_nor(self):
        a, b = 0b1100, 0b1010
        assert eval_gate(GateType.NAND, [a, b], self.M) == 0b0111
        assert eval_gate(GateType.NOR, [a, b], self.M) == 0b0001

    def test_xor_xnor(self):
        a, b = 0b1100, 0b1010
        assert eval_gate(GateType.XOR, [a, b], self.M) == 0b0110
        assert eval_gate(GateType.XNOR, [a, b], self.M) == 0b1001

    def test_not_buf(self):
        assert eval_gate(GateType.NOT, [0b1100], self.M) == 0b0011
        assert eval_gate(GateType.BUF, [0b1100], self.M) == 0b1100

    def test_const(self):
        assert eval_gate(GateType.CONST0, [], self.M) == 0
        assert eval_gate(GateType.CONST1, [], self.M) == self.M

    def test_mux(self):
        sel, d0, d1 = 0b1100, 0b1010, 0b0110
        out = eval_gate(GateType.MUX, [sel, d0, d1], self.M)
        # sel=1 -> d1; sel=0 -> d0
        assert out == (0b0100 | 0b0010)

    def test_maj(self):
        a, b, c = 0b1100, 0b1010, 0b0110
        out = eval_gate(GateType.MAJ, [a, b, c], self.M)
        for k in range(4):
            bits = [(a >> k) & 1, (b >> k) & 1, (c >> k) & 1]
            assert (out >> k) & 1 == (1 if sum(bits) >= 2 else 0)

    def test_wide_gates(self):
        ins = [0b1111, 0b1110, 0b1100]
        assert eval_gate(GateType.AND, ins, self.M) == 0b1100
        assert eval_gate(GateType.XOR, ins, self.M) == \
            0b1111 ^ 0b1110 ^ 0b1100

    def test_mask_confines_result(self):
        assert eval_gate(GateType.NOT, [0], 0b11) == 0b11


class TestArity:
    def test_ok(self):
        assert gate_arity_ok(GateType.AND, 2)
        assert gate_arity_ok(GateType.AND, 5)
        assert gate_arity_ok(GateType.NOT, 1)
        assert gate_arity_ok(GateType.MUX, 3)
        assert gate_arity_ok(GateType.CONST0, 0)

    def test_bad(self):
        assert not gate_arity_ok(GateType.AND, 1)
        assert not gate_arity_ok(GateType.NOT, 2)
        assert not gate_arity_ok(GateType.MUX, 2)
        assert not gate_arity_ok(GateType.CONST1, 1)


class TestTransistors:
    def test_two_input_counts(self):
        assert gate_transistors(GateType.NAND, 2) == 4
        assert gate_transistors(GateType.AND, 2) == 6
        assert gate_transistors(GateType.NOT, 1) == 2

    def test_scaling_with_width(self):
        assert gate_transistors(GateType.NAND, 4) == 8
        assert gate_transistors(GateType.AND, 4) == 10
        assert gate_transistors(GateType.XOR, 3) == 20

    def test_inverting_property(self):
        assert GateType.NAND.is_inverting
        assert not GateType.AND.is_inverting
