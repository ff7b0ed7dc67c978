"""Unit tests for the software level (ISA, CPU, model, compile,
scheduling)."""

import pytest

from repro.sw.compile import (linear_scan_allocate, peephole_mac,
                              strength_reduce)
from repro.sw.cpu import CPU, big_cpu_profile, dsp_profile
from repro.sw.isa import Instruction, OPCODES, assemble
from repro.sw.power_model import fit_instruction_model
from repro.sw.programs import (dot_product, fir_kernel, mixed_block,
                               scale_by_constant)
from repro.sw.schedule import (basic_blocks, cold_schedule,
                               control_path_switching)


class TestISA:
    def test_assemble_roundtrip(self):
        prog = assemble("""
        start: li r1, 10
               li r2, 0
        loop:  add r2, r2, r1
               li r3, 1
               sub r1, r1, r3
               bne r1, r2, loop
               halt
        """)
        assert len(prog) == 7
        assert prog[0].label == "start"
        assert prog.labels()["loop"] == 2

    def test_assemble_rejects_bad_opcode(self):
        with pytest.raises(ValueError):
            assemble("frobnicate r1, r2")

    def test_assemble_rejects_bad_register(self):
        with pytest.raises(ValueError):
            assemble("add r1, r2, x9")

    def test_reads_writes(self):
        i = Instruction("add", dst="r1", src1="r2", src2="r3")
        assert set(i.reads()) == {"r2", "r3"}
        assert i.writes() == ["r1"]
        st = Instruction("st", dst="r1", src1="r2", imm=0)
        assert set(st.reads()) == {"r1", "r2"}
        assert st.writes() == []
        mac = Instruction("mac", dst="r1", src1="r2", src2="r3")
        assert "r1" in mac.reads()     # accumulator

    def test_opcode_encodings_distinct(self):
        assert len(set(OPCODES.values())) == len(OPCODES)


class TestCPU:
    def test_loop_execution(self):
        prog = assemble("""
               li r1, 5
               li r2, 0
               li r3, 1
        loop:  add r2, r2, r1
               sub r1, r1, r3
               bne r1, r0, loop
               halt
        """)
        res = CPU().run(prog)
        assert res.registers["r2"] == 5 + 4 + 3 + 2 + 1

    def test_memory_ops(self):
        prog = assemble("""
               li r1, 100
               ld r2, r1, 0
               shl r3, r2, 2
               st r3, r1, 4
               halt
        """)
        res = CPU().run(prog, memory={100: 7})
        assert res.memory[104] == 28

    def test_runaway_guard(self):
        prog = assemble("loop: jmp loop\n")
        with pytest.raises(RuntimeError):
            CPU().run(prog, max_instructions=100)

    def test_energy_components(self):
        prog = assemble("li r1, 1\nld r2, r1, 0\nhalt\n")
        res = CPU().run(prog)
        assert res.energy == pytest.approx(
            res.base_energy + res.overhead_energy + res.memory_energy)
        assert res.memory_energy > 0

    def test_profiles_differ(self):
        prog = mixed_block()
        big = CPU(big_cpu_profile()).run(prog)
        dsp = CPU(dsp_profile()).run(prog)
        assert dsp.overhead_energy / dsp.energy > \
            big.overhead_energy / big.energy


class TestModelFit:
    @pytest.fixture(scope="class")
    def model(self):
        return fit_instruction_model(CPU(dsp_profile()), 60)

    def test_base_costs_recovered(self, model):
        prof = dsp_profile()
        for op in ("add", "mul", "nop"):
            assert model.base[op] == pytest.approx(prof.base_energy[op],
                                                   rel=0.05)

    def test_overhead_recovered(self, model):
        prof = dsp_profile()
        h = bin(OPCODES["add"] ^ OPCODES["ld"]).count("1")
        assert model.pair_overhead("add", "ld") == pytest.approx(
            prof.overhead_per_bit * h, rel=0.1)

    def test_program_prediction(self, model):
        cpu = CPU(dsp_profile())
        prog, mem, _ = dot_product(5)
        prog = linear_scan_allocate(prog, 8)
        err = model.prediction_error(cpu, prog)
        assert err < 0.05

    def test_faster_is_lower_energy(self):
        """Claim C15: faster code is almost always lower-energy code."""
        cpu = CPU(big_cpu_profile())
        prog, mem, expected = dot_product(6)
        few = linear_scan_allocate(prog, 4)
        many = linear_scan_allocate(prog, 10)
        r_few = cpu.run(few, memory=dict(mem))
        r_many = cpu.run(many, memory=dict(mem))
        assert r_many.cycles < r_few.cycles
        assert r_many.energy < r_few.energy


class TestCompile:
    def test_allocation_correct_all_pressures(self):
        prog, mem, expected = dot_product(5)
        for regs in (3, 4, 6, 12):
            alloc = linear_scan_allocate(prog, regs)
            res = CPU().run(alloc, memory=dict(mem))
            assert res.memory.get(200) == expected, regs

    def test_spilling_costs_energy(self):
        prog, mem, _ = dot_product(6)
        tight = CPU().run(linear_scan_allocate(prog, 3),
                          memory=dict(mem))
        roomy = CPU().run(linear_scan_allocate(prog, 10),
                          memory=dict(mem))
        assert tight.energy > roomy.energy
        assert tight.memory_energy > roomy.memory_energy

    def test_strength_reduce(self):
        prog, mem, expected = scale_by_constant(4, 8)
        reduced = strength_reduce(prog)
        assert not any(i.op == "mul" for i in reduced)
        res = CPU().run(linear_scan_allocate(reduced, 8),
                        memory=dict(mem))
        got = [res.memory.get(300 + i) for i in range(4)]
        assert got == expected

    def test_strength_reduce_skips_non_powers(self):
        prog, _, _ = scale_by_constant(2, 5)
        reduced = strength_reduce(prog)
        assert any(i.op == "mul" for i in reduced)

    def test_mac_packing(self):
        prog, mem, expected = fir_kernel(5)
        packed = peephole_mac(prog)
        assert sum(1 for i in packed if i.op == "mac") == 5
        assert len(packed) == len(prog) - 5
        res = CPU(dsp_profile()).run(linear_scan_allocate(packed, 8),
                                     memory=dict(mem))
        assert res.memory.get(99) == expected

    def test_mac_packing_saves_on_dsp(self):
        prog, mem, _ = fir_kernel(6)
        dsp = CPU(dsp_profile())
        plain = dsp.run(linear_scan_allocate(prog, 8),
                        memory=dict(mem))
        packed = dsp.run(linear_scan_allocate(peephole_mac(prog), 8),
                         memory=dict(mem))
        assert packed.cycles < plain.cycles
        assert packed.energy < plain.energy


class TestColdScheduling:
    def test_switching_reduced(self):
        prog = mixed_block()
        cold = cold_schedule(prog)
        res_orig = CPU(dsp_profile()).run(prog)
        res_cold = CPU(dsp_profile()).run(cold)
        assert control_path_switching(res_cold.opcode_trace) < \
            control_path_switching(res_orig.opcode_trace)

    def test_semantics_preserved(self):
        prog = mixed_block()
        cold = cold_schedule(prog)
        a = CPU().run(prog)
        b = CPU().run(cold)
        assert a.registers == b.registers
        assert a.memory == b.memory

    def test_matters_on_dsp_not_cpu(self):
        """Claim C15/[40]: scheduling saves real energy on the DSP but
        is marginal on the big CPU."""
        prog = mixed_block()
        cold = cold_schedule(prog)
        dsp, big = CPU(dsp_profile()), CPU(big_cpu_profile())
        s_dsp = 1 - dsp.run(cold).energy / dsp.run(prog).energy
        s_big = 1 - big.run(cold).energy / big.run(prog).energy
        assert s_dsp > 0.1
        assert s_big < 0.05
        assert s_dsp > 3 * s_big

    def test_basic_blocks_split_on_branch_and_label(self):
        prog = assemble("""
               li r1, 1
        loop:  add r1, r1, r1
               bne r1, r0, loop
               halt
        """)
        blocks = basic_blocks(prog)
        assert (0, 1) in blocks
        assert any(s == 1 for s, _e in blocks)

    def test_dependencies_respected(self):
        prog = assemble("""
               li r1, 3
               add r2, r1, r1
               mul r3, r2, r2
               st r3, r1, 0
               halt
        """)
        cold = cold_schedule(prog)
        res = CPU().run(cold)
        assert res.memory[3] == 36
