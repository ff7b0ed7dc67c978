"""E15 — Software power (claim C15, [46]/[45]/[40]/[23]).

Four sub-experiments on the instruction-level power substrate:
  (a) model fit: the Tiwari-style fitted model predicts program energy;
  (b) faster code is lower-energy code (register allocation sweep);
  (c) cheaper instruction selection (strength reduction, MAC packing);
  (d) cold scheduling matters on the DSP, not on the big CPU.
"""

from repro.bench.profiling import PHASE_EST, PHASE_SIM, phase
from repro.core.report import format_table
from repro.sw.compile import (linear_scan_allocate, peephole_mac,
                              strength_reduce)
from repro.sw.cpu import CPU, big_cpu_profile, dsp_profile
from repro.sw.power_model import fit_instruction_model
from repro.sw.programs import (dot_product, fir_kernel, mixed_block,
                               scale_by_constant)
from repro.sw.schedule import cold_schedule, control_path_switching

from conftest import emit, harness_params, scaled

CLAIMS = ("C15",)


def regalloc_rows():
    cpu = CPU(big_cpu_profile())
    prog, mem, expected = dot_product(8)
    rows = []
    for regs in (3, 4, 6, 12):
        alloc = linear_scan_allocate(prog, regs)
        res = cpu.run(alloc, memory=dict(mem))
        assert res.memory.get(200) == expected
        rows.append([f"{regs} regs", res.instructions, res.cycles,
                     res.energy, res.memory_energy])
    return rows


def selection_rows():
    rows = []
    cpu = CPU(big_cpu_profile())
    sp, smem, _ = scale_by_constant(6, 8)
    plain = cpu.run(linear_scan_allocate(sp, 8), memory=dict(smem))
    reduced = cpu.run(linear_scan_allocate(strength_reduce(sp), 8),
                      memory=dict(smem))
    rows.append(["scale x8: mul", plain.cycles, plain.energy])
    rows.append(["scale x8: shl", reduced.cycles, reduced.energy])
    dsp = CPU(dsp_profile())
    fp, fmem, _ = fir_kernel(8)
    plain_f = dsp.run(linear_scan_allocate(fp, 8), memory=dict(fmem))
    packed = dsp.run(linear_scan_allocate(peephole_mac(fp), 8),
                     memory=dict(fmem))
    rows.append(["fir8: mul+add", plain_f.cycles, plain_f.energy])
    rows.append(["fir8: mac", packed.cycles, packed.energy])
    return rows


def scheduling_rows():
    prog = mixed_block()
    cold = cold_schedule(prog)
    rows = []
    for label, cpu in [("dsp", CPU(dsp_profile())),
                       ("big cpu", CPU(big_cpu_profile()))]:
        orig = cpu.run(prog)
        opt = cpu.run(cold)
        rows.append([label,
                     control_path_switching(orig.opcode_trace),
                     control_path_switching(opt.opcode_trace),
                     orig.energy, opt.energy,
                     1 - opt.energy / orig.energy])
    return rows


def model_rows(repetitions=80):
    rows = []
    for label, prof in [("dsp", dsp_profile()),
                        ("big cpu", big_cpu_profile())]:
        cpu = CPU(prof)
        with phase(PHASE_EST):
            model = fit_instruction_model(cpu,
                                          repetitions=repetitions)
        prog, _mem, _ = dot_product(6)
        prog = linear_scan_allocate(prog, 8)
        err = model.prediction_error(cpu, prog)
        rows.append([label, model.base["add"], model.base["mul"],
                     model.pair_overhead("add", "ld"), err])
    return rows


def run(params=None):
    quick, _seed = harness_params(params)
    repetitions = scaled(80, quick, floor=20)
    mrows = model_rows(repetitions=repetitions)
    with phase(PHASE_SIM):
        rrows = regalloc_rows()
        srows = selection_rows()
        crows = scheduling_rows()
    metrics = {}
    for label, base_add, base_mul, ovh, err in mrows:
        key = label.replace(" ", "_")
        metrics[f"model.{key}.base_add_nJ"] = base_add
        metrics[f"model.{key}.program_error"] = err
    for label, _instrs, cycles, energy, _mem in rrows:
        key = label.replace(" ", "_")
        metrics[f"regalloc.{key}.cycles"] = cycles
        metrics[f"regalloc.{key}.energy_nJ"] = energy
    for label, cycles, energy in srows:
        key = label.replace(" ", "_").replace(":", "")
        metrics[f"select.{key}.energy_nJ"] = energy
    for label, _sb, _sa, _eb, _ea, saving in crows:
        key = label.replace(" ", "_")
        metrics[f"cold_sched.{key}.saving"] = saving
    return {"metrics": metrics, "vectors": repetitions}


def bench_software_power(benchmark):
    mrows = benchmark.pedantic(model_rows, rounds=1, iterations=1)
    emit("E15a: instruction-level model fit", format_table(
        ["cpu", "base(add) nJ", "base(mul) nJ", "ovh(add,ld) nJ",
         "program err"], mrows))
    for row in mrows:
        assert row[4] < 0.05

    rrows = regalloc_rows()
    emit("E15b: register allocation (faster = lower energy)",
         format_table(["allocation", "instrs", "cycles", "energy nJ",
                       "mem energy nJ"], rrows))
    cycles = [r[2] for r in rrows]
    energy = [r[3] for r in rrows]
    assert cycles == sorted(cycles, reverse=True)
    assert energy == sorted(energy, reverse=True)

    srows = selection_rows()
    emit("E15c: instruction selection", format_table(
        ["program", "cycles", "energy nJ"], srows))
    assert srows[1][2] < srows[0][2]      # shl beats mul
    assert srows[3][2] < srows[2][2]      # mac beats mul+add

    crows = scheduling_rows()
    emit("E15d: cold scheduling", format_table(
        ["cpu", "switch before", "switch after", "E before",
         "E after", "saving"], crows))
    dsp, big = crows
    assert dsp[5] > 0.1 and big[5] < 0.05
