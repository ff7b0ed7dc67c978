"""Tests for the CLI tools, force-directed scheduling, module
selection, and the exact equivalence checker."""

import pytest

from repro.arch.dfg import fir_dfg, iir_biquad_dfg
from repro.arch.power_models import default_module_library
from repro.arch.scheduling import (force_directed_schedule,
                                   list_schedule, required_units,
                                   schedule_length)
from repro.arch.selection import select_modules
from repro.logic.blif import write_blif
from repro.logic.gates import GateType
from repro.logic.generators import ripple_carry_adder, random_logic
from repro.logic.netlist import Network
from repro.sim.functional import (verify_equivalence,
                                  verify_equivalence_exact)
from repro.tools.cli import main


class TestExactEquivalence:
    def test_positive(self):
        a = ripple_carry_adder(4)
        b = ripple_carry_adder(4)
        assert verify_equivalence_exact(a, b)

    def test_negative(self):
        a = ripple_carry_adder(3)
        b = ripple_carry_adder(3)
        b.set_function("s1", GateType.XNOR)
        assert not verify_equivalence_exact(a, b)

    def test_catches_rare_difference(self):
        """Functions differing on a single minterm — where random
        simulation can miss — are caught exactly."""
        a = Network()
        a.add_inputs([f"x{i}" for i in range(8)])
        a.add_gate("f", GateType.AND, [f"x{i}" for i in range(8)])
        a.set_output("f")
        b = a.copy()
        b.set_function("f", GateType.NAND)
        assert not verify_equivalence_exact(a, b)

    def test_structurally_different_equal_functions(self):
        a = Network()
        a.add_inputs(["x", "y"])
        a.add_gate("f", GateType.XOR, ["x", "y"])
        a.set_output("f")
        b = Network()
        b.add_inputs(["x", "y"])
        b.add_gate("nx", GateType.NOT, ["x"])
        b.add_gate("ny", GateType.NOT, ["y"])
        b.add_gate("t1", GateType.AND, ["x", "ny"])
        b.add_gate("t2", GateType.AND, ["nx", "y"])
        b.add_gate("f", GateType.OR, ["t1", "t2"])
        b.set_output("f")
        assert verify_equivalence_exact(a, b)

    def test_mapping_formally_verified(self):
        from repro.library.cells import generic_library
        from repro.opt.logic.mapping import tech_map

        net = random_logic(6, 18, seed=13)
        res = tech_map(net, generic_library(), "area")
        assert verify_equivalence_exact(net, res.mapped)


class TestForceDirected:
    def test_respects_latency(self):
        dfg = fir_dfg(6)
        latency = dfg.critical_path() + 2
        sched = force_directed_schedule(dfg, latency)
        assert schedule_length(dfg, sched) <= latency

    def test_dependencies_respected(self):
        from repro.arch.dfg import OP_DELAY

        dfg = iir_biquad_dfg()
        sched = force_directed_schedule(dfg)
        for op in dfg.compute_ops():
            for src in op.operands:
                s = dfg.ops[src]
                d = OP_DELAY.get(s.op, 1)
                assert sched[op.name] >= sched[src] + d

    def test_flattens_resource_profile(self):
        """At relaxed latency, FDS needs no more units than the greedy
        ASAP-priority list schedule and typically fewer multipliers."""
        dfg = fir_dfg(8)
        latency = dfg.critical_path() + 4
        fds = force_directed_schedule(dfg, latency)
        greedy = list_schedule(dfg, {})
        units_fds = required_units(dfg, fds)
        units_greedy = required_units(dfg, greedy)
        assert units_fds.get("mul", 0) <= units_greedy.get("mul", 0)
        assert schedule_length(dfg, fds) <= latency


class TestModuleSelection:
    def test_fast_everywhere_at_tight_latency(self):
        dfg = fir_dfg(4)
        lib = default_module_library()
        res = select_modules(dfg, lib)
        # Default bound = fastest-achievable: multiplier must be fast.
        assert res.modules["mul"].delay == lib.fastest("mul").delay

    def test_slack_buys_low_power_modules(self):
        dfg = fir_dfg(4)
        lib = default_module_library()
        tight = select_modules(dfg, lib)
        relaxed = select_modules(dfg, lib,
                                 latency_bound=tight.latency * 2)
        assert relaxed.power < tight.power
        assert relaxed.modules["mul"].cap_per_op <= \
            tight.modules["mul"].cap_per_op

    def test_latency_bound_respected(self):
        dfg = fir_dfg(5)
        lib = default_module_library()
        res = select_modules(dfg, lib, latency_bound=30)
        assert res.latency <= 30

    def test_missing_module_rejected(self):
        from repro.arch.dfg import DFG
        from repro.arch.power_models import ModuleLibrary

        dfg = DFG()
        a = dfg.add("a", "input")
        b = dfg.add("b", "input")
        dfg.add("c", "cmp", [a, b])
        dfg.add("y", "output", ["c"])
        with pytest.raises(ValueError):
            select_modules(dfg, ModuleLibrary([]))


class TestCLI:
    @pytest.fixture
    def blif_file(self, tmp_path):
        path = tmp_path / "rca.blif"
        path.write_text(write_blif(ripple_carry_adder(3)))
        return str(path)

    def test_report(self, blif_file, capsys):
        assert main(["report", blif_file, "--vectors", "128",
                     "--per-node", "2"]) == 0
        out = capsys.readouterr().out
        assert "total power" in out
        assert "hottest nodes" in out

    @pytest.mark.parametrize("command,flag,value", [
        ("report", "--per-node", "-3"), ("lint", "--hot-nets", "-2"),
        ("balance", "--max-buffers", "-1")])
    def test_negative_count_exits_2(self, blif_file, capsys, command,
                                    flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, blif_file, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "non-negative" in err

    def test_glitch(self, blif_file, capsys):
        assert main(["glitch", blif_file, "--vectors", "64"]) == 0
        assert "glitch fraction" in capsys.readouterr().out

    def test_glitch_delays_file(self, blif_file, tmp_path, capsys):
        path = tmp_path / "delays.json"
        path.write_text('{"s0": 0.0, "c1": 2.5}')
        assert main(["glitch", blif_file, "--vectors", "32",
                     "--delays", str(path)]) == 0
        capsys.readouterr()
        for text in ('{"s0": NaN}', '{"s0": Infinity}', '{"c1": -1}',
                     '{"s0": "fast"}', '{"s0": 1' + "0" * 400 + "}",
                     '{"nope": 1.0}', '[1.0]'):
            path.write_text(text)
            assert main(["glitch", blif_file, "--vectors", "32",
                         "--delays", str(path)]) == 2
            assert "bad --delays file" in capsys.readouterr().err

    def test_map_roundtrip(self, blif_file, tmp_path, capsys):
        out_path = str(tmp_path / "mapped.blif")
        assert main(["map", blif_file, "--objective", "area",
                     "-o", out_path]) == 0
        from repro.logic.blif import read_blif

        with open(out_path) as f:
            mapped = read_blif(f)
        assert verify_equivalence(ripple_carry_adder(3), mapped, 256)

    def test_optimize(self, blif_file, tmp_path, capsys):
        out_path = str(tmp_path / "opt.blif")
        assert main(["optimize", blif_file, "--vectors", "128",
                     "-o", out_path]) == 0
        from repro.logic.blif import read_blif

        with open(out_path) as f:
            optimized = read_blif(f)
        assert verify_equivalence(ripple_carry_adder(3), optimized, 256)

    def test_balance(self, blif_file, capsys):
        assert main(["balance", blif_file, "--vectors", "64"]) == 0
        assert "buffers added" in capsys.readouterr().out

    def test_optimize_rejects_sequential(self, tmp_path, capsys):
        path = tmp_path / "seq.blif"
        path.write_text(".model s\n.inputs d\n.outputs q\n"
                        ".latch d q 0\n.end\n")
        assert main(["optimize", str(path)]) == 1
