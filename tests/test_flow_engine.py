"""Tests for the fail-soft pass engine (repro.core.passes), the flows
rebuilt on top of it, and the flow/CLI bug batch."""

import json

import pytest

from repro.core.flow import (_enable_rate, fsm_low_power_flow,
                             low_power_flow, run_flow)
from repro.core.passes import (ADOPTED, FlowError, FlowSpec,
                               FlowTrace, Pass, PassContext,
                               ROLLED_BACK, SKIPPED, TraceRecord,
                               available_passes, make_pass,
                               run_network_passes)
from repro.logic.blif import write_blif
from repro.logic.gates import GateType
from repro.logic.generators import random_logic, ripple_carry_adder
from repro.logic.netlist import Latch, Network
from repro.logic.transform import to_sop_network
from repro.sim.functional import WordTrace, verify_equivalence
from repro.tools.cli import main


def _raise(net, ctx, params):
    raise RuntimeError("boom")


def _complement_output(net, ctx, params):
    out = net.outputs[0]
    net.set_function(out, net.nodes[out].cover.complement())


def _inflate_sizes(net, ctx, params):
    for node in net.nodes.values():
        if not node.is_source():
            node.attrs["size"] = 8.0


def _engine(net, passes, **kw):
    work = to_sop_network(net)
    ctx = PassContext(original=net, num_vectors=256, seed=0)
    return run_network_passes(work, passes, ctx, **kw)


class TestRollback:
    def test_raising_pass_rolls_back_and_flow_continues(self):
        net = ripple_carry_adder(2)
        passes = [make_pass("extract"),
                  Pass(name="bomb", apply=_raise),
                  make_pass("map")]
        final, trace, outcomes = _engine(net, passes)
        by = {r.name: r for r in trace.records}
        assert by["bomb"].outcome == ROLLED_BACK
        assert by["bomb"].reason.startswith("exception: RuntimeError")
        assert by["extract"].outcome == ADOPTED
        assert by["map"].outcome == ADOPTED        # flow kept going
        assert verify_equivalence(net, final, 512)
        # the rolled-back record shows no delta
        assert by["bomb"].power_after == by["bomb"].power_before
        assert by["bomb"].gates_after == by["bomb"].gates_before

    def test_strict_mode_reraises(self):
        net = ripple_carry_adder(2)
        passes = [Pass(name="bomb", apply=_raise)]
        with pytest.raises(RuntimeError, match="boom"):
            _engine(net, passes, strict=True)

    def test_raising_guard_rolls_back_and_flow_continues(self):
        net = ripple_carry_adder(2)
        passes = [Pass(name="bad-guard", apply=_complement_output,
                       guard=_raise),
                  make_pass("map")]
        final, trace, stages = _engine(net, passes)
        assert [(r.name, r.outcome) for r in trace.records] == \
            [("bad-guard", ROLLED_BACK), ("map", ADOPTED)]
        assert trace.records[0].reason == "exception: RuntimeError: boom"
        assert [(s.name, s.outcome) for s in stages] == \
            [("initial", ADOPTED), ("bad-guard", ROLLED_BACK),
             ("map", ADOPTED)]
        assert verify_equivalence(net, final, 512)
        with pytest.raises(RuntimeError, match="boom"):
            _engine(net, passes, strict=True)

    def test_equivalence_break_rolls_back(self):
        net = ripple_carry_adder(2)
        passes = [Pass(name="breaker", apply=_complement_output),
                  make_pass("map")]
        final, trace, _ = _engine(net, passes)
        by = {r.name: r for r in trace.records}
        assert by["breaker"].outcome == ROLLED_BACK
        assert by["breaker"].reason == "equivalence"
        assert by["breaker"].verify_vectors == 256
        assert by["map"].outcome == ADOPTED
        assert verify_equivalence(net, final, 512)

    def test_equivalence_break_strict_raises(self):
        net = ripple_carry_adder(2)
        passes = [Pass(name="breaker", apply=_complement_output)]
        with pytest.raises(FlowError, match="broke equivalence"):
            _engine(net, passes, strict=True)

    def test_power_regression_gate(self):
        net = ripple_carry_adder(2)
        gated = [Pass(name="inflate", apply=_inflate_sizes,
                      max_power_regression=0.0)]
        final, trace, _ = _engine(net, gated)
        assert trace.records[0].outcome == ROLLED_BACK
        assert trace.records[0].reason == "power-regression"
        # the rejected candidate's power is still recorded
        assert trace.records[0].power_after > \
            trace.records[0].power_before
        assert all(float(n.attrs.get("size", 1.0)) == 1.0
                   for n in final.nodes.values())

    def test_power_regression_ungated_adopts(self):
        net = ripple_carry_adder(2)
        passes = [Pass(name="inflate", apply=_inflate_sizes)]
        final, trace, _ = _engine(net, passes)
        assert trace.records[0].outcome == ADOPTED

    def test_power_regression_strict_raises(self):
        net = ripple_carry_adder(2)
        passes = [Pass(name="inflate", apply=_inflate_sizes,
                       max_power_regression=0.0)]
        with pytest.raises(FlowError, match="regressed power"):
            _engine(net, passes, strict=True)

    def test_sequential_network_refused(self):
        # Equivalence checking would treat the latch output as a free
        # input, so the engine refuses instead of adopting unverified.
        net = Network("seq")
        net.add_input("d")
        net.add_latch("d", "q")
        net.add_gate("f", GateType.XOR, ["d", "q"])
        net.set_output("f")
        passes = [Pass(name="breaker", apply=_complement_output)]
        with pytest.raises(ValueError, match="1 latch"):
            _engine(net, passes)
        spec = FlowSpec(name="seq", passes=[("sweep", {})])
        with pytest.raises(ValueError, match="1 latch"):
            run_flow(net, spec)

    def test_input_network_never_mutated(self):
        net = ripple_carry_adder(2)
        blif_before = write_blif(net)
        _engine(net, [make_pass("extract"), make_pass("map")])
        assert write_blif(net) == blif_before


class TestTrace:
    def test_jsonl_round_trip(self, tmp_path):
        res = low_power_flow(ripple_carry_adder(2), num_vectors=128)
        path = tmp_path / "trace.jsonl"
        res.trace.write(str(path))
        loaded = FlowTrace.load(str(path))
        assert loaded == res.trace
        assert loaded.fingerprint() == res.trace.fingerprint()

    def test_fingerprint_deterministic_and_ignores_wall(self):
        r1 = low_power_flow(ripple_carry_adder(2), num_vectors=128)
        r2 = low_power_flow(ripple_carry_adder(2), num_vectors=128)
        assert r1.trace.fingerprint() == r2.trace.fingerprint()
        r2.trace.records[0].wall_s += 100.0
        assert r1.trace.fingerprint() == r2.trace.fingerprint()
        r2.trace.records[0].name = "renamed"
        assert r1.trace.fingerprint() != r2.trace.fingerprint()

    def test_jsonl_lines_are_objects(self):
        res = low_power_flow(ripple_carry_adder(2), num_vectors=128,
                             use_mapping=False, use_sizing=False)
        lines = res.trace.to_jsonl().strip().splitlines()
        head = json.loads(lines[0])
        assert head["type"] == "flow"
        assert head["flow"] == "low_power_flow"
        assert all(json.loads(ln)["type"] == "pass"
                   for ln in lines[1:])

    def test_bad_record_type_rejected(self):
        with pytest.raises(ValueError, match="unknown trace record"):
            FlowTrace.from_jsonl('{"type": "mystery"}\n')

    @pytest.mark.parametrize("key,value", [
        ("strict", "false"), ("strict", 1),
        ("seed", 3.9), ("seed", False),
        ("num_vectors", "64"), ("num_vectors", 64.0)])
    def test_header_field_types_checked(self, key, value):
        header = {"type": "flow", "flow": "f", "num_vectors": 64,
                  "seed": 0, "strict": False, key: value}
        with pytest.raises(ValueError, match=f"flow trace: {key} must"):
            FlowTrace.from_jsonl(json.dumps(header) + "\n")

    def test_outcome_counts(self):
        trace = FlowTrace()
        trace.add(TraceRecord(index=0, name="a", outcome=ADOPTED))
        trace.add(TraceRecord(index=1, name="b", outcome=SKIPPED))
        trace.add(TraceRecord(index=2, name="c", outcome=SKIPPED))
        assert trace.outcomes() == {ADOPTED: 1, SKIPPED: 2}


class TestSizeCap:
    def test_skip_is_recorded(self):
        res = low_power_flow(ripple_carry_adder(2), num_vectors=128,
                             dontcare_size_cap=0, use_mapping=False,
                             use_sizing=False)
        assert [s.name for s in res.stages] == \
            ["initial", "dontcare", "extract"]
        stage = res.stages[1]
        assert stage.outcome == SKIPPED
        assert stage.reason == "size-cap"
        # the skipped stage's snapshot is the unchanged adopted state
        assert stage.report.total == res.stages[0].report.total
        rec = res.trace.records[0]
        assert rec.outcome == SKIPPED and rec.reason == "size-cap"

    def test_cap_is_a_parameter(self):
        res = run_flow(ripple_carry_adder(2), FlowSpec(
            passes=[("dontcare", {"size_cap": None})], num_vectors=128))
        assert res.stages[1].outcome == ADOPTED

    def test_default_flag_behaviour_unchanged(self):
        res = low_power_flow(ripple_carry_adder(2), num_vectors=128)
        assert [s.name for s in res.stages] == \
            ["initial", "dontcare", "extract", "map", "size"]

    def test_cap_validated_when_built(self):
        for cap in ("abc", -1, True, 2.5, "120"):
            with pytest.raises(ValueError, match="'dontcare': size_cap"):
                make_pass("dontcare", {"size_cap": cap})
        for cap in (None, 0, 120):
            assert make_pass("dontcare", {"size_cap": cap}).params == \
                {"size_cap": cap}

    @pytest.mark.parametrize("cap", ["abc", -1, True])
    def test_bad_cap_exits_2_before_measuring(self, cap, comb_blif,
                                              tmp_path, capsys,
                                              monkeypatch):
        import repro.core.passes as passes

        simulated = []
        real = passes.activity_from_simulation
        monkeypatch.setattr(passes, "activity_from_simulation",
                            lambda *a: simulated.append(1) or real(*a))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"passes": [{"pass": "dontcare",
                         "params": {"size_cap": cap}}]}))
        assert main(["flow", comb_blif, "--spec", str(spec)]) == 2
        assert "size_cap" in capsys.readouterr().err
        assert simulated == []

    def test_negative_cli_cap_exits_2(self, comb_blif, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", comb_blif, "--dontcare-cap", "-1"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err


class TestSizeStage:
    def test_unsized_target_keeps_the_unsized_design(self):
        """The flow's size target is the unsized delay, so its size
        stage returns the all-minimum design and saves exactly 0."""
        res = low_power_flow(random_logic(16, 125, 7), num_vectors=256,
                             seed=1)
        rec = {r.name: r for r in res.trace.records}["size"]
        assert rec.outcome == ADOPTED
        assert rec.power_after == rec.power_before
        assert res.stages[-1].report.total == res.stages[-2].report.total
        sizes = [node.attrs.get("size")
                 for node in res.final.nodes.values()
                 if not node.is_source()]
        assert sizes and all(s == 1.0 for s in sizes)


class TestVerifyScaling:
    def test_scaled_with_effort(self):
        ctx = PassContext(original=Network(), num_vectors=4096)
        assert ctx.verify_vectors == 1024

    def test_floor_at_256(self):
        ctx = PassContext(original=Network(), num_vectors=128)
        assert ctx.verify_vectors == 256

    def test_trace_records_verify_strength(self):
        res = run_flow(ripple_carry_adder(2),
                       FlowSpec(passes=[("map", {})], num_vectors=2048))
        assert res.trace.records[0].verify_vectors == 512


class TestFlowSpec:
    def test_string_and_object_entries(self):
        spec = FlowSpec.from_dict({
            "name": "s", "num_vectors": 64,
            "passes": ["extract",
                       {"pass": "map",
                        "params": {"objective": "area"}}]})
        assert spec.passes == [("extract", {}),
                               ("map", {"objective": "area"})]
        res = run_flow(ripple_carry_adder(2), spec)
        assert [s.name for s in res.stages] == \
            ["initial", "extract", "map"]
        assert res.trace.flow == "s"

    def test_bad_specs_rejected(self):
        for bad in ({}, {"passes": []}, {"passes": [42]},
                    {"passes": [{"params": {}}]},
                    {"passes": [{"pass": "map", "params": 3}]}, []):
            with pytest.raises(ValueError):
                FlowSpec.from_dict(bad)

    @pytest.mark.parametrize("bad, key", [
        ({"passes": ["map"], "vectors": 64}, "vectors"),
        ({"passes": ["map"], "check_equivalence": False},
         "check_equivalence"),
        ({"passes": [{"pass": "map", "parms": {}}]}, "parms"),
        ({"passes": [{"pass": "map", "params": {},
                      "check_equivalence": False}]},
         "check_equivalence")])
    def test_unknown_keys_rejected(self, bad, key):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            FlowSpec.from_dict(bad)

    @pytest.mark.parametrize("vectors", [-5, 0, 2.5, "64", True, None])
    def test_num_vectors_must_be_positive_int(self, vectors):
        with pytest.raises(ValueError, match="num_vectors"):
            FlowSpec.from_dict({"passes": ["map"],
                                "num_vectors": vectors})

    @pytest.mark.parametrize("key,value", [
        ("strict", "false"), ("strict", 0),
        ("strict_lint", "no"), ("strict_lint", 1),
        ("seed", 3.9), ("seed", "3"), ("seed", True)])
    def test_field_types_checked(self, key, value):
        with pytest.raises(ValueError, match=f"flow spec: {key} must"):
            FlowSpec.from_dict({"passes": ["map"], key: value})

    def test_to_dict_roundtrip(self):
        spec = FlowSpec.from_dict({
            "name": "r", "num_vectors": 64, "seed": 3, "strict": True,
            "strict_lint": True,
            "passes": ["extract", {"pass": "map",
                                   "params": {"objective": "area"}}]})
        assert FlowSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_pass_name(self):
        with pytest.raises(ValueError, match="unknown pass"):
            make_pass("definitely-not-a-pass")

    def test_power_gate_param_reaches_every_pass(self):
        for name in available_passes():              # sweep included
            p = make_pass(name, {"max_power_regression": 0.05})
            assert p.max_power_regression == 0.05
        assert make_pass("sweep").max_power_regression is None
        with pytest.raises(ValueError, match="max_power_regression"):
            make_pass("sweep", {"max_power_regression": "lots"})

    def test_registry_contents(self):
        names = available_passes()
        for expected in ("dontcare", "extract", "map", "size",
                         "balance", "reorder", "sweep"):
            assert expected in names


class TestEnableRate:
    def test_derived_from_latch_enables(self):
        latches = [Latch(data="d0", output="q0", enable="en"),
                   Latch(data="d1", output="q1", enable="en")]
        trace = WordTrace({"en": 0b1101}, 4)   # cycles 1, 0, 1, 1
        assert _enable_rate(trace, latches) == pytest.approx(0.75)
        assert _enable_rate(WordTrace({"en": 0}, 0), latches) == 1.0

    def test_missing_enable_degrades_to_one(self):
        latches = [Latch(data="d", output="q", enable="renamed")]
        assert _enable_rate(WordTrace({"other": 1}, 1), latches) == 1.0

    def test_ungated_latches(self):
        latches = [Latch(data="d", output="q")]
        assert _enable_rate(WordTrace({"d": 1}, 1), latches) == 1.0
        assert _enable_rate(WordTrace({}, 0), latches) == 1.0

    def test_fsm_flow_failsoft_on_stage_crash(self, monkeypatch):
        import repro.opt.seq.minimize_fsm as m
        from repro.opt.seq.fsm_benchmarks import load_benchmark

        def explode(stg):
            raise RuntimeError("minimize crashed")

        monkeypatch.setattr(m, "minimize_stg", explode)
        stg = load_benchmark("traffic")
        res = fsm_low_power_flow(stg, sequence_length=100, seed=0)
        by = {r.name: r for r in res.trace.records}
        assert by["minimize"].outcome == ROLLED_BACK
        assert res.states_after == res.states_before  # fallback: stg
        assert res.network is not None
        assert res.power_after > 0.0

    def test_fsm_flow_strict_reraises(self, monkeypatch):
        import repro.opt.seq.minimize_fsm as m
        from repro.opt.seq.fsm_benchmarks import load_benchmark

        def explode(stg):
            raise RuntimeError("minimize crashed")

        monkeypatch.setattr(m, "minimize_stg", explode)
        with pytest.raises(RuntimeError, match="minimize crashed"):
            fsm_low_power_flow(load_benchmark("traffic"),
                               sequence_length=100, strict=True)

    def test_fsm_flow_simulates_gated_machine_once(self, monkeypatch):
        import repro.sim.functional as functional
        from repro.opt.seq.fsm_benchmarks import load_benchmark

        calls = []
        real = functional.sequential_transitions

        def counting(net, *args, **kw):
            calls.append(net.name)
            return real(net, *args, **kw)

        monkeypatch.setattr(functional, "sequential_transitions",
                            counting)
        res = fsm_low_power_flow(load_benchmark("traffic"),
                                 sequence_length=100, seed=0)
        # one run of the gated machine (enable rate and activity), one
        # of the baseline
        assert sorted(calls) == ["fsm_gated", "fsm_reference"]
        assert all(r.outcome == ADOPTED for r in res.trace.records)

    def test_fsm_flow_trace_present(self):
        from repro.opt.seq.fsm_benchmarks import load_benchmark

        res = fsm_low_power_flow(load_benchmark("traffic"),
                                 sequence_length=100, seed=0)
        names = [r.name for r in res.trace.records]
        assert names == ["minimize", "encode", "clock-gate",
                         "simulate", "measure"]
        assert all(r.outcome == ADOPTED for r in res.trace.records)


@pytest.fixture
def comb_blif(tmp_path):
    path = tmp_path / "rca.blif"
    path.write_text(write_blif(ripple_carry_adder(2)))
    return str(path)


@pytest.fixture
def seq_blif(tmp_path):
    net = Network("seq")
    net.add_input("a")
    net.add_latch("g", "q")
    net.add_gate("g", GateType.AND, ["a", "q"])
    net.set_output("g")
    path = tmp_path / "seq.blif"
    path.write_text(write_blif(net))
    return str(path)


class TestCli:
    def test_sequential_guard_on_all_comb_commands(self, seq_blif,
                                                   capsys):
        for cmd in (["optimize", seq_blif], ["balance", seq_blif],
                    ["map", seq_blif], ["glitch", seq_blif]):
            assert main(cmd) == 1
            assert "sequential" in capsys.readouterr().err

    def test_optimize_trace(self, comb_blif, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        out = tmp_path / "out.blif"
        assert main(["optimize", comb_blif, "--vectors", "128",
                     "--trace", str(trace), "-o", str(out)]) == 0
        capsys.readouterr()
        loaded = FlowTrace.load(str(trace))
        assert [r.name for r in loaded.records] == \
            ["dontcare", "extract", "map", "size"]
        assert out.exists()

    def test_flow_spec_roundtrip(self, comb_blif, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"name": "mini", "num_vectors": 64,
             "passes": ["extract", "map"]}))
        trace = tmp_path / "t.jsonl"
        assert main(["flow", comb_blif, "--spec", str(spec),
                     "--trace", str(trace)]) == 0
        assert "adopted=2" in capsys.readouterr().out
        assert FlowTrace.load(str(trace)).flow == "mini"

    def test_flow_spec_sequential_guard(self, seq_blif, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"passes": ["extract"]}))
        assert main(["flow", seq_blif, "--spec", str(spec)]) == 1

    def test_flow_bad_spec_exit_codes(self, comb_blif, tmp_path,
                                      capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["flow", comb_blif, "--spec", missing]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["flow", comb_blif, "--spec", str(bad)]) == 2
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"passes": ["nonexistent"]}))
        assert main(["flow", comb_blif, "--spec",
                     str(unknown)]) == 2
        assert "unknown pass" in capsys.readouterr().err

    @pytest.mark.parametrize("name, objective", [
        ("map", "speed"), ("map", 3), ("extract", "delay"),
        ("extract", None)])
    def test_objective_validated_when_built(self, name, objective):
        with pytest.raises(ValueError, match=f"'{name}': objective"):
            make_pass(name, {"objective": objective})

    @pytest.mark.parametrize("name, good, bad", [
        ("map", ("area", "power", "delay"), "speed"),
        ("extract", ("area", "power"), "delay")])
    def test_bad_objective_exits_2_before_measuring(
            self, comb_blif, tmp_path, capsys, monkeypatch, name, good,
            bad):
        import repro.core.passes as passes

        for objective in good:
            assert make_pass(name, {"objective": objective}).params == \
                {"objective": objective}
        simulated = []
        real = passes.activity_from_simulation
        monkeypatch.setattr(passes, "activity_from_simulation",
                            lambda *a: simulated.append(1) or real(*a))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"passes": [{"pass": name, "params": {"objective": bad}}]}))
        for strict in ([], ["--strict"]):
            assert main(["flow", comb_blif, "--spec", str(spec)] +
                        strict) == 2
            err = capsys.readouterr().err
            assert "bad flow spec" in err and "objective" in err
        assert simulated == []

    def test_strict_pass_failure_exits_1(self, comb_blif, tmp_path,
                                         capsys, monkeypatch):
        import repro.core.passes as passes

        def failing(net, ctx, params):
            raise ValueError("pass blew up")

        passes._ensure_adapters()
        monkeypatch.setitem(passes._REGISTRY, "map",
                            lambda params: Pass("map", failing, params))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"num_vectors": 64,
                                    "passes": ["map"]}))
        # A spec that builds, then a pass raising ValueError mid-flow:
        # a run failure (1), not bad input (2).
        assert main(["flow", comb_blif, "--spec", str(spec),
                     "--strict"]) == 1
        assert "pass blew up" in capsys.readouterr().err
        # Not strict: the failure is a rolled-back stage.
        assert main(["flow", comb_blif, "--spec", str(spec)]) == 0
        assert "rolled_back=1" in capsys.readouterr().out

    @pytest.mark.parametrize("spec, field", [
        ({"passes": ["map"], "num_vectors": 64,
          "check_equivalence": False}, "check_equivalence"),
        ({"passes": ["map"], "vectors": 64}, "vectors"),
        ({"passes": ["map"], "num_vectors": -5}, "num_vectors"),
        ({"passes": ["map"], "strict": "false"}, "strict"),
        ({"passes": ["map"], "strict_lint": "no"}, "strict_lint"),
        ({"passes": ["map"], "seed": 3.9}, "seed")])
    def test_flow_spec_field_errors_exit_2(self, comb_blif, tmp_path,
                                           capsys, spec, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["flow", comb_blif, "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad flow spec" in err and field in err

    @pytest.mark.parametrize("vectors", ["-5", "0", "many"])
    def test_bad_vectors_flag_exits_2(self, comb_blif, tmp_path, capsys,
                                      vectors):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"passes": ["map"]}))
        for cmd in (["flow", comb_blif, "--spec", str(spec)],
                    ["optimize", comb_blif], ["fsm", "traffic"]):
            with pytest.raises(SystemExit) as exc:
                main(cmd + ["--vectors", vectors])
            assert exc.value.code == 2
            assert "positive integer" in capsys.readouterr().err

    def test_balance_selective_and_cap(self, tmp_path, capsys):
        from repro.logic.generators import parity_tree

        path = tmp_path / "chain.blif"
        path.write_text(write_blif(parity_tree(10, balanced=False)))
        assert main(["balance", str(path), "--vectors", "64",
                     "--selective", "--max-buffers", "2"]) == 0
        out = capsys.readouterr().out
        buffers = int(out.splitlines()[0].split(":")[1])
        assert buffers <= 2
