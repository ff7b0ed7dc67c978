"""Tests for the static-analysis subsystem (repro.analysis).

Covers: defect injection (each defect class fires exactly its rule at
the expected site), the self-audit (every generator circuit and the
default flow's output lint clean), the emitters (text/JSON/SARIF), the
``lint`` CLI, and the ``--strict-lint`` flow integration.
"""

import json

import pytest

from repro.analysis import (ERROR, INFO, WARNING, LintConfig, Linter,
                            all_rules, check_invariants, lint_network,
                            select_rules)
from repro.analysis.graph import (cycle_path, nontrivial_sccs,
                                  tarjan_scc)
from repro.analysis.diagnostics import sort_diagnostics
from repro.analysis.hazards import hazard_variables
from repro.analysis.linter import RuleContext
from repro.core.flow import low_power_flow, run_flow
from repro.core.passes import (FlowError, FlowSpec, Pass, PassContext,
                               run_network_passes)
from repro.logic import generators as G
from repro.logic.blif import write_blif
from repro.logic.cube import Cube
from repro.logic.gates import GateType
from repro.logic.netlist import Network, Node
from repro.logic.sop import Cover
from repro.tools.cli import main as cli_main

ALL_GENERATORS = [
    ("rca", lambda: G.ripple_carry_adder(4)),
    ("cmp", lambda: G.comparator(4)),
    ("eq", lambda: G.equality_checker(4)),
    ("parity", lambda: G.parity_tree(8)),
    ("mult", lambda: G.array_multiplier(3)),
    ("cla", lambda: G.carry_lookahead_adder(8)),
    ("csel", lambda: G.carry_select_adder(8)),
    ("wallace", lambda: G.wallace_multiplier(3)),
    ("muxtree", lambda: G.mux_tree(3)),
    ("dec", lambda: G.decoder(3)),
    ("alu", lambda: G.alu_slice(4)),
    ("random", lambda: G.random_logic(6, 20, seed=3)),
    ("regfile", lambda: G.register_file(2, 2)),
    ("counter", lambda: G.counter(4)),
]


def rules_fired(report, rule_id):
    return [d for d in report.diagnostics if d.rule == rule_id]


def small_comb():
    net = Network("comb")
    a, b = net.add_input("a"), net.add_input("b")
    net.add_gate("g", GateType.AND, [a, b])
    net.add_gate("h", GateType.NOT, ["g"])
    net.set_output("h")
    return net


# -- graph helpers -------------------------------------------------------

class TestGraph:
    def test_tarjan_partitions(self):
        adj = {"a": ["b"], "b": ["c"], "c": ["a"], "d": ["a"]}
        comps = tarjan_scc(adj)
        assert sorted(map(sorted, comps)) == [["a", "b", "c"], ["d"]]

    def test_nontrivial_needs_cycle(self):
        assert nontrivial_sccs({"a": ["b"], "b": []}) == []
        assert nontrivial_sccs({"a": ["a"]}) == [["a"]]

    def test_cycle_path_closed(self):
        path = cycle_path({"a": ["b"], "b": ["a"], "c": []})
        assert path is not None
        assert path[0] == path[-1]
        assert set(path) == {"a", "b"}
        assert cycle_path({"a": [], "b": ["a"]}) is None


# -- defect injection: structural rules ----------------------------------

class TestStructuralRules:
    def test_clean_network_is_clean(self):
        report = lint_network(small_comb())
        assert not report.has_errors

    def test_cycle_fires_with_path(self):
        net = small_comb()
        net.set_fanins("g", ["a", "h"])   # g <-> h
        report = lint_network(net)
        diags = rules_fired(report, "combinational-cycle")
        assert len(diags) == 1
        d = diags[0]
        assert d.severity == ERROR
        assert set(d.detail["cycle"]) == {"g", "h"}
        assert d.detail["cycle"][0] == d.detail["cycle"][-1]
        # DAG-only rules must be skipped, not crash.
        skipped = [r for r, _ in report.skipped_rules]
        assert "static-hazard" in skipped

    def test_undriven_fires_at_missing_net(self):
        net = small_comb()
        net.set_fanins("g", ["a", "ghost"])
        report = lint_network(net)
        diags = rules_fired(report, "undriven-net")
        assert [d.site for d in diags] == ["ghost"]
        assert diags[0].detail == {"reader": "g", "role": "fanin"}

    def test_undriven_output(self):
        net = small_comb()
        net.set_output("nowhere")
        report = lint_network(net)
        sites = [d.site for d in rules_fired(report, "undriven-net")]
        assert sites == ["nowhere"]

    def test_dangling_node(self):
        net = small_comb()
        net.add_gate("dead", GateType.OR, ["a", "b"])
        report = lint_network(net)
        diags = rules_fired(report, "dangling-node")
        assert [d.site for d in diags] == ["dead"]
        assert diags[0].severity == WARNING

    def test_unreachable_cone(self):
        net = small_comb()
        net.add_gate("c1", GateType.OR, ["a", "b"])
        net.add_gate("c2", GateType.NOT, ["c1"])   # c1 has fanout
        report = lint_network(net)
        assert [d.site for d in
                rules_fired(report, "unreachable-cone")] == ["c1"]
        assert [d.site for d in
                rules_fired(report, "dangling-node")] == ["c2"]

    def test_unused_input(self):
        net = small_comb()
        net.add_input("idle")
        diags = rules_fired(lint_network(net), "unused-input")
        assert [d.site for d in diags] == ["idle"]
        assert diags[0].severity == INFO

    def test_duplicate_latch(self):
        net = Network("seq")
        net.add_input("d")
        net.add_latch("d", "q")
        net.latches.append(type(net.latches[0])(data="d", output="q"))
        net.set_output("q")
        diags = rules_fired(lint_network(net), "duplicate-latch")
        assert [d.site for d in diags] == ["q"]
        assert diags[0].detail == {"count": 2}

    def test_shadowed_latch_output(self):
        net = Network("seq")
        net.add_input("d")
        net.add_latch("d", "q")
        net.set_output("q")
        # A later edit replaces the latch node with a gate of the
        # same name: the latch record now points at non-latch logic.
        net.set_node(net.nodes["q"].__class__(
            "q", "gate", gtype=GateType.BUF, fanins=["d"]))
        diags = rules_fired(lint_network(net), "duplicate-latch")
        assert len(diags) == 1 and "shadowed" in diags[0].message

    def test_latch_node_without_record(self):
        net = Network("seq")
        net.add_input("d")
        net.add_latch("d", "q")
        net.set_output("q")
        net.latches.clear()
        diags = rules_fired(lint_network(net), "duplicate-latch")
        assert [d.site for d in diags] == ["q"]

    def test_invalid_cover_arity(self):
        net = small_comb()
        net.add_sop("s", ["a", "b"],
                    Cover(2, [Cube.from_string("11")]))
        net.set_output("s")
        net.set_fanins("s", ["a"])
        diags = rules_fired(lint_network(net), "invalid-cover")
        assert [d.site for d in diags] == ["s"]
        assert "arity" in diags[0].message

    def test_contradictory_cube(self):
        net = small_comb()
        net.add_sop("s", ["a"], Cover(1, [Cube.from_string("1")]))
        net.set_output("s")
        # polarity bit outside the care mask; the constructor
        # normalises value & mask, so corrupt the cube in place
        net.nodes["s"].cover.cubes[0].mask = 0
        diags = rules_fired(lint_network(net), "invalid-cover")
        assert len(diags) == 1 and diags[0].severity == ERROR

    def test_malformed_delay(self):
        net = small_comb()
        net.nodes["g"].attrs["delay"] = -2.0
        net.nodes["h"].attrs["delay"] = float("nan")
        diags = rules_fired(lint_network(net), "malformed-delay")
        assert [d.site for d in diags] == ["g", "h"]
        net.nodes["g"].attrs["delay"] = True   # bool is not a delay
        diags = rules_fired(lint_network(net), "malformed-delay")
        assert any("type bool" in d.message for d in diags)

    def test_duplicate_output(self):
        net = small_comb()
        net.outputs.append("h")
        diags = rules_fired(lint_network(net), "duplicate-output")
        assert [d.site for d in diags] == ["h"]


# -- defect injection: power rules ---------------------------------------

def mux_node_net():
    """f = s'a + sb — the classical static-1 hazard on ``s``."""
    net = Network("mux")
    for n in ("s", "a", "b"):
        net.add_input(n)
    net.add_sop("f", ["s", "a", "b"],
                Cover(3, [Cube.from_string("01-"),
                          Cube.from_string("1-1")]))
    net.set_output("f")
    return net


class TestPowerRules:
    def test_hazard_variables_mux(self):
        cover = Cover(3, [Cube.from_string("01-"),
                          Cube.from_string("1-1")])
        assert hazard_variables(cover) == [0]

    def test_hazard_variables_unate_and_xor_clean(self):
        unate = Cover(2, [Cube.from_string("11")])
        xor = Cover(2, [Cube.from_string("10"),
                        Cube.from_string("01")])
        assert hazard_variables(unate) == []
        assert hazard_variables(xor) == []

    def test_hazard_width_cap(self):
        cover = Cover(3, [Cube.from_string("01-"),
                          Cube.from_string("1-1")])
        assert hazard_variables(cover, max_vars=2) is None

    def test_static_hazard_fires_on_mux(self):
        report = lint_network(mux_node_net())
        diags = rules_fired(report, "static-hazard")
        assert [d.site for d in diags] == ["f"]
        assert diags[0].detail["fanin_nets"] == ["s"]
        assert not report.has_errors   # warning, not error

    def test_static_hazard_silent_on_unate(self):
        report = lint_network(small_comb())
        assert rules_fired(report, "static-hazard") == []

    def test_reconvergent_fanout(self):
        net = Network("reconv")
        a = net.add_input("a")
        net.add_gate("p", GateType.NOT, [a])
        net.add_gate("q", GateType.BUF, [a])
        net.add_gate("m", GateType.AND, ["p", "q"])
        net.set_output("m")
        diags = rules_fired(lint_network(net), "reconvergent-fanout")
        assert [d.site for d in diags] == ["a"]
        assert diags[0].detail["merge"] == "m"

    def test_fanout_without_reconvergence_is_silent(self):
        net = Network("tree")
        a = net.add_input("a")
        net.add_gate("p", GateType.NOT, [a])
        net.add_gate("q", GateType.BUF, [a])
        net.set_outputs(["p", "q"])
        assert rules_fired(lint_network(net),
                           "reconvergent-fanout") == []

    def test_hot_net_ranking(self):
        report = lint_network(G.ripple_carry_adder(4),
                              config=LintConfig(hot_net_top=3))
        diags = rules_fired(report, "hot-net")
        assert len(diags) == 3
        ranked = sorted(diags, key=lambda d: d.detail["rank"])
        scores = [d.detail["score"] for d in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_gating_hazard_fires(self):
        net = mux_node_net()
        net.add_input("d")
        net.add_latch("d", "r", enable="f")
        net.set_output("r")
        report = lint_network(net)
        diags = rules_fired(report, "gating-hazard")
        assert len(diags) == 1
        d = diags[0]
        assert d.severity == ERROR and d.site == "f"
        assert d.detail == {"latch": "r", "hazard_nodes": ["f"]}
        assert report.has_errors

    def test_gating_clean_enable_passes(self):
        net = Network("gated")
        for n in ("d", "e1", "e2"):
            net.add_input(n)
        net.add_gate("en", GateType.AND, ["e1", "e2"])   # unate: safe
        net.add_latch("d", "r", enable="en")
        net.set_output("r")
        assert rules_fired(lint_network(net), "gating-hazard") == []


# -- self-audit ----------------------------------------------------------

class TestSelfAudit:
    @pytest.mark.parametrize("name,build", ALL_GENERATORS,
                             ids=[n for n, _ in ALL_GENERATORS])
    def test_generators_lint_clean(self, name, build):
        report = lint_network(build())
        assert report.errors == []
        assert report.skipped_rules == []

    def test_flow_output_lints_clean(self):
        res = low_power_flow(G.ripple_carry_adder(3), num_vectors=256)
        report = lint_network(res.final)
        assert report.errors == []

    def test_post_sweep_network_has_no_dangling(self):
        net = small_comb()
        net.add_gate("dead", GateType.OR, ["a", "b"])
        net.sweep()
        report = lint_network(net)
        assert rules_fired(report, "dangling-node") == []
        assert report.errors == []

    def test_replace_everywhere_keeps_outputs_clean(self):
        net = small_comb()
        net.add_gate("h2", GateType.NOT, ["g"])
        net.set_output("h2")
        net.replace_everywhere("h2", "h")
        report = lint_network(net)
        assert rules_fired(report, "duplicate-output") == []
        assert net.outputs == ["h"]


# -- registry / driver ---------------------------------------------------

def injected_defects():
    """(name, network) pairs: a clean network and one per defect class
    above, plus the combinations that trip several gate facts."""
    out = [("clean", small_comb())]

    def edit(name, change):
        net = small_comb()
        change(net)
        out.append((name, net))

    edit("cycle", lambda n: n.set_fanins("g", ["a", "h"]))
    edit("undriven", lambda n: n.set_fanins("g", ["a", "ghost"]))
    edit("undriven-output", lambda n: n.set_output("nowhere"))
    edit("cycle+undriven", lambda n: n.set_fanins("g", ["ghost", "h"]))
    edit("dangling", lambda n: n.add_gate("dead", GateType.OR,
                                          ["a", "b"]))
    edit("unused-input", lambda n: n.add_input("idle"))
    edit("bad-delay", lambda n: n.nodes["g"].attrs.update(delay=-2.0))
    edit("duplicate-output", lambda n: n.outputs.append("h"))

    def bad_cover(kind):
        def change(net):
            net.add_sop("s", ["a", "b"],
                        Cover(2, [Cube.from_string("11")]))
            net.set_output("s")
            if kind == "arity":
                net.set_fanins("s", ["a"])
            elif kind == "cube":
                net.nodes["s"].cover.cubes[0].mask = 0b01
            elif kind == "cube-arity":
                net.nodes["s"].cover.cubes.append(Cube.from_string("1"))
            else:
                net.set_node(Node("s", "sop", fanins=["a", "b"],
                                  cover=None if kind == "none"
                                  else Cover(2, [])))
        return change

    for kind in ("arity", "cube", "cube-arity", "none", "empty"):
        edit(f"cover-{kind}", bad_cover(kind))
    edit("cover+cycle", lambda n: (bad_cover("arity")(n),
                                   n.set_fanins("g", ["a", "h"])))

    latched = Network("seq")
    latched.add_input("d")
    latched.add_latch("d", "q", enable="ghost_en")
    latched.set_output("q")
    out.append(("undriven-enable", latched))
    out.append(("counter", G.counter(3)))
    return out


def reference_lint(net, rules):
    """The linter with its gate facts found by scans of their own
    rather than from the gate rules' errors: every reference defined,
    no non-trivial SCC among the defined nodes, every cover of its
    fanins' arity with well-formed cubes."""
    ctx = RuleContext(net, LintConfig())
    refs = [fi for node in net.nodes.values() for fi in node.fanins]
    refs += [latch.data for latch in net.latches]
    refs += [latch.enable for latch in net.latches
             if latch.enable is not None]
    refs += list(net.outputs)
    complete = all(ref in net.nodes for ref in refs)
    acyclic = complete and not nontrivial_sccs(ctx.adjacency())
    covers_ok = all(
        node.cover is not None and
        node.cover.num_vars == len(node.fanins) and
        all(c.num_vars == node.cover.num_vars and not c.value & ~c.mask
            for c in node.cover.cubes)
        for node in net.nodes.values() if node.kind == "sop")
    skipped, diags = [], []
    for r in rules:
        if r.needs_complete and not complete:
            skipped.append((r.id, "network has undriven references"))
        elif r.needs_dag and not acyclic:
            skipped.append((r.id, "network is cyclic or incomplete"))
        elif r.needs_covers and not covers_ok:
            skipped.append((r.id, "network has malformed covers"))
        else:
            diags.extend(r.check(ctx))
    return skipped, [d.to_json() for d in sort_diagnostics(diags)]


class TestDriver:
    def test_catalog_is_stable(self):
        ids = [r.id for r in all_rules()]
        assert ids == sorted(ids)
        assert {"combinational-cycle", "undriven-net",
                "static-hazard", "reconvergent-fanout", "hot-net",
                "gating-hazard"} <= set(ids)

    def test_select_rules(self):
        picked = select_rules("hot-net, undriven-net")
        assert [r.id for r in picked] == ["hot-net", "undriven-net"]
        with pytest.raises(ValueError, match="unknown rule"):
            select_rules("no-such-rule")

    def test_rule_subset_runs_alone(self):
        report = lint_network(mux_node_net(),
                              rules=select_rules("hot-net"))
        assert {d.rule for d in report.diagnostics} <= {"hot-net"}

    @pytest.mark.parametrize("name, net", injected_defects(),
                             ids=[n for n, _ in injected_defects()])
    def test_gate_facts_match_reference_scans(self, name, net):
        # Gate facts taken from the gate rules' errors skip the same
        # rules and report the same findings, to the detail, as facts
        # from separate scans: for the catalog, the invariant subset,
        # and each rule alone.
        catalog = all_rules()
        selections = [catalog, [r for r in catalog if r.invariant]] + \
            [[r] for r in catalog]
        for rules in selections:
            report = lint_network(net, rules)
            assert (report.skipped_rules,
                    [d.to_json() for d in report.diagnostics]) == \
                reference_lint(net, rules), [r.id for r in rules]

    def test_injected_defects_trip_each_gate(self):
        skipping = {name for name, net in injected_defects()
                    if lint_network(net).skipped_rules}
        assert skipping == {
            "cycle", "undriven", "undriven-output", "cycle+undriven",
            "cover-arity", "cover-cube", "cover-cube-arity",
            "cover-none", "cover+cycle", "undriven-enable"}

    def test_check_invariants_fast_path(self):
        assert check_invariants(small_comb()) == []
        net = small_comb()
        net.set_fanins("g", ["a", "ghost"])
        errors = check_invariants(net)
        assert errors and all(d.severity == ERROR for d in errors)

    def test_severity_filter_and_counts(self):
        net = mux_node_net()
        report = lint_network(net)
        assert report.at_least(ERROR) == []
        warnings = report.at_least(WARNING)
        assert all(d.severity in (ERROR, WARNING) for d in warnings)
        counts = report.counts()
        assert counts["static-hazard"] == 1


# -- emitters ------------------------------------------------------------

class TestEmitters:
    def test_json_roundtrip(self):
        obj = json.loads(lint_network(mux_node_net()).to_json())
        assert obj["network"] == "mux"
        assert obj["counts"]["static-hazard"] == 1
        rules = {d["rule"] for d in obj["diagnostics"]}
        assert "static-hazard" in rules

    def test_sarif_shape(self):
        sarif = json.loads(lint_network(mux_node_net()).to_sarif())
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        results = run["results"]
        assert results, "expected at least one SARIF result"
        by_rule = {r["ruleId"] for r in results}
        assert "static-hazard" in by_rule
        driver_rules = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for res in results:
            assert driver_rules[res["ruleIndex"]] == res["ruleId"]
            loc = res["locations"][0]["logicalLocations"][0]
            assert loc["fullyQualifiedName"].startswith("mux::")
        hazard = next(r for r in results
                      if r["ruleId"] == "static-hazard")
        assert hazard["level"] == "warning"

    def test_text_summary_line(self):
        text = lint_network(mux_node_net()).to_text()
        assert "mux: 0 error(s), 1 warning(s)" in text


# -- CLI -----------------------------------------------------------------

BROKEN_BLIF = """\
.model broken
.inputs a
.outputs f
.names a ghost f
11 1
.end
"""


class TestCli:
    def _write(self, tmp_path, net):
        path = tmp_path / f"{net.name}.blif"
        path.write_text(write_blif(net))
        return str(path)

    def test_lint_clean_exit_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, G.ripple_carry_adder(3))
        assert cli_main(["lint", path]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.blif"
        path.write_text(BROKEN_BLIF)
        assert cli_main(["lint", str(path)]) == 1
        assert "undriven-net" in capsys.readouterr().out

    def test_lint_rules_and_severity(self, tmp_path, capsys):
        path = self._write(tmp_path, G.mux_tree(2))
        assert cli_main(["lint", path, "--rules", "static-hazard",
                         "--severity", "warning"]) == 0
        out = capsys.readouterr().out
        assert "static-hazard" in out and "hot-net" not in out

    def test_lint_unknown_rule_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path, G.ripple_carry_adder(2))
        assert cli_main(["lint", path, "--rules", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_lint_missing_file_exit_two(self, capsys):
        assert cli_main(["lint", "/no/such/file.blif"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_lint_json_format(self, tmp_path, capsys):
        path = self._write(tmp_path, G.mux_tree(2))
        assert cli_main(["lint", path, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["network"] == "muxtree"

    def test_lint_sarif_format(self, tmp_path, capsys):
        path = self._write(tmp_path, G.mux_tree(2))
        assert cli_main(["lint", path, "--format", "sarif"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_optimize_strict_lint_flag(self, tmp_path, capsys):
        path = self._write(tmp_path, G.ripple_carry_adder(2))
        assert cli_main(["optimize", path, "--vectors", "256",
                         "--strict-lint"]) == 0


# -- flow integration ----------------------------------------------------

def _break_invariant(net, ctx, params):
    """A 'pass' that silently corrupts the network."""
    for node in net.nodes.values():
        if not node.is_source():
            node.attrs["delay"] = -1.0
            break


class TestFlowIntegration:
    def test_lint_break_rolls_back(self):
        net = small_comb()
        ctx = PassContext(original=net, num_vectors=256, lint=True)
        bad = Pass(name="corruptor", apply=_break_invariant)
        final, trace, _ = run_network_passes(net, [bad], ctx)
        rec = trace.records[0]
        assert rec.outcome == "rolled_back" and rec.reason == "lint"
        assert rec.lint_errors == 1
        assert rec.lint[0]["rule"] == "malformed-delay"
        # the corruption died with the trial copy
        assert "delay" not in final.nodes["g"].attrs

    def test_lint_break_strict_raises(self):
        net = small_comb()
        ctx = PassContext(original=net, num_vectors=256, lint=True)
        bad = Pass(name="corruptor", apply=_break_invariant)
        with pytest.raises(FlowError, match="invariant"):
            run_network_passes(net, [bad], ctx, strict=True)

    def test_broken_input_rejected_up_front(self):
        net = small_comb()
        net.set_fanins("g", ["a", "ghost"])
        ctx = PassContext(original=net, num_vectors=256, lint=True)
        with pytest.raises(FlowError, match="input network"):
            run_network_passes(net, [], ctx)

    def test_strict_lint_flow_clean_and_traced(self):
        net = G.ripple_carry_adder(3)
        res = low_power_flow(net, num_vectors=256, strict_lint=True)
        assert res.trace.outcomes() == {"adopted": 4}
        for rec in res.trace.records:
            assert rec.lint_errors == 0
        # the JSONL trace carries the lint evidence
        lines = res.trace.to_jsonl().splitlines()
        passes = [json.loads(ln) for ln in lines[1:]]
        assert all(p["lint_errors"] == 0 for p in passes)

    def test_strict_lint_matches_plain_flow(self):
        net = G.ripple_carry_adder(3)
        plain = low_power_flow(net, num_vectors=256)
        linted = low_power_flow(net, num_vectors=256,
                                strict_lint=True)
        assert [s.report.total for s in plain.stages] == \
            [s.report.total for s in linted.stages]

    def test_flow_spec_strict_lint_roundtrip(self):
        spec = FlowSpec.from_dict({"passes": ["extract"],
                                   "strict_lint": True})
        assert spec.strict_lint
        assert FlowSpec.from_dict(spec.to_dict()).strict_lint
        res = run_flow(small_comb(), spec)
        assert res.trace.records[0].lint_errors == 0
