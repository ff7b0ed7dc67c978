"""Unit tests for repro.core (flow driver and reporting)."""

import pytest

from repro.core.flow import low_power_flow, run_flow
from repro.core.passes import FlowSpec
from repro.core.report import format_table
from repro.logic.generators import random_logic, ripple_carry_adder
from repro.sim.functional import verify_equivalence


class TestReport:
    def test_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1.23456], ["bb", 2]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "1.235" in text or "1.2346" in text

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text


class TestFlow:
    def test_stages_recorded(self):
        res = low_power_flow(ripple_carry_adder(3), num_vectors=256)
        names = [s.name for s in res.stages]
        assert names[0] == "initial"
        assert "map" in names
        assert res.final is not None

    def test_final_equivalent_to_input(self):
        net = random_logic(6, 20, seed=3)
        res = low_power_flow(net, num_vectors=256)
        assert verify_equivalence(net, res.final, 512)

    def test_stage_selection_flags(self):
        res = low_power_flow(ripple_carry_adder(2), num_vectors=128,
                             use_mapping=False, use_sizing=False)
        assert [s.name for s in res.stages] == \
            ["initial", "dontcare", "extract"]
        empty = run_flow(ripple_carry_adder(2),
                         FlowSpec(passes=[], num_vectors=128))
        assert [s.name for s in empty.stages] == ["initial"]

    def test_summary_renders(self):
        res = low_power_flow(ripple_carry_adder(2), num_vectors=128)
        text = res.summary()
        assert "stage" in text and "initial" in text

    def test_dontcare_stage_never_hurts_estimate(self):
        """The simulation-gated don't-care pass must not regress the
        measured power between its own before/after snapshots."""
        net = random_logic(7, 25, seed=11)
        res = run_flow(net, FlowSpec(passes=[("dontcare", {})],
                                     num_vectors=512))
        by_name = {s.name: s for s in res.stages}
        if "dontcare" in by_name:
            assert by_name["dontcare"].report.total <= \
                by_name["initial"].report.total * 1.02
