"""Tests for the FSM flow driver, register binding, and timed power."""

import pytest

from repro.arch.allocation import (bind_registers, profile_values)
from repro.arch.dfg import fir_dfg
from repro.arch.scheduling import list_schedule
from repro.core.flow import fsm_low_power_flow
from repro.logic.generators import parity_tree
from repro.opt.logic.balance import balance_paths
from repro.opt.seq.stg import STG
from repro.power.glitch import timed_average_power
from repro.power.model import average_power


class TestTimedPower:
    def test_timed_at_least_zero_delay(self):
        net = parity_tree(8, balanced=False)
        p_zero = average_power(net, 128, seed=1).switching
        p_timed = timed_average_power(net, 128, seed=1).switching
        assert p_timed >= p_zero

    def test_balanced_tree_matches(self):
        net = parity_tree(8, balanced=True)
        p_zero = average_power(net, 128, seed=1).switching
        p_timed = timed_average_power(net, 128, seed=1).switching
        assert p_timed == pytest.approx(p_zero, rel=1e-6)

    def test_balancing_saves_net_power_on_glitchy_logic(self):
        net = parity_tree(10, balanced=False)
        before = timed_average_power(net, 128, seed=2).total
        balance_paths(net)
        after = timed_average_power(net, 128, seed=2).total
        assert after < before


class TestRegisterBinding:
    @pytest.fixture
    def scheduled(self):
        dfg = fir_dfg(8)
        sched = list_schedule(dfg, {"mul": 2, "add": 2})
        traces = profile_values(dfg, 48, seed=3)
        return dfg, sched, traces

    def test_no_lifetime_overlap_in_register(self, scheduled):
        dfg, sched, traces = scheduled
        from repro.arch.allocation import _lifetimes

        res = bind_registers(dfg, sched, "naive", traces)
        lifetimes = _lifetimes(dfg, sched)
        for reg, names in res.register_sequences().items():
            names.sort(key=lambda n: lifetimes[n][0])
            for a, b in zip(names, names[1:]):
                assert lifetimes[a][1] <= lifetimes[b][0], (a, b)

    def test_minimum_register_count(self, scheduled):
        dfg, sched, traces = scheduled
        naive = bind_registers(dfg, sched, "naive", traces)
        lp = bind_registers(dfg, sched, "low-power", traces)
        # Left-edge is optimal in register count for both strategies.
        assert lp.num_registers == naive.num_registers

    def test_low_power_no_worse_switching(self, scheduled):
        dfg, sched, traces = scheduled
        naive = bind_registers(dfg, sched, "naive", traces)
        lp = bind_registers(dfg, sched, "low-power", traces)
        assert lp.switching <= naive.switching + 1e-9

    def test_bad_strategy(self, scheduled):
        dfg, sched, traces = scheduled
        with pytest.raises(ValueError):
            bind_registers(dfg, sched, "random", traces)


class TestFsmFlow:
    def make_stg(self):
        """Duplicated idle-heavy ring: minimization + gating both
        matter."""
        stg = STG(2, 1)
        for c in range(2):
            for i in range(4):
                s = f"c{c}_{i}"
                nxt = f"c{c}_{(i + 1) % 4}"
                out = "1" if i == 3 else "0"
                stg.add_transition("11", s, nxt, out)
                stg.add_transition("0-", s, s, out)
                stg.add_transition("10", s, s, out)
        return stg

    def test_flow_minimizes_and_saves(self):
        stg = self.make_stg()
        res = fsm_low_power_flow(stg, sequence_length=800, seed=1)
        assert res.states_before == 8
        assert res.states_after == 4
        assert 0.0 <= res.activation_probability <= 1.0
        assert res.power_after < res.power_before
        assert res.saving > 0.05

    def test_gated_machine_matches_reference_outputs(self):
        import random

        from repro.sim.functional import sequential_transitions

        stg = self.make_stg()
        res = fsm_low_power_flow(stg, sequence_length=400, seed=2)
        rng = random.Random(5)
        vecs = [{"x0": rng.getrandbits(1), "x1": rng.getrandbits(1)}
                for _ in range(300)]
        _, tb = sequential_transitions(res.baseline, vecs)
        _, tg = sequential_transitions(res.network, vecs)
        assert [t["z0"] for t in tb] == [t["z0"] for t in tg]
