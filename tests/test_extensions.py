"""Tests for the extension features: combinational precomputation,
loop tiling, algorithm-choice software programs."""

import pytest

from repro.arch.memory import (MemoryHierarchy, loop_access_trace,
                               memory_energy, tiled_access_trace)
from repro.logic.generators import comparator, equality_checker
from repro.opt.seq.precompute import combinational_precompute
from repro.power.activity import activity_from_simulation
from repro.power.model import power_report
from repro.sim.functional import verify_equivalence
from repro.sw.cpu import CPU, big_cpu_profile
from repro.sw.programs import binary_search, linear_search


class TestCombinationalPrecompute:
    def test_equivalence(self):
        net = comparator(6)
        pre = combinational_precompute(net, ["c5", "d5"])
        assert verify_equivalence(pre.baseline, pre.network, 512)

    def test_disable_probability(self):
        pre = combinational_precompute(comparator(6), ["c5", "d5"])
        assert pre.disable_probability == pytest.approx(0.5)

    def test_saves_power_with_sticky_predictor(self):
        probs = {"c7": 0.95, "d7": 0.05}
        pre = combinational_precompute(comparator(8), ["c7", "d7"],
                                       input_probs=probs)
        assert pre.disable_probability > 0.85
        a0, _ = activity_from_simulation(pre.baseline, 2048, seed=2,
                                         input_probs=probs)
        a1, _ = activity_from_simulation(pre.network, 2048, seed=2,
                                         input_probs=probs)
        p0 = power_report(pre.baseline, a0).total
        p1 = power_report(pre.network, a1).total
        assert p1 < 0.7 * p0

    def test_multi_output_rejected(self):
        from repro.logic.generators import ripple_carry_adder

        with pytest.raises(ValueError):
            combinational_precompute(ripple_carry_adder(3), ["cin"])

    def test_equality_checker(self):
        """eq(a, b) precomputed on one bit pair: disabled when they
        differ (eq must be 0)."""
        net = equality_checker(5)
        pre = combinational_precompute(net, ["a0", "b0"])
        assert pre.disable_probability == pytest.approx(0.5)
        assert verify_equivalence(pre.baseline, pre.network, 512)


class TestLoopTiling:
    def test_trace_is_permutation_of_flat(self):
        flat = sorted(loop_access_trace((8, 8), (0, 1)))
        tiled = sorted(tiled_access_trace((8, 8), (4, 4)))
        assert flat == tiled

    def test_tile_rank_checked(self):
        with pytest.raises(ValueError):
            tiled_access_trace((8, 8), (4,))

    def test_tiling_restores_locality(self):
        """Column-major order thrashes; tiling confines the working set
        to the (associative) buffer."""
        h = MemoryHierarchy(buffer_words=64)
        bad = loop_access_trace((64, 64), (1, 0))
        tiled = tiled_access_trace((64, 64), (8, 8), (1, 0))
        _, _, m_bad = memory_energy(bad, h, associative=True)
        _, _, m_tiled = memory_energy(tiled, h, associative=True)
        assert m_tiled < m_bad / 2

    def test_associative_never_worse_on_unit_stride(self):
        h = MemoryHierarchy(buffer_words=32)
        trace = loop_access_trace((16, 16), (0, 1))
        _, _, m_dm = memory_energy(trace, h, associative=False)
        _, _, m_fa = memory_energy(trace, h, associative=True)
        assert m_fa <= m_dm

    def test_ragged_tiles(self):
        trace = tiled_access_trace((6, 6), (4, 4))
        assert sorted(trace) == list(range(36))


class TestAlgorithmChoice:
    @pytest.mark.parametrize("n,target", [(32, 20), (32, 0), (32, 31),
                                          (64, 33)])
    def test_both_find_the_key(self, n, target):
        cpu = CPU(big_cpu_profile())
        for maker in (linear_search, binary_search):
            prog, mem, expected = maker(n, target)
            res = cpu.run(prog, memory=dict(mem))
            assert res.memory.get(500) == expected

    def test_binary_lower_energy_at_scale(self):
        """[49]: algorithm choice moves energy; O(log n) wins except on
        lucky early hits."""
        cpu = CPU(big_cpu_profile())
        lp, lm, _ = linear_search(64, 50)
        bp, bm, _ = binary_search(64, 50)
        rl = cpu.run(lp, memory=dict(lm))
        rb = cpu.run(bp, memory=dict(bm))
        assert rb.cycles < rl.cycles
        assert rb.energy < rl.energy

    def test_scaling_gap_widens(self):
        cpu = CPU(big_cpu_profile())
        gaps = []
        for n in (16, 64):
            lp, lm, _ = linear_search(n, n - 2)
            bp, bm, _ = binary_search(n, n - 2)
            rl = cpu.run(lp, memory=dict(lm))
            rb = cpu.run(bp, memory=dict(bm))
            gaps.append(rl.energy / rb.energy)
        assert gaps[1] > gaps[0]
