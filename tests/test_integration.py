"""Cross-module integration tests: full flows across several
subsystems, checked end-to-end."""

import random

from repro.core.flow import low_power_flow
from repro.library.cells import generic_library
from repro.logic.blif import read_blif, write_blif
from repro.logic.generators import (array_multiplier, comparator,
                                    random_logic, ripple_carry_adder)
from repro.opt.logic.balance import balance_paths
from repro.opt.logic.mapping import tech_map
from repro.opt.seq.encoding import encode_anneal, encode_natural
from repro.opt.seq.gated_clock import self_loop_clock_gating
from repro.opt.seq.precompute import precomputed_comparator
from repro.opt.seq.stg import STG
from repro.power.activity import (activity_from_simulation,
                                  sequential_activity,
                                  signal_probability_exact,
                                  signal_probability_propagation)
from repro.power.glitch import glitch_report
from repro.power.model import average_power, power_report
from repro.sim.functional import (sequential_transitions,
                                  verify_equivalence)


class TestBlifThroughFlow:
    def test_blif_netlist_optimized(self):
        """BLIF in -> flow -> equivalent, measurable netlist out."""
        net = random_logic(7, 24, seed=21)
        text = write_blif(net)
        parsed = read_blif(text)
        res = low_power_flow(parsed, num_vectors=256)
        assert verify_equivalence(net, res.final, 512)
        assert res.stages[-1].report.total > 0


class TestMapThenGlitch:
    def test_mapped_multiplier_still_glitches(self):
        """Technology mapping preserves the multiplier's glitchy
        structure; balancing then removes most of it."""
        net = array_multiplier(3)
        mapped = tech_map(net, generic_library(), "area").mapped
        g0 = glitch_report(mapped, 96, seed=2)
        assert g0.glitch_power_fraction > 0.02
        balance_paths(mapped)
        g1 = glitch_report(mapped, 96, seed=2)
        assert g1.glitch_power_fraction < g0.glitch_power_fraction

    def test_balance_then_map_equivalent(self):
        net = array_multiplier(3)
        ref = net.copy()
        balance_paths(net)
        mapped = tech_map(net, generic_library(), "power").mapped
        assert verify_equivalence(ref, mapped, 256)


class TestEstimatorAgreement:
    def test_three_estimators_rank_alike(self):
        """Propagation, exact-BDD and simulation should broadly agree
        on which circuit dissipates more."""
        small = ripple_carry_adder(3)
        big = array_multiplier(3)

        def cost(net):
            p = signal_probability_propagation(net)
            act_prop = sum(2 * v * (1 - v) for v in p.values())
            e = signal_probability_exact(net)
            act_exact = sum(2 * v * (1 - v) for v in e.values())
            a, _ = activity_from_simulation(net, 512, seed=1)
            act_sim = sum(a.values())
            return act_prop, act_exact, act_sim

        s, b = cost(small), cost(big)
        for i in range(3):
            assert b[i] > s[i]

    def test_propagation_vs_exact_error_bounded(self):
        net = comparator(5)
        p = signal_probability_propagation(net)
        e = signal_probability_exact(net)
        errors = [abs(p[n] - e[n]) for n in p]
        assert max(errors) < 0.35
        assert sum(errors) / len(errors) < 0.08


class TestSequentialEndToEnd:
    def make_stg(self):
        stg = STG(1, 1)
        for i in range(8):
            s, nxt = f"s{i}", f"s{(i + 1) % 8}"
            out = "1" if i >= 6 else "0"
            stg.add_transition("0", s, s, out)
            stg.add_transition("1", s, nxt, out)
        return stg

    def test_encode_then_gate_clock(self):
        """Encoding and clock gating compose: the gated, re-encoded
        machine matches the naturally-encoded baseline cycle by cycle
        and uses less total power."""
        stg = self.make_stg()
        nat = encode_natural(stg)
        ann = encode_anneal(stg, iterations=2000, seed=3)
        gated = self_loop_clock_gating(stg, ann)
        baseline = self_loop_clock_gating(stg, nat).baseline

        rng = random.Random(9)
        vecs = [{"x0": rng.getrandbits(1)} for _ in range(600)]
        _, tb = sequential_transitions(baseline, vecs)
        _, tg = sequential_transitions(gated.network, vecs)
        assert [t["z0"] for t in tb] == [t["z0"] for t in tg]

        pb = power_report(baseline,
                          sequential_activity(baseline, vecs)).total
        pg = power_report(gated.network,
                          sequential_activity(gated.network,
                                              vecs)).total
        # Combined encoding + gating should not cost power overall.
        assert pg < pb * 1.1

    def test_precompute_scales_with_width(self):
        """Wider comparators save more: the disabled cone grows."""
        savings = []
        for n in (4, 8):
            pre = precomputed_comparator(n)
            rng = random.Random(n)
            vecs = []
            for _ in range(300):
                c, d = rng.getrandbits(n), rng.getrandbits(n)
                v = {f"c{i}": (c >> i) & 1 for i in range(n)}
                v.update({f"d{i}": (d >> i) & 1 for i in range(n)})
                vecs.append(v)
            pb = power_report(
                pre.baseline,
                sequential_activity(pre.baseline, vecs)).total
            pg = power_report(
                pre.network,
                sequential_activity(pre.network, vecs)).total
            savings.append(1 - pg / pb)
        assert savings[1] > savings[0]


class TestPowerBreakdownShape:
    def test_eqn1_shape_across_circuits(self):
        """Claim C1 holds across circuit families."""
        for net in (ripple_carry_adder(6), comparator(6),
                    array_multiplier(3)):
            rep = average_power(net, 512, seed=4)
            assert rep.switching_fraction > 0.80
            assert rep.leakage < 0.05 * rep.total
