"""Unit tests for circuit-level optimizations (reorder, sizing)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.gates import GateType
from repro.logic.generators import (array_multiplier, random_logic,
                                    ripple_carry_adder)
from repro.logic.netlist import Network
from repro.opt.circuit import sizing
from repro.opt.circuit.reorder import greedy_order, optimize_stack_order
from repro.opt.circuit.sizing import (DRIVE_PER_LOAD, INTRINSIC_DELAY,
                                      SizingResult, _Walk,
                                      critical_path_delay,
                                      size_for_power, slacks,
                                      switched_capacitance)
from repro.power.activity import activity_from_simulation
from repro.power.model import PowerParameters
from tests.oracles import arrival_times


class TestReorder:
    def test_skewed_probabilities_give_savings(self):
        res = optimize_stack_order([0.95, 0.5, 0.05])
        assert res.best_energy <= res.baseline_energy
        assert res.energy_saving >= 0.0
        assert res.spread <= 1.0

    def test_uniform_probabilities_little_headroom(self):
        res = optimize_stack_order([0.5, 0.5, 0.5])
        # All orders are equivalent by symmetry.
        assert res.energy_saving == pytest.approx(0.0, abs=1e-9)

    def test_high_on_probability_goes_to_ground(self):
        """The input most often ON belongs at the bottom of the stack."""
        res = optimize_stack_order([0.9, 0.5, 0.1])
        # position order[k]: k=0 nearest output... ground is last slot.
        assert res.best_order[-1] == 0

    def test_greedy_order_heuristic(self):
        assert greedy_order([0.9, 0.1, 0.5]) == [0, 2, 1]

    def test_delay_constraint_respected(self):
        arrival = [0.0, 0.0, 10.0]
        unconstrained = optimize_stack_order([0.9, 0.5, 0.1],
                                             arrival=arrival)
        limit = unconstrained.baseline_delay
        res = optimize_stack_order([0.9, 0.5, 0.1], arrival=arrival,
                                   delay_limit=limit)
        assert res.best_delay <= limit

    def test_infeasible_limit_falls_back_to_fastest(self):
        arrival = [0.0, 0.0, 10.0]
        res = optimize_stack_order([0.5, 0.5, 0.5], arrival=arrival,
                                   delay_limit=0.001)
        assert res.best_order is not None

    def test_wide_stack_uses_heuristics(self):
        res = optimize_stack_order([0.1 * k for k in range(1, 9)],
                                   exhaustive_limit=4)
        assert res.best_energy <= res.baseline_energy


class TestSizing:
    @pytest.fixture
    def adder(self):
        net = ripple_carry_adder(6)
        act, _ = activity_from_simulation(net, 512, seed=0)
        return net, act

    def test_downsizing_saves_power(self, adder):
        net, act = adder
        res = size_for_power(net, act, apply=False)
        assert res.power_after < res.power_before
        assert res.power_saving > 0.3
        assert res.delay_after <= res.delay_target

    def test_apply_writes_attrs(self, adder):
        net, act = adder
        size_for_power(net, act, apply=True)
        sized = [n for n in net.nodes.values()
                 if n.attrs.get("size") is not None]
        assert sized

    def test_tight_target_keeps_big_gates(self, adder):
        net, act = adder
        params = PowerParameters()
        sizes_max = {n: 4.0 for n, nd in net.nodes.items()
                     if not nd.is_source()}
        fastest = critical_path_delay(net, sizes_max, params)
        res = size_for_power(net, act, delay_target=fastest,
                             apply=False)
        # At the all-max delay, big sizes must largely remain.
        assert any(s > 1.0 for s in res.sizes.values())
        assert res.delay_after <= fastest + 1e-9

    def test_loose_target_reaches_min_sizes(self, adder):
        net, act = adder
        res = size_for_power(net, act, delay_target=1e9, apply=False)
        assert all(s == 1.0 for s in res.sizes.values())

    def test_never_worse_than_all_min(self, adder):
        net, act = adder
        params = PowerParameters()
        res = size_for_power(net, act, apply=False)
        ones = {n: 1.0 for n in res.sizes}
        if critical_path_delay(net, ones, params) <= res.delay_target:
            assert res.power_after <= switched_capacitance(
                net, ones, act, params) + 1e-9

    def test_slacks_nonnegative_at_own_delay(self, adder):
        net, act = adder
        params = PowerParameters()
        sizes = {n: 1.0 for n, nd in net.nodes.items()
                 if not nd.is_source()}
        target = critical_path_delay(net, sizes, params)
        slk = slacks(net, sizes, target, params)
        assert all(s >= -1e-9 for s in slk.values())
        assert any(s == pytest.approx(0.0, abs=1e-9)
                   for s in slk.values())


# -- the reference greedy ------------------------------------------------
# The sizer as first written: a full O(n²) static timing analysis per
# trial move and two whole-network power sums per feasible one.  The
# library's incremental walk must reproduce it bit for bit.  Latch
# enables are timing endpoints here as in the library.

def _ref_load_cap(net, name, sizes, params):
    load = 0.0
    for node in net.nodes.values():
        times = node.fanins.count(name)
        if times:
            load += params.pin_cap_units * sizes.get(node.name, 1.0) * times
    if name in net.outputs:
        load += params.output_load_units
    for latch in net.latches:
        if latch.data == name or latch.enable == name:
            load += params.pin_cap_units
    return load


def _ref_gate_delay(net, name, sizes, params):
    if net.nodes[name].is_source():
        return 0.0
    load = _ref_load_cap(net, name, sizes, params)
    return INTRINSIC_DELAY + DRIVE_PER_LOAD * load / sizes.get(name, 1.0)


def _ref_arrival_times(net, sizes, params):
    arr = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            arr[name] = 0.0
        else:
            arr[name] = _ref_gate_delay(net, name, sizes, params) + max(
                (arr[fi] for fi in node.fanins), default=0.0)
    return arr


def _ref_sinks(net):
    return (list(net.outputs) + [l.data for l in net.latches]
            + [l.enable for l in net.latches if l.enable is not None])


def _ref_critical_path_delay(net, sizes, params):
    arr = _ref_arrival_times(net, sizes, params)
    return max((arr[s] for s in _ref_sinks(net)), default=0.0)


def _ref_slacks(net, sizes, target, params):
    arr = _ref_arrival_times(net, sizes, params)
    req = {name: float("inf") for name in net.nodes}
    for s in set(_ref_sinks(net)):
        req[s] = min(req[s], target)
    for name in reversed(net.topo_order()):
        node = net.nodes[name]
        if node.is_source():
            continue
        d = _ref_gate_delay(net, name, sizes, params)
        for fi in node.fanins:
            req[fi] = min(req[fi], req[name] - d)
    return {name: req[name] - arr[name] for name in net.nodes}


def _ref_switched_capacitance(net, sizes, activity, params):
    total = 0.0
    for name, node in net.nodes.items():
        self_cap = params.self_cap_per_transistor * \
            node.num_transistors() * sizes.get(name, 1.0)
        cap = self_cap + _ref_load_cap(net, name, sizes, params)
        total += cap * activity.get(name, 0.0)
    return total


def _ref_walk(net, sizes, ordered, activity, target, params):
    """The full-STA greedy walk from ``sizes``; returns its end sizing
    and the number of moves."""
    moves = 0
    improved = True
    while improved:
        improved = False
        slk = _ref_slacks(net, sizes, target, params)
        candidates = sorted(
            (name for name, s in slk.items()
             if s > 0 and name in sizes and sizes[name] > ordered[0]),
            key=lambda n: -slk[n])
        for name in candidates:
            trial = dict(sizes)
            trial[name] = float(ordered[ordered.index(sizes[name]) - 1])
            if _ref_critical_path_delay(net, trial, params) <= target:
                before = _ref_switched_capacitance(net, sizes, activity,
                                                   params)
                after = _ref_switched_capacitance(net, trial, activity,
                                                  params)
                if after < before:
                    sizes = trial
                    moves += 1
                    improved = True
                    break
    return sizes, moves


def _ref_start(net, activity, delay_target, allowed_sizes, params):
    ordered = sorted(allowed_sizes)
    sizes = {name: float(ordered[-1])
             for name, node in net.nodes.items() if not node.is_source()}
    delay_before = _ref_critical_path_delay(net, sizes, params)
    target = delay_target if delay_target is not None \
        else delay_before * 1.05
    power_before = _ref_switched_capacitance(net, sizes, activity, params)
    ones = {name: float(ordered[0]) for name in sizes}
    return ordered, sizes, ones, target, delay_before, power_before


def _ref_result(net, activity, sizes, target, delay_before, power_before,
                moves, params):
    return SizingResult(
        sizes=sizes, delay_target=target, delay_before=delay_before,
        delay_after=_ref_critical_path_delay(net, sizes, params),
        power_before=power_before,
        power_after=_ref_switched_capacitance(net, sizes, activity,
                                              params),
        moves=moves)


def _reference_size_for_power(net, activity, delay_target=None,
                              allowed_sizes=(1.0, 2.0, 4.0)):
    """All-minimum when it meets the target, else the greedy walk;
    ``moves`` counts one-step downsizes from the all-max start."""
    params = PowerParameters()
    ordered, sizes, ones, target, delay_before, power_before = \
        _ref_start(net, activity, delay_target, allowed_sizes, params)
    if _ref_critical_path_delay(net, ones, params) <= target:
        sizes = ones
        moves = (len(set(ordered)) - 1) * len(ones)
    else:
        sizes, moves = _ref_walk(net, sizes, ordered, activity, target,
                                 params)
    return _ref_result(net, activity, sizes, target, delay_before,
                       power_before, moves, params)


def _walk_then_fallback_size_for_power(net, activity, delay_target,
                                       allowed_sizes):
    """The sizer's earlier spec: walk from all-max, then take the
    all-minimum sizing if it meets the target and has strictly lower
    power than where the walk ended."""
    params = PowerParameters()
    ordered, sizes, ones, target, delay_before, power_before = \
        _ref_start(net, activity, delay_target, allowed_sizes, params)
    sizes, moves = _ref_walk(net, sizes, ordered, activity, target, params)
    if _ref_critical_path_delay(net, ones, params) <= target:
        if _ref_switched_capacitance(net, ones, activity, params) < \
                _ref_switched_capacitance(net, sizes, activity, params):
            sizes = ones
    return _ref_result(net, activity, sizes, target, delay_before,
                       power_before, moves, params)


def _assert_matches_reference(net, activity, delay_target, allowed):
    res = size_for_power(net, activity, delay_target=delay_target,
                         allowed_sizes=allowed, apply=False)
    ref = _reference_size_for_power(net, activity, delay_target, allowed)
    assert res.sizes == ref.sizes
    assert res.moves == ref.moves
    assert res.delay_target == ref.delay_target
    assert res.power_before == ref.power_before
    assert res.power_after == ref.power_after
    assert res.delay_before == ref.delay_before
    assert res.delay_after == ref.delay_after
    return res


def _enable_chain():
    """Six chained ANDs that drive only a latch enable; the latch data
    comes through one buffer."""
    net = Network("enable_chain")
    net.add_inputs(["a", "b", "d"])
    prev = "a"
    for k in range(6):
        prev = net.add_gate(f"g{k}", GateType.AND, [prev, "b"])
    net.add_gate("buf", GateType.BUF, ["d"])
    net.add_latch("buf", "q", enable="g5")
    net.set_output("q")
    return net


def _draw_net(draw):
    kind = draw(st.sampled_from(["random", "mult4", "rca6"]))
    if kind == "random":
        return random_logic(draw(st.integers(2, 8)),
                            draw(st.integers(1, 40)),
                            draw(st.integers(0, 2 ** 16)))
    if kind == "mult4":
        return array_multiplier(4)
    return ripple_carry_adder(6)


@st.composite
def _sizing_cases(draw):
    net = _draw_net(draw)
    allowed = draw(st.sampled_from([(1, 2, 4), (1, 4), (0.5, 1, 3)]))
    target = draw(st.sampled_from(["all-max", "default", "loose"]))
    return net, allowed, target, draw(st.integers(0, 2 ** 16))


class TestSizingMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(_sizing_cases())
    def test_greedy_matches_reference(self, case):
        net, allowed, target, seed = case
        params = PowerParameters()
        act, _ = activity_from_simulation(net, 128, seed=seed)
        delay_target = {
            "all-max": _ref_critical_path_delay(
                net, {n: float(max(allowed)) for n, nd in net.nodes.items()
                      if not nd.is_source()}, params),
            "default": None, "loose": 1e9}[target]
        res = _assert_matches_reference(net, act, delay_target, allowed)
        # Never worse than the walk-then-fallback spec, and the same
        # sizing wherever that one ended at all-minimum.
        old = _walk_then_fallback_size_for_power(net, act, delay_target,
                                                 allowed)
        assert res.power_after <= old.power_after
        if all(s == min(allowed) for s in old.sizes.values()):
            assert res.sizes == old.sizes
        # The public STA functions agree exactly with the O(n²) ones,
        # at the greedy's result and at a random sizing.
        rng = random.Random(seed)
        mixed = {n: float(rng.choice(allowed)) for n in res.sizes}
        for sizes in (res.sizes, mixed):
            assert critical_path_delay(net, sizes, params) == \
                _ref_critical_path_delay(net, sizes, params)
            assert arrival_times(net, sizes, params) == \
                _ref_arrival_times(net, sizes, params)
            assert slacks(net, sizes, res.delay_target, params) == \
                _ref_slacks(net, sizes, res.delay_target, params)
            assert switched_capacitance(net, sizes, act, params) == \
                _ref_switched_capacitance(net, sizes, act, params)

    def test_sequential_network_matches_reference(self):
        net = _enable_chain()
        act, _ = activity_from_simulation(net, 128, seed=0)
        for target in (None, 3.0, 1e9):
            _assert_matches_reference(net, act, target, (1, 2, 4))


@st.composite
def _mixed_sizings(draw):
    net = _draw_net(draw)
    gates = [n for n, nd in net.nodes.items() if not nd.is_source()]
    allowed = draw(st.sampled_from([(1, 2, 4), (1, 4), (0.5, 1, 3)]))
    sizes = {n: float(draw(st.sampled_from(allowed))) for n in gates}
    rates = st.floats(0.0, 1.0, allow_nan=False)
    activity = {n: draw(rates) for n in net.nodes}
    grown = draw(st.sampled_from(gates))
    bigger = [s for s in allowed if s > sizes[grown]]
    new_size = float(draw(st.sampled_from(bigger))) if bigger \
        else 2.0 * sizes[grown]
    return net, sizes, activity, grown, new_size


class TestAllMinimumShortcut:
    """The sizer returns the all-minimum sizing without a walk when it
    meets the target; that is sound because power is monotone in every
    gate's size."""

    @settings(max_examples=60, deadline=None)
    @given(_mixed_sizings())
    def test_growing_a_gate_never_lowers_power(self, case):
        net, sizes, activity, grown, new_size = case
        params = PowerParameters()
        before = switched_capacitance(net, sizes, activity, params)
        after = switched_capacitance(net, {**sizes, grown: new_size},
                                     activity, params)
        assert after >= before

    @pytest.fixture
    def rca6(self):
        """The adder, its activity and its all-max-size delay."""
        net = ripple_carry_adder(6)
        act, _ = activity_from_simulation(net, 512, seed=0)
        fastest = critical_path_delay(
            net, {n: 4.0 for n, nd in net.nodes.items()
                  if not nd.is_source()}, PowerParameters())
        return net, act, fastest

    def test_walk_runs_only_when_all_minimum_misses(self, monkeypatch,
                                                    rca6):
        net, act, fastest = rca6

        class Refused:
            def __init__(self, *args):
                raise AssertionError("walk built")

        monkeypatch.setattr(sizing, "_Walk", Refused)
        res = size_for_power(net, act, apply=False)
        assert set(res.sizes.values()) == {1.0}
        assert res.moves == 2 * len(res.sizes)

        built = []

        class Recorded(_Walk):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(sizing, "_Walk", Recorded)
        res = size_for_power(net, act, delay_target=fastest, apply=False)
        assert len(built) == 1 and res.moves > 0
        assert set(res.sizes.values()) != {1.0}
        assert res.delay_after <= fastest

    def test_walk_keeps_the_full_sta_check(self, monkeypatch, rca6):
        net, act, fastest = rca6

        class Drifting(_Walk):
            def commit(self, move):
                changed = super().commit(move)
                self.slack[move.name] += 1.0
                return changed

        monkeypatch.setattr(sizing, "_Walk", Drifting)
        with pytest.raises(RuntimeError, match="full STA"):
            size_for_power(net, act, delay_target=fastest, apply=False)


class TestLatchEnableTiming:
    def test_enable_is_a_timing_endpoint(self):
        net = _enable_chain()
        params = PowerParameters()
        arr = arrival_times(net, {}, params)
        assert arr["g5"] > arr["buf"]
        assert critical_path_delay(net, None, params) == arr["g5"]
        slk = slacks(net, {}, 10.0, params)
        assert slk["g5"] == 10.0 - arr["g5"]

    def test_enable_chain_is_not_downsized_past_the_target(self):
        net = _enable_chain()
        act, _ = activity_from_simulation(net, 128, seed=0)
        params = PowerParameters()
        fastest = critical_path_delay(
            net, {n: 4.0 for n, nd in net.nodes.items()
                  if not nd.is_source()}, params)
        res = size_for_power(net, act, delay_target=fastest, apply=False)
        assert arrival_times(net, res.sizes, params)["g5"] <= fastest


class TestAllowedSizes:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            size_for_power(ripple_carry_adder(2), {}, allowed_sizes=())

    @pytest.mark.parametrize("bad", [0, -1.0, float("nan")])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            size_for_power(ripple_carry_adder(2), {},
                           allowed_sizes=(1.0, bad, 4.0))
