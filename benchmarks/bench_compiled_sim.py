"""Ablation A6 — Compiled vs interpreted simulation; incremental cones.

The compiled evaluator (``repro.sim.compiled``) must be (a) bit-exact
with the interpreted ``Network.evaluate_words`` walk, (b) faster on the
activity-estimation workload every optimizer iterates, and (c) safely
cached: a node function edit must yield a re-lowered program (stale
compile caches would silently corrupt every downstream estimate).

Deterministic gating metrics: per-circuit word-level mismatch counts
(always 0), a checksum of the simulated words (any change in compiled
codegen shows up here), and the recompile count over an edit sequence
(a silently-stale cache changes it).  Wall-clock metrics (``*_ms``) and
speedup ratios (``*_x``) are volatile and exempt from drift gating.
"""

import time
import zlib

from repro.bench.profiling import PHASE_SIM, phase
from repro.core.report import format_table
from repro.logic.gates import GateType
from repro.logic.generators import (array_multiplier, random_logic,
                                    ripple_carry_adder)
from repro.power.activity import activity_from_simulation
from repro.sim.compiled import get_compiled
from repro.sim.vectors import random_words

from conftest import emit, harness_params, scaled

CLAIMS = ()

CIRCUITS = [
    ("rca16", lambda: ripple_carry_adder(16)),
    ("mult4", lambda: array_multiplier(4)),
    ("rand12x80", lambda: random_logic(12, 80, seed=9)),
]

#: toggled gate pairs for the edit/recompile sequence
_FLIP = {GateType.AND: GateType.NAND, GateType.NAND: GateType.AND,
         GateType.OR: GateType.NOR, GateType.NOR: GateType.OR,
         GateType.XOR: GateType.XNOR, GateType.XNOR: GateType.XOR}


def _flip(net, gate):
    net.set_function(gate, _FLIP[net.nodes[gate].gtype])


def _checksum(values):
    """Deterministic digest of the simulated words (exact ints)."""
    acc = 0
    for name, w in sorted(values.items()):
        acc = (acc * 1000003 + zlib.crc32(name.encode()) + w) % (1 << 40)
    return acc


def _cone_sizes(net):
    """Transitive-fanout cone size of every node (self included)."""
    fanouts = {name: [] for name in net.nodes}
    for node in net.nodes.values():
        for fi in node.fanins:
            fanouts[fi].append(node.name)
    sizes = {}
    for name in reversed(net.topo_order()):
        cone = {name}
        for fo in fanouts[name]:
            cone |= sizes[fo]
        sizes[name] = cone
    return {name: len(c) for name, c in sizes.items()}


def _editable_gates(net, limit):
    """Flippable gates with the smallest fanout cones.

    Local rewrites late in a flow touch gates whose influence is
    bounded — the regime incremental re-simulation targets.  A
    near-input gate's cone is the whole circuit and leaves nothing to
    reuse, so the edit set is chosen by cone size (deterministically).
    """
    cones = _cone_sizes(net)
    names = sorted((n.name for n in net.nodes.values()
                    if n.kind == "gate" and n.gtype in _FLIP),
                   key=lambda n: (cones[n], n))
    return names[:limit]


def compiled_rows(vectors=2048, seed=6, edits=8, repeats=10):
    rows = []
    for name, make in CIRCUITS:
        net = make()
        sources = [n.name for n in net.nodes.values() if n.is_source()]
        words = random_words(sources, vectors, seed)
        mask = (1 << vectors) - 1

        t0 = time.perf_counter()
        for _ in range(repeats):
            interp = net.evaluate_words(words, mask)
        t_interp = (time.perf_counter() - t0) / repeats

        # Warm the compile cache first — a long-lived flow compiles
        # once; the steady-state cost is evaluation plus the per-call
        # edit-record check.
        get_compiled(net)
        with phase(PHASE_SIM):
            t0 = time.perf_counter()
            for _ in range(repeats):
                compiled = get_compiled(net).evaluate_words(words, mask)
            t_compiled = (time.perf_counter() - t0) / repeats

        mismatch = sum(1 for k, w in interp.items()
                       if compiled.get(k) != w)

        # Edit loop: the optimizer inner-loop workload.  Each step flips
        # one gate's polarity, re-estimates activity, and undoes it.
        # Full = a fresh simulation per edit, on a copy (which carries no
        # stored run) compiled before the clock starts; incremental =
        # dirty-cone re-simulation from the network's stored run, which
        # reads the edited gates from the network's edit record.
        gates = _editable_gates(net, edits)
        t_full = 0.0
        full_acts = []
        for g in gates:
            _flip(net, g)
            fresh = net.copy()
            get_compiled(fresh)
            t0 = time.perf_counter()
            act, _p = activity_from_simulation(fresh, vectors, seed)
            t_full += time.perf_counter() - t0
            full_acts.append(act)
            _flip(net, g)

        activity_from_simulation(net, vectors, seed)
        inc_acts = []
        t0 = time.perf_counter()
        for g in gates:
            _flip(net, g)
            act, _p = activity_from_simulation(net, vectors, seed)
            inc_acts.append(act)
            _flip(net, g)
        t_inc = time.perf_counter() - t0

        inc_mismatch = sum(
            1 for ref_act, act in zip(full_acts, inc_acts)
            for k, v in ref_act.items() if act.get(k) != v)

        # Untimed: every function edit must yield a new program
        # snapshot (a stale cache would silently corrupt the estimates).
        recompiles = 0
        for g in gates:
            before = get_compiled(net)
            _flip(net, g)
            if get_compiled(net) is not before:
                recompiles += 1
            _flip(net, g)

        rows.append([name, mismatch, inc_mismatch, _checksum(compiled),
                     recompiles, len(gates), t_interp * 1e3,
                     t_compiled * 1e3, t_full * 1e3, t_inc * 1e3])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    vectors = scaled(2048, quick, floor=128)
    edits = 4 if quick else 8
    rows = compiled_rows(vectors=vectors, seed=seed + 6, edits=edits)
    metrics = {}
    for (name, mismatch, inc_mismatch, checksum, recompiles, n_edits,
         t_interp, t_compiled, t_full, t_inc) in rows:
        metrics[f"{name}.mismatch_words"] = mismatch
        metrics[f"{name}.incremental_mismatch_words"] = inc_mismatch
        metrics[f"{name}.words_checksum"] = checksum
        metrics[f"{name}.recompiles"] = recompiles
        metrics[f"{name}.edits"] = n_edits
        metrics[f"{name}.interpreted_ms"] = t_interp
        metrics[f"{name}.compiled_ms"] = t_compiled
        metrics[f"{name}.full_resim_ms"] = t_full
        metrics[f"{name}.incremental_resim_ms"] = t_inc
        metrics[f"{name}.compiled_speedup_x"] = \
            t_interp / t_compiled if t_compiled else 0.0
        metrics[f"{name}.incremental_speedup_x"] = \
            t_full / t_inc if t_inc else 0.0
    return {"metrics": metrics, "vectors": vectors}


def bench_compiled_sim(benchmark):
    rows = benchmark.pedantic(compiled_rows, rounds=2, iterations=1)
    emit("A6: compiled vs interpreted simulation", format_table(
        ["circuit", "mismatch", "inc mism", "checksum", "recompiles",
         "edits", "interp ms", "compiled ms", "full-edit ms",
         "inc-edit ms"], rows))
    for (name, mismatch, inc_mismatch, _cks, recompiles, n_edits,
         t_interp, t_compiled, t_full, t_inc) in rows:
        assert mismatch == 0, f"{name}: compiled not bit-exact"
        assert inc_mismatch == 0, f"{name}: incremental not bit-exact"
        # every edit must yield a new program snapshot
        assert recompiles == n_edits, f"{name}: stale compile cache"
        # the headline claim: compiled ≥ 2x over the interpreted walk,
        # and the incremental cone beats full re-simulation per edit.
        assert t_interp / t_compiled >= 2.0, \
            f"{name}: compiled only {t_interp / t_compiled:.2f}x"
        assert t_inc < t_full, f"{name}: incremental slower than full"
