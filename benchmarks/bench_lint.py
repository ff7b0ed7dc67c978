"""Lint-engine gate: exact diagnostic counts and rule timings.

The static analyzer (repro.analysis) is deterministic: on a fixed
suite of generator circuits every rule must fire an exact number of
times, the self-audit must hold (zero error-severity findings on
well-formed circuits), and each injected defect class must trip
exactly its rule.  These are contracts, not tolerances — the CI
compares this bench's metrics against the baseline at ``--tol 0``.
Wall-clock metrics carry the ``_ms`` suffix and are exempt.

The circuit suite is fixed (no ``--quick`` scaling): diagnostic
counts must be identical between smoke runs and full runs.
"""

import time

from repro.analysis import LintConfig, lint_network
from repro.bench.profiling import PHASE_OPT, phase
from repro.core.report import format_table
from repro.logic import generators as G
from repro.logic.gates import GateType
from repro.logic.netlist import Network

from conftest import emit, harness_params

CLAIMS = ()

#: Fixed audit suite — sizes never scale with --quick.
SUITE = (
    ("rca8", lambda: G.ripple_carry_adder(8)),
    ("cla8", lambda: G.carry_lookahead_adder(8)),
    ("mult4", lambda: G.array_multiplier(4)),
    ("muxtree3", lambda: G.mux_tree(3)),
    ("parity16", lambda: G.parity_tree(16)),
    ("counter8", lambda: G.counter(8)),
    ("regfile44", lambda: G.register_file(4, 4)),
)


def _mux_gated_net():
    """A latch gated by a hazard-prone (MUX-shaped) enable."""
    from repro.logic.cube import Cube
    from repro.logic.sop import Cover

    net = Network("gated")
    for n in ("s", "a", "b", "d"):
        net.add_input(n)
    net.add_sop("en", ["s", "a", "b"],
                Cover(3, [Cube.from_string("01-"),
                          Cube.from_string("1-1")]))
    net.add_latch("d", "q", enable="en")
    net.set_output("q")
    return net


def _injections():
    """(name, network, expected rule) defect triples."""
    cyclic = Network("cyclic")
    cyclic.add_input("a")
    cyclic.add_gate("x", GateType.AND, ["a", "y"])
    cyclic.add_gate("y", GateType.BUF, ["x"])
    cyclic.set_output("x")

    undriven = Network("undriven")
    undriven.add_input("a")
    undriven.add_gate("g", GateType.AND, ["a", "ghost"])
    undriven.set_output("g")

    bad_delay = Network("bad_delay")
    bad_delay.add_input("a")
    bad_delay.add_gate("g", GateType.NOT, ["a"])
    bad_delay.nodes["g"].attrs["delay"] = -1.0
    bad_delay.set_output("g")

    return (("cycle", cyclic, "combinational-cycle"),
            ("undriven", undriven, "undriven-net"),
            ("bad_delay", bad_delay, "malformed-delay"),
            ("gating", _mux_gated_net(), "gating-hazard"))


def lint_exercise(seed=0):
    config = LintConfig(hot_net_top=5)
    severities = {"error": 0, "warning": 0, "info": 0}
    rule_counts = {}
    rows = []
    start = time.perf_counter()
    with phase(PHASE_OPT):
        for name, build in SUITE:
            report = lint_network(build(), config=config)
            sev = report.severity_counts()
            for key in severities:
                severities[key] += sev[key]
            for rule, count in report.counts().items():
                rule_counts[rule] = rule_counts.get(rule, 0) + count
            rows.append([name, sev["error"], sev["warning"],
                         sev["info"], len(report.skipped_rules)])
    suite_ms = (time.perf_counter() - start) * 1e3

    injected_ok = 0
    start = time.perf_counter()
    with phase(PHASE_OPT):
        for _name, net, expected in _injections():
            report = lint_network(net, config=config)
            if any(d.rule == expected for d in report.diagnostics):
                injected_ok += 1
    inject_ms = (time.perf_counter() - start) * 1e3

    metrics = {
        "suite_circuits": float(len(SUITE)),
        "errors_total": float(severities["error"]),
        "warnings_total": float(severities["warning"]),
        "info_total": float(severities["info"]),
        "injected_defects": float(len(_injections())),
        "injected_detected": float(injected_ok),
        "lint_suite_ms": suite_ms,
        "lint_inject_ms": inject_ms,
    }
    for rule, count in sorted(rule_counts.items()):
        metrics["diags_" + rule.replace("-", "_")] = float(count)
    return metrics, rows


def run(params=None):
    _quick, seed = harness_params(params)
    metrics, _rows = lint_exercise(seed=seed)
    return {"metrics": metrics, "vectors": 0}


def bench_lint(benchmark):
    metrics, rows = benchmark.pedantic(lint_exercise, rounds=1,
                                       iterations=1)
    emit("lint: per-circuit severity counts of the audit suite",
         format_table(["circuit", "errors", "warnings", "info",
                       "skipped"], rows))
    # self-audit: every generator circuit is error-free
    assert metrics["errors_total"] == 0.0
    # every injected defect class trips its rule
    assert metrics["injected_detected"] == metrics["injected_defects"]
    # the hazard rule sees the mux tree's selector hazards
    assert metrics["diags_static_hazard"] >= 7.0
    assert metrics["diags_hot_net"] == 5.0 * len(SUITE)
