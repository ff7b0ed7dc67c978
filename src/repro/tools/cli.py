"""``python -m repro.tools.cli`` — the framework's command line.

Subcommands:

* ``report <file.blif>``   — Eqn-1 power breakdown and statistics
* ``glitch <file.blif>``   — timed vs zero-delay transition analysis
* ``lint <file.blif>``     — structural + power static analysis
  (``--rules``, ``--severity``, ``--format json|sarif|text``; exit 1
  when any error-severity diagnostic fires)
* ``optimize <file.blif>`` — run the low-power flow, write BLIF out
  (``--trace out.jsonl`` records the per-pass engine trace;
  ``--strict-lint`` invariant-lints every candidate)
* ``flow <file.blif>``     — run a declarative pass flow from a JSON
  spec (``--spec flow.json``)
* ``map <file.blif>``      — technology map (area/power/delay objective)
* ``balance <file.blif>``  — path-balancing buffer insertion
* ``bench run``            — execute the experiment suite in parallel,
  write a ``BENCH_<timestamp>.json`` artifact
* ``bench compare``        — diff two bench artifacts, fail on drift

All netlist commands accept ``--vectors`` (simulation length) and
``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.logic.blif import read_blif, write_blif
from repro.logic.netlist import NetlistError, Network


def _load(path: str, check: bool = True) -> Network:
    with open(path) as f:
        return read_blif(f, check=check)


def _reject_sequential(net: Network, command: str) -> bool:
    """The combinational commands mis-handle latches (their passes and
    equivalence checks treat latch outputs as free inputs); refuse
    sequential netlists uniformly instead."""
    if net.latches:
        print(f"error: the combinational {command} command does not "
              f"take sequential netlists", file=sys.stderr)
        return True
    return False


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.power.model import average_power

    net = _load(args.netlist)
    print(f"{net!r}")
    for key, value in net.stats().items():
        print(f"  {key:12s}: {value}")
    rep = average_power(net, num_vectors=args.vectors, seed=args.seed)
    print(rep.summary())
    if args.per_node:
        worst = sorted(rep.per_node.items(), key=lambda kv: -kv[1])
        print("\nhottest nodes:")
        for name, p in worst[:args.per_node]:
            print(f"  {name:20s} {p * 1e6:10.4f} uW "
                  f"(activity {rep.activity.get(name, 0):.3f})")
    return 0


def _load_delays(path: Optional[str], net: Network):
    """Read a ``{"node": delay}`` JSON map for the timed simulators:
    every key a node of ``net``, every value a finite non-negative
    number."""
    if path is None:
        return None
    import json

    from repro.sim.event import check_delay

    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError("delay file must hold a JSON object "
                         "{node: delay}")
    for name in raw:
        if name not in net.nodes:
            raise ValueError(f"no node named {name!r} in the netlist")
    return {name: check_delay(name, v) for name, v in raw.items()}


def _cmd_glitch(args: argparse.Namespace) -> int:
    from repro.power.glitch import glitch_report

    net = _load(args.netlist)
    if _reject_sequential(net, "glitch"):
        return 1
    try:
        delays = _load_delays(args.delays, net)
    except (OSError, ValueError) as exc:
        print(f"error: bad --delays file: {exc}", file=sys.stderr)
        return 2
    rep = glitch_report(net, num_vectors=args.vectors, seed=args.seed,
                        delays=delays)
    print(f"timed transitions      : {rep.total_timed}")
    print(f"zero-delay transitions : {rep.total_functional}")
    print(f"glitch fraction        : {rep.glitch_fraction:.1%}")
    print(f"glitch power fraction  : {rep.glitch_power_fraction:.1%}")
    return 0


def _write_flow_outputs(result, args: argparse.Namespace) -> None:
    print(result.summary())
    if getattr(args, "trace", None):
        result.trace.write(args.trace)
        print(f"wrote trace {args.trace}")
    if args.output:
        with open(args.output, "w") as f:
            f.write(write_blif(result.final))
        print(f"wrote {args.output}")


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintConfig, Linter, select_rules

    try:
        rules = select_rules(args.rules)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # check=False: the linter is the validator here — a broken
        # netlist must load so its defects can be reported as
        # diagnostics rather than a parse abort.
        net = _load(args.netlist, check=False)
    except (OSError, NetlistError) as exc:
        print(f"error: cannot read {args.netlist}: {exc}",
              file=sys.stderr)
        return 2
    config = LintConfig(hot_net_top=args.hot_nets)
    report = Linter(rules=rules, config=config).run(net)
    if args.format == "json":
        print(report.to_json(min_severity=args.severity))
    elif args.format == "sarif":
        print(report.to_sarif(min_severity=args.severity))
    else:
        print(report.to_text(min_severity=args.severity))
    return 1 if report.has_errors else 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.core.flow import low_power_flow

    net = _load(args.netlist)
    if _reject_sequential(net, "optimize"):
        return 1
    try:
        result = low_power_flow(net, num_vectors=args.vectors,
                                seed=args.seed,
                                use_mapping=not args.no_map,
                                use_sizing=not args.no_size,
                                dontcare_size_cap=args.dontcare_cap,
                                strict=args.strict,
                                strict_lint=args.strict_lint)
    except Exception as exc:
        print(f"error: flow failed in strict mode: {exc}",
              file=sys.stderr)
        return 1
    _write_flow_outputs(result, args)
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    from repro.core.flow import run_flow
    from repro.core.passes import load_flow_spec

    try:
        spec = load_flow_spec(args.spec)
        # Unknown pass names and bad pass parameters fail here, before
        # anything is simulated.
        spec.build()
    except (OSError, ValueError) as exc:
        print(f"error: bad flow spec: {exc}", file=sys.stderr)
        return 2
    if args.vectors is not None:
        spec.num_vectors = args.vectors
    if args.seed is not None:
        spec.seed = args.seed
    if args.strict:
        spec.strict = True
    if args.strict_lint:
        spec.strict_lint = True
    net = _load(args.netlist)
    if _reject_sequential(net, "flow"):
        return 1
    try:
        result = run_flow(net, spec)
    except Exception as exc:
        print(f"error: flow failed in strict mode: {exc}",
              file=sys.stderr)
        return 1
    _write_flow_outputs(result, args)
    outcomes = result.trace.outcomes()
    print("passes    : " + ", ".join(
        f"{k}={v}" for k, v in sorted(outcomes.items())))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.library.cells import generic_library
    from repro.opt.logic.mapping import tech_map
    from repro.sim.functional import verify_equivalence

    net = _load(args.netlist)
    if _reject_sequential(net, "map"):
        return 1
    res = tech_map(net, generic_library(), args.objective,
                   seed=args.seed)
    if not verify_equivalence(net, res.mapped, 256, args.seed):
        print("error: mapping broke equivalence", file=sys.stderr)
        return 1
    print(f"objective : {res.objective}")
    print(f"area      : {res.total_area:.1f}")
    print(f"arrival   : {res.arrival:.2f}")
    print("cells     :")
    for cell, count in sorted(res.cells_used.items()):
        print(f"  {cell:12s} x{count}")
    if args.output:
        with open(args.output, "w") as f:
            f.write(write_blif(res.mapped))
        print(f"wrote {args.output}")
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    from repro.opt.logic.balance import balance_paths
    from repro.power.glitch import glitch_report

    net = _load(args.netlist)
    if _reject_sequential(net, "balance"):
        return 1

    def report(version):
        # One glitch_report per network version; its zero-delay and
        # timed runs share the one compiled program cached on the
        # network, so each version is compiled (and its simulator
        # built) exactly once — not once per simulation mode.
        return glitch_report(version, num_vectors=args.vectors,
                             seed=args.seed)

    before = report(net)
    res = balance_paths(net, selective=args.selective,
                        max_buffers=args.max_buffers)
    after = report(net)
    print(f"buffers added          : {res.buffers_added}")
    print(f"glitch power fraction  : {before.glitch_power_fraction:.1%}"
          f" -> {after.glitch_power_fraction:.1%}")
    print(f"depth                  : {res.depth_before:g} -> "
          f"{res.depth_after:g}")
    if args.output:
        with open(args.output, "w") as f:
            f.write(write_blif(net))
        print(f"wrote {args.output}")
    return 0


def _cmd_fsm(args: argparse.Namespace) -> int:
    from repro.core.flow import fsm_low_power_flow
    from repro.opt.seq.fsm_benchmarks import benchmark_names, \
        load_benchmark
    from repro.opt.seq.stg import read_kiss

    if args.kiss in benchmark_names():
        stg = load_benchmark(args.kiss)
    else:
        with open(args.kiss) as f:
            stg = read_kiss(f)
    res = fsm_low_power_flow(stg, sequence_length=args.vectors,
                             seed=args.seed)
    print(f"states               : {res.states_before} -> "
          f"{res.states_after}")
    print(f"self-loop activation : {res.activation_probability:.2f}")
    print(f"power (incl. clock)  : {res.power_before * 1e6:.2f} uW -> "
          f"{res.power_after * 1e6:.2f} uW ({res.saving:+.1%})")
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import (default_report_filename, discover,
                             run_benchmarks)

    bench_dir = args.bench_dir
    specs = discover(bench_dir, pattern=args.filter)
    if not specs:
        print("error: no benchmarks matched", file=sys.stderr)
        return 2
    if args.list:
        for spec in specs:
            claims = ",".join(spec.claims) or "-"
            print(f"{spec.name:24s} [{claims:4s}] {spec.description}")
        return 0

    params = {"quick": args.quick, "seed": args.seed}
    mode = "quick" if args.quick else "full"
    print(f"running {len(specs)} benchmarks ({mode}, seed "
          f"{args.seed}, jobs {args.jobs}) ...")

    def progress(res):
        marker = "ok " if res.ok else res.status
        print(f"  [{marker:7s}] {res.name:24s} {res.wall_s:7.2f}s")

    report = run_benchmarks(specs, params, jobs=args.jobs,
                            timeout=args.timeout, progress=progress)
    out = args.output or default_report_filename()
    report.write(out)
    print(f"\n{report.num_ok}/{len(report.results)} ok -> {out}")
    if args.phases:
        print("\nper-phase wall time (s):")
        totals: dict = {}
        for r in report.results:
            for name, t in r.phases.items():
                totals[name] = totals.get(name, 0.0) + t
        for name, t in sorted(totals.items(), key=lambda kv: -kv[1]):
            print(f"  {name:14s} {t:8.3f}")
    for r in report.results:
        if not r.ok and r.error:
            print(f"\n--- {r.name} ({r.status}) ---\n{r.error}",
                  file=sys.stderr)
    return 0 if report.all_ok else 1


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import RunReport, compare_reports

    try:
        base = RunReport.load(args.baseline)
        cur = RunReport.load(args.current)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key in ("quick", "seed"):
        if base.params.get(key) != cur.params.get(key):
            print(f"warning: baseline {key}={base.params.get(key)!r} "
                  f"vs current {key}={cur.params.get(key)!r} — "
                  f"metrics are only comparable at equal parameters",
                  file=sys.stderr)
    if args.filter:
        # Every substring must match: a renamed bench fails its gate
        # instead of silently dropping out of it.
        subs = [s.strip() for s in args.filter.split(",") if s.strip()]
        names = [r.name for report in (base, cur) for r in report.results]
        missing = [s for s in subs if not any(s in n for n in names)]
        if missing or not subs:
            print(f"error: --filter {', '.join(missing) or args.filter!r}"
                  f" matches no benchmark in either report",
                  file=sys.stderr)
            return 2
        for report in (base, cur):
            report.results = [r for r in report.results
                              if any(s in r.name for s in subs)]
    cmp = compare_reports(base, cur, rel_tol=args.tol,
                          abs_tol=args.abs_tol)
    print(cmp.summary())
    return 0 if cmp.ok else 1


def _positive_int(text: str) -> int:
    """argparse type for vector counts: a negative or zero count would
    otherwise fail deep inside the simulator."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for the count flags (``--dontcare-cap``,
    ``--per-node``, ``--hot-nets``, ``--max-buffers``): a negative
    count would otherwise slice, rank or cap silently wrong."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Low-power VLSI optimization framework "
                    "(Devadas & Malik, DAC 1995)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("netlist", help="input BLIF file")
        p.add_argument("--vectors", type=_positive_int, default=1024,
                       help="simulation vectors (default 1024)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="power breakdown")
    common(p)
    p.add_argument("--per-node", type=_non_negative_int, default=0,
                   metavar="N",
                   help="also list the N hottest nodes")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("glitch", help="spurious-transition analysis")
    common(p)
    p.add_argument("--delays", metavar="FILE.json",
                   help="per-node transport delays as a JSON object "
                   "{node: delay} of finite non-negative numbers; "
                   "unlisted nodes keep attrs/1.0")
    p.set_defaults(func=_cmd_glitch)

    p = sub.add_parser("lint", help="structural + power static "
                       "analysis of a netlist")
    p.add_argument("netlist", help="input BLIF file (loaded "
                   "unvalidated: defects become diagnostics)")
    p.add_argument("--rules", default=None, metavar="ID,ID,...",
                   help="comma-separated rule ids to run "
                   "(default: the full catalog)")
    p.add_argument("--severity", choices=("error", "warning", "info"),
                   default="info",
                   help="report only findings at or above this "
                   "severity (default info: everything)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (default text)")
    p.add_argument("--hot-nets", type=_non_negative_int, default=5,
                   metavar="N",
                   help="how many nets the hot-net ranking reports "
                   "(default 5)")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("optimize", help="run the low-power flow")
    common(p)
    p.add_argument("-o", "--output", help="write optimized BLIF here")
    p.add_argument("--no-map", action="store_true",
                   help="skip technology mapping")
    p.add_argument("--no-size", action="store_true",
                   help="skip transistor sizing")
    p.add_argument("--trace", metavar="FILE.jsonl",
                   help="write the structured per-pass trace (JSONL)")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first failing pass instead of "
                   "rolling it back")
    p.add_argument("--strict-lint", action="store_true",
                   help="invariant-lint every candidate network; "
                   "passes that break an invariant roll back")
    p.add_argument("--dontcare-cap", type=_non_negative_int, default=120,
                   metavar="N", help="skip the don't-care stage above "
                   "N gates (recorded in the trace; default 120)")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("flow", help="run a declarative pass flow from "
                       "a JSON spec")
    p.add_argument("netlist", help="input BLIF file")
    p.add_argument("--spec", required=True, metavar="FLOW.json",
                   help="flow spec: pass list + per-pass params")
    p.add_argument("--vectors", type=_positive_int, default=None,
                   help="override the spec's simulation vectors")
    p.add_argument("--seed", type=int, default=None,
                   help="override the spec's seed")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first failing pass")
    p.add_argument("--strict-lint", action="store_true",
                   help="invariant-lint every candidate network; "
                   "passes that break an invariant roll back")
    p.add_argument("--trace", metavar="FILE.jsonl",
                   help="write the structured per-pass trace (JSONL)")
    p.add_argument("-o", "--output", help="write the final BLIF here")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("map", help="technology mapping")
    common(p)
    p.add_argument("--objective", choices=("area", "power", "delay"),
                   default="power")
    p.add_argument("-o", "--output", help="write mapped BLIF here")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("balance", help="path-balancing buffers")
    common(p)
    p.add_argument("-o", "--output", help="write balanced BLIF here")
    p.add_argument("--selective", action="store_true",
                   help="only pad skews whose expected glitch saving "
                   "beats the buffer cost")
    p.add_argument("--max-buffers", type=_non_negative_int,
                   default=None, metavar="N", help="spend at most N buffers "
                   "(largest skews first)")
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("fsm", help="FSM low-power flow (minimize + "
                       "encode + clock-gate)")
    p.add_argument("kiss", help="KISS file, or a bundled benchmark "
                   "name (traffic, detector, vending, arbiter, "
                   "redundant, elevator)")
    p.add_argument("--vectors", type=_positive_int, default=1500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fsm)

    p = sub.add_parser("bench", help="benchmark harness (run the "
                       "experiment suite, track regressions)")
    bsub = p.add_subparsers(dest="bench_command", required=True)

    b = bsub.add_parser("run", help="execute benchmarks, write "
                        "BENCH_<timestamp>.json")
    b.add_argument("--quick", action="store_true",
                   help="small vector counts (CI smoke mode)")
    b.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parallel worker processes (default 1: "
                   "in-process)")
    b.add_argument("--filter", default=None, metavar="SUBSTR",
                   help="comma-separated name substrings to select")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--timeout", type=float, default=600.0,
                   metavar="S", help="per-benchmark timeout "
                   "(process mode only, default 600)")
    b.add_argument("-o", "--output", default=None,
                   help="artifact path (default BENCH_<timestamp>"
                   ".json)")
    b.add_argument("--bench-dir", default=None,
                   help="benchmark directory (default: the repo's "
                   "benchmarks/, or $REPRO_BENCH_DIR)")
    b.add_argument("--list", action="store_true",
                   help="list matching benchmarks and exit")
    b.add_argument("--phases", action="store_true",
                   help="print the aggregate per-phase timer table")
    b.set_defaults(func=_cmd_bench_run)

    b = bsub.add_parser("compare", help="diff two bench artifacts; "
                        "non-zero exit on metric drift")
    b.add_argument("baseline", help="baseline BENCH_*.json")
    b.add_argument("current", help="current BENCH_*.json")
    b.add_argument("--tol", type=float, default=0.05, metavar="REL",
                   help="relative drift tolerance (default 0.05)")
    b.add_argument("--abs-tol", type=float, default=1e-9,
                   metavar="ABS", help="absolute tolerance floor")
    b.add_argument("--filter", default=None, metavar="SUBSTR",
                   help="comma-separated name substrings: compare "
                   "only matching benchmarks from both reports")
    b.set_defaults(func=_cmd_bench_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
