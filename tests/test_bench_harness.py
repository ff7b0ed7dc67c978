"""Tests for the unified benchmark harness (``repro.bench``).

Covers registry discovery (static, import-free), the runner's graceful
failure capture (inline and process-pool modes, including a
deliberately-crashing benchmark), JSON round-tripping, and the
``bench compare`` drift detection that gates CI.
"""

import json
import textwrap
import time

import pytest

from repro.bench import (BenchResult, RunReport, compare_reports,
                         default_bench_dir, discover, execute_one,
                         run_benchmarks)
from repro.bench.compare import (DRIFT, MISSING_BENCH, MISSING_METRIC,
                                 NEW_BENCH, STATUS)
from repro.bench.profiling import collect_phases, phase
from repro.bench.registry import find, parse_spec
from repro.bench.result import (STATUS_ERROR, STATUS_OK,
                                STATUS_TIMEOUT, is_volatile_metric)

GOOD_BENCH = textwrap.dedent('''
    """A tiny well-behaved benchmark."""
    CLAIMS = ("C1",)

    def run(params=None):
        p = dict(params or {})
        n = 4 if p.get("quick") else 16
        return {"metrics": {"answer": 42.0, "n": n,
                            "noise_ms": 1.25},
                "vectors": n}
''')

CRASH_BENCH = textwrap.dedent('''
    """A benchmark that always explodes."""
    CLAIMS = ("C2",)

    def run(params=None):
        raise RuntimeError("kaboom")
''')

NO_ENTRY_BENCH = textwrap.dedent('''
    """Legacy module without a run() entry point."""
    CLAIMS = ()
''')


@pytest.fixture
def suite_dir(tmp_path):
    (tmp_path / "bench_alpha.py").write_text(GOOD_BENCH)
    (tmp_path / "bench_boom.py").write_text(CRASH_BENCH)
    (tmp_path / "bench_legacy.py").write_text(NO_ENTRY_BENCH)
    return tmp_path


# ---------------------------------------------------------------- registry

def test_discover_real_suite():
    specs = discover()
    names = [s.name for s in specs]
    assert len(specs) == 24
    assert "power_breakdown" in names
    assert "compiled_sim" in names
    assert "flow_engine" in names
    assert "timed_sim" in names
    assert "lint" in names
    assert all(s.has_run for s in specs)
    index = {claim: s.name for s in specs for claim in s.claims}
    # Every paper claim C1..C15 is reproduced by exactly one bench.
    assert set(index) == {f"C{i}" for i in range(1, 16)}
    assert index["C1"] == "power_breakdown"
    assert index["C12"] == "precompute"


def test_discover_is_static_and_filtered(suite_dir):
    # A module raising at import time must not break discovery...
    (suite_dir / "bench_badimport.py").write_text(
        "raise ImportError('nope')\n\ndef run(params=None):\n"
        "    return {'metrics': {}}\n")
    specs = discover(suite_dir)
    assert [s.name for s in specs] == ["alpha", "badimport", "boom",
                                      "legacy"]
    # ...and filtering is comma-separated substring match.
    assert [s.name for s in discover(suite_dir, pattern="alp,boo")] \
        == ["alpha", "boom"]
    assert find("alpha", suite_dir) is not None
    assert find("zzz", suite_dir) is None


def test_parse_spec_metadata(suite_dir):
    spec = parse_spec(suite_dir / "bench_alpha.py")
    assert spec.name == "alpha"
    assert spec.claims == ("C1",)
    assert spec.description == "A tiny well-behaved benchmark."
    assert spec.has_run
    legacy = parse_spec(suite_dir / "bench_legacy.py")
    assert not legacy.has_run


def test_default_bench_dir_points_at_repo_suite():
    assert (default_bench_dir() / "bench_power_breakdown.py").exists()


# ------------------------------------------------------------------ runner

def test_execute_one_success_and_params(suite_dir):
    res = BenchResult.from_dict(execute_one(
        "alpha", str(suite_dir / "bench_alpha.py"), ("C1",),
        {"quick": True, "seed": 7}))
    assert res.ok and res.status == STATUS_OK
    assert res.metrics["answer"] == 42.0
    assert res.metrics["n"] == 4          # quick honored
    assert res.vectors == 4
    assert res.seed == 7
    assert res.wall_s >= 0


def test_execute_one_captures_crash(suite_dir):
    res = BenchResult.from_dict(execute_one(
        "boom", str(suite_dir / "bench_boom.py"), ("C2",), {}))
    assert res.status == STATUS_ERROR
    assert "kaboom" in res.error


def test_execute_one_rejects_bad_payloads(tmp_path):
    (tmp_path / "bench_flat.py").write_text(
        "def run(params=None):\n    return {'answer': 1}\n")
    res = BenchResult.from_dict(execute_one(
        "flat", str(tmp_path / "bench_flat.py"), (), {}))
    assert res.status == STATUS_ERROR and "metrics" in res.error
    (tmp_path / "bench_str.py").write_text(
        "def run(params=None):\n"
        "    return {'metrics': {'bad': 'oops'}}\n")
    res = BenchResult.from_dict(execute_one(
        "str", str(tmp_path / "bench_str.py"), (), {}))
    assert res.status == STATUS_ERROR and "non-numeric" in res.error


def test_run_benchmarks_inline_is_crash_proof(suite_dir):
    report = run_benchmarks(discover(suite_dir),
                            {"quick": True, "seed": 0}, jobs=1)
    by = report.by_name()
    assert by["alpha"].ok
    assert by["boom"].status == STATUS_ERROR
    assert "kaboom" in by["boom"].error
    assert by["legacy"].status == STATUS_ERROR  # no run() entry point
    assert not report.all_ok and report.num_ok == 1
    assert report.params["seed"] == 0 and report.params["jobs"] == 1


def test_run_benchmarks_process_pool(suite_dir):
    report = run_benchmarks(discover(suite_dir),
                            {"quick": True, "seed": 0}, jobs=2,
                            timeout=60)
    by = report.by_name()
    assert by["alpha"].ok and by["alpha"].metrics["answer"] == 42.0
    assert by["boom"].status == STATUS_ERROR
    assert "kaboom" in by["boom"].error


def test_run_benchmarks_timeout_kills_worker(tmp_path):
    (tmp_path / "bench_slow.py").write_text(
        "import time\n\ndef run(params=None):\n"
        "    time.sleep(30)\n    return {'metrics': {'x': 1.0}}\n")
    t0 = time.perf_counter()
    report = run_benchmarks(discover(tmp_path), {}, jobs=2,
                            timeout=0.5)
    # The runaway worker must be killed, not awaited.
    assert time.perf_counter() - t0 < 20
    (res,) = report.results
    assert res.status == STATUS_TIMEOUT
    assert "timeout" in res.error


def test_real_benchmark_through_harness():
    spec = find("power_breakdown")
    res = BenchResult.from_dict(execute_one(
        spec.name, spec.path, spec.claims,
        {"quick": True, "seed": 0}))
    assert res.ok, res.error
    assert res.claims == ("C1",)
    # The C1 shape survives even at quick vector counts.
    for key, value in res.metrics.items():
        if key.endswith("sw_fraction"):
            assert value > 0.85
    assert "estimation" in res.phases


# --------------------------------------------------------------- profiling

def test_phase_collection_nests_and_accumulates():
    with collect_phases() as acc:
        with phase("simulation"):
            pass
        with phase("simulation"):
            pass
        with phase("optimization"):
            with phase("estimation"):
                pass
    assert set(acc) == {"simulation", "optimization", "estimation"}
    assert acc["simulation"] >= 0
    # phase() outside a collector is a silent no-op.
    with phase("ignored"):
        pass


# -------------------------------------------------------------------- JSON

def test_report_json_round_trip(tmp_path):
    report = RunReport.new({"quick": True, "seed": 3})
    report.results.append(BenchResult(
        name="alpha", claims=("C1",), status=STATUS_OK, wall_s=0.5,
        seed=3, vectors=64, metrics={"m": 1.5, "t_ms": 9.0},
        phases={"simulation": 0.4}))
    report.results.append(BenchResult(
        name="boom", status=STATUS_ERROR, error="Traceback ..."))
    path = tmp_path / "BENCH_test.json"
    report.write(str(path))
    loaded = RunReport.load(str(path))
    assert loaded.to_dict() == report.to_dict()
    assert loaded.by_name()["alpha"].metrics == {"m": 1.5, "t_ms": 9.0}
    assert loaded.by_name()["alpha"].claims == ("C1",)
    # the artifact is plain JSON, consumable without repro installed
    raw = json.loads(path.read_text())
    assert raw["schema"] == 1 and len(raw["results"]) == 2


def test_volatile_metric_convention():
    assert is_volatile_metric("montecarlo_ms")
    assert is_volatile_metric("wall_s")
    assert not is_volatile_metric("saving")
    assert not is_volatile_metric("misses")


# ----------------------------------------------------------------- compare

def _report(**benches):
    rep = RunReport.new({"quick": True, "seed": 0})
    for name, spec in benches.items():
        status = spec.get("status", STATUS_OK)
        rep.results.append(BenchResult(
            name=name, status=status,
            metrics=spec.get("metrics", {}),
            error=spec.get("error")))
    return rep


def test_compare_identical_is_ok():
    base = _report(a={"metrics": {"x": 1.0, "y": 2.0}})
    cur = _report(a={"metrics": {"x": 1.0, "y": 2.0}})
    cmp = compare_reports(base, cur)
    assert cmp.ok and cmp.metrics_compared == 2
    assert "OK" in cmp.summary()


def test_compare_flags_drift_beyond_tolerance():
    base = _report(a={"metrics": {"x": 1.0}})
    within = _report(a={"metrics": {"x": 1.04}})
    beyond = _report(a={"metrics": {"x": 1.2}})
    assert compare_reports(base, within, rel_tol=0.05).ok
    cmp = compare_reports(base, beyond, rel_tol=0.05)
    assert not cmp.ok
    (finding,) = cmp.regressions
    assert finding.kind == DRIFT and finding.bench == "a"
    assert finding.metric == "x"
    assert "DRIFT" in finding.describe()


def test_compare_volatile_metrics_never_gate():
    base = _report(a={"metrics": {"t_run_ms": 10.0, "x": 1.0}})
    cur = _report(a={"metrics": {"t_run_ms": 900.0, "x": 1.0}})
    assert compare_reports(base, cur).ok


def test_compare_structural_findings():
    base = _report(a={"metrics": {"x": 1.0, "gone": 5.0}},
                   b={"metrics": {"y": 1.0}})
    cur = _report(a={"metrics": {"x": 1.0, "fresh": 2.0}},
                  c={"metrics": {"z": 3.0}})
    cmp = compare_reports(base, cur)
    kinds = {(f.kind, f.bench) for f in cmp.findings}
    assert (MISSING_BENCH, "b") in kinds
    assert (NEW_BENCH, "c") in kinds
    assert (MISSING_METRIC, "a") in kinds
    assert not cmp.ok
    # new bench/metric alone must NOT fail the comparison
    grow = compare_reports(_report(a={"metrics": {"x": 1.0}}),
                           _report(a={"metrics": {"x": 1.0,
                                                  "fresh": 2.0}},
                                   c={"metrics": {"z": 3.0}}))
    assert grow.ok and len(grow.findings) == 2


def test_compare_status_degradation_fails():
    base = _report(a={"metrics": {"x": 1.0}})
    cur = _report(a={"status": STATUS_ERROR,
                     "error": "RuntimeError: kaboom"})
    cmp = compare_reports(base, cur)
    assert not cmp.ok
    (finding,) = cmp.regressions
    assert finding.kind == STATUS and "kaboom" in finding.detail
    # A broken *baseline* bench gates nothing (nothing to compare to).
    assert compare_reports(cur, base).ok


def test_compare_tolerates_tiny_absolute_noise():
    base = _report(a={"metrics": {"zeroish": 0.0}})
    cur = _report(a={"metrics": {"zeroish": 1e-12}})
    assert compare_reports(base, cur, abs_tol=1e-9).ok
    assert not compare_reports(base, cur, abs_tol=0.0).ok


def test_compare_filter_fails_on_any_unmatched_substring(tmp_path,
                                                         capsys):
    from repro.tools.cli import main

    rep = _report(alpha={"metrics": {"x": 1.0}},
                  beta={"metrics": {"y": 2.0}})
    path = str(tmp_path / "BENCH_r.json")
    rep.write(path)
    assert main(["bench", "compare", "--filter", "alpha,beta",
                 "--tol", "0", "--abs-tol", "0", path, path]) == 0
    capsys.readouterr()
    # One renamed bench must not silently drop out of a multi-bench
    # gate while the others still match.
    assert main(["bench", "compare", "--filter", "alpha,gamma",
                 path, path]) == 2
    err = capsys.readouterr().err
    assert "gamma" in err and "alpha" not in err
    assert main(["bench", "compare", "--filter", "zzz", path,
                 path]) == 2
