"""Tests of the benchmark harness itself, on small instances.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from luceopt import capacitated, pricing  # noqa: E402
from luceopt.errors import NoFeasibleCandidate  # noqa: E402
from perfbench import harness, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, comparable_pair  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The metrics every run must report.  ``failed_frac`` is a per-layer metric:
# an end-to-end metric must never read 0.
EXPECTED_END_TO_END = {"ops_per_s", "op_ms_p50", "op_ms_tail", "setup_s", "peak_rss_mb"}
EXPECTED_PER_LAYER = {
    "model.parse.ms", "model.dominance_build.ms", "model.closure_pairs",
    "model.reduction_pairs", "model.expected_revenue.calls", "model.expected_revenue.ms",
    "antichain.max_weight_antichain.calls", "antichain.max_weight_antichain.self_ms",
    "antichain.min_flow.ms", "antichain.arcs", "antichain.positive_elements",
    "assortment.solve_2slm.ms", "assortment.dinkelbach_iterations",
    "assortment.ms_per_iteration", "assortment.revenue_ordered.ms",
    "capacitated.auto.ms", "capacitated.dispatch.tree", "capacitated.dispatch.attcorr",
    "capacitated.is_attractiveness_correlated.calls",
    "capacitated.is_attractiveness_correlated.ms", "capacitated.tree_dp.calls",
    "capacitated.tree_dp.ms", "capacitated.mnl.calls", "capacitated.mnl.ms",
    "capacitated.iterations", "pricing.solve_japtlm.ms", "pricing.candidates",
    "pricing.candidates_feasible", "pricing.feasible_ratio", "pricing.lambert_w.calls",
    "pricing.quasi.ms", "pricing.quasi.minimize_scalar.calls", "pricing.fixed.ms",
    "oracles.brute_force_assortment.ms", "oracles.brute_force_assortment.evaluations",
    "oracles.numeric_pricing.ms", "oracles.numeric_pricing.evaluations",
    "trace.overhead_frac", "failed_frac",
} | {f"{layer}.self_{kind}" for layer in tracing.LAYERS for kind in ("ms", "share")}


def small(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, slots=w.smoke_slots, rounds=3)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced smoke run of every workload: (pool, ops, recorder)."""
    out = {}
    for name in WORKLOADS:
        w = small(name)
        pool, _, _ = harness.set_up(w, seed=3)
        ops, _ = harness.timed_loop(w, pool, seconds=0.0, min_ops=1)
        recorder = tracing.Recorder()
        traced, _ = harness.traced_replay(w, pool, ops, recorder)
        out[name] = (w, pool, traced, recorder)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_the_declared_metrics(name, trace, tmp_path, capsys):
    result = harness.run(small(name), 3, 0.01, trace, tmp_path, import_s=0.0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(declared) == (EXPECTED_PER_LAYER if trace else EXPECTED_END_TO_END)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(capsys.readouterr().out.splitlines()[0])["record"]
    for key in ("commit", "python", "numpy", "scipy", "nproc", "loadavg_start",
                "loadavg_end", "seed", "ops"):
        assert key in record
    assert (tmp_path / ".perfbench" / f"{name}-seed3-trace{int(trace)}.json").exists()


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_layer_self_times_fit_inside_each_operation(traced_runs):
    for w, pool, traced, recorder in traced_runs.values():
        ops = {s[5]: s[3] - s[2] for s in recorder.spans if s[1] == tracing.OP_SPAN}
        assert len(ops) == len(traced)
        own = tracing.self_times(recorder.spans)
        assert all(v >= 0 for v in own.values())
        for op_id, by_layer in tracing.layer_self_by_op(recorder.spans).items():
            assert sum(by_layer.values()) <= ops[op_id]
        # Every layer the workload touches has self time.
        assert tracing.layer_self_by_op(recorder.spans)


def _profiled_calls(fn, code) -> int:
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("name, function, counted", [
    ("capacitated-mix", capacitated.is_attractiveness_correlated,
     "capacitated.is_attractiveness_correlated"),
    ("pricing-joint", pricing.japtlm_candidate, "pricing.candidates"),
])
def test_wrapper_counts_match_the_interpreter(traced_runs, name, function, counted):
    """The wrappers see exactly the calls a profiler sees."""
    w, pool, traced, recorder = traced_runs[name]
    seen = _calls_by_op(recorder, counted)
    for i, op in enumerate(traced):
        case = pool[op["round"]][op["slot"]]
        assert seen.get(i, 0) == _profiled_calls(lambda: w.run(case), function.__code__)


def _calls_by_op(recorder, name):
    out = {}
    for s in recorder.spans:
        if s[1] == name:
            out[s[5]] = out.get(s[5], 0) + 1
    for (op, counted), v in recorder.counts.items():
        if counted == name:
            out[op] = out.get(op, 0) + v
    return out


def test_known_counts_are_reported(traced_runs):
    w, pool, traced, recorder = traced_runs["pricing-joint"]
    known = harness.known_counts(pool, traced, recorder.spans, recorder.counts)
    assert known["pricing_candidates"]["instances"] >= 1
    w, pool, traced, recorder = traced_runs["capacitated-mix"]
    known = harness.known_counts(pool, traced, recorder.spans, recorder.counts)
    assert known["is_attractiveness_correlated_calls_per_attcorr_op"]["ops"] >= 1


def _scaled(answer, name):
    """The same answer with its exact-solver revenue 1% too high."""
    def up(sol):
        return dataclasses.replace(sol, revenue=sol.revenue * 1.01)

    if name in ("assort-dag", "capacitated-mix"):
        return up(answer[0]), answer[1]
    if name == "pricing-joint":
        return answer[0], up(answer[1]), answer[2], answer[3]
    return answer[0] * 1.01, answer[1], answer[2]


def _comparable(case):
    """Two products of the case's document where the first dominates."""
    ids = range(1, len(case.doc["products"]) + 1)
    for x in ids:
        for y in ids:
            if x != y and comparable_pair(case.doc, (x, y)):
                return tuple(sorted((x, y)))
    raise AssertionError("document has no dominance")


def _not_antichain(case, answer):
    return (dataclasses.replace(answer[0], assortment=_comparable(case)),) + answer[1:]


def _raises(case):
    raise NoFeasibleCandidate("injected")


def _failed(w, corrupt):
    pool, _, _ = harness.set_up(w, seed=5)
    bad = dataclasses.replace(w, run=corrupt)
    ops, calibrations = harness.timed_loop(bad, pool, seconds=0.0, min_ops=1)
    return ops, calibrations, sum(1 for op in ops if op["failures"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_revenue_off_by_one_percent_is_a_failed_operation(name):
    w = small(name)
    ops, calibrations, failed = _failed(w, lambda case: _scaled(w.run(case), name))
    assert failed == len(ops) >= 1
    assert harness.end_to_end(w, ops, calibrations, 0.0, [1.0], [0.01])["ops_per_s"] == 0.0


@pytest.mark.parametrize("name", ["assort-dag", "capacitated-mix"])
def test_non_antichain_is_a_failed_operation(name):
    w = dataclasses.replace(small(name), slots=small(name).slots[-1:])
    ops, _, failed = _failed(w, lambda case: _not_antichain(case, w.run(case)))
    assert failed == len(ops) >= 1
    assert all("not an antichain" in " ".join(op["failures"]) for op in ops)


def test_program_error_is_a_failed_operation_not_a_crash():
    ops, _, failed = _failed(small("verify-small"), _raises)
    assert failed == len(ops) >= 1
    assert "NoFeasibleCandidate" in ops[0]["failures"][0]


def test_reference_mismatch_is_a_failed_operation():
    w = WORKLOADS["pricing-joint"]
    reference = json.loads(harness.REFERENCE.read_text())
    assert {k: len(v) for k, v in reference.items()} == {
        name: wl.rounds * len(wl.slots) for name, wl in WORKLOADS.items()
    }
    case = w.make(0, 0, 0, w.slots[0])
    answer = w.run(case)
    good = dataclasses.replace(case, reference=reference[w.name][0])
    bad = dataclasses.replace(case, reference=reference[w.name][0] * (1 + 1e-8))
    assert w.check(good, answer) == []
    assert any("reference" in f for f in w.check(bad, answer))


def test_tail_is_the_75th_percentile_with_ten_beyond():
    lat = harness.latency_summary([i / 1e3 for i in range(1, 41)])
    assert lat["tail_percentile"] == 75 and lat["tail_ms"] == pytest.approx(30.0)
    assert lat["ops_beyond_tail"] == 10 and lat["p50_ms"] == pytest.approx(20.5)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "assort-dag", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
