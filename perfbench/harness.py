"""Set-up, the timed closed loop, metrics and the run record.

One client sends the next operation only after the previous one has
completed and been checked.  Only the operation itself is timed: its
answer is checked afterwards, outside the timed region.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy
import scipy

from . import tracing
from .workloads import DEFAULT_SEED, Case, Workload

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ".perfbench"
SETUP_SLICES = 3
TAIL_PERCENTILE = 75
MIN_OPS = 40  # the smallest count with 10 operations beyond the 75th percentile
TAIL_LADDER = (99, 95, 90, 75, 50)
LOOP_WALL_LIMIT_S = 120.0  # keeps a run inside the 180 s exit limit
SPEED_WINDOW = 5  # operations on each side whose calibrations scale an operation

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(per_layer_metric: str) -> str:
    """Unit of a per-layer metric, from its name.  Times and counts are
    averages per traced operation."""
    if per_layer_metric.endswith(("_share", "_ratio", "_frac")):
        return "ratio"
    if per_layer_metric.endswith("ms_per_iteration"):
        return "ms/iteration"
    if per_layer_metric.endswith("ms"):
        return "ms/op"
    return "count/op"


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def load_reference(name: str) -> list[float] | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(name)


def set_up(w: Workload, seed: int):
    """Generate the pool (``w.rounds`` lists of one case per slot) in
    ``SETUP_SLICES`` slices of interleaved rounds, each followed by one
    warm-up operation per request kind.  Returns the pool, the seconds each
    slice took and a calibration taken before each slice."""
    reference = load_reference(w.name) if seed == DEFAULT_SEED else None
    pool: list[list[Case]] = [[] for _ in range(w.rounds)]
    slice_s, calibrations = [], []
    for j in range(min(SETUP_SLICES, w.rounds)):
        calibrations.append(calibrate(w.calibration))
        start = time.perf_counter()
        mine = range(j, w.rounds, SETUP_SLICES)
        for r in mine:
            for s, spec in enumerate(w.slots):
                case = w.make(seed, s, r, spec)
                pos = r * len(w.slots) + s
                if reference is not None and pos < len(reference):
                    case = dataclasses.replace(case, reference=reference[pos])
                pool[r].append(case)
        warmed = set()
        for r in mine:
            for case in pool[r]:
                if case.kind not in warmed:
                    warmed.add(case.kind)
                    one_op(w, case)  # a failure here shows again in the timed loop
        slice_s.append(time.perf_counter() - start)
    return pool, slice_s, calibrations


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def one_op(w: Workload, case: Case, recorder: tracing.Recorder | None = None,
           op_id: int = 0) -> tuple[float, list[str]]:
    """Run and time one operation, then check its answer.  Returns the
    operation's seconds and its failures (empty when correct).  An
    exception from the program is a failed operation, not a crashed run."""
    answer = error = None
    if recorder is None:
        start = time.perf_counter_ns()
        try:
            answer = w.run(case)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            error = exc
        elapsed = time.perf_counter_ns() - start
    else:
        with recorder.operation(op_id) as span:
            try:
                answer = w.run(case)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                error = exc
        elapsed = span[3] - span[2]
    if error is not None:
        fails = ["".join(traceback.format_exception_only(type(error), error)).strip()]
    else:
        try:
            fails = w.check(case, answer)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
            fails = [f"check raised {exc!r}"]
    return elapsed / 1e9, fails


def _kernel_dict() -> float:
    d: dict[int, float] = {}
    seen = set()
    acc = 0.0
    for i in range(20000):
        d[i] = i * 0.5
        seen.add(i ^ 0x55)
        acc += d[i] * 1.0001
    return acc + len(seen)


def _kernel_sort() -> int:
    pairs = [((i * 7919) % 1009, i) for i in range(6000)]
    pairs.sort()
    keys = frozenset(a for a, _ in pairs)
    return sum(1 for a, b in pairs if a in keys and b & 1)


def _kernel_numpy() -> int:
    a = numpy.arange(1 << 20, dtype=numpy.int64)
    return int((((a >> 3) & a) != 0).sum())


# Kernels for each kind of work, and the seconds they take together at the
# reference speed (2-core x86-64 VM, Python 3.11.7, an uncontended
# stretch).  The slow stretches slow interpreted code more than numpy array
# passes, so a workload is scaled by the kernels that match its work; see
# README.md, "Machine speed".
CALIBRATIONS = {
    "python": ((_kernel_dict, _kernel_sort), 0.007),
    "numpy": ((_kernel_numpy,), 0.0075),
}


def calibrate(kind: str) -> float:
    """Seconds the fixed kernels of ``kind`` take now.

    The kernels call nothing in the program, so only the machine's speed
    moves this number; ``at_reference_speed`` divides it out of the timings."""
    start = time.perf_counter()
    for kernel in CALIBRATIONS[kind][0]:
        kernel()
    return time.perf_counter() - start


def at_reference_speed(seconds: list[float], calibrations: list[float],
                       kind: str) -> list[float]:
    """Each time multiplied by the reference calibration over the median of
    the calibrations taken within ``SPEED_WINDOW`` operations of it.  The
    machine's speed drifts over seconds, so the window follows it while the
    median ignores a single disturbed calibration."""
    h = SPEED_WINDOW
    ref = CALIBRATIONS[kind][1]
    return [
        t * ref / statistics.median(calibrations[max(0, i - h):i + h + 1])
        for i, t in enumerate(seconds)
    ]


def timed_loop(w: Workload, pool: list[list[Case]], seconds: float,
               min_ops: int = MIN_OPS) -> tuple[list[dict], list[float]]:
    """Whole rounds until the operations have taken ``seconds`` and at
    least ``min_ops`` ran.  Rounds cycle through the pool.  Returns the
    operations and the calibration taken before each of them."""
    ops: list[dict] = []
    calibrations: list[float] = []
    busy = 0.0
    wall_start = time.perf_counter()
    r = 0
    gc.collect()
    while True:
        for s, case in enumerate(pool[r % len(pool)]):
            calibrations.append(calibrate(w.calibration))
            dt, fails = one_op(w, case)
            ops.append({"round": r % len(pool), "slot": s, "s": dt, "failures": fails})
            busy += dt
        r += 1
        if busy >= seconds and len(ops) >= min_ops:
            break
        if time.perf_counter() - wall_start > LOOP_WALL_LIMIT_S:
            break
    return ops, calibrations


def traced_replay(w: Workload, pool: list[list[Case]], ops: list[dict],
                  recorder: tracing.Recorder) -> tuple[list[dict], list[float]]:
    """The same operations, in the same order, with the spans installed,
    calibrating before each as ``timed_loop`` does."""
    out = []
    calibrations = []
    gc.collect()
    with tracing.installed(recorder):
        for i, op in enumerate(ops):
            calibrations.append(calibrate(w.calibration))
            dt, fails = one_op(w, pool[op["round"]][op["slot"]], recorder, op_id=i)
            out.append({**op, "s": dt, "failures": fails})
    return out, calibrations


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def latency_summary(seconds: list[float]) -> dict:
    """Median and tail latency in ms (nearest rank).  The tail is the 75th
    percentile in every run: ``MIN_OPS`` keeps 10 operations beyond it,
    and one fixed percentile stays comparable between commits whose
    operation counts differ.  The highest ladder percentile with 10
    operations beyond it in this run is recorded next to it."""
    ms = sorted(x * 1e3 for x in seconds)
    n = len(ms)

    def rank(p: int) -> int:
        return max(1, math.ceil(p / 100 * n))

    out = {"ops": n, "p50_ms": statistics.median(ms), "tail_percentile": TAIL_PERCENTILE,
           "tail_ms": ms[rank(TAIL_PERCENTILE) - 1], "ops_beyond_tail": n - rank(TAIL_PERCENTILE)}
    for p in TAIL_LADDER:
        if n - rank(p) >= 10:
            out.update(highest_percentile_with_10_beyond=p, at_highest_ms=ms[rank(p) - 1])
            break
    return out


def end_to_end(w: Workload, ops: list[dict], calibrations: list[float], import_s: float,
               slice_s: list[float], setup_calibrations: list[float]) -> dict[str, float]:
    """The end-to-end metrics, every time at the reference speed."""
    op_s = at_reference_speed([op["s"] for op in ops], calibrations, w.calibration)
    correct = sum(1 for op in ops if not op["failures"])
    lat = latency_summary(op_s)
    setup = import_s + len(slice_s) * statistics.median(slice_s)
    return {
        "ops_per_s": correct / sum(op_s),
        "op_ms_p50": lat["p50_ms"],
        "op_ms_tail": lat["tail_ms"],
        "setup_s": at_reference_speed([setup], setup_calibrations, w.calibration)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def known_counts(pool, ops: list[dict], spans: list[list], counts: Counter) -> dict:
    """Counts fixed by the program's structure at the commit that defined
    this benchmark: ``is_attractiveness_correlated`` runs twice per attcorr
    solve, and the joint-pricing scan tries k(k-1)/2 candidates for every
    prefix k whose dominance constraint is tight (no tied utilities).
    Reported, not enforced: a change to the algorithm may change them."""
    per_op = Counter(
        s[5] for s in spans if s[1] == "capacitated.is_attractiveness_correlated"
    )
    attcorr_ops = {s[5] for s in spans
                   if s[1] == "capacitated.auto" and (s[6] or {}).get("method") == "attcorr"}
    out = {}
    if attcorr_ops:
        out["is_attractiveness_correlated_calls_per_attcorr_op"] = {
            "expected": 2, "ops": len(attcorr_ops),
            "ops_matching": sum(1 for i in attcorr_ops if per_op[i] == 2),
        }
    instances = matching = expected_total = observed_total = 0
    for i, op in enumerate(ops):
        case = pool[op["round"]][op["slot"]]
        if case.kind != "price":
            continue
        u = [float(p["utility"]) for p in case.doc["products"]]
        if len(set(u)) != len(u):
            continue
        band = math.log1p(float(case.doc["dominance"]["t"])) * (1.0 + 1e-12)
        expected = sum(k * (k - 1) // 2 for k in range(1, len(u) + 1) if u[0] - u[k - 1] > band)
        observed = counts[(i, "pricing.candidates")]
        instances += 1
        matching += expected == observed
        expected_total += expected
        observed_total += observed
    if instances:
        out["pricing_candidates"] = {
            "instances": instances, "instances_matching": matching,
            "expected": expected_total, "observed": observed_total,
        }
    return out


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def environment(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=30, check=False)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
        import_s: float) -> dict:
    """One benchmark run; returns the result object of the last output line
    and writes the run record (and, traced, the spans) under ``.perfbench``."""
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              **environment(root)}
    pool, slice_s, cal_setup = set_up(w, seed)
    record["setup"] = {"import_s": import_s, "slice_s": slice_s}
    if not trace:
        ops, cal_loop = timed_loop(w, pool, seconds)
        metrics = end_to_end(w, ops, cal_loop, import_s, slice_s, cal_setup)
        ref = [CALIBRATIONS[w.calibration][1]] * len(ops)
        record["unscaled"] = end_to_end(w, ops, ref, import_s, slice_s, ref[:1])
        record["latency"] = latency_summary(
            at_reference_speed([op["s"] for op in ops], cal_loop, w.calibration))
        all_ops = ops
    else:
        ops, cal_untraced = timed_loop(w, pool, seconds / 2, min_ops=len(w.slots))
        recorder = tracing.Recorder()
        traced, cal_traced = traced_replay(w, pool, ops, recorder)
        metrics = tracing.summarize(recorder.spans, recorder.counts)
        all_ops = ops + traced
        metrics["trace.overhead_frac"] = (
            sum(at_reference_speed([op["s"] for op in traced], cal_traced, w.calibration))
            / sum(at_reference_speed([op["s"] for op in ops], cal_untraced, w.calibration))
            - 1.0
        )
        metrics["failed_frac"] = sum(1 for op in all_ops if op["failures"]) / len(all_ops)
        cal_loop = cal_untraced + cal_traced
        record["known_counts"] = known_counts(pool, ops, recorder.spans, recorder.counts)
        record["unwrapped"] = recorder.missing
        _write(root, f"{w.name}-seed{seed}-spans.json", {
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "op", "attrs"],
            "spans": recorder.spans,
            "counts": [[op, name, v] for (op, name), v in sorted(recorder.counts.items())],
        })
    failed = [op for op in all_ops if op["failures"]]
    record["speed"] = {"kernels": w.calibration,
                       "reference_calibration_s": CALIBRATIONS[w.calibration][1],
                       "setup_calibration_s": cal_setup, "calibration_s": cal_loop,
                       "op_s": [op["s"] for op in all_ops]}
    record.update(
        ops=len(ops),
        slots=[{"spec": spec, "ops": len(mine), "p50_ms": statistics.median(mine) * 1e3}
               for spec, mine in _by_slot(w, ops)],
        failures=[{"round": op["round"], "slot": op["slot"], "why": op["failures"]}
                  for op in failed[:20]],
        loadavg_end=os.getloadavg(),
    )
    units = END_TO_END_UNITS if not trace else {k: unit_of(k) for k in metrics}
    result = {
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    _write(root, f"{w.name}-seed{seed}-trace{int(trace)}.json", record)
    print(json.dumps({"record": record}, default=list))
    for f in record["failures"]:
        print(f"FAILED round {f['round']} slot {f['slot']}: {f['why']}", file=sys.stderr)
    return result


def _by_slot(w: Workload, ops: list[dict]):
    for s, spec in enumerate(w.slots):
        mine = [op["s"] for op in ops if op["slot"] == s]
        if mine:
            yield spec, mine


def _write(root: Path, name: str, obj: dict) -> None:
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    (out / name).write_text(json.dumps(obj, default=list))
