"""The four benchmark workloads: instance documents, the operation each
document drives, and the check applied to each answer.

An operation is the work one CLI request (or one ``bench`` gap-table
instance) does: ``parse_*`` on the decoded JSON document, then the library
solvers ``luceopt.cli`` calls.  Solvers are reached through their module
attributes (``assortment.solve_assortment_2slm``, not an imported name) so
that the traced run can wrap them from outside.

Checks read the answer's public fields and the input document; they do not
use the program's own dominance structures, so a change to those cannot
hide a wrong answer.

A workload's pool is ``rounds`` rounds of one document per slot.  Slots are
ordered by cost and there are five of them, so with whole rounds the
median and the 75th percentile fall inside one slot's cluster of latencies
rather than in the gap between two.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable

from luceopt import assortment, bench, capacitated, model, oracles, pricing
from luceopt.errors import NoFeasibleCandidate

DEFAULT_SEED = 0
# Relative tolerance for revenues that two computations must agree on.
REV_RTOL = 1e-9
# Tolerances of ``luceopt verify``.
VERIFY_RTOL = 1e-6
VERIFY_PRICING_RTOL = 1e-3
EPS = 1e-9  # solver default; the certificate gap must be within eps*max(1, R)


@dataclass(frozen=True)
class Case:
    """One operation's input: a decoded JSON document plus request flags."""

    kind: str
    doc: dict
    capacity: int = 0
    k: int = 0
    reference: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    calibration: str  # kernels that match the work: "python" or "numpy"
    slots: tuple
    smoke_slots: tuple
    rounds: int
    make: Callable[[int, int, int, Any], Case]
    run: Callable[[Case], Any]
    check: Callable[[Case, Any], list]
    revenue: Callable[[Any], float]


def _decoded(doc: dict) -> dict:
    """The document exactly as ``json.load`` would hand it to the CLI."""
    return json.loads(json.dumps(doc))


def _close(a: float, b: float, rtol: float = REV_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Independent answer checks on the input document
# ---------------------------------------------------------------------------


def _values(doc: dict) -> tuple[dict, dict]:
    rev = {int(p["id"]): float(p["revenue"]) for p in doc["products"]}
    att = {int(p["id"]): float(p["attractiveness"]) for p in doc["products"]}
    return rev, att


def comparable_pair(doc: dict, chosen) -> tuple[int, int] | None:
    """A pair of chosen products where one dominates the other, or None."""
    chosen = set(chosen)
    dom = doc["dominance"]
    if dom["type"] == "threshold":
        _, att = _values(doc)
        factor = 1.0 + float(dom["t"])
        for x in chosen:
            for y in chosen:
                if att[x] > factor * att[y]:
                    return x, y
        return None
    succ: dict[int, list[int]] = {}
    for x, y in dom["edges"]:
        succ.setdefault(int(x), []).append(int(y))
    for start in chosen:
        seen = set()
        stack = list(succ.get(start, ()))
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            if v in chosen:
                return start, v
            seen.add(v)
            stack.extend(succ.get(v, ()))
    return None


def antichain_revenue(doc: dict, chosen) -> float:
    """Expected revenue of an antichain: every member survives, so this is
    the logit revenue of the set against ``a0``."""
    rev, att = _values(doc)
    den = float(doc["a0"]) + sum(att[i] for i in chosen)
    return sum(rev[i] * att[i] for i in chosen) / den if den > 0 else 0.0


def _check_antichain(case: Case, chosen, revenue: float) -> list[str]:
    fails = []
    if any(not 1 <= i <= len(case.doc["products"]) for i in chosen):
        return [f"assortment {list(chosen)} has ids outside 1..n"]
    pair = comparable_pair(case.doc, chosen)
    if pair is not None:
        fails.append(f"not an antichain: {pair[0]} dominates {pair[1]}")
    recomputed = antichain_revenue(case.doc, chosen)
    if not _close(revenue, recomputed):
        fails.append(f"reported revenue {revenue!r} but the assortment earns {recomputed!r}")
    return fails


def _check_reference(case: Case, revenue: float) -> list[str]:
    if case.reference is None or math.isclose(
        revenue, case.reference, rel_tol=REV_RTOL, abs_tol=1e-12
    ):
        return []
    return [f"revenue {revenue!r} differs from the recorded reference {case.reference!r}"]


# ---------------------------------------------------------------------------
# assort-dag: `luceopt solve` and the assortment `bench` cell
# ---------------------------------------------------------------------------


def _make_assort(seed: int, slot: int, rnd: int, spec) -> Case:
    n, d, a0 = spec
    cfg = bench.AssortmentExperimentConfig(n=n, a0=a0, d=d, count=1, seed=seed, cell=slot)
    inst = bench.generate_assortment_instance(cfg, rnd)
    return Case("assort", _decoded(model.instance_to_dict(inst)))


def _run_assort(case: Case):
    inst = model.parse_instance(case.doc)
    return assortment.solve_assortment_2slm(inst), assortment.revenue_ordered_heuristic(inst)


def _check_assort(case: Case, answer) -> list[str]:
    opt, ro = answer
    fails = _check_antichain(case, opt.assortment, opt.revenue)
    if opt.revenue < ro.revenue - REV_RTOL * max(1.0, ro.revenue):
        fails.append(f"revenue {opt.revenue!r} below the revenue-ordered {ro.revenue!r}")
    if not opt.certificate_gap <= EPS * max(1.0, opt.revenue):
        fails.append(f"certificate gap {opt.certificate_gap!r} above eps*max(1, R)")
    return fails + _check_reference(case, opt.revenue)


# ---------------------------------------------------------------------------
# capacitated-mix: `luceopt solve --capacity`
# ---------------------------------------------------------------------------


def _make_capacitated(seed: int, slot: int, rnd: int, spec) -> Case:
    kind, n, a0, t = spec
    if kind == "tree":
        doc = model.instance_to_dict(bench.generate_tree_instance(n, a0, seed, rnd, cell=slot))
    else:
        # Only the revenue and attractiveness draws are used; d=0 skips the
        # pair loop's edges, which the threshold relation replaces.
        cfg = bench.AssortmentExperimentConfig(n=n, a0=a0, d=0.0, count=1, seed=seed, cell=slot)
        doc = model.instance_to_dict(bench.generate_assortment_instance(cfg, rnd))
        doc["dominance"] = {"type": "threshold", "t": t}
    return Case(kind, _decoded(doc), capacity=max(1, n // 10))


def _run_capacitated(case: Case):
    inst = model.parse_instance(case.doc)
    return capacitated.solve_capacitated_auto(
        capacitated.CapacitatedProblem(inst, case.capacity)
    )


def _check_capacitated(case: Case, answer) -> list[str]:
    sol, method = answer
    want = "tree" if case.kind == "tree" else "attcorr"
    fails = _check_antichain(case, sol.assortment, sol.revenue)
    if len(sol.assortment) > case.capacity:
        fails.append(f"{len(sol.assortment)} products exceed capacity {case.capacity}")
    if method != want:
        fails.append(f"dispatched to {method!r}, expected {want!r}")
    return fails + _check_reference(case, sol.revenue)


# ---------------------------------------------------------------------------
# pricing-joint: `luceopt price` (all three policies) and the pricing cell
# ---------------------------------------------------------------------------


def _pricing_doc(inst) -> dict:
    return {
        "products": [
            {"id": i, "revenue": 1.0, "attractiveness": 1.0, "utility": float(u)}
            for i, u in enumerate(inst.utilities, start=1)
        ],
        "a0": inst.a0,
        "dominance": {"type": "threshold", "t": inst.t},
    }


def _make_pricing(seed: int, slot: int, rnd: int, spec) -> Case:
    n, t = spec
    cfg = bench.PricingExperimentConfig(
        n=n, t=t, a0=(1.0, 10.0)[rnd % 2], count=1, seed=seed, cell=slot
    )
    return Case("price", _decoded(_pricing_doc(bench.generate_pricing_instance(cfg, rnd))))


def _run_pricing(case: Case):
    inst = model.parse_priced_instance(case.doc)
    return (
        inst,
        pricing.solve_japtlm(inst),
        pricing.fixed_price_policy(inst),
        pricing.quasi_same_price_policy(inst),
    )


def priced_revenue(doc: dict, prices) -> float:
    """Revenue of offering the prefix ``[len(prices)]`` at ``prices``."""
    u = [float(p["utility"]) for p in sorted(doc["products"], key=lambda p: p["id"])]
    att = [math.exp(u[i] - p) for i, p in enumerate(prices)]
    return sum(p * a for p, a in zip(prices, att)) / (sum(att) + float(doc["a0"]))


def _check_pricing(case: Case, answer) -> list[str]:
    inst, opt, fixed, quasi = answer
    fails = []
    if not pricing.check_pricing_invariants(opt, inst).all_pass:
        fails.append("optimal solution fails check_pricing_invariants")
    recomputed = priced_revenue(case.doc, opt.prices)
    if not _close(opt.revenue, recomputed):
        fails.append(f"reported revenue {opt.revenue!r} but the prices earn {recomputed!r}")
    tol = REV_RTOL * max(1.0, opt.revenue)
    if not fixed.revenue <= quasi.revenue + tol <= opt.revenue + 2 * tol:
        fails.append(
            f"policy order broken: fixed {fixed.revenue!r}, quasi {quasi.revenue!r}, "
            f"optimum {opt.revenue!r}"
        )
    return fails + _check_reference(case, opt.revenue)


# ---------------------------------------------------------------------------
# verify-small: one `luceopt verify` case per operation
# ---------------------------------------------------------------------------


def _make_verify(seed: int, slot: int, rnd: int, spec) -> Case:
    kind, n = spec
    if kind == "pricing":
        cfg = bench.PricingExperimentConfig(
            n=n, t=(0.5, 1.0, 2.0, 5.0)[rnd % 4], a0=(1.0, 10.0)[rnd % 2],
            count=1, seed=seed, cell=slot,
        )
        inst = bench.generate_pricing_instance(cfg, rnd)
        return Case(kind, _decoded(_pricing_doc(inst)), k=n)
    if kind == "tree":
        doc = model.instance_to_dict(
            bench.generate_tree_instance(n, 1.0 + rnd % 3, seed, rnd, cell=slot)
        )
    else:
        # Unlike `verify`, density stays at 0.2: in denser orders many
        # subsets tie at the optimum and the oracle's tie loop makes single
        # cases take seconds (n=20, d=0.8: up to 3.6 s against 0.25 s).
        cfg = bench.AssortmentExperimentConfig(
            n=n, a0=1.0 + rnd % 3, d=0.2 if kind == "assortment" else 0.0,
            count=1, seed=seed, cell=slot,
        )
        doc = model.instance_to_dict(bench.generate_assortment_instance(cfg, rnd))
        if kind == "attcorr":
            doc["dominance"] = {"type": "threshold", "t": 0.4 + 0.2 * (rnd % 3)}
    capacity = 0 if kind == "assortment" else 1 + rnd % min(4, n)
    return Case(kind, _decoded(doc), capacity=capacity)


def _run_verify(case: Case):
    """Solver revenue, oracle value, and whether the pricing solver fell
    back to the whole-instance optimum (as ``verify`` does)."""
    if case.kind == "pricing":
        inst = model.parse_priced_instance(case.doc)
        want = oracles.numeric_pricing_oracle(inst, case.k)
        try:
            return pricing.solve_japtlm_k(inst, case.k).revenue, want.value, False
        except NoFeasibleCandidate:
            return pricing.solve_japtlm(inst).revenue, want.value, True
    inst = model.parse_instance(case.doc)
    if case.kind == "assortment":
        got = assortment.solve_assortment_2slm(inst)
        want = oracles.brute_force_assortment(inst)
    else:
        prob = capacitated.CapacitatedProblem(inst, case.capacity)
        solver = (
            capacitated.solve_capacitated_tree
            if case.kind == "tree"
            else capacitated.solve_capacitated_attcorr
        )
        got = solver(prob)
        want = oracles.brute_force_assortment(inst, capacity=case.capacity)
    return got.revenue, want.value, False


def _check_verify(case: Case, answer) -> list[str]:
    got, want, fallback = answer
    tol = (VERIFY_PRICING_RTOL if case.kind == "pricing" else VERIFY_RTOL) * max(1.0, want)
    if fallback:
        ok = got >= want - tol
    else:
        ok = abs(got - want) <= tol
    fails = [] if ok else [f"{case.kind}: solver {got!r} vs oracle {want!r}"]
    return fails + _check_reference(case, got)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="assort-dag",
            calibration="python",
            slots=((150, 0.02, 1.0), (150, 0.1, 10.0), (400, 0.05, 1.0), (400, 0.1, 1.0),
                   (400, 0.05, 10.0)),
            smoke_slots=((12, 0.02, 1.0), (12, 0.1, 10.0), (30, 0.02, 10.0), (30, 0.1, 1.0),
                         (30, 0.05, 10.0)),
            rounds=6,
            make=_make_assort,
            run=_run_assort,
            check=_check_assort,
            revenue=lambda answer: answer[0].revenue,
        ),
        Workload(
            name="capacitated-mix",
            calibration="python",
            # (kind, n, a0, t); t applies to threshold dominance only.
            slots=(("tree", 400, 10.0, 0.0), ("tree", 700, 1.0, 0.0),
                   ("threshold", 150, 1.0, 0.5), ("tree", 1000, 10.0, 0.0),
                   ("threshold", 250, 10.0, 1.0)),
            smoke_slots=(("tree", 20, 10.0, 0.0), ("tree", 30, 1.0, 0.0),
                         ("threshold", 12, 1.0, 0.5), ("tree", 40, 10.0, 0.0),
                         ("threshold", 16, 10.0, 1.0)),
            rounds=12,
            make=_make_capacitated,
            run=_run_capacitated,
            check=_check_capacitated,
            revenue=lambda answer: answer[0].revenue,
        ),
        Workload(
            name="pricing-joint",
            calibration="python",
            slots=((30, 1.0), (45, 0.5), (45, 0.5), (45, 0.5), (60, 1.0)),
            smoke_slots=((4, 1.0), (6, 0.5), (6, 0.5), (6, 0.5), (8, 1.0)),
            rounds=16,
            make=_make_pricing,
            run=_run_pricing,
            check=_check_pricing,
            revenue=lambda answer: answer[1].revenue,
        ),
        Workload(
            name="verify-small",
            calibration="numpy",
            slots=(("tree", 16), ("pricing", 1), ("attcorr", 18), ("assortment", 20),
                   ("pricing", 2)),
            smoke_slots=(("tree", 6), ("pricing", 1), ("attcorr", 6), ("assortment", 8),
                         ("pricing", 2)),
            rounds=36,
            make=_make_verify,
            run=_run_verify,
            check=_check_verify,
            revenue=lambda answer: answer[0],
        ),
    )
}
