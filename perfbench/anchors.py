"""Time the rows of the ROADMAP re-anchor table with the same generators,
to check the benchmark's first numbers against them.

    python3 perfbench/anchors.py

Takes about a minute and a half (``solve_japtlm`` at n=200 alone takes most
of it).  Each row prints the ROADMAP figure, the time measured here (the
median of three runs, one for n=200) and their ratio.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from luceopt import assortment, bench, capacitated, model, pricing  # noqa: E402


def timed(fn, repeat: int = 3) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def dag(n: int, d: float):
    cfg = bench.AssortmentExperimentConfig(n=n, a0=1.0, d=d, count=1, seed=0)
    return lambda: bench.generate_assortment_instance(cfg, 0)


def threshold(n: int, t: float):
    cfg = bench.AssortmentExperimentConfig(n=n, a0=1.0, d=0.0, count=1, seed=0)
    base = bench.generate_assortment_instance(cfg, 0)
    att = [p.attractiveness for p in base.products]
    rev = [p.revenue for p in base.products]
    return lambda: model.make_instance(rev, att, 1.0, model.threshold_dominance(att, t))


def candidates(inst) -> int:
    calls = 0
    original = pricing.japtlm_candidate

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    pricing.japtlm_candidate = counted
    try:
        pricing.solve_japtlm(inst)
    finally:
        pricing.japtlm_candidate = original
    return calls


def main() -> int:
    rows = []
    for n, d, build_ref, solve_ref in ((200, 0.5, 0.11, 0.13), (400, 0.3, 0.48, 0.54)):
        build_s, inst = timed(dag(n, d))
        solve_s, _ = timed(lambda: assortment.solve_assortment_2slm(inst))
        rows += [(f"2SLM build n={n} d={d}", build_ref, build_s),
                 (f"2SLM solve n={n} d={d}", solve_ref, solve_s)]
    tree = bench.generate_tree_instance(400, 1.0, 0, 0)
    solve_s, _ = timed(lambda: capacitated.solve_capacitated_tree(
        capacitated.CapacitatedProblem(tree, 40)))
    rows.append(("tree DP solve n=400 C=40", 0.03, solve_s))
    build_s, inst = timed(threshold(200, 1.0))
    solve_s, _ = timed(lambda: capacitated.solve_capacitated_attcorr(
        capacitated.CapacitatedProblem(inst, 20)))
    corr_s, _ = timed(lambda: capacitated.is_attractiveness_correlated(inst))
    rows += [("attcorr build n=200 t=1", 0.12, build_s),
             ("attcorr solve n=200 C=20", 0.21, solve_s),
             ("is_attractiveness_correlated n=200", 0.18, corr_s)]
    for n, ref in ((50, 0.40), (100, 3.5), (200, 48.7)):
        cfg = bench.PricingExperimentConfig(n=n, t=1.0, a0=1.0, count=1, seed=0)
        inst = bench.generate_pricing_instance(cfg, 0)
        solve_s, _ = timed(lambda: pricing.solve_japtlm(inst), repeat=1 if n >= 200 else 3)
        label = f"solve_japtlm n={n}"
        if n == 100:
            label += f" ({candidates(inst)} candidates)"
        rows.append((label, ref, solve_s))
    print(f"{'row':48s} {'roadmap s':>10s} {'here s':>10s} {'ratio':>7s}")
    for label, ref, got in rows:
        print(f"{label:48s} {ref:10.3f} {got:10.3f} {got / ref:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
