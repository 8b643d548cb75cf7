"""Unconstrained assortment solver, revenue-ordered baseline, and the
general attraction model variant."""

import itertools
import math

import numpy as np
import pytest

from luceopt import (
    NonPositiveInput,
    WeightOrderError,
    brute_force_assortment,
    expected_revenue,
    make_instance,
    max_weight_antichain,
    revenue_ordered_heuristic,
    solve_assortment_2slm,
    solve_assortment_gam,
    threshold_dominance,
    validate_partial_order,
    WeightedPoset,
)
from conftest import random_instance


class TestSolveAssortment:
    def test_rev_ord_fail_optimum(self, rev_ord_fail):
        sol = solve_assortment_2slm(rev_ord_fail)
        assert sol.assortment == (1, 3)
        assert sol.revenue == pytest.approx(22.096, abs=1e-3)

    def test_single_product_no_outside_option(self):
        inst = make_instance([10.0], [1.0], 0.0, validate_partial_order(set(), 1))
        sol = solve_assortment_2slm(inst)
        assert sol.assortment == (1,) and sol.revenue == pytest.approx(10.0)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(123)
        for i in range(150):
            n = int(rng.integers(1, 13))
            inst = random_instance(i, n=n, a0=float(rng.uniform(0, 8)),
                                   d=float(rng.uniform(0, 1)), seed=42)
            sol = solve_assortment_2slm(inst)
            oracle = brute_force_assortment(inst)
            assert sol.revenue == pytest.approx(
                oracle.value, rel=1e-6, abs=1e-6
            )
            assert inst.dominance.is_antichain(sol.assortment)

    def test_certificate_at_return(self, rev_ord_fail):
        sol = solve_assortment_2slm(rev_ord_fail)
        weights = tuple(
            (p.revenue - sol.revenue) * p.attractiveness
            for p in rev_ord_fail.products
        )
        _, value = max_weight_antichain(
            WeightedPoset(rev_ord_fail.dominance, weights)
        )
        assert value <= sol.revenue * rev_ord_fail.a0 + 1e-9 * max(1.0, sol.revenue)

    def test_lambda_trace_strictly_increasing(self):
        rng = np.random.default_rng(8)
        for i in range(40):
            inst = random_instance(i, n=int(rng.integers(2, 12)), d=0.5, seed=77)
            trace: list[float] = []
            solve_assortment_2slm(inst, trace=trace)
            assert all(a < b for a, b in zip(trace, trace[1:]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        for i in range(30):
            inst = random_instance(i, n=int(rng.integers(1, 10)), d=0.4, seed=3)
            s = float(rng.uniform(0.1, 20.0))
            scaled = make_instance(
                [p.revenue * s for p in inst.products],
                [p.attractiveness for p in inst.products],
                inst.a0,
                inst.dominance,
            )
            r1 = solve_assortment_2slm(inst).revenue
            r2 = solve_assortment_2slm(scaled).revenue
            assert r2 == pytest.approx(s * r1, rel=1e-9, abs=1e-12)

    def test_revenue_matches_expected_revenue(self):
        rng = np.random.default_rng(14)
        for i in range(30):
            inst = random_instance(i, n=int(rng.integers(1, 11)), d=0.5, seed=19)
            sol = solve_assortment_2slm(inst)
            assert sol.revenue == pytest.approx(
                expected_revenue(sol.assortment, inst), abs=1e-9
            )


class TestRevenueOrderedHeuristic:
    def test_rev_ord_fail_baseline(self, rev_ord_fail):
        ro = revenue_ordered_heuristic(rev_ord_fail)
        assert ro.assortment == (1,)
        assert ro.revenue == pytest.approx(16.824, abs=1e-3)

    def test_gap_is_about_24_percent(self, rev_ord_fail):
        opt = solve_assortment_2slm(rev_ord_fail)
        ro = revenue_ordered_heuristic(rev_ord_fail)
        gap = 100.0 * (1.0 - ro.revenue / opt.revenue)
        assert gap == pytest.approx(23.86, abs=2e-2)

    def test_single_product(self):
        inst = make_instance([4.0], [2.0], 1.0, validate_partial_order(set(), 1))
        assert revenue_ordered_heuristic(inst).assortment == (1,)

    def test_never_beats_solver(self):
        rng = np.random.default_rng(6)
        for i in range(60):
            inst = random_instance(i, n=int(rng.integers(1, 12)),
                                   d=float(rng.uniform(0, 1)), seed=10)
            opt = solve_assortment_2slm(inst)
            ro = revenue_ordered_heuristic(inst)
            assert ro.revenue <= opt.revenue + 1e-9

    def test_optimal_for_plain_mnl(self):
        # Empty dominance: solver revenue equals the best revenue-ordered
        # prefix (the classic structure of the MNL optimum).
        rng = np.random.default_rng(44)
        for i in range(40):
            inst = random_instance(i, n=int(rng.integers(1, 12)), d=0.0, seed=8)
            opt = solve_assortment_2slm(inst)
            ro = revenue_ordered_heuristic(inst)
            assert opt.revenue == pytest.approx(ro.revenue, rel=1e-9, abs=1e-9)


def _gam_enumeration(revenues, v, w, v0, rel):
    v_tilde = [vi - wi for vi, wi in zip(v, w)]
    v0_tilde = v0 + sum(w)
    n = len(v)
    best = 0.0
    for size in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            if not rel.is_antichain(subset):
                continue
            den = sum(v_tilde[i - 1] for i in subset) + v0_tilde
            if den <= 0:
                continue
            best = max(best, sum(revenues[i - 1] * v[i - 1] for i in subset) / den)
    return best


class TestGeneralAttractionModel:
    def test_zero_shadow_weights_match_base_solver(self):
        rng = np.random.default_rng(17)
        for i in range(25):
            inst = random_instance(i, n=int(rng.integers(1, 10)), d=0.5, seed=21)
            r = [p.revenue for p in inst.products]
            v = [p.attractiveness for p in inst.products]
            got = solve_assortment_gam(r, v, [0.0] * inst.n, inst.a0, inst.dominance)
            want = solve_assortment_2slm(inst)
            assert got.revenue == pytest.approx(want.revenue, rel=1e-9, abs=1e-9)

    def test_full_shadow_weights_constant_denominator(self):
        # w == v collapses the denominator to a constant, so the optimum is
        # the antichain maximizing the revenue-weight products.
        rel = validate_partial_order({(1, 2)}, 3)
        r, v = [3.0, 5.0, 1.0], [2.0, 2.0, 4.0]
        got = solve_assortment_gam(r, v, list(v), 1.0, rel)
        poset = WeightedPoset(rel, tuple(ri * vi for ri, vi in zip(r, v)))
        _, best = max_weight_antichain(poset)
        assert got.revenue == pytest.approx(best / (1.0 + sum(v)), rel=1e-9)

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(23)
        for i in range(60):
            n = int(rng.integers(1, 10))
            inst = random_instance(i, n=n, d=0.4, seed=29)
            r = [p.revenue for p in inst.products]
            v = [p.attractiveness for p in inst.products]
            w = [vi * float(rng.uniform(0, 1)) for vi in v]
            v0 = float(rng.uniform(0, 3))
            got = solve_assortment_gam(r, v, w, v0, inst.dominance)
            want = _gam_enumeration(r, v, w, v0, inst.dominance)
            assert got.revenue == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_weight_order_enforced(self):
        rel = validate_partial_order(set(), 2)
        with pytest.raises(WeightOrderError):
            solve_assortment_gam([1.0, 1.0], [2.0, 2.0], [3.0, 0.0], 1.0, rel)

    @pytest.mark.parametrize("field, value, error", [
        ("revenues", math.nan, NonPositiveInput),
        ("revenues", math.inf, NonPositiveInput),
        ("revenues", -1.0, NonPositiveInput),
        ("v", math.nan, NonPositiveInput),
        ("v", math.inf, NonPositiveInput),
        ("v", 0.0, NonPositiveInput),
        ("w", math.nan, WeightOrderError),
        ("w", -math.inf, WeightOrderError),
        ("v0", math.nan, NonPositiveInput),
        ("v0", math.inf, NonPositiveInput),
        ("v0", -1.0, NonPositiveInput),
    ])
    def test_invalid_inputs_rejected_before_solving(self, field, value, error):
        args = {"revenues": [1.0, 2.0], "v": [2.0, 2.0], "w": [0.0, 0.0], "v0": 1.0}
        if field == "v0":
            args["v0"] = value
        else:
            args[field][1] = value
        with pytest.raises(error):
            solve_assortment_gam(dominance=validate_partial_order(set(), 2), **args)
