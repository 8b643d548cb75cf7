"""Pricing: Lambert W, the fixed-price and quasi-same-price policies, the
boundary-group closed forms, and the full joint solver."""

import math

import numpy as np
import pytest

from luceopt import pricing
from luceopt import (
    BadGroupSizes,
    LuceOptError,
    NegativeArgument,
    NoFeasibleCandidate,
    PricedInstance,
    ZeroOutsideOption,
    check_pricing_invariants,
    expected_revenue_priced,
    fixed_price_policy,
    japtlm_candidate,
    lambert_w,
    numeric_pricing_oracle,
    quasi_same_price_policy,
    solve_japtlm,
    solve_japtlm_k,
)
from conftest import random_priced_instance


class TestLambertW:
    def test_exact_values(self):
        assert abs(lambert_w(math.e) - 1.0) <= 1e-12
        assert lambert_w(0.0) == 0.0

    def test_omega_constant_fixed_point_oracle(self):
        # Independent oracle for W(1): iterate w <- exp(-w) to convergence.
        w = 0.5
        for _ in range(200):
            w = math.exp(-w)
        assert lambert_w(1.0) == pytest.approx(w, abs=1e-12)
        assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)

    def test_round_trip_on_log_grid(self):
        for x in np.logspace(-8, 8, 100):
            w = lambert_w(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, x)

    def test_monotone_increasing(self):
        xs = np.logspace(-6, 6, 60)
        ws = [lambert_w(float(x)) for x in xs]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_negative_rejected(self):
        with pytest.raises(NegativeArgument):
            lambert_w(-0.1)

    def test_accurate_up_to_the_range_limit_and_rejected_beyond(self):
        # Independent oracle: Newton on w + ln(w) = ln(x), no overflow.
        x = 3e302
        w = math.log(x)
        for _ in range(50):
            w -= (w + math.log(w) - math.log(x)) / (1.0 + 1.0 / w)
        assert lambert_w(x) == pytest.approx(w, rel=1e-14)
        for beyond in (1e303, 1e307, math.inf):
            with pytest.raises(LuceOptError):
                lambert_w(beyond)


class TestFixedPricePolicy:
    def test_worked_example(self, fixed_price_num):
        sol = fixed_price_policy(fixed_price_num)
        assert sol.k == 1  # the flagship shadows all ten clones
        assert abs(sol.revenue - 1.0) <= 1e-9  # W(e) = 1
        assert sol.prices == (2.0,)

    def test_single_product(self):
        inst = PricedInstance((1.0,), 1.0, 1.0)
        sol = fixed_price_policy(inst)
        assert sol.revenue == pytest.approx(lambert_w(1.0), abs=1e-12)
        assert sol.prices[0] == pytest.approx(1.0 + lambert_w(1.0), abs=1e-12)

    def test_equal_utilities_never_dominate(self):
        inst = PricedInstance((1.0, 1.0), 0.25, 1.0)
        sol = fixed_price_policy(inst)
        assert sol.k == 2
        assert sol.revenue == pytest.approx(lambert_w(2.0), abs=1e-12)

    def test_zero_outside_option_rejected(self):
        with pytest.raises(ZeroOutsideOption):
            fixed_price_policy(PricedInstance((1.0,), 1.0, 0.0))


class TestBoundaryCandidate:
    def test_worked_example_revenue(self, fixed_price_num):
        cand = japtlm_candidate(fixed_price_num, 11, 1, 10)
        expected = lambert_w(6.0 * math.exp((2.0 + 10.0 * math.log(2.0)) / 12.0))
        assert cand.revenue == pytest.approx(expected, abs=1e-12)
        assert cand.revenue == pytest.approx(1.896, abs=1e-3)
        assert cand.feasible

    def test_empty_middle_group(self, fixed_price_num):
        cand = japtlm_candidate(fixed_price_num, 11, 1, 10)
        # k1 + k2 = k leaves no middle products, so c2 has no exp sum term.
        assert cand.c2 == pytest.approx(1.0 + 10.0 / 2.0, abs=1e-12)

    def test_group_net_utility_gap(self, fixed_price_num):
        cand = japtlm_candidate(fixed_price_num, 11, 1, 10)
        u = fixed_price_num.utilities
        net_top = u[0] - cand.prices[0]
        net_bottom = u[10] - cand.prices[10]
        assert net_top - net_bottom == pytest.approx(math.log1p(1.0), abs=1e-12)

    def test_candidate_identity(self):
        # Feasible candidates must reproduce their closed-form revenue when
        # re-evaluated through the raw choice model.
        rng = np.random.default_rng(3)
        checked = 0
        for i in range(120):
            n = int(rng.integers(2, 9))
            inst = random_priced_instance(i, n=n, t=(0.5, 1.0, 2.0)[i % 3],
                                          a0=(1.0, 10.0)[i % 2], seed=101)
            k = n
            if inst.utilities[0] - inst.utilities[k - 1] <= math.log1p(inst.t):
                continue
            for k1 in range(1, k):
                for k2 in range(1, k - k1 + 1):
                    cand = japtlm_candidate(inst, k, k1, k2)
                    if not cand.feasible:
                        continue
                    recomputed = expected_revenue_priced(
                        range(1, k + 1), cand.prices, inst
                    )
                    assert recomputed == pytest.approx(cand.revenue, abs=1e-8)
                    checked += 1
        assert checked > 50

    def test_bad_group_sizes(self, fixed_price_num):
        with pytest.raises(BadGroupSizes):
            japtlm_candidate(fixed_price_num, 11, 0, 1)
        with pytest.raises(BadGroupSizes):
            japtlm_candidate(fixed_price_num, 11, 6, 6)


class TestSolveJaptlmK:
    def test_k_one_is_fixed_price(self, fixed_price_num):
        sol = solve_japtlm_k(fixed_price_num, 1)
        assert abs(sol.revenue - 1.0) <= 1e-9
        assert sol.mode == "unconstrained"

    def test_k_eleven_beats_hand_prices(self, fixed_price_num):
        sol = solve_japtlm_k(fixed_price_num, 11)
        assert sol.revenue >= 1.298
        assert sol.mode == "boundary-tight"
        # Tightness: extreme attractiveness ratio is exactly 1 + t.
        a1 = math.exp(fixed_price_num.utilities[0] - sol.prices[0])
        ak = math.exp(fixed_price_num.utilities[10] - sol.prices[10])
        assert a1 / ak == pytest.approx(2.0, abs=1e-9)

    def test_equal_utilities_take_fixed_branch(self):
        inst = PricedInstance((0.0, 0.0), 0.5, 2.0)
        sol = solve_japtlm_k(inst, 2)
        assert sol.mode == "unconstrained"
        assert sol.revenue == pytest.approx(lambert_w(2.0 * math.exp(-1.0) / 2.0))

    def test_near_tie_keeps_the_first_feasible_pair(self):
        # u_1 - u_2 = 5e-12 is inside the candidate checks' slack, so both
        # k1 = 1 and k1 = 2 pass them with equal revenue; the water-filling
        # root puts u_2 in the top group, but the first pair must be kept.
        inst = PricedInstance((2.0, 2.0 - 5e-12, 1.0 - 2e-11), math.e - 1.0, 1.0)
        assert japtlm_candidate(inst, 3, 1, 1).feasible
        assert japtlm_candidate(inst, 3, 2, 1).feasible
        sol = solve_japtlm_k(inst, 3)
        assert (sol.k1, sol.k2) == (1, 1)

    def test_oracle_agreement_small_k(self):
        rng = np.random.default_rng(7)
        degenerate = 0
        for i in range(40):
            k = 1 + i % 3
            inst = random_priced_instance(
                i, n=k, t=(0.5, 1.0, 2.0, 5.0)[i % 4],
                a0=(1.0, 10.0, 100.0)[i % 3], seed=303,
            )
            oracle = numeric_pricing_oracle(inst, k)
            tol = 1e-3 * max(1.0, oracle.value)
            try:
                sol = solve_japtlm_k(inst, k)
            except NoFeasibleCandidate:
                # Zero-price boundary case: the prefix is dominated by a
                # shorter one, which the overall solver must confirm.
                degenerate += 1
                assert solve_japtlm(inst).revenue >= oracle.value - tol
                continue
            assert sol.revenue == pytest.approx(oracle.value, abs=tol)
        assert degenerate < 40


class TestSolveJaptlm:
    def test_worked_example(self, fixed_price_num):
        sol = solve_japtlm(fixed_price_num)
        expected = lambert_w(6.0 * math.exp((2.0 + 10.0 * math.log(2.0)) / 12.0))
        assert sol.revenue == pytest.approx(expected, abs=1e-9)
        assert (sol.k, sol.k1, sol.k2) == (11, 1, 10)

    def test_single_product(self):
        inst = PricedInstance((2.0,), 1.0, 1.0)
        sol = solve_japtlm(inst)
        assert sol.k == 1
        assert sol.revenue == pytest.approx(lambert_w(math.e), abs=1e-12)

    def test_fixed_price_ratio_grows_with_clones(self):
        # Flagship u=2 plus N clones at u=1 (t=1): the advantage over the
        # single shared price grows without bound in N.
        ratios = []
        for n_clones in (10, 100, 1000):
            inst = PricedInstance((2.0,) + (1.0,) * n_clones, 1.0, 1.0)
            ratios.append(
                solve_japtlm(inst).revenue / fixed_price_policy(inst).revenue
            )
        assert ratios[0] < ratios[1] < ratios[2]

    @pytest.mark.parametrize("inst", [
        pytest.param(PricedInstance((2.0,) + (1.0,) * 1000, 1.0, 1.0), id="clones-1001"),
        pytest.param(random_priced_instance(0, n=400, seed=400), id="seeded-400"),
    ])
    def test_candidates_built_grow_linearly(self, monkeypatch, inst):
        # Counts instead of timing: a return to the scan over every
        # (k1, k2) pair builds about n^3 / 6 candidates, so stop it early.
        calls = 0
        real = pricing.japtlm_candidate

        def counting(*args):
            nonlocal calls
            calls += 1
            assert calls <= 4 * inst.n, "more than 4n boundary candidates"
            return real(*args)

        monkeypatch.setattr(pricing, "japtlm_candidate", counting)
        solve_japtlm(inst)
        assert calls > 0

    def test_policy_ordering_and_invariants(self):
        rng = np.random.default_rng(11)
        for i in range(80):
            n = 1 + i % 10
            inst = random_priced_instance(
                i, n=n, t=(0.5, 1.0, 2.0, 5.0)[i % 4],
                a0=(1.0, 10.0, 100.0)[i % 3], seed=505,
            )
            opt = solve_japtlm(inst)
            fixed = fixed_price_policy(inst)
            quasi = quasi_same_price_policy(inst)
            assert fixed.revenue <= quasi.revenue + 1e-6
            assert quasi.revenue <= opt.revenue + 2e-6
            report = check_pricing_invariants(opt, inst)
            assert report.all_pass, (inst, opt, report)


class TestQuasiSamePrice:
    def test_slack_instances_match_fixed(self):
        # When no shared price can trigger dominance the uniform optimum is
        # already unbeatable with one extra degree of freedom.
        rng = np.random.default_rng(13)
        for i in range(20):
            n = int(rng.integers(1, 7))
            u = tuple(sorted(rng.uniform(0.0, 0.5, n), reverse=True))
            inst = PricedInstance(u, 5.0, 1.0)  # spread 0.5 << ln 6
            fixed = fixed_price_policy(inst)
            quasi = quasi_same_price_policy(inst)
            assert quasi.revenue == pytest.approx(fixed.revenue, abs=1e-6)

    def test_worked_example_strictly_between(self, fixed_price_num):
        quasi = quasi_same_price_policy(fixed_price_num)
        assert 1.0 + 1e-6 < quasi.revenue < 1.897

    def test_two_price_instances_match_grid_oracle(self):
        rng = np.random.default_rng(17)
        for i in range(25):
            inst = random_priced_instance(
                i, n=2, t=(0.5, 1.0, 2.0)[i % 3], a0=(1.0, 10.0)[i % 2], seed=707,
            )
            quasi = quasi_same_price_policy(inst)
            oracle = numeric_pricing_oracle(inst, 2)
            # With n=2 quasi prices both products freely, so it solves the
            # same problem the oracle solves (up to the best-k choice).
            best_single = numeric_pricing_oracle(inst, 1)
            target = max(oracle.value, best_single.value)
            assert quasi.revenue == pytest.approx(target, abs=1e-3)


    @pytest.mark.parametrize("u, t, a0", [
        ((0.0, -700.0), math.exp(10.0) - 1.0, math.exp(-650.0)),
        ((0.0, -710.0), math.exp(10.0) - 1.0, math.exp(-650.0)),
        ((0.0, -800.0), 1.0, 1e-300),
    ])
    def test_negative_last_price_with_tiny_outside_option(self, u, t, a0):
        # u_k < -20 makes the outer search try p_k < 0; with b >> a0 the
        # shared-price argument to W then passes lambert_w's range (first
        # two) or e^(-1 - B/A) alone overflows (third).  Only the single
        # shared price is worth offering.
        inst = PricedInstance(u, t, a0)
        assert quasi_same_price_policy(inst) == fixed_price_policy(inst)

    def test_shared_price_beyond_the_lambert_range(self):
        # The first case above at p_k = u_2 + 20: ln of W's argument is 699,
        # and the peak lies inside the band [10, 20].
        group_att, p_k, a0 = 1.0, -680.0, math.exp(-650.0)
        b = math.exp(-700.0 - p_k)
        outside, base = b + a0, p_k * b
        p = pricing._best_shared_price(group_att, b, p_k, a0, 10.0, 20.0)
        assert 10.0 < p < 20.0
        # Stationarity of (p G e^-p + B) / (G e^-p + A): G e^-p = A (p - 1) - B.
        assert group_att * math.exp(-p) == pytest.approx(outside * (p - 1.0) - base, rel=1e-12)


class TestInvariantChecker:
    def test_flags_increasing_prices(self, fixed_price_num):
        from luceopt import PricingSolution

        bad = PricingSolution(2, (1.0, 2.0), 0.5, 0, 0, "unconstrained")
        report = check_pricing_invariants(bad, fixed_price_num)
        assert not report.decreasing_prices
        assert not report.all_pass

    def test_flags_dominated_member(self, fixed_price_num):
        from luceopt import PricingSolution

        # Uniform prices over all 11 leave the clones dominated: invalid.
        bad = PricingSolution(11, (2.0,) * 11, 1.0, 0, 0, "unconstrained")
        report = check_pricing_invariants(bad, fixed_price_num)
        assert not report.valid_pair
