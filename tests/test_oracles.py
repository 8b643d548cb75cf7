"""The brute-force references themselves: determinism, guards, and their
relationship to the closed-form solvers."""

import math

import numpy as np
import pytest

from luceopt import (
    NoFeasibleCandidate,
    PricedInstance,
    TooLarge,
    brute_force_assortment,
    numeric_pricing_oracle,
    solve_japtlm_k,
)
from conftest import random_instance, random_priced_instance


class TestBruteForceAssortment:
    def test_rev_ord_fail(self, rev_ord_fail):
        res = brute_force_assortment(rev_ord_fail)
        assert res.optimizer == (1, 3)
        assert res.value == pytest.approx(22.096, abs=1e-3)
        assert res.evaluations == 2 ** 3

    def test_rev_ord_fail_capacity_one(self, rev_ord_fail):
        res = brute_force_assortment(rev_ord_fail, capacity=1)
        assert res.optimizer == (1,)
        assert res.value == pytest.approx(16.824, abs=1e-3)

    def test_empty_instance(self):
        inst = random_instance(0, n=1, d=0.0, seed=1)
        res = brute_force_assortment(inst)
        assert res.evaluations == 2
        from luceopt import make_instance, validate_partial_order

        empty = make_instance([], [], 1.0, validate_partial_order(set(), 0))
        res0 = brute_force_assortment(empty)
        assert res0.value == 0.0 and res0.optimizer == ()

    def test_capacity_n_equals_uncapacitated(self):
        rng = np.random.default_rng(2)
        for i in range(25):
            n = int(rng.integers(1, 10))
            inst = random_instance(i, n=n, d=0.5, seed=67)
            assert brute_force_assortment(inst).value == brute_force_assortment(
                inst, capacity=n
            ).value

    def test_deterministic(self):
        inst = random_instance(3, n=8, d=0.5, seed=71)
        a = brute_force_assortment(inst, capacity=3)
        b = brute_force_assortment(inst, capacity=3)
        assert a == b

    def test_size_guard(self):
        inst = random_instance(0, n=23, d=0.1, seed=73)
        with pytest.raises(TooLarge):
            brute_force_assortment(inst)


class TestNumericPricingOracle:
    def test_single_product_recovers_lambert(self):
        from luceopt import lambert_w

        inst = PricedInstance((2.0,), 1.0, 1.0)
        res = numeric_pricing_oracle(inst, 1)
        assert res.value == pytest.approx(1.0, abs=1e-4)  # W(e) = 1
        assert res.optimizer[0] == pytest.approx(2.0, abs=1e-3)

    def test_two_equal_products_uniform_price(self):
        from luceopt import lambert_w

        inst = PricedInstance((0.0, 0.0), 1.0, 1.0)
        res = numeric_pricing_oracle(inst, 2)
        w2 = lambert_w(2.0 * math.exp(-1.0))
        assert res.value == pytest.approx(w2, abs=1e-3)
        assert res.optimizer[0] == pytest.approx(res.optimizer[1], abs=1e-3)

    def test_tight_case_hits_the_boundary(self):
        # A wide utility gap forces the optimum onto the dominance boundary.
        inst = PricedInstance((3.0, 0.5), 0.5, 1.0)
        res = numeric_pricing_oracle(inst, 2)
        v = [u - p for u, p in zip(inst.utilities, res.optimizer)]
        assert v[0] - v[1] == pytest.approx(math.log1p(0.5), abs=1e-4)

    def test_never_beats_closed_form(self):
        rng = np.random.default_rng(4)
        for i in range(20):
            k = 1 + i % 3
            inst = random_priced_instance(
                i, n=k, t=(0.5, 1.0, 2.0)[i % 3], a0=(1.0, 10.0)[i % 2], seed=79,
            )
            oracle = numeric_pricing_oracle(inst, k)
            try:
                sol = solve_japtlm_k(inst, k)
            except NoFeasibleCandidate:
                continue
            assert oracle.value <= sol.revenue + 1e-3 * max(1.0, sol.revenue)

    def test_deterministic(self):
        inst = random_priced_instance(5, n=2, t=1.0, a0=1.0, seed=83)
        assert numeric_pricing_oracle(inst, 2) == numeric_pricing_oracle(inst, 2)

    def test_size_guard(self):
        inst = random_priced_instance(0, n=4, t=1.0, a0=1.0, seed=89)
        with pytest.raises(TooLarge):
            numeric_pricing_oracle(inst, 4)

    @pytest.mark.parametrize("u", [(8.0, 7.5), (8.0, 7.5, 7.0)])
    def test_pricing_oracle_scores_only_the_band(self, u):
        # Counts instead of timing: a return to the full grid scores 3.2M
        # (k = 2) or 5.4M (k = 3) points, several times this bound.
        inst = PricedInstance(u, 5.0, 1.0)
        k = len(u)
        step = 0.01 if k <= 2 else 0.1
        axis = [round((x + 10.0) / step) + 1 for x in u]
        window = axis[0] * (2.0 * math.log1p(inst.t) / step + 3.0) ** (k - 1)
        moves = 1000  # the pattern search makes a few hundred here
        assert math.prod(axis) > 4 * (window + moves)
        assert numeric_pricing_oracle(inst, k).evaluations <= window + moves
