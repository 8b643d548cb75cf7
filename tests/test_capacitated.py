"""Capacitated solvers: brute force, the tree DP, and the
attractiveness-correlated decomposition."""

from unittest.mock import patch

import numpy as np
import pytest

from luceopt import (
    CapacitatedProblem,
    expected_revenue,
    NotATree,
    TooLarge,
    WeightedPoset,
    brute_force_assortment,
    is_attractiveness_correlated,
    is_forest_reducible,
    make_instance,
    max_weight_antichain,
    solve_assortment_2slm,
    solve_capacitated_attcorr,
    solve_capacitated_auto,
    solve_capacitated_bruteforce,
    solve_capacitated_mnl,
    solve_capacitated_tree,
    threshold_dominance,
    tree_dp_max_att,
    validate_partial_order,
)
from conftest import random_instance, threshold_instance_from
from luceopt import capacitated, generate_tree_instance


class TestBruteForce:
    def test_rev_ord_fail_capacity_one(self, rev_ord_fail):
        sol = solve_capacitated_bruteforce(CapacitatedProblem(rev_ord_fail, 1))
        assert sol.assortment == (1,)
        assert sol.revenue == pytest.approx(16.824, abs=1e-3)

    def test_rev_ord_fail_capacity_two(self, rev_ord_fail):
        sol = solve_capacitated_bruteforce(CapacitatedProblem(rev_ord_fail, 2))
        assert sol.assortment == (1, 3)
        assert sol.revenue == pytest.approx(22.096, abs=1e-3)

    def test_capacity_slack_matches_unconstrained(self):
        rng = np.random.default_rng(1)
        for i in range(20):
            inst = random_instance(i, n=int(rng.integers(1, 10)), d=0.0, seed=61)
            got = solve_capacitated_bruteforce(CapacitatedProblem(inst, inst.n))
            want = solve_assortment_2slm(inst)
            assert got.revenue == pytest.approx(want.revenue, rel=1e-9, abs=1e-9)

    def test_size_guard(self):
        inst = random_instance(0, n=23, d=0.1, seed=5)
        with pytest.raises(TooLarge):
            solve_capacitated_bruteforce(CapacitatedProblem(inst, 2))


class TestForestDetection:
    def test_chain_is_forest(self):
        rel = validate_partial_order({(1, 2), (2, 3)}, 3)
        ok, parents = is_forest_reducible(rel)
        assert ok and parents[2] == 1 and parents[3] == 2 and parents[1] == 0

    def test_diamond_is_not(self):
        rel = validate_partial_order({(1, 3), (2, 3)}, 3)
        assert is_forest_reducible(rel) == (False, None)

    def test_figure_one_is_not(self, figure_one):
        # In the reduction, product 4 keeps two direct dominators (2 and 3).
        assert is_forest_reducible(figure_one.dominance) == (False, None)


class TestTreeDp:
    def test_small_tree_both_capacities(self):
        rel = validate_partial_order({(1, 2), (1, 3)}, 3)
        assert tree_dp_max_att(rel, [5, 4, 3], 2) == (7.0, frozenset({2, 3}))
        assert tree_dp_max_att(rel, [5, 4, 3], 1) == (5.0, frozenset({1}))

    def test_zero_capacity(self):
        rel = validate_partial_order({(1, 2), (1, 3)}, 3)
        assert tree_dp_max_att(rel, [5, 4, 3], 0) == (0.0, frozenset())

    def test_negative_weights_spliced_out(self):
        #     1 > 2 > {3, 4}; node 2 is negative so 3 and 4 attach to 1.
        rel = validate_partial_order({(1, 2), (2, 3), (2, 4)}, 4)
        value, chosen = tree_dp_max_att(rel, [5.0, -1.0, 4.0, 3.0], 2)
        assert value == 7.0 and chosen == {3, 4}

    def test_rejects_non_forest(self):
        rel = validate_partial_order({(1, 3), (2, 3)}, 3)
        with pytest.raises(NotATree):
            tree_dp_max_att(rel, [1, 1, 1], 1)

    def test_capacity_slack_equals_max_antichain(self):
        rng = np.random.default_rng(2)
        for i in range(50):
            n = int(rng.integers(1, 12))
            inst = generate_tree_instance(n, 1.0, 17, i)
            weights = tuple(rng.uniform(-4, 8, n))
            value, chosen = tree_dp_max_att(inst.dominance, weights, n)
            _, expected = max_weight_antichain(
                WeightedPoset(inst.dominance, weights)
            )
            assert value == pytest.approx(expected, abs=1e-9)
            assert inst.dominance.is_antichain(chosen)


class TestTreeSolver:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for i in range(200):
            n = int(rng.integers(2, 13))
            inst = generate_tree_instance(n, float(rng.uniform(0.5, 4)), 23, i)
            capacity = int(rng.integers(1, min(4, n) + 1))
            got = solve_capacitated_tree(CapacitatedProblem(inst, capacity))
            want = brute_force_assortment(inst, capacity=capacity)
            assert got.revenue == pytest.approx(want.value, rel=1e-6, abs=1e-6)
            assert len(got.assortment) <= capacity

    def test_capacity_slack_matches_unconstrained(self):
        rng = np.random.default_rng(9)
        for i in range(25):
            n = int(rng.integers(1, 12))
            inst = generate_tree_instance(n, 1.5, 29, i)
            got = solve_capacitated_tree(CapacitatedProblem(inst, n))
            want = solve_assortment_2slm(inst)
            assert got.revenue == pytest.approx(want.revenue, rel=1e-9, abs=1e-9)

    def test_star_with_cheap_root_picks_leaves(self):
        rel = validate_partial_order({(1, 2), (1, 3), (1, 4)}, 4)
        inst = make_instance([0.1, 5.0, 4.0, 3.0], [1.0] * 4, 1.0, rel)
        sol = solve_capacitated_tree(CapacitatedProblem(inst, 2))
        oracle = brute_force_assortment(inst, capacity=2)
        assert sol.assortment == (2, 3)
        assert sol.revenue == pytest.approx(oracle.value, abs=1e-9)


class TestAttractivenessCorrelated:
    def test_threshold_instances_qualify(self):
        rng = np.random.default_rng(11)
        for i in range(30):
            base = random_instance(i, n=int(rng.integers(1, 10)), d=0.0, seed=31)
            inst = threshold_instance_from(base, float(rng.uniform(0.2, 2.0)))
            assert is_attractiveness_correlated(inst)

    def test_condition_one_violation(self):
        rel = validate_partial_order({(1, 2)}, 2)
        inst = make_instance([1.0, 1.0], [1.0, 2.0], 1.0, rel)
        assert not is_attractiveness_correlated(inst)

    def test_condition_two_violation(self):
        rel = validate_partial_order({(2, 3)}, 3)
        inst = make_instance([1.0] * 3, [5.0, 4.0, 1.0], 1.0, rel)
        assert not is_attractiveness_correlated(inst)

    def test_figure_one_qualifies(self, figure_one):
        assert is_attractiveness_correlated(figure_one)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for i in range(200):
            n = int(rng.integers(2, 13))
            base = random_instance(i, n=n, a0=float(rng.uniform(0.5, 6)),
                                   d=0.0, seed=37)
            inst = threshold_instance_from(base, (0.3, 0.6, 1.0, 2.0)[i % 4])
            capacity = int(rng.integers(1, min(4, n) + 1))
            got = solve_capacitated_attcorr(CapacitatedProblem(inst, capacity))
            want = brute_force_assortment(inst, capacity=capacity)
            assert got.revenue == pytest.approx(want.value, rel=1e-6, abs=1e-6)
            assert len(got.assortment) <= capacity
            assert inst.dominance.is_antichain(got.assortment)

    def test_capacity_slack_matches_unconstrained(self):
        rng = np.random.default_rng(15)
        for i in range(25):
            n = int(rng.integers(1, 11))
            base = random_instance(i, n=n, d=0.0, seed=41)
            inst = threshold_instance_from(base, 0.8)
            got = solve_capacitated_attcorr(CapacitatedProblem(inst, n))
            want = solve_assortment_2slm(inst)
            assert got.revenue == pytest.approx(want.revenue, rel=1e-6, abs=1e-6)

    def test_clone_family_excludes_flagship(self):
        # One flagship dominating N cheaper clones (revenue alpha*p1,
        # attractiveness gamma*a1).  The N clones together beat the
        # flagship once alpha exceeds the flagship's market share
        # a1/(a1+a0) and N > a0 / (gamma * (alpha*(a1+a0) - a1)).
        n_clones = 8
        alpha, gamma = 0.5, 0.5
        p1, a1, a0 = 10.0, 1.0, 4.0  # share 0.2 < alpha; N* = 16/3
        edges = {(1, j) for j in range(2, n_clones + 2)}
        rel = validate_partial_order(edges, n_clones + 1)
        inst = make_instance(
            [p1] + [alpha * p1] * n_clones,
            [a1] + [gamma * a1] * n_clones,
            a0,
            rel,
        )
        assert is_attractiveness_correlated(inst)
        assert expected_revenue({1}, inst) == pytest.approx(2.0)
        assert expected_revenue(range(2, n_clones + 2), inst) == pytest.approx(2.5)
        sol = solve_capacitated_attcorr(CapacitatedProblem(inst, n_clones))
        assert 1 not in sol.assortment
        assert sol.revenue == pytest.approx(2.5)
        assert sol.revenue == pytest.approx(
            brute_force_assortment(inst, capacity=n_clones).value, rel=1e-9
        )

    def test_tie_pathology_falls_back_to_exact(self):
        # Products 2 and 3 tie at the top attractiveness and 3 dominates 4:
        # the pool around product 2 is not dominance-free, so the solver
        # must fall back to enumeration rather than trust the pools.
        rel = validate_partial_order({(3, 4)}, 4)
        inst = make_instance(
            [1.0, 6.0, 6.0, 9.0], [5.0, 5.0, 5.0, 1.0], 1.0, rel
        )
        assert is_attractiveness_correlated(inst)
        sol = solve_capacitated_attcorr(CapacitatedProblem(inst, 2))
        want = brute_force_assortment(inst, capacity=2)
        assert sol.revenue == pytest.approx(want.value, rel=1e-9)
        assert inst.dominance.is_antichain(sol.assortment)


class TestCapacitatedMnl:
    def test_capacity_slack_is_revenue_ordered_prefix(self):
        rng = np.random.default_rng(19)
        for i in range(20):
            n = int(rng.integers(1, 10))
            inst = random_instance(i, n=n, d=0.0, seed=43)
            pairs = [(p.revenue, p.attractiveness) for p in inst.products]
            got = solve_capacitated_mnl(pairs, inst.a0, n)
            want = solve_assortment_2slm(inst)
            assert got.revenue == pytest.approx(want.revenue, rel=1e-9, abs=1e-9)

    def test_three_way_example(self):
        sol = solve_capacitated_mnl([(10.0, 1.0), (9.0, 1.0), (1.0, 10.0)], 1.0, 1)
        assert sol.assortment == (1,) and sol.revenue == pytest.approx(5.0)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(21)
        for i in range(60):
            n = int(rng.integers(1, 12))
            inst = random_instance(i, n=n, a0=float(rng.uniform(0.5, 5)),
                                   d=0.0, seed=47)
            pairs = [(p.revenue, p.attractiveness) for p in inst.products]
            capacity = int(rng.integers(1, min(4, n) + 1))
            got = solve_capacitated_mnl(pairs, inst.a0, capacity)
            want = brute_force_assortment(inst, capacity=capacity)
            assert got.revenue == pytest.approx(want.value, rel=1e-6, abs=1e-6)


class TestDispatcherAndMonotonicity:
    def test_dispatch_order(self, rev_ord_fail, figure_one):
        _, method = solve_capacitated_auto(CapacitatedProblem(rev_ord_fail, 2))
        assert method == "tree"  # 2 > 1 and 2 > 3 is a (forest) star
        _, method = solve_capacitated_auto(CapacitatedProblem(figure_one, 2))
        assert method == "attcorr"
        # Diamond reduction (not a forest) and a dominator no more
        # attractive than its target (not attractiveness-correlated).
        rel = validate_partial_order({(1, 3), (2, 3)}, 3)
        inst = make_instance([1.0, 2.0, 3.0], [1.0, 2.0, 1.0], 1.0, rel)
        _, method = solve_capacitated_auto(CapacitatedProblem(inst, 2))
        assert method == "bruteforce"

    def test_each_structure_is_checked_once(self, rev_ord_fail, figure_one):
        with patch.object(capacitated, "is_attractiveness_correlated",
                          wraps=capacitated.is_attractiveness_correlated) as check:
            assert solve_capacitated_auto(CapacitatedProblem(figure_one, 2))[1] == "attcorr"
            assert check.call_count == 1
            check.reset_mock()
            assert solve_capacitated_auto(CapacitatedProblem(rev_ord_fail, 2))[1] == "tree"
            assert check.call_count == 0

    @staticmethod
    def tied_pool_instance(n):
        # Products 1-3 tie at the top, 2 and 3 dominate 4 (not a forest),
        # and n - 4 cheap products are undominated: still correlated, and
        # the pool around product 1 holds 2 > 4.
        rel = validate_partial_order({(2, 4), (3, 4)}, n)
        return make_instance([1.0, 6.0, 6.0, 9.0] + [1.0] * (n - 4),
                             [5.0, 5.0, 5.0, 1.0] + [0.5] * (n - 4), 1.0, rel)

    def test_tied_pool_beyond_brute_force_is_refused(self):
        inst = self.tied_pool_instance(23)
        assert is_attractiveness_correlated(inst)
        with pytest.raises(TooLarge):
            solve_capacitated_attcorr(CapacitatedProblem(inst, 2))
        with pytest.raises(TooLarge):
            solve_capacitated_auto(CapacitatedProblem(inst, 2))

    def test_tied_pool_takes_the_brute_force_fallback(self):
        prob = CapacitatedProblem(self.tied_pool_instance(22), 2)
        with patch.object(capacitated, "solve_capacitated_bruteforce") as exact:
            assert solve_capacitated_attcorr(prob) is exact.return_value
        exact.assert_called_once_with(prob)

    def test_revenue_non_decreasing_in_capacity(self):
        rng = np.random.default_rng(25)
        for i in range(25):
            n = int(rng.integers(2, 11))
            base = random_instance(i, n=n, d=0.0, seed=53)
            inst = threshold_instance_from(base, 0.5)
            revenues = [
                solve_capacitated_attcorr(CapacitatedProblem(inst, c)).revenue
                for c in range(1, n + 1)
            ]
            assert all(a <= b + 1e-9 for a, b in zip(revenues, revenues[1:]))
