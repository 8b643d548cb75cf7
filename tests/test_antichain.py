"""Maximum-weight antichain: flow solver vs brute-force oracle, weight
validation, and the duality invariants."""

import math

import numpy as np
import pytest

from luceopt import (
    TooLarge,
    WeightedPoset,
    brute_force_antichain,
    max_weight_antichain,
    validate_partial_order,
)
from luceopt.antichain import _max_flow
from conftest import random_instance


class TestMaxWeightAntichain:
    def test_figure_one_attractiveness_weights(self, figure_one):
        poset = WeightedPoset(figure_one.dominance, (12, 8, 6, 3, 2))
        assert max_weight_antichain(poset) == (frozenset({2, 3}), 14.0)

    def test_empty_relation_takes_everything(self):
        rel = validate_partial_order(set(), 3)
        chosen, value = max_weight_antichain(WeightedPoset(rel, (1, 2, 3)))
        assert chosen == {1, 2, 3} and value == 6.0

    def test_chain_takes_best_singleton(self):
        rel = validate_partial_order({(1, 2), (2, 3)}, 3)
        assert max_weight_antichain(WeightedPoset(rel, (1, 5, 2))) == (
            frozenset({2}),
            5.0,
        )

    def test_nonpositive_weights_never_appear(self):
        rel = validate_partial_order(set(), 4)
        chosen, value = max_weight_antichain(WeightedPoset(rel, (-1, 0, 2, 3)))
        assert chosen == {3, 4} and value == 5.0

    def test_all_nonpositive_gives_empty(self):
        rel = validate_partial_order({(1, 2)}, 2)
        assert max_weight_antichain(WeightedPoset(rel, (-1, 0))) == (frozenset(), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, bad):
        rel = validate_partial_order({(1, 2)}, 3)
        with pytest.raises(ValueError, match="finite"):
            WeightedPoset(rel, (1.0, bad, 2.0))


class TestBruteForceAntichain:
    def test_figure_one(self, figure_one):
        poset = WeightedPoset(figure_one.dominance, (12, 8, 6, 3, 2))
        assert brute_force_antichain(poset) == (frozenset({2, 3}), 14.0)

    def test_negative_singleton_prefers_empty(self):
        rel = validate_partial_order(set(), 1)
        assert brute_force_antichain(WeightedPoset(rel, (-1,))) == (frozenset(), 0.0)

    def test_total_order_gives_singleton(self):
        rel = validate_partial_order({(1, 2), (2, 3), (3, 4)}, 4)
        chosen, value = brute_force_antichain(WeightedPoset(rel, (1, 1, 1, 1)))
        assert len(chosen) == 1 and value == 1.0
        assert chosen == {1}  # lexicographic tie-break

    def test_size_guard(self):
        rel = validate_partial_order(set(), 26)
        with pytest.raises(TooLarge):
            brute_force_antichain(WeightedPoset(rel, (1.0,) * 26))


class TestOracleEquivalence:
    def test_flow_matches_enumeration_on_random_posets(self):
        rng = np.random.default_rng(20240811)
        for trial in range(500):
            n = int(rng.integers(1, 13))
            rel = random_instance(trial, n=n, d=float(rng.uniform(0, 1)),
                                  seed=321).dominance
            weights = tuple(rng.uniform(-5.0, 10.0, n))
            poset = WeightedPoset(rel, weights)
            chosen, value = max_weight_antichain(poset)
            _, expected = brute_force_antichain(poset)
            assert value == pytest.approx(expected, abs=1e-9)
            assert rel.is_antichain(chosen)
            assert sum(weights[i - 1] for i in chosen) == pytest.approx(value, abs=1e-12)

    def test_duality_flow_value_equals_antichain_value(self):
        # Fulkerson's network: s -> x' and x'' -> t carry w_x, every closure
        # pair x > y is an uncapacitated arc x' -> y''.  The total weight
        # minus the maximum flow is the maximum antichain weight.
        rng = np.random.default_rng(99)
        for trial in range(100):
            n = int(rng.integers(1, 11))
            rel = random_instance(trial, n=n, d=float(rng.uniform(0, 1)),
                                  seed=77).dominance
            weights = tuple(rng.uniform(0.1, 10.0, n))
            arcs = [(0, 1 + v, weights[v - 1]) for v in range(1, n + 1)]
            arcs += [(1 + n + v, 1, weights[v - 1]) for v in range(1, n + 1)]
            arcs += [(1 + x, 1 + n + y, math.inf) for x, y in rel.closure]
            flow, _ = _max_flow(2 + 2 * n, arcs, 0, 1)
            _, value = max_weight_antichain(WeightedPoset(rel, weights))
            assert sum(weights) - flow == pytest.approx(value, abs=1e-9 * max(1.0, value))

    def test_adding_edges_never_increases_value(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = int(rng.integers(2, 11))
            rel = random_instance(trial, n=n, d=0.3, seed=55).dominance
            weights = tuple(rng.uniform(0.0, 10.0, n))
            _, value = max_weight_antichain(WeightedPoset(rel, weights))
            incomparable = [
                (x, y)
                for x in range(1, n + 1)
                for y in range(1, n + 1)
                if x != y and (x, y) not in rel.closure and (y, x) not in rel.closure
            ]
            if not incomparable:
                continue
            extra = incomparable[int(rng.integers(0, len(incomparable)))]
            bigger = validate_partial_order(set(rel.closure) | {extra}, n)
            _, value2 = max_weight_antichain(WeightedPoset(bigger, weights))
            assert value2 <= value + 1e-9
