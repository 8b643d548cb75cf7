"""Choice-model core: partial orders, consideration sets, probabilities,
revenues, and the price-dependent variants."""

import math

import numpy as np
import pytest

from luceopt import (
    CycleError,
    IdOutOfRange,
    LuceOptError,
    NonPositiveInput,
    PricedInstance,
    Product,
    SchemaError,
    choice_probability,
    consideration_set,
    consideration_set_priced,
    expected_revenue,
    expected_revenue_priced,
    instance_to_dict,
    is_valid_pair,
    make_instance,
    parse_instance,
    parse_priced_instance,
    threshold_dominance,
    validate_partial_order,
)
from conftest import random_instance


class TestPartialOrderValidation:
    def test_chain_poset_accepted(self):
        rel = validate_partial_order({(1, 2), (2, 3), (1, 3)}, 3)
        assert rel.closure == {(1, 2), (2, 3), (1, 3)}

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            validate_partial_order({(1, 2), (2, 1)}, 2)

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleError):
            validate_partial_order({(1, 2), (2, 3), (3, 1)}, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            validate_partial_order({(1, 1)}, 1)

    def test_closure_is_completed(self):
        rel = validate_partial_order({(1, 2), (2, 3)}, 3)
        assert (1, 3) in rel.closure
        assert rel.closure == {(1, 2), (2, 3), (1, 3)}

    def test_id_out_of_range(self):
        with pytest.raises(IdOutOfRange):
            validate_partial_order({(1, 4)}, 3)
        with pytest.raises(IdOutOfRange):
            validate_partial_order({(0, 1)}, 3)

    def test_reduction_of_chain(self):
        rel = validate_partial_order({(1, 2), (2, 3), (1, 3)}, 3)
        assert rel.reduction == {(1, 2), (2, 3)}


class TestThresholdDominance:
    def test_figure_one_edges(self, figure_one):
        expected = {(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5),
                    (3, 4), (3, 5), (4, 5)}
        assert figure_one.dominance.closure == expected

    def test_equal_attractiveness_empty(self):
        rel = threshold_dominance([1.0, 1.0, 1.0], 0.7)
        assert rel.closure == frozenset()

    def test_reg_violation_edges(self, reg_violation):
        assert reg_violation.dominance.closure == {(1, 3), (1, 4)}

    def test_exact_ratio_produces_no_edge(self):
        # a_1 == (1 + t) a_2 exactly: strictly greater is required.
        rel = threshold_dominance([3.0, 2.0], 0.5)
        assert rel.closure == frozenset()

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(NonPositiveInput):
            threshold_dominance([1.0, 0.0], 0.5)
        with pytest.raises(NonPositiveInput):
            threshold_dominance([1.0, 2.0], 0.0)

    def test_always_a_valid_partial_order(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            att = rng.uniform(0.1, 10.0, n)
            t = float(rng.uniform(0.05, 3.0))
            rel = threshold_dominance(att, t)
            revalidated = validate_partial_order(rel.closure, n)
            assert revalidated.closure == rel.closure  # already transitively closed


class TestConsiderationSet:
    def test_reg_violation_full_set(self, reg_violation):
        assert consideration_set({1, 2, 3, 4}, reg_violation) == {1, 2}

    def test_singleton(self, reg_violation):
        for x in reg_violation.ids:
            assert consideration_set({x}, reg_violation) == {x}

    def test_figure_one_subset(self, figure_one):
        assert consideration_set({2, 3, 4, 5}, figure_one) == {2, 3}

    def test_empty(self, reg_violation):
        assert consideration_set(set(), reg_violation) == frozenset()

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for i in range(40):
            inst = random_instance(i, n=int(rng.integers(1, 10)), d=0.5)
            members = [x for x in inst.ids if rng.random() < 0.6]
            c = consideration_set(members, inst)
            assert consideration_set(c, inst) == c


class TestChoiceProbability:
    def test_regularity_violation_values(self, reg_violation):
        assert choice_probability(2, {2, 3, 4}, reg_violation) == 4 / 11
        assert choice_probability(2, {1, 2, 3, 4}, reg_violation) == 4 / 10
        assert 4 / 11 < 4 / 10  # enlarging the offer set raised the probability

    def test_dominated_product_gets_zero(self, rev_ord_fail):
        # 2 dominates 3, so offering {1,2,3} leaves 3 with no share.
        assert choice_probability(3, {1, 2, 3}, rev_ord_fail) == 0.0

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        for i in range(50):
            n = int(rng.integers(1, 11))
            inst = random_instance(i, n=n, a0=float(rng.uniform(0, 5)), d=0.5)
            members = [x for x in inst.ids if rng.random() < 0.7] or [1]
            total = choice_probability(0, members, inst) + sum(
                choice_probability(x, members, inst) for x in members
            )
            assert abs(total - 1.0) <= 1e-12

    def test_mnl_degeneration(self):
        # With no dominance the probabilities are plain logit shares.
        rng = np.random.default_rng(3)
        for i in range(25):
            n = int(rng.integers(1, 9))
            inst = random_instance(i, n=n, d=0.0)
            members = [x for x in inst.ids if rng.random() < 0.7] or [1]
            denom = sum(inst.attractiveness(x) for x in members) + inst.a0
            for x in members:
                assert choice_probability(x, members, inst) == pytest.approx(
                    inst.attractiveness(x) / denom, abs=1e-12
                )


class TestExpectedRevenue:
    def test_rev_ord_fail_table(self, rev_ord_fail):
        assert expected_revenue({1, 3}, rev_ord_fail) == pytest.approx(
            1834 / 83, abs=1e-9
        )
        assert expected_revenue({1, 3}, rev_ord_fail) == pytest.approx(22.096, abs=1e-3)
        assert expected_revenue({2}, rev_ord_fail) == pytest.approx(15.086, abs=1e-3)
        assert expected_revenue({1}, rev_ord_fail) == pytest.approx(16.824, abs=1e-3)
        assert expected_revenue({3}, rev_ord_fail) == pytest.approx(9.857, abs=1e-3)

    def test_empty_is_zero(self, rev_ord_fail):
        assert expected_revenue(set(), rev_ord_fail) == 0.0

    def test_revenue_only_depends_on_consideration_set(self):
        rng = np.random.default_rng(5)
        for i in range(40):
            inst = random_instance(i, n=int(rng.integers(1, 10)), d=0.6)
            members = [x for x in inst.ids if rng.random() < 0.7]
            c = consideration_set(members, inst)
            assert expected_revenue(members, inst) == pytest.approx(
                expected_revenue(c, inst), abs=1e-12
            )

    def test_zero_outside_option_empty_set(self):
        inst = make_instance([5.0], [2.0], 0.0, threshold_dominance([2.0], 1.0))
        assert expected_revenue(set(), inst) == 0.0
        assert expected_revenue({1}, inst) == pytest.approx(5.0)


class TestPricedModel:
    def test_price_effect_on_dominance(self):
        # u = (ln 10, ln 8, ln 6, ln 3), t = 0.5.  Uniform prices ln 3 make
        # the attractiveness (10/3, 8/3, 2, 1): 1 beats 3 and 4, 2 beats 4,
        # and 3 beats 4 as well (2 > 1.5); survivors are {1, 2}.
        inst = PricedInstance(
            (math.log(10), math.log(8), math.log(6), math.log(3)), 0.5, 1.0
        )
        p1 = [math.log(3)] * 4
        assert consideration_set_priced({1, 2, 3, 4}, p1, inst) == {1, 2}
        rel = threshold_dominance([math.exp(u - p) for u, p in zip(inst.utilities, p1)], 0.5)
        assert {(1, 3), (1, 4), (2, 4)} <= rel.closure
        assert rel.closure == {(1, 3), (1, 4), (2, 4), (3, 4)}
        # Re-pricing to (ln 4, ln 4, ln 3, ln 2) leaves only 1 beating 4.
        p2 = [math.log(4), math.log(4), math.log(3), math.log(2)]
        assert consideration_set_priced({1, 2, 3, 4}, p2, inst) == {1, 2, 3}
        rel2 = threshold_dominance([math.exp(u - p) for u, p in zip(inst.utilities, p2)], 0.5)
        assert rel2.closure == {(1, 4)}

    def test_uniform_everything_keeps_all(self):
        inst = PricedInstance((1.0, 1.0, 1.0), 0.3, 1.0)
        assert consideration_set_priced({1, 2, 3}, [2.0] * 3, inst) == {1, 2, 3}

    def test_revenue_of_hand_prices(self, fixed_price_num):
        prices = [1.8] + [1.4] * 10
        value = expected_revenue_priced(range(1, 12), prices, fixed_price_num)
        assert value == pytest.approx(1.298, abs=1e-3)

    def test_all_zero_prices_zero_revenue(self, fixed_price_num):
        assert expected_revenue_priced(range(1, 12), [0.0] * 11, fixed_price_num) == 0.0

    def test_single_product_even_split(self):
        inst = PricedInstance((2.0,), 1.0, 1.0)
        assert expected_revenue_priced({1}, [2.0], inst) == pytest.approx(1.0)

    def test_valid_pair(self, fixed_price_num):
        inf = math.inf
        single = PricedInstance((2.0, 1.0), 1.0, 1.0)
        assert is_valid_pair({1}, [1.0, inf], single)
        assert not is_valid_pair({1}, [1.0, 2.0], single)  # finite set mismatch
        assert not is_valid_pair(range(1, 12), [2.0] * 11, fixed_price_num)
        assert is_valid_pair(range(1, 12), [1.8] + [1.4] * 10, fixed_price_num)

    def test_unsorted_utilities_rejected(self):
        with pytest.raises(SchemaError):
            PricedInstance((1.0, 2.0), 1.0, 1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Product(1, math.nan, 1.0),
            lambda: Product(1, math.inf, 1.0),
            lambda: Product(1, 1.0, math.nan),
            lambda: Product(1, 1.0, math.inf),
            lambda: make_instance([1.0], [1.0], math.nan, validate_partial_order((), 1)),
            lambda: make_instance([1.0], [1.0], math.inf, validate_partial_order((), 1)),
            lambda: PricedInstance((math.nan,), 1.0, 1.0),
            lambda: PricedInstance((math.inf, 1.0), 1.0, 1.0),
            lambda: PricedInstance((1.0,), math.inf, 1.0),
            lambda: PricedInstance((1.0,), math.nan, 1.0),
            lambda: PricedInstance((1.0,), 1.0, math.nan),
            lambda: threshold_dominance([1.0, 2.0], math.inf),
        ],
    )
    def test_non_finite_values_rejected_at_construction(self, build):
        with pytest.raises(LuceOptError):
            build()


class TestJsonSchema:
    DOC = {
        "products": [
            {"id": 1, "revenue": 88.0, "attractiveness": 13.0, "utility": 2.0},
            {"id": 2, "revenue": 47.0, "attractiveness": 26.0, "utility": 1.0},
        ],
        "a0": 55.0,
        "dominance": {"type": "explicit", "edges": [[2, 1]]},
    }

    def test_roundtrip(self):
        inst = parse_instance(self.DOC)
        assert inst.n == 2 and inst.a0 == 55.0
        assert inst.dominance.closure == {(2, 1)}
        again = parse_instance(instance_to_dict(inst))
        assert again.dominance.closure == inst.dominance.closure
        assert [p.revenue for p in again.products] == [88.0, 47.0]

    def test_threshold_document(self):
        doc = dict(self.DOC, dominance={"type": "threshold", "t": 0.6})
        inst = parse_instance(doc)
        assert inst.dominance.closure == {(2, 1)}

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SchemaError):
            parse_instance(dict(self.DOC, extra=1))

    def test_unknown_product_field_rejected(self):
        doc = dict(self.DOC)
        doc["products"] = [dict(self.DOC["products"][0], color="red")]
        with pytest.raises(SchemaError):
            parse_instance(doc)

    def test_bad_ids_rejected(self):
        doc = dict(self.DOC)
        doc["products"] = [dict(p, id=p["id"] + 1) for p in self.DOC["products"]]
        with pytest.raises(SchemaError):
            parse_instance(doc)

    def test_priced_instance_parsing(self):
        doc = dict(self.DOC, dominance={"type": "threshold", "t": 0.6})
        inst = parse_priced_instance(doc)
        assert inst.utilities == (2.0, 1.0) and inst.t == 0.6

    def test_priced_requires_threshold_and_utilities(self):
        with pytest.raises(SchemaError):
            parse_priced_instance(self.DOC)  # explicit dominance: no t
        doc = dict(self.DOC, dominance={"type": "threshold", "t": 0.6})
        doc["products"] = [
            {k: v for k, v in p.items() if k != "utility"} for p in doc["products"]
        ]
        with pytest.raises(SchemaError):
            parse_priced_instance(doc)
