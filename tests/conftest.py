"""Shared fixtures: the worked examples used across the test modules."""

import math

import pytest
from hypothesis import settings

from luceopt import (
    AssortmentExperimentConfig,
    Instance,
    PricedInstance,
    PricingExperimentConfig,
    generate_assortment_instance,
    generate_pricing_instance,
    make_instance,
    threshold_dominance,
)

# Property tests draw the same examples on every run (derandomize), never
# time out on a loaded machine (deadline=None), and write no example
# database, so tier-1 stays deterministic.
settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("tier1")


@pytest.fixture
def rev_ord_fail() -> Instance:
    """Three products where the revenue-ordered heuristic loses ~24%:
    r=(88,47,46), a=(13,26,15), a0=55, threshold 0.6 (so 2 dominates 1 and 3)."""
    return make_instance([88.0, 47.0, 46.0], [13.0, 26.0, 15.0], 55.0,
                         threshold_dominance([13.0, 26.0, 15.0], 0.6))


@pytest.fixture
def reg_violation() -> Instance:
    """Four products, a=(5,4,3,3), t=0.4, a0=1: adding product 1 to {2,3,4}
    raises product 2's choice probability from 4/11 to 4/10."""
    att = [5.0, 4.0, 3.0, 3.0]
    return make_instance([1.0] * 4, att, 1.0, threshold_dominance(att, 0.4))


@pytest.fixture
def figure_one() -> Instance:
    """Five products, a=(12,8,6,3,2), t=0.4: a dense threshold DAG whose
    best attractiveness-weighted antichain is {2,3}."""
    att = [12.0, 8.0, 6.0, 3.0, 2.0]
    return make_instance([1.0] * 5, att, 1.0, threshold_dominance(att, 0.4))


@pytest.fixture
def fixed_price_num() -> PricedInstance:
    """Eleven products (u=2 plus ten u=1), t=1, a0=1: the fixed-price
    policy earns W(e)=1 while separate prices earn ~1.896."""
    return PricedInstance((2.0,) + (1.0,) * 10, 1.0, 1.0)


def random_instance(i: int, n: int, a0: float = 1.0, d: float = 0.4,
                    seed: int = 1234) -> Instance:
    cfg = AssortmentExperimentConfig(n=n, a0=a0, d=d, count=1, seed=seed, cell=i)
    return generate_assortment_instance(cfg, i)


def random_priced_instance(i: int, n: int, t: float = 1.0, a0: float = 1.0,
                           seed: int = 1234) -> PricedInstance:
    cfg = PricingExperimentConfig(n=n, t=t, a0=a0, count=1, seed=seed, cell=i)
    return generate_pricing_instance(cfg, i)


def threshold_instance_from(base: Instance, t: float) -> Instance:
    """Rebuild a generated instance with threshold dominance over its own
    attractiveness (always attractiveness-correlated)."""
    att = [p.attractiveness for p in base.products]
    return make_instance([p.revenue for p in base.products], att, base.a0,
                         threshold_dominance(att, t))
