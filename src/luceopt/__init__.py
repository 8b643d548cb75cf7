"""Assortment and price optimization for dominance-filtered logit choice.

Customers discard dominated products before making a multinomial-logit
choice.  This package models that choice process, solves the unconstrained
and capacitated assortment problems, solves the joint assortment-and-
pricing problem under threshold dominance, and ships brute-force oracles
plus a seeded benchmark harness.
"""

from .antichain import WeightedPoset, max_weight_antichain
from .assortment import (
    AssortmentSolution,
    revenue_ordered_heuristic,
    solve_assortment_2slm,
    solve_assortment_gam,
)
from .bench import (
    AssortmentExperimentConfig,
    GapRow,
    PricingExperimentConfig,
    StrategyStats,
    emit_report,
    generate_assortment_instance,
    generate_pricing_instance,
    generate_tree_instance,
    run_assortment_benchmark,
    run_pricing_benchmark,
)
from .capacitated import (
    CapacitatedProblem,
    is_attractiveness_correlated,
    is_forest_reducible,
    solve_capacitated_attcorr,
    solve_capacitated_auto,
    solve_capacitated_bruteforce,
    solve_capacitated_mnl,
    solve_capacitated_tree,
    tree_dp_max_att,
)
from .errors import (
    BadGroupSizes,
    CycleError,
    IdOutOfRange,
    LuceOptError,
    NegativeArgument,
    NoFeasibleCandidate,
    NonPositiveInput,
    NotATree,
    NotAttractivenessCorrelated,
    ProblemTooLarge,
    SchemaError,
    TooLarge,
    WeightOrderError,
    ZeroOutsideOption,
)
from .model import (
    DominanceRelation,
    Instance,
    PricedInstance,
    Product,
    choice_probability,
    consideration_set,
    consideration_set_priced,
    expected_revenue,
    expected_revenue_priced,
    instance_to_dict,
    is_valid_pair,
    dump_instance,
    make_instance,
    parse_instance,
    parse_priced_instance,
    threshold_dominance,
    validate_partial_order,
)
from .oracles import (
    OracleResult,
    brute_force_antichain,
    brute_force_assortment,
    numeric_pricing_oracle,
)
from .pricing import (
    BoundaryCandidate,
    InvariantReport,
    PricingSolution,
    check_pricing_invariants,
    fixed_price_policy,
    japtlm_candidate,
    lambert_w,
    quasi_same_price_policy,
    solve_japtlm,
    solve_japtlm_k,
)

__version__ = "0.1.0"
