"""Property tests of the dominance representation and the solvers on small
random inputs, each checked against a short definitional reference written
here or a brute-force oracle."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from luceopt import (
    CapacitatedProblem,
    CycleError,
    NoFeasibleCandidate,
    PricedInstance,
    PricingSolution,
    WeightedPoset,
    brute_force_antichain,
    brute_force_assortment,
    check_pricing_invariants,
    consideration_set,
    expected_revenue,
    fixed_price_policy,
    japtlm_candidate,
    is_attractiveness_correlated,
    make_instance,
    max_weight_antichain,
    numeric_pricing_oracle,
    solve_capacitated_attcorr,
    solve_capacitated_tree,
    solve_japtlm,
    solve_japtlm_k,
    quasi_same_price_policy,
    threshold_dominance,
    validate_partial_order,
)
from luceopt import oracles, pricing
from luceopt.model import mask_ids
from luceopt.pricing import _best_shared_price

MAX_N = 12

attractiveness_values = st.one_of(
    st.floats(min_value=0.01, max_value=100.0),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),  # exact ties and exact ratios
)


def reference_closure(edges) -> set:
    """Pairs joined by a path of one or more edges."""
    closure = set(edges)
    while True:
        longer = {(x, w) for x, y in closure for z, w in closure if y == z} - closure
        if not longer:
            return closure
        closure |= longer


def reference_reduction(closure) -> set:
    """Closure pairs with no product strictly between them."""
    return {
        (x, y)
        for x, y in closure
        if not any((x, z) in closure and (z, y) in closure for _, z in closure)
    }


def reference_correlated(closure, att) -> bool:
    """The two conditions, checked pair by pair over the closure."""
    ids = range(1, len(att) + 1)
    return all(att[x - 1] > att[y - 1] for x, y in closure) and all(
        (z, y) in closure for x, y in closure for z in ids if att[z - 1] > att[x - 1]
    )


@st.composite
def edge_lists(draw, n=None, acyclic=None):
    """``(n, edges)`` over products ``1..n``.  Half the lists are oriented
    along a hidden ranking (always acyclic); the rest are arbitrary pairs,
    self-loops and cycles included."""
    if n is None:
        n = draw(st.integers(0, MAX_N))
    if n == 0:
        return 0, []
    ids = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=3 * n))
    if acyclic if acyclic is not None else draw(st.booleans()):
        rank = draw(st.permutations(range(n)))
        pairs = [(x, y) if rank[x - 1] < rank[y - 1] else (y, x)
                 for x, y in pairs if x != y]
    return n, pairs


@st.composite
def instances(draw):
    n, edges = draw(edge_lists(acyclic=True))
    revenues = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    att = draw(st.lists(attractiveness_values, min_size=n, max_size=n))
    a0 = draw(st.floats(0.0, 10.0))
    inst = make_instance(revenues, att, a0, validate_partial_order(edges, n))
    members = draw(st.lists(st.integers(1, n), max_size=n)) if n else []
    return inst, members


@given(edge_lists())
def test_closure_reduction_and_cycles_match_definitions(case):
    n, edges = case
    closure = reference_closure(edges)
    if any(x == y for x, y in closure):
        with pytest.raises(CycleError):
            validate_partial_order(edges, n)
        return
    rel = validate_partial_order(edges, n)
    assert rel.closure == closure
    assert rel.reduction == reference_reduction(closure)


@given(
    st.lists(attractiveness_values, max_size=MAX_N),
    st.one_of(st.floats(0.001, 3.0), st.sampled_from([0.5, 1.0])),
)
def test_threshold_dominance_matches_definition(att, t):
    n = len(att)
    expected = {
        (x, y)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if att[x - 1] > (1 + t) * att[y - 1]
    }
    rel = threshold_dominance(att, t)
    assert rel.closure == expected
    assert rel.reduction == reference_reduction(expected)


@given(st.data())
def test_attractiveness_correlation_matches_definition(data):
    att = data.draw(st.lists(attractiveness_values, max_size=MAX_N))
    n = len(att)
    kind = data.draw(st.sampled_from(["threshold", "threshold-less-one", "dag",
                                      "dag-toward-less-attractive"]))
    if kind.startswith("threshold"):
        edges = sorted(threshold_dominance(att, data.draw(st.sampled_from([0.2, 1.0]))).closure)
        if edges and kind == "threshold-less-one":
            edges.pop(data.draw(st.integers(0, len(edges) - 1)))
    else:
        _, edges = data.draw(edge_lists(n=n, acyclic=True))
        if kind == "dag-toward-less-attractive":
            edges = [(x, y) for x, y in edges if att[x - 1] > att[y - 1]]
    rel = validate_partial_order(edges, n)
    inst = make_instance([1.0] * n, att, 1.0, rel)
    assert is_attractiveness_correlated(inst) == reference_correlated(rel.closure, att)


@given(instances())
def test_consideration_set_is_idempotent(case):
    inst, members = case
    c = consideration_set(members, inst)
    assert consideration_set(c, inst) == c
    assert inst.dominance.is_antichain(c)


@given(instances())
def test_revenue_depends_only_on_the_consideration_set(case):
    inst, members = case
    c = consideration_set(members, inst)
    assert expected_revenue(members, inst) == pytest.approx(
        expected_revenue(c, inst), rel=1e-12, abs=1e-12
    )


@given(st.data())
def test_flow_antichain_matches_enumeration(data):
    n, edges = data.draw(edge_lists(acyclic=True))
    weights = data.draw(st.lists(st.floats(-5.0, 10.0), min_size=n, max_size=n))
    poset = WeightedPoset(validate_partial_order(edges, n), tuple(weights))
    chosen, value = max_weight_antichain(poset)
    _, expected = brute_force_antichain(poset)
    assert value == pytest.approx(expected, abs=1e-9)
    assert poset.relation.is_antichain(chosen)


@st.composite
def forest_problems(draw):
    """A capacitated instance whose dominance reduction is a forest: each
    product's direct dominator is an earlier product in a hidden ranking,
    or none.  A third of the draws are single chains, where every subtree
    table is flat beyond one product and ties between splits abound."""
    n = draw(st.integers(1, MAX_N))
    rank = draw(st.permutations(range(1, n + 1)))
    if draw(st.integers(0, 2)) == 0:
        edges = list(zip(rank, rank[1:]))
    else:
        parents = [draw(st.integers(-1, k - 1)) for k in range(n)]
        edges = [(rank[p], rank[k]) for k, p in enumerate(parents) if p >= 0]
    # Revenues of at least 1 keep most products worth offering, so the
    # capacity binds.  With a0 = 0 the revenue is a weighted mean of the
    # offered revenues and the best single product is optimal.
    revenues = draw(st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n))
    att = draw(st.lists(attractiveness_values, min_size=n, max_size=n))
    a0 = draw(st.floats(0.5, 10.0))
    inst = make_instance(revenues, att, a0, validate_partial_order(edges, n))
    return CapacitatedProblem(inst, draw(st.integers(1, n)))


@given(forest_problems())
def test_tree_solver_matches_enumeration(prob):
    got = solve_capacitated_tree(prob)
    want = brute_force_assortment(prob.instance, capacity=prob.capacity)
    assert got.revenue == pytest.approx(want.value, rel=1e-9, abs=1e-9)
    assert len(got.assortment) <= prob.capacity
    assert prob.instance.dominance.is_antichain(got.assortment)
    assert expected_revenue(got.assortment, prob.instance) == pytest.approx(
        got.revenue, rel=1e-12, abs=1e-12
    )


@st.composite
def threshold_problems(draw):
    """A capacitated instance with threshold dominance over its own
    attractiveness (always attractiveness-correlated); exact attractiveness
    ties and exact ``1 + t`` ratios are frequent, so some pools keep a
    dominance pair and the solver takes its brute-force fallback."""
    n = draw(st.integers(1, 10))
    att = draw(st.lists(attractiveness_values, min_size=n, max_size=n))
    t = draw(st.one_of(st.floats(0.01, 2.0), st.sampled_from([0.5, 1.0])))
    revenues = draw(st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n))
    inst = make_instance(revenues, att, draw(st.floats(0.5, 10.0)),
                         threshold_dominance(att, t))
    return CapacitatedProblem(inst, draw(st.integers(1, n)))


@settings(max_examples=400)
@given(threshold_problems())
def test_attcorr_solver_matches_enumeration(prob):
    got = solve_capacitated_attcorr(prob)
    want = brute_force_assortment(prob.instance, capacity=prob.capacity)
    assert got.revenue == pytest.approx(want.value, rel=1e-9, abs=1e-9)
    assert len(got.assortment) <= prob.capacity
    assert prob.instance.dominance.is_antichain(got.assortment)
    assert expected_revenue(got.assortment, prob.instance) == pytest.approx(
        got.revenue, rel=1e-12, abs=1e-12
    )


@settings(max_examples=150)
@given(
    st.lists(st.one_of(st.floats(-3.0, 5.0), st.sampled_from([0.0, 1.0, 2.0])),
             min_size=1, max_size=8),
    st.one_of(st.floats(0.05, 5.0), st.sampled_from([0.5, 1.0])),
    st.floats(0.1, 10.0),
)
def test_joint_pricing_invariants_hold(utilities, t, a0):
    inst = PricedInstance(tuple(sorted(utilities, reverse=True)), t, a0)
    assert check_pricing_invariants(solve_japtlm(inst), inst).all_pass


@st.composite
def priced_instances(draw, max_n):
    """Sorted utilities, rounded to 0.1 in half the draws so that runs of
    equal utilities occur, with ``t`` in [0.1, 5] and ``a0`` in [0.5, 100]."""
    utilities = draw(st.lists(st.floats(-3.0, 5.0), min_size=1, max_size=max_n))
    if draw(st.booleans()):
        utilities = [round(x, 1) for x in utilities]
    return PricedInstance(tuple(sorted(utilities, reverse=True)),
                          draw(st.floats(0.1, 5.0)), draw(st.floats(0.5, 100.0)))


def scan_japtlm_k(inst, k):
    """Every boundary pair ``(k1, k2)`` in order, the best feasible one kept
    (a later pair must win by 1e-10); runs of equal utilities are never
    split.  ``None`` when no pair is feasible."""
    u = inst.utilities
    if u[0] - u[k - 1] <= math.log1p(inst.t) * (1.0 + 1e-12):
        return solve_japtlm_k(inst, k)  # slack: no boundary groups
    best = None
    for k1 in range(1, k):
        if u[k1 - 1] == u[k1]:
            continue
        for k2 in range(1, k - k1 + 1):
            if u[k - k2 - 1] == u[k - k2]:
                continue
            cand = japtlm_candidate(inst, k, k1, k2)
            if cand.feasible and (best is None or cand.revenue > best.revenue + 1e-10):
                best = cand
    if best is None:
        return None
    return PricingSolution(k, best.prices, best.revenue, best.k1, best.k2, "boundary-tight")


@given(priced_instances(max_n=25))
def test_joint_pricing_matches_the_exhaustive_pair_scan(inst):
    for k in range(1, inst.n + 1):
        want = scan_japtlm_k(inst, k)
        if want is None:
            with pytest.raises(NoFeasibleCandidate):
                solve_japtlm_k(inst, k)
        else:
            assert solve_japtlm_k(inst, k) == want


def test_root_window_covers_a_wide_near_tie_cluster(monkeypatch):
    """130 distinct utilities just inside the top group's slack, ``_FEAS_TOL``
    below that pair's own level, pull its level ~1.2e-7 below the root: a
    pair the checks pass although its boundary lies outside a fixed 1e-7
    window.  Every pair the scan could keep must be built."""
    t, m, delta = 10.0, 130, 1e-9
    cluster = [1.0 - delta * (0.99 - 0.02 * j / m) for j in range(m)]
    low = -3.0
    top = 1.0 + (1.0 - low - math.log1p(t) + (1.0 + t) * sum(1.0 - x for x in cluster)) / (1.0 + t)
    inst = PricedInstance(tuple([top] + sorted(cluster, reverse=True) + [low]), t, 1.0)
    k = inst.n
    far, root = japtlm_candidate(inst, k, m + 1, 1), japtlm_candidate(inst, k, 1, 1)
    assert far.feasible and root.feasible
    assert root.c1 - far.c1 > 1e-7
    built = set()
    real = pricing.japtlm_candidate

    def recording(inst_, k_, k1, k2):
        built.add((k1, k2))
        return real(inst_, k_, k1, k2)

    monkeypatch.setattr(pricing, "japtlm_candidate", recording)
    sol = solve_japtlm_k(inst, k)
    assert {(1, 1), (m + 1, 1)} <= built
    monkeypatch.undo()
    assert sol == scan_japtlm_k(inst, k)


@given(priced_instances(max_n=10), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_quasi_shared_price_is_the_bounded_optimum(inst, fractions):
    """For a last price ``p_k``, the closed-form shared price earns at least
    what a bounded search over the dominance band finds."""
    u, log1pt, a0 = inst.utilities, math.log1p(inst.t), inst.a0
    for k in range(2, inst.n + 1):
        if u[0] - u[k - 2] > log1pt:
            break
        group_att = sum(math.exp(x) for x in u[: k - 1])
        for p_k in (f * (u[k - 1] + 20.0) for f in fractions):
            b = math.exp(u[k - 1] - p_k)
            # Neither the top product nor product k may dominate the other.
            lo = max(0.0, p_k + u[0] - u[k - 1] - log1pt)
            hi = min(u[0] + 20.0, p_k + u[k - 2] - u[k - 1] + log1pt)
            if hi < lo:
                continue

            def revenue(p):
                g = group_att * math.exp(-p)
                return (p * g + p_k * b) / (g + b + a0)

            search = max(revenue(lo), revenue(hi))
            if hi > lo:
                res = minimize_scalar(lambda p: -revenue(p), bounds=(lo, hi),
                                      method="bounded", options={"xatol": 1e-12})
                search = max(search, revenue(float(res.x)))
            p = _best_shared_price(group_att, b, p_k, a0, lo, hi)
            assert lo <= p <= hi
            assert revenue(p) >= search - 1e-12 * max(1.0, search)


@settings(max_examples=50)
@given(priced_instances(max_n=10))
def test_policies_are_ordered(inst):
    fixed = fixed_price_policy(inst).revenue
    quasi = quasi_same_price_policy(inst).revenue
    assert fixed <= quasi <= solve_japtlm(inst).revenue * (1.0 + 1e-9)


@given(st.lists(st.integers(0, (1 << 12) - 1), min_size=1, unique=True))
def test_tied_masks_resolve_to_the_lexicographically_smallest_subset(masks):
    got = oracles._lex_smallest(np.array(masks, dtype=np.int64))
    assert tuple(mask_ids(got)) == min(tuple(mask_ids(m)) for m in masks)


def full_grid_best(u, grid, band, a0):
    """Every point of the grid ``grid[grid <= u[q]]`` per axis, built one x0
    row at a time; the first best feasible point in row-major order."""
    axes = [grid[grid <= x] for x in u]
    best_val, best_v = -math.inf, None
    for x0 in axes[0]:
        rest = [g.ravel() for g in np.meshgrid(*axes[1:], indexing="ij")]
        pts = np.column_stack([np.full(rest[0].size if rest else 1, x0)] + rest)
        feasible = pts.max(axis=1) - pts.min(axis=1) <= band
        if not feasible.any():
            continue
        pts = pts[feasible]
        att = np.exp(pts)
        vals = ((u - pts) * att).sum(axis=1) / (att.sum(axis=1) + a0)
        j = int(vals.argmax())
        if vals[j] > best_val:
            best_val, best_v = float(vals[j]), pts[j].copy()
    return best_val, best_v, 0


@st.composite
def oracle_instances(draw):
    """``(inst, k)`` for the pricing oracle: k <= 3 utilities below a top in
    [-12, 4] (under the grid floor of -10 some axes are empty), within a
    span of 3 at k = 3, rounded to 0.1 in half the draws so that they tie,
    with ``t`` down to 0.05."""
    k = draw(st.integers(1, 3))
    top = draw(st.one_of(st.floats(-12.0, 4.0), st.sampled_from([-10.0, 0.0])))
    gaps = st.floats(0.0, 1.5 if k == 3 else 6.0)
    utilities = [top] + [top - g for g in draw(st.lists(gaps, min_size=k - 1, max_size=k - 1))]
    if draw(st.booleans()):
        utilities = [round(x, 1) for x in utilities]
    t = draw(st.one_of(st.floats(0.05, 9.0), st.sampled_from([0.05, 1.0])))
    inst = PricedInstance(tuple(sorted(utilities, reverse=True)), t, draw(st.floats(0.5, 100.0)))
    return inst, k


@settings(max_examples=60)
@given(oracle_instances())
def test_pricing_oracle_matches_the_full_grid(case):
    """Scoring only the band window finds the same grid point as scoring the
    whole grid, so the oracle's answer is unchanged to the last bit."""
    inst, k = case
    got = numeric_pricing_oracle(inst, k)
    with patch.object(oracles, "_band_grid_best", full_grid_best):
        want = numeric_pricing_oracle(inst, k)
    assert (got.value, got.optimizer) == (want.value, want.optimizer)
