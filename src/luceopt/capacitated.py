"""Capacitated assortment optimization.

With a cardinality cap the problem is NP-hard in general, so this module
offers an exact enumerator (guarded) plus polynomial algorithms for the two
tractable structures, each one fractional program (``assortment._fractional``):

* dominance whose transitive reduction is a forest: the oracle is a tree DP
  for the best antichain of at most C products;
* attractiveness-correlated dominance (dominance implies higher
  attractiveness, and anything more attractive than a dominator also
  dominates): every antichain lies in the dominance-free pool X_k of its
  most attractive member k, and the oracle over the union of the pools
  takes the best pool's top C positive weights, as for the plain MNL.

``solve_capacitated_auto`` tries them in that order and refuses large
unstructured instances instead of silently approximating.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from .assortment import AssortmentSolution, DEFAULT_EPS, _check_finite, _fractional
from .errors import NotAttractivenessCorrelated, NotATree, ProblemTooLarge, TooLarge
from .model import DominanceRelation, Instance, _by_decreasing, mask_ids

__all__ = [
    "CapacitatedProblem",
    "solve_capacitated_bruteforce",
    "is_forest_reducible",
    "tree_dp_max_att",
    "solve_capacitated_tree",
    "is_attractiveness_correlated",
    "solve_capacitated_mnl",
    "solve_capacitated_attcorr",
    "solve_capacitated_auto",
]

BRUTE_FORCE_MAX_N = 22


@dataclass(frozen=True)
class CapacitatedProblem:
    """An instance together with a cardinality cap ``1 <= capacity <= n``."""

    instance: Instance
    capacity: int

    def __post_init__(self) -> None:
        if not 1 <= self.capacity <= self.instance.n:
            raise ValueError(
                f"capacity must be in 1..{self.instance.n}, got {self.capacity}"
            )


def solve_capacitated_bruteforce(prob: CapacitatedProblem) -> AssortmentSolution:
    """Exact optimum over all antichains of size <= capacity (n <= 22)."""
    from .oracles import brute_force_assortment  # local import avoids a cycle

    inst = prob.instance
    if inst.n > BRUTE_FORCE_MAX_N:
        raise TooLarge(f"brute force capped at n={BRUTE_FORCE_MAX_N}, got {inst.n}")
    _check_finite([p.revenue * p.attractiveness for p in inst.products])
    result = brute_force_assortment(inst, capacity=prob.capacity, antichains_only=True)
    return AssortmentSolution(tuple(result.optimizer), result.value, 1, 0.0)


# ---------------------------------------------------------------------------
# Forest-reducible dominance
# ---------------------------------------------------------------------------


def is_forest_reducible(rel: DominanceRelation) -> tuple[bool, list[int] | None]:
    """Check whether the transitive reduction is a forest.

    Returns ``(True, parents)`` where ``parents[i]`` is the unique direct
    dominator of product ``i`` (0 for roots; index 0 unused), or
    ``(False, None)`` when some product has two direct dominators.
    """
    parents = [0]
    for mask in rel.direct_dominators:
        if mask & (mask - 1):
            return False, None
        parents.append(mask.bit_length())
    return True, parents


def tree_dp_max_att(
    rel: DominanceRelation,
    weights: Sequence[float],
    capacity: int,
) -> tuple[float, frozenset[int]]:
    """Maximum-weight antichain of size <= capacity in a forest order.

    A virtual zero-weight root dominating every real root makes the forest
    a single tree.  Negative-weight products can never help, so they are
    spliced out with their children promoted to the grandparent (ancestor
    relations among survivors are unchanged).  Two tables drive the DP:
    the best value within one product's subtree, and the best value over a
    combined list of sibling subtrees, split across the capacity.
    """
    ok, parents = is_forest_reducible(rel)
    if not ok:
        raise NotATree("transitive reduction has a node with two direct dominators")
    n = rel.n
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if n == 0 or capacity == 0:
        return 0.0, frozenset()

    w = [0.0] + [float(x) for x in weights]  # index 0 is the virtual root
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for v in range(1, n + 1):
        children[parents[v]].append(v)

    # Splice out negative-weight nodes, promoting their children.
    def kept_children(v: int) -> list[int]:
        out: list[int] = []
        stack = list(children[v])
        while stack:
            c = stack.pop()
            if w[c] < 0:
                stack.extend(children[c])
            else:
                out.append(c)
        # Larger weights first; ties by id for determinism.
        out.sort(key=lambda c: (-w[c], c))
        return out

    C = capacity
    # table[v][c]: the best value within v's pruned subtree using at most c
    # products, for c up to min(C, leaves of the subtree); beyond that it is
    # flat.  own[v][c] says whether v alone wins; split[v][j][c] is the
    # capacity the j-th child gets when the first j + 1 share c.
    table: dict[int, list[float]] = {}
    own: dict[int, list[bool]] = {}
    split: dict[int, list[list[int]]] = {}

    # Iterative post-order over the pruned tree rooted at the virtual node.
    order: list[int] = []
    kids: dict[int, list[int]] = {}
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        kids[v] = kept_children(v)
        stack.extend(kids[v])

    for v in reversed(order):
        # Combine the children subtrees one at a time: comb[c] is the best
        # value using the first j subtrees with total size <= c.  Only
        # splits within both sizes are tried (the O(n*C) tree knapsack).
        comb: list[float] = [0.0]
        split[v] = []
        for child in kids[v]:
            child_tab = table[child]
            prev, size = len(comb) - 1, len(child_tab) - 1
            new: list[float] = []
            qs: list[int] = []
            for c in range(min(C, prev + size) + 1):
                best, best_q = -math.inf, 0
                for q in range(max(0, c - prev), min(c, size) + 1):
                    val = comb[c - q] + child_tab[q]
                    if val > best:
                        best, best_q = val, q
                new.append(best)
                qs.append(best_q)
            comb = new
            split[v].append(qs)
        if len(comb) == 1:
            comb.append(0.0)  # room for v itself
        own[v] = [c > 0 and w[v] > comb[c] for c in range(len(comb))]
        table[v] = [w[v] if mine else x for mine, x in zip(own[v], comb)]

    chosen: set[int] = set()
    todo: list[tuple[int, int]] = [(0, len(table[0]) - 1)]
    while todo:
        v, c = todo.pop()
        if own[v][c]:
            chosen.add(v)
            continue
        for child, qs in zip(reversed(kids[v]), reversed(split[v])):
            if qs[c] > 0:
                todo.append((child, qs[c]))
            c -= qs[c]
    return table[0][-1], frozenset(chosen)


def solve_capacitated_tree(
    prob: CapacitatedProblem,
    eps: float = DEFAULT_EPS,
    trace: list[float] | None = None,
) -> AssortmentSolution:
    """Fractional driver over the tree DP (forest-reducible dominance)."""
    inst = prob.instance
    if not is_forest_reducible(inst.dominance)[0]:
        raise NotATree("dominance reduction is not a forest")
    return _fractional(
        [p.revenue * p.attractiveness for p in inst.products],
        [p.attractiveness for p in inst.products], inst.a0,
        # tree_dp_max_att returns (value, set); the driver wants (set, value).
        lambda w: tree_dp_max_att(inst.dominance, w, prob.capacity)[::-1], eps, trace,
    )


# ---------------------------------------------------------------------------
# Attractiveness-correlated dominance
# ---------------------------------------------------------------------------


def is_attractiveness_correlated(inst: Instance) -> bool:
    """Both structure conditions on the closure:

    1. a dominator is strictly more attractive than what it dominates;
    2. anything strictly more attractive than a dominator of y also
       dominates y.

    Per product ``y``, on the decreasing-attractiveness order: the
    shortest prefix holding all dominators of ``y`` (binary search) ends
    in a least attractive dominator ``z``; condition 2 holds iff every
    product more attractive than ``z`` dominates ``y``.

    Threshold-induced instances always satisfy both.
    """
    att = [p.attractiveness for p in inst.products]
    order, prefix, negated = _by_decreasing(att)
    # stronger[i]: the mask of the products strictly more attractive than i + 1
    stronger = [prefix[bisect_left(negated, -a)] for a in att]
    for y, dom in enumerate(inst.dominance.dominators):
        if dom & ~stronger[y]:
            return False
        if dom:
            k = bisect_left(range(inst.n + 1), True, key=lambda j: not dom & ~prefix[j])
            if stronger[order[k - 1]] & ~dom:
                return False
    return True


def _best_in_pools(pools: Sequence[int], capacity: int,
                   weights: list[float]) -> tuple[frozenset[int], float]:
    """Max-weight set over the union of dominance-free ``pools`` (product
    masks): each pool's at most ``capacity`` largest strictly positive
    weights (ties to the smaller position), the first largest total winning."""
    order = sorted((i for i, w in enumerate(weights) if w > 0.0),
                   key=weights.__getitem__, reverse=True)
    best, best_value = [], 0.0
    for pool in pools:
        chosen = list(islice((i for i in order if pool >> i & 1), capacity))
        value = sum(weights[i] for i in chosen)
        if value > best_value:
            best, best_value = chosen, value
    return frozenset(i + 1 for i in best), best_value


def solve_capacitated_mnl(
    products: Sequence[tuple[float, float]],
    a0: float,
    capacity: int,
    eps: float = DEFAULT_EPS,
) -> AssortmentSolution:
    """Capacitated assortment under the plain MNL (no dominance): each
    Dinkelbach step keeps the at most ``capacity`` largest strictly positive
    ``r_i a_i - lam a_i`` (one pool of every product).  Positions in
    ``products`` are reported 1-based."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    return _fractional(
        [r * a for r, a in products], [a for _, a in products], a0,
        lambda w: _best_in_pools([(1 << len(products)) - 1], capacity, w), eps,
    )


def solve_capacitated_attcorr(
    prob: CapacitatedProblem, eps: float = DEFAULT_EPS
) -> AssortmentSolution:
    """Capacitated optimum for attractiveness-correlated instances.

    The pool ``X_k = {i : a_i <= a_k and k does not dominate i}`` holds
    every assortment whose most attractive member is ``k``, and correlation
    makes it dominance-free.  The feasible sets are the union of the pools,
    so one fractional program runs over them: its oracle takes each pool's
    top C positive weights, and the best pool wins (smallest k on ties).

    Exact ties in attractiveness can leave dominance inside a pool; such
    instances fall back to brute force when small enough and are refused
    otherwise.
    """
    inst = prob.instance
    if not is_attractiveness_correlated(inst):
        raise NotAttractivenessCorrelated(
            "instance fails the attractiveness-correlation conditions"
        )
    att = [p.attractiveness for p in inst.products]
    dominators = inst.dominance.dominators
    _, prefix, negated = _by_decreasing(att)
    # X_k: the products no more attractive than k, minus those k dominates.
    pools = [prefix[-1] & ~prefix[bisect_left(negated, -a)] for a in att]
    for i, dom in enumerate(dominators):
        keep = ~(1 << i)
        for k in mask_ids(dom):
            pools[k - 1] &= keep
    if any(dominators[i - 1] & pool for pool in pools for i in mask_ids(pool)):
        if inst.n <= BRUTE_FORCE_MAX_N:
            return solve_capacitated_bruteforce(prob)
        raise TooLarge(
            "attractiveness ties leave dominance inside a candidate pool; "
            f"exact fallback capped at n={BRUTE_FORCE_MAX_N}"
        )
    return _fractional(
        [p.revenue * p.attractiveness for p in inst.products], att, inst.a0,
        lambda w: _best_in_pools(pools, prob.capacity, w), eps,
    )


def solve_capacitated_auto(
    prob: CapacitatedProblem, eps: float = DEFAULT_EPS
) -> tuple[AssortmentSolution, str]:
    """Try the forest DP, then attractiveness correlation, then brute force,
    else refuse (the problem is NP-hard, so there is no inexact fallback).
    Each solver checks its own structure.  Returns the solution and method."""
    with suppress(NotATree):
        return solve_capacitated_tree(prob, eps), "tree"
    with suppress(NotAttractivenessCorrelated):
        return solve_capacitated_attcorr(prob, eps), "attcorr"
    if prob.instance.n <= BRUTE_FORCE_MAX_N:
        return solve_capacitated_bruteforce(prob), "bruteforce"
    raise ProblemTooLarge(
        f"no exact method for unstructured capacitated instances with n={prob.instance.n}"
    )
