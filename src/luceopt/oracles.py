"""Independent brute-force references for the solvers.

These deliberately share no code path with the polynomial algorithms: the
antichain and assortment oracles enumerate raw subsets with vectorized bit
tricks (one chunked enumerator, reading the relation's dominator masks), and
the pricing oracle walks a dense grid of net utilities followed by a local
pattern-search refinement.  Property tests and the ``verify`` CLI command
compare solver output against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .antichain import WeightedPoset
from .errors import TooLarge, ZeroOutsideOption
from .model import Instance, PricedInstance, mask_ids

__all__ = ["OracleResult", "brute_force_antichain", "brute_force_assortment",
           "numeric_pricing_oracle"]

_MAX_N = 22
_MAX_PRICING_K = 3


@dataclass(frozen=True)
class OracleResult:
    """Best value found, the optimizer achieving it, and how many candidate
    evaluations the search performed."""

    value: float
    optimizer: tuple
    evaluations: int


def _best_subset(
    n: int, score: Callable[[np.ndarray], tuple], seed_value: float
) -> tuple[float, tuple[int, ...], int]:
    """Best subset of ``1..n`` by enumerating bitmasks in chunks.

    ``score(masks)`` gives each subset's value and whether it is a
    candidate.  The empty subset with ``seed_value`` seeds the search; ties
    go to the lexicographically smallest subset.  Also counts the
    candidates.
    """
    best_value = seed_value
    best_subset: tuple[int, ...] = ()
    evaluations = 0
    chunk = 1 << 20
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        value, feasible = score(masks)
        evaluations += int(feasible.sum())
        value = np.where(feasible, value, -np.inf)
        top = float(value.max())
        if top < best_value:
            continue
        for m in masks[value == top]:
            cand = tuple(mask_ids(int(m)))
            if top > best_value or (top == best_value and cand < best_subset):
                best_value = top
                best_subset = cand
    return best_value, best_subset, evaluations


def brute_force_antichain(poset: WeightedPoset) -> tuple[frozenset[int], float]:
    """Exact maximum over all antichains by subset enumeration.

    Guarded at ``n <= 25``.  Ties are broken toward the lexicographically
    smallest subset, with the empty antichain (value 0) always a candidate.
    """
    n = poset.relation.n
    if n > 25:
        raise TooLarge(f"brute-force antichain enumeration capped at n=25, got {n}")
    dom_mask = np.array(poset.relation.dominators, dtype=np.int64)
    weights = np.asarray(poset.weights, dtype=np.float64)

    def score(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        value = np.zeros(len(masks))
        ok = np.ones(len(masks), dtype=bool)
        for i in range(n):
            included = (masks >> i) & 1 == 1
            ok &= ~(included & ((masks & dom_mask[i]) != 0))
            value += weights[i] * included
        return value, ok

    # The empty antichain (value 0, lexicographically smallest) seeds the
    # search, which makes it the winner whenever no weight is positive.
    value, subset, _ = _best_subset(n, score, 0.0)
    return frozenset(subset), value


def brute_force_assortment(
    inst: Instance,
    capacity: int | None = None,
    antichains_only: bool = False,
) -> OracleResult:
    """Exact assortment optimum by enumerating subsets (n <= 22).

    Every subset is scored through the consideration-set filter, so
    dominated members contribute nothing; with ``antichains_only`` the
    enumeration is restricted to subsets that survive their own filter
    (used by the capacitated solver, whose feasible set is antichains).
    Ties break toward the lexicographically smallest subset.
    """
    n = inst.n
    if n > _MAX_N:
        raise TooLarge(f"oracle enumeration capped at n={_MAX_N}, got {n}")
    cap = n if capacity is None else capacity
    dom_mask = np.array(inst.dominance.dominators, dtype=np.int64)
    rev = np.array([p.revenue for p in inst.products])
    att = np.array([p.attractiveness for p in inst.products])

    def score(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        num = np.zeros(len(masks))
        den = np.full(len(masks), float(inst.a0))
        size = np.zeros(len(masks), dtype=np.int64)
        antichain = np.ones(len(masks), dtype=bool)
        for i in range(n):
            included = (masks >> i) & 1 == 1
            size += included
            dominated = (masks & dom_mask[i]) != 0
            antichain &= ~(included & dominated)
            surviving = included & ~dominated
            num += rev[i] * att[i] * surviving
            den += att[i] * surviving
        value = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        feasible = size <= cap
        if antichains_only:
            feasible &= antichain
        return value, feasible

    value, subset, evaluations = _best_subset(n, score, -math.inf)
    return OracleResult(value, subset, evaluations)


def numeric_pricing_oracle(inst: PricedInstance, k: int) -> OracleResult:
    """Grid-plus-refinement search over price vectors for the prefix [k].

    The grid lives in net-utility space (``v_i = u_i - p_i`` on a shared
    grid over ``[-10, u_i]``), which aligns the axes so that uniform-net
    points are always on the grid and the feasible band around the diagonal
    is never missed.  Grid points where some product would be dominated are
    discarded; the best survivor is polished by a pattern search (single
    and joint coordinate moves, step halving down to 1e-6).

    The optimizer is returned as a price vector.  Guarded at k <= 3.
    """
    if k > _MAX_PRICING_K:
        raise TooLarge(f"pricing oracle capped at k={_MAX_PRICING_K}, got {k}")
    if not 1 <= k <= inst.n:
        raise ValueError(f"k must be in 1..{inst.n}, got {k}")
    if not inst.a0 > 0:
        raise ZeroOutsideOption("pricing oracle requires a0 > 0")

    u = np.array(inst.utilities[:k])
    band = math.log1p(inst.t) * (1.0 + 1e-12)
    a0 = inst.a0
    step = 0.01 if k <= 2 else 0.1
    lo, hi = -10.0, float(u.max())
    grid = np.arange(lo, hi + step / 2, step)

    def revenue_of(v: np.ndarray) -> float:
        att = np.exp(v)
        return float(((u - v) * att).sum() / (att.sum() + a0))

    evaluations = 0
    best_v = np.full(k, min(0.0, float(u.min())))  # uniform nets: always feasible
    best_val = revenue_of(best_v)

    # Stage 1: dense grid, chunked along the first axis.
    axes = [grid[grid <= u[i]] for i in range(k)]
    for x0 in axes[0]:
        if k == 1:
            pts = np.array([[x0]])
        elif k == 2:
            pts = np.column_stack(
                [np.full(len(axes[1]), x0), axes[1]]
            )
        else:
            g1, g2 = np.meshgrid(axes[1], axes[2], indexing="ij")
            pts = np.column_stack(
                [np.full(g1.size, x0), g1.ravel(), g2.ravel()]
            )
        spread = pts.max(axis=1) - pts.min(axis=1)
        feasible = spread <= band
        evaluations += len(pts)
        if not feasible.any():
            continue
        pts = pts[feasible]
        att = np.exp(pts)
        vals = ((u - pts) * att).sum(axis=1) / (att.sum(axis=1) + a0)
        j = int(vals.argmax())
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_v = pts[j].copy()

    # Stage 2: pattern search from the best grid point.  Joint moves matter
    # because the feasible region is a band around the diagonal.
    h = step
    while h >= 1e-6:
        improved = False
        moves: list[np.ndarray] = []
        for i in range(k):
            for sign in (+1.0, -1.0):
                d = np.zeros(k)
                d[i] = sign * h
                moves.append(d)
        moves.append(np.full(k, +h))
        moves.append(np.full(k, -h))
        for d in moves:
            cand = best_v + d
            evaluations += 1
            if (cand > u).any() or (cand < lo).any():
                continue
            if cand.max() - cand.min() > band:
                continue
            val = revenue_of(cand)
            if val > best_val:
                best_val = val
                best_v = cand
                improved = True
        if not improved:
            h /= 2.0
    prices = tuple(float(ui - vi) for ui, vi in zip(u, best_v))
    return OracleResult(best_val, prices, evaluations)
