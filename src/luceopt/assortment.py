"""Unconstrained assortment optimization.

The objective sum(r_i a_i x_i) / (sum(a_i x_i) + a0) over antichains is a
linear-fractional program whose linear subproblem is a maximum-weight
antichain.  A Dinkelbach iteration drives it: for a revenue guess
``lam``, maximize the antichain weight of ``(r_i - lam) * a_i``; if even
the best antichain cannot beat ``lam * a0`` the guess is optimal, otherwise
the incumbent's actual revenue becomes the next guess.  Every iterate is
the revenue of a concrete antichain and strictly increases, so the loop
terminates after finitely many steps with an eps-certificate.

The revenue-ordered baseline (optimal for the plain MNL, suboptimal once
dominance enters) is included for benchmarking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .antichain import WeightedPoset, max_weight_antichain
from .errors import LuceOptError, NonPositiveInput, WeightOrderError
from .model import DominanceRelation, Instance, consideration_set, expected_revenue

__all__ = [
    "AssortmentSolution",
    "solve_assortment_2slm",
    "revenue_ordered_heuristic",
    "solve_assortment_gam",
]

DEFAULT_EPS = 1e-9
_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class AssortmentSolution:
    """An antichain assortment with its revenue and solver certificate.

    ``certificate_gap`` is the final Dinkelbach residual: the amount by
    which the best antichain of weights ``(r_i - R) a_i`` exceeded
    ``R * a0``.  At termination it is at most ``eps * max(1, R)``.
    """

    assortment: tuple[int, ...]
    revenue: float
    iterations: int
    certificate_gap: float


def _dinkelbach(
    subproblem: Callable[[float], tuple[frozenset[int], float]],
    ratio: Callable[[frozenset[int]], float],
    initial_set: frozenset[int],
    initial_lambda: float,
    denom_const: float,
    eps: float,
    trace: list[float] | None = None,
) -> tuple[frozenset[int], float, int, float]:
    """Shared fractional-programming loop.

    ``subproblem(lam)`` maximizes the numerator-minus-lam-denominator
    weights, ``ratio(S)`` evaluates the true objective, ``denom_const`` is
    the constant denominator term (the outside option's weight).
    """
    if not 0 <= eps < math.inf:
        raise NonPositiveInput(f"eps must be finite and >= 0, got {eps}")
    incumbent, lam = initial_set, initial_lambda
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if trace is not None:
            trace.append(lam)
        candidate, value = subproblem(lam)
        gap = value - lam * denom_const
        if gap <= eps * max(1.0, lam):
            return incumbent, lam, iteration, gap
        incumbent, lam = candidate, ratio(candidate)
    raise LuceOptError(f"Dinkelbach iteration did not converge in {_MAX_ITERATIONS} steps")


def _best_singleton(
    values: Sequence[float], weights: Sequence[float], denom_const: float
) -> tuple[frozenset[int], float]:
    best_i, best = 1, -math.inf
    for i, (v, w) in enumerate(zip(values, weights), start=1):
        r = v / (w + denom_const) if w + denom_const > 0 else 0.0
        if r > best:
            best_i, best = i, r
    return frozenset({best_i}), best


def solve_assortment_2slm(
    inst: Instance,
    eps: float = DEFAULT_EPS,
    trace: list[float] | None = None,
) -> AssortmentSolution:
    """Optimal unconstrained assortment under two-stage Luce choice.

    Returns an antichain whose revenue is within ``eps * max(1, R*)`` of
    optimal (in practice the iteration lands on the exact optimum, since
    each iterate is a concrete antichain's revenue).  Pass a list as
    ``trace`` to capture the strictly increasing revenue-guess sequence.
    """
    if inst.n == 0:
        return AssortmentSolution((), 0.0, 0, 0.0)
    rev = [p.revenue for p in inst.products]
    att = [p.attractiveness for p in inst.products]

    def subproblem(lam: float) -> tuple[frozenset[int], float]:
        weights = tuple((r - lam) * a for r, a in zip(rev, att))
        return max_weight_antichain(WeightedPoset(inst.dominance, weights))

    start_set, start_lam = _best_singleton(
        [r * a for r, a in zip(rev, att)], att, inst.a0
    )
    chosen, lam, iterations, gap = _dinkelbach(
        subproblem,
        lambda S: expected_revenue(S, inst),
        start_set,
        start_lam,
        inst.a0,
        eps,
        trace,
    )
    return AssortmentSolution(tuple(sorted(chosen)), lam, iterations, gap)


def revenue_ordered_heuristic(inst: Instance) -> AssortmentSolution:
    """Best prefix of the products sorted by decreasing revenue.

    Ties in revenue break by ascending product id.  Each prefix is scored
    through the consideration-set filter, so the returned assortment is the
    surviving antichain of the winning prefix (same revenue as the prefix
    itself).  Optimal for the plain MNL; a baseline otherwise.
    """
    if inst.n == 0:
        return AssortmentSolution((), 0.0, 0, math.nan)
    order = sorted(inst.ids, key=lambda i: (-inst.revenue(i), i))
    best_prefix: list[int] = []
    best_value = -math.inf
    prefix: list[int] = []
    for i in order:
        prefix.append(i)
        value = expected_revenue(prefix, inst)
        if value > best_value:
            best_value = value
            best_prefix = list(prefix)
    chosen = consideration_set(best_prefix, inst)
    return AssortmentSolution(tuple(sorted(chosen)), best_value, len(order), math.nan)


def solve_assortment_gam(
    revenues: Sequence[float],
    v: Sequence[float],
    w: Sequence[float],
    v0: float,
    dominance: DominanceRelation,
    eps: float = DEFAULT_EPS,
    trace: list[float] | None = None,
) -> AssortmentSolution:
    """Assortment optimization for the general attraction model.

    Under the GAM each product has an offered weight ``v_j`` and a shadow
    weight ``w_j`` (``0 <= w_j <= v_j``) that shifts to the outside option
    when the product is withheld.  The objective becomes
    ``sum(r_j v_j x_j) / (sum((v_j - w_j) x_j) + v0 + sum(w))``, the same
    fractional shape with modified denominator coefficients, so the same
    Dinkelbach driver applies with subproblem weights
    ``r_j v_j - lam (v_j - w_j)``.

    As for :class:`~luceopt.model.Product` and
    :class:`~luceopt.model.Instance`, revenues and ``v0`` must be finite and
    >= 0 and each ``v_j`` finite and > 0 (else :class:`NonPositiveInput`);
    a ``w_j`` outside ``[0, v_j]``, NaN included, raises
    :class:`WeightOrderError`.
    """
    n = len(revenues)
    if not (len(v) == len(w) == n):
        raise ValueError("revenues, v and w must have equal length")
    if not 0 <= v0 < math.inf:
        raise NonPositiveInput(f"v0 must be finite and >= 0, got {v0}")
    for j in range(n):
        if not 0 <= revenues[j] < math.inf:
            raise NonPositiveInput(
                f"revenue must be finite and >= 0, got r_{j + 1}={revenues[j]}"
            )
        if not 0 < v[j] < math.inf:
            raise NonPositiveInput(f"v must be finite and > 0, got v_{j + 1}={v[j]}")
        if not 0 <= w[j] <= v[j]:
            raise WeightOrderError(
                f"need 0 <= w_j <= v_j, got w_{j + 1}={w[j]}, v_{j + 1}={v[j]}"
            )
    if n == 0:
        return AssortmentSolution((), 0.0, 0, 0.0)
    v_tilde = [vj - wj for vj, wj in zip(v, w)]
    v0_tilde = v0 + sum(w)
    numerators = [r * vj for r, vj in zip(revenues, v)]

    def gam_value(S: Iterable[int]) -> float:
        s = list(S)
        denom = sum(v_tilde[i - 1] for i in s) + v0_tilde
        if denom <= 0:
            return 0.0
        return sum(numerators[i - 1] for i in s) / denom

    def subproblem(lam: float) -> tuple[frozenset[int], float]:
        weights = tuple(
            num - lam * vt for num, vt in zip(numerators, v_tilde)
        )
        return max_weight_antichain(WeightedPoset(dominance, weights))

    start_set, start_lam = _best_singleton(numerators, v_tilde, v0_tilde)
    chosen, lam, iterations, gap = _dinkelbach(
        subproblem, gam_value, start_set, start_lam, v0_tilde, eps, trace
    )
    return AssortmentSolution(tuple(sorted(chosen)), lam, iterations, gap)
