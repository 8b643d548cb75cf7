"""Unconstrained assortment optimization and the shared fractional driver.

Every tractable assortment variant maximizes ``sum(num_i x_i) /
(sum(den_i x_i) + den0)`` over its feasible sets, and one driver,
:func:`_fractional`, runs Dinkelbach's (1967) iteration for all of them.
It starts from the best single product.  For a revenue guess ``lam`` the
variant's oracle returns a feasible set of largest weight
``num_i - lam * den_i``; if even that set cannot beat ``lam * den0`` the
guess is optimal, otherwise the set's own ratio is the next guess.  Every
iterate is the revenue of a concrete set and strictly increases, so the
loop terminates after finitely many steps with an eps-certificate.

Each solver passes only ``(num, den, den0)`` and its oracle:

* :func:`solve_assortment_2slm`: ``(r a, a, a0)``, the antichain flow;
* :func:`solve_assortment_gam`: ``(r v, v - w, v0 + sum(w))``, the same flow;
* :func:`~luceopt.capacitated.solve_capacitated_tree`: ``(r a, a, a0)``,
  the forest DP over antichains of at most C products;
* :func:`~luceopt.capacitated.solve_capacitated_mnl` and
  :func:`~luceopt.capacitated.solve_capacitated_attcorr`: ``(r a, a, a0)``,
  the best pool's top-C positive weights (the MNL has one pool).

The revenue-ordered baseline (optimal for the plain MNL, suboptimal once
dominance enters) is included for benchmarking.
"""

from __future__ import annotations

import math
import sys
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


def _check_finite(num: Sequence[float]) -> None:
    """Reject ``r_i a_i >= 0`` whose total overflows, so that no set's
    revenue numerator can; names the product when one overflows alone."""
    if not math.isfinite(sum(num)):
        bad = [i for i, x in enumerate(num, start=1) if not math.isfinite(x)]
        where = f"product {bad[0]}" if bad else "the sum over all products"
        raise LuceOptError(f"revenue x attractiveness overflows for {where}")


def _fractional(
    num: Sequence[float],
    den: Sequence[float],
    den0: float,
    best_set: Callable[[list[float]], tuple[frozenset[int], float]],
    eps: float,
    trace: list[float] | None = None,
) -> AssortmentSolution:
    """Dinkelbach's iteration for ``max sum(num[S]) / (sum(den[S]) + den0)``.

    Products are ``1..len(num)``; ``den`` and ``den0`` are finite and
    >= 0.  ``best_set(weights)`` returns a feasible set of largest total
    weight and that weight (the empty set, weight 0, is always feasible).
    A ``num`` whose total is not finite raises :class:`LuceOptError`
    (CLI exit 2).
    """
    if not 0 <= eps < math.inf:
        raise NonPositiveInput(f"eps must be finite and >= 0, got {eps}")
    _check_finite(num)
    if not num:
        return AssortmentSolution((), 0.0, 0, 0.0)

    def ratio(S: Iterable[int]) -> float:
        d = sum(den[i - 1] for i in S) + den0
        return sum(num[i - 1] for i in S) / d if d > 0 else 0.0

    singles = [x / (d + den0) if d + den0 > 0 else 0.0 for x, d in zip(num, den)]
    lam = max(singles)
    incumbent = frozenset({singles.index(lam) + 1})
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if trace is not None:
            trace.append(lam)
        weights = [x - lam * d for x, d in zip(num, den)]
        if -math.inf in weights:
            # lam * den_i overflowed: the most negative float is still below
            # every weight an oracle would pick, and it is finite.
            weights = [max(w, -sys.float_info.max) for w in weights]
        candidate, value = best_set(weights)
        gap = value - lam * den0
        if gap <= eps * max(1.0, lam):
            return AssortmentSolution(tuple(sorted(incumbent)), lam, iteration, gap)
        incumbent, lam = candidate, ratio(candidate)
    raise LuceOptError(f"Dinkelbach iteration did not converge in {_MAX_ITERATIONS} steps")


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
    return _fractional(
        [p.revenue * p.attractiveness for p in inst.products],
        [p.attractiveness for p in inst.products], inst.a0,
        lambda w: max_weight_antichain(WeightedPoset(inst.dominance, w)), eps, trace,
    )


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
    return _fractional(
        [r * vj for r, vj in zip(revenues, v)], [vj - wj for vj, wj in zip(v, w)],
        v0 + sum(w),
        lambda x: max_weight_antichain(WeightedPoset(dominance, x)), eps, trace,
    )
