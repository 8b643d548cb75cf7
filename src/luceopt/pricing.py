"""Joint assortment and pricing under threshold dominance.

Products carry intrinsic utilities (sorted non-increasing) and price-driven
attractiveness ``exp(u_i - p_i)``; a product is dominated when another's
attractiveness exceeds ``(1 + t)`` times its own.  The planner picks both
which prefix ``[k]`` to offer and its prices.

Structure of the optimum (for a fixed ``k``):

* if ``exp(u_1 - u_k) <= 1 + t`` the dominance constraints are slack and
  the classic fixed-price logit solution applies: revenue
  ``W(sum(exp(u_i - 1)) / a0)``, every price ``1 + R``;
* otherwise the extreme attractiveness ratio is tight at exactly ``1 + t``
  and there are group sizes ``k1, k2 >= 1``: the top ``k1`` products share
  one net utility ``u_s``, the bottom ``k2`` share ``u_s - ln(1 + t)``,
  and everything in between is priced at ``1 + R``.  For each ``(k1, k2)``
  the stationarity conditions collapse to one transcendental equation whose
  solution is a Lambert W evaluation (:func:`japtlm_candidate`).

The groups need not be searched for.  With ``c = c1 + 1`` (the pair's
level) and ``L = ln(1 + t)``, every check on a candidate except
``p_k >= 0`` is independent of ``R``, and they hold exactly when the top
group is ``{u_i >= c}``, the bottom group is ``{u_i <= c - L}`` and ``c``
is the root of the water-filling equation::

    phi(c) = (1 + t) * sum(u_i - c  for u_i >= c)
             + sum(u_i + L - c  for u_i <= c - L) = 0

``phi`` is continuous and strictly decreasing on ``[u_k + L, u_1]``, so
each tight prefix has one root, and only the pairs whose boundaries sit
at that root are built and checked.

Two simpler policies serve as baselines: a single shared price (optimal
for the plain MNL, arbitrarily bad here) and a shared price with only the
last product priced separately, whose shared price has a closed form.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (
    BadGroupSizes,
    LuceOptError,
    NegativeArgument,
    NoFeasibleCandidate,
    ZeroOutsideOption,
)
from .model import PricedInstance, is_valid_pair

__all__ = [
    "lambert_w",
    "PricingSolution",
    "BoundaryCandidate",
    "fixed_price_policy",
    "japtlm_candidate",
    "solve_japtlm_k",
    "solve_japtlm",
    "quasi_same_price_policy",
    "InvariantReport",
    "check_pricing_invariants",
]

# Slack allowed in each closed-form candidate check (prices, nets, groups).
_FEAS_TOL = 1e-9
# Revenue margin by which a later boundary candidate must win to replace one.
_TIE_TOL = 1e-10
# Least half-width of the utility window around the water-filling root
# inside which group boundaries are confirmed pair by pair (see
# solve_japtlm_k for the width that covers every pair passing the checks).
_ROOT_WINDOW = 1e-7
# Relative widening of the dominance band ln(1 + t): an attractiveness
# ratio of exactly 1 + t, as computed in floats, counts as undominated.
_BAND_RTOL = 1e-12
# exp() arguments are kept at or below 700, so each term stays below 1e304
# and sums over up to 10^4 products stay finite.
_MAX_EXP_ARG = 700.0
# From about 3.7e302 on, lambert_w's first Halley step overflows and the
# result is wrong (1% off at 1e303, NaN from 1e307).
_MAX_LAMBERT_ARG = 3e302
_LOG_MAX_LAMBERT_ARG = math.log(_MAX_LAMBERT_ARG)


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W for ``0 <= x <= 3e302``: the ``w >= 0``
    solving ``w * exp(w) = x``.

    Halley iteration from the starting guess ``log(1 + x)``; converges to
    residual ``|w e^w - x| <= 1e-12 * max(1, x)`` in a handful of steps.
    """
    if math.isnan(x) or x < 0:
        raise NegativeArgument(f"lambert_w requires x >= 0, got {x}")
    if x > _MAX_LAMBERT_ARG:
        raise LuceOptError(f"lambert_w argument {x} exceeds {_MAX_LAMBERT_ARG}")
    if x == 0.0:
        return 0.0
    w = math.log1p(x)
    tol = 1e-13 * max(1.0, x)
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            break
        fp = ew * (w + 1.0)
        step = f / (fp - f * (w + 2.0) / (2.0 * (w + 1.0)))
        new_w = w - step
        if new_w == w:
            break
        w = new_w
    return w


@dataclass(frozen=True)
class PricingSolution:
    """An intrinsic-utility-ordered assortment ``[k]`` with its prices.

    ``mode`` records which branch produced it: ``"unconstrained"`` when the
    shared-price logit optimum already respects the dominance constraints,
    ``"boundary-tight"`` when the extreme attractiveness ratio is pinned at
    ``1 + t`` (then ``k1``/``k2`` are the boundary group sizes).
    """

    k: int
    prices: tuple[float, ...]
    revenue: float
    k1: int
    k2: int
    mode: str


@dataclass(frozen=True)
class BoundaryCandidate:
    """Closed-form stationary point for fixed ``(k, k1, k2)``.

    ``c1`` and ``c2`` are the two constants of the reduced stationarity
    system, ``u_s`` the shared net utility of the top group, and
    ``feasible`` records whether the candidate survives the validity,
    monotonicity and multiplier-sign checks.
    """

    k1: int
    k2: int
    c1: float
    c2: float
    u_s: float
    revenue: float
    prices: tuple[float, ...]
    feasible: bool


def _check_domain(inst: PricedInstance) -> None:
    if not inst.a0 > 0:
        raise ZeroOutsideOption("pricing requires a0 > 0")
    if inst.n and inst.utilities[0] > _MAX_EXP_ARG:
        raise LuceOptError(
            f"top utility {inst.utilities[0]} exceeds {_MAX_EXP_ARG}; exp() would overflow"
        )


def fixed_price_policy(inst: PricedInstance, k: int | None = None) -> PricingSolution:
    """Best single shared price over prefixes of size at most ``k``.

    Under one price, dominance depends only on utility gaps, so exactly the
    longest prefix with ``exp(u_1 - u_j) <= 1 + t`` can survive; shorter
    prefixes are also scored (the Lambert form is monotone in the offered
    set, so the longest survivor wins).  Prices are ``1 + R``.
    """
    _check_domain(inst)
    cap = inst.n if k is None else k
    if not 1 <= cap <= inst.n:
        raise ValueError(f"k must be in 1..{inst.n}, got {cap}")
    u = inst.utilities
    limit = math.log1p(inst.t) * (1.0 + _BAND_RTOL)
    j_max = 1
    while j_max < cap and u[0] - u[j_max] <= limit:
        j_max += 1
    best_j, best_r = 1, -math.inf
    acc = 0.0
    for j in range(1, j_max + 1):
        acc += math.exp(u[j - 1] - 1.0)
        r = lambert_w(acc / inst.a0)
        if r > best_r:
            best_j, best_r = j, r
    price = 1.0 + best_r
    return PricingSolution(best_j, (price,) * best_j, best_r, 0, 0, "unconstrained")


def japtlm_candidate(
    inst: PricedInstance, k: int, k1: int, k2: int
) -> BoundaryCandidate:
    """Closed-form boundary candidate for assortment ``[k]`` and group
    sizes ``(k1, k2)``.

    Top group ``[k1]`` shares net utility ``u_s``, bottom group (last
    ``k2``) shares ``u_s - ln(1 + t)``, middle products are priced at
    ``1 + R``.  Writing the stationarity conditions around those groups
    pins ``R`` to a single Lambert W evaluation::

        c1 = ((1 + t) * sum(u, top) + sum(u, bottom) + k2 ln(1 + t))
             / (k1 (1 + t) + k2) - 1
        c2 = k1 + k2 / (1 + t) + sum(exp(u), middle) * exp(-c1 - 1)
        R  = W(c2 * exp(c1) / a0),   u_s = c1 - R

    Feasibility requires: the pair ``([k], prices)`` is valid, prices and
    net utilities are non-increasing, prices are non-negative, and the
    multiplier signs hold (top-group prices >= 1 + R, bottom <= 1 + R).
    """
    _check_domain(inst)
    if not (1 <= k <= inst.n and k1 >= 1 and k2 >= 1 and k1 + k2 <= k):
        raise BadGroupSizes(
            f"need 1 <= k1, 1 <= k2, k1 + k2 <= k <= n; got k={k}, k1={k1}, k2={k2}"
        )
    u = inst.utilities
    t = inst.t
    log1pt = math.log1p(t)
    top = u[:k1]
    bottom = u[k - k2 : k]
    middle = u[k1 : k - k2]

    c1 = ((1.0 + t) * sum(top) + sum(bottom) + k2 * log1pt) / (
        k1 * (1.0 + t) + k2
    ) - 1.0
    if abs(c1) > _MAX_EXP_ARG:
        raise LuceOptError(f"c1={c1} for k={k}, k1={k1}, k2={k2}; exp() would overflow")
    ebar = sum(math.exp(ui) for ui in middle)
    c2 = (k1 + k2 / (1.0 + t)) + ebar * math.exp(-c1 - 1.0)
    revenue = lambert_w(c2 * math.exp(c1) / inst.a0)
    u_s = c1 - revenue

    prices = tuple(
        [ui - u_s for ui in top]
        + [1.0 + revenue] * len(middle)
        + [ui - u_s + log1pt for ui in bottom]
    )

    feasible = _candidate_feasible(inst, k, k1, k2, revenue, prices)
    return BoundaryCandidate(k1, k2, c1, c2, u_s, revenue, prices, feasible)


def _candidate_feasible(
    inst: PricedInstance,
    k: int,
    k1: int,
    k2: int,
    revenue: float,
    prices: tuple[float, ...],
) -> bool:
    u = inst.utilities
    bar = 1.0 + revenue
    if any(p < -_FEAS_TOL for p in prices):
        return False
    for i in range(k - 1):
        if prices[i] < prices[i + 1] - _FEAS_TOL:
            return False
        if u[i] - prices[i] < u[i + 1] - prices[i + 1] - _FEAS_TOL:
            return False
    if any(prices[i] < bar - _FEAS_TOL for i in range(k1)):
        return False
    if any(prices[i] > bar + _FEAS_TOL for i in range(k - k2, k)):
        return False
    # Validity: no product in [k] may be dominated.  With monotone nets the
    # extreme pair decides, and by construction its ratio is exactly 1 + t,
    # which the comparison's guard band classifies as undominated.
    nets = [u[i] - prices[i] for i in range(k)]
    return max(nets) - min(nets) <= math.log1p(inst.t) * (1.0 + _BAND_RTOL) + 1e-12


def _water_level(
    u: tuple[float, ...], neg: list[float], t: float, log1pt: float
) -> float:
    """Root of ``phi`` (see the module docstring) for the tight prefix of
    ``u`` whose negated utilities, in ascending order, are ``neg``.

    ``phi`` is linear between its breakpoints ``u_i`` and ``u_i + L``, so
    bisection runs only until the bracket holds no breakpoint; the root is
    then that piece's weighted mean.  Each evaluation counts the two groups
    with two binary searches and sums them from prefix sums.
    """
    k = len(neg)
    acc = [0.0, *accumulate(u[:k])]
    w = 1.0 + t

    def groups(c: float) -> tuple[int, int]:
        # #{u_i >= c}, #{u_i > c - L}; the bottom group is the rest.
        return bisect_right(neg, -c), bisect_left(neg, log1pt - c)

    def level(a: int, b: int) -> float:
        return (w * acc[a] + acc[k] - acc[b] + (k - b) * log1pt) / (w * a + k - b)

    lo, hi = log1pt - neg[-1], -neg[0]  # phi(lo) > 0 > phi(hi)
    g_lo, g_hi = groups(lo), groups(hi)
    while g_lo != g_hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid  # breakpoints closer than float spacing
        g = groups(mid)
        a, b = g
        if w * (acc[a] - a * mid) + acc[k] - acc[b] + (k - b) * (log1pt - mid) > 0:
            lo, g_lo = mid, g
        else:
            hi, g_hi = mid, g
    return level(*g_lo)


def solve_japtlm_k(inst: PricedInstance, k: int) -> PricingSolution:
    """Optimal prices for the fixed assortment ``[k]``.

    Slack case: ``exp(u_1 - u_k) <= 1 + t`` reduces to the shared-price
    logit optimum over ``[k]``.  Tight case: a pair ``(k1, k2)`` passes the
    candidate checks only if its groups are the top ``{u_i >= c}`` and
    bottom ``{u_i <= c - L}`` of the water-filling root ``c`` (module
    docstring), found by :func:`_water_level` in O(k) time.  Only the pairs
    whose boundaries fall within ``max(_ROOT_WINDOW, 2 (k + 2) _FEAS_TOL)``
    of ``c`` and ``c - L`` (wide enough for every pair the checks pass) are
    built with :func:`japtlm_candidate` and checked, in the order of
    the exhaustive scan over ``(k1, k2)``, keeping the best feasible one
    (ties prefer smaller ``k1`` then ``k2``), so the answer equals that
    scan's.  Pairs that would split a run of equal utilities are skipped:
    equal utilities take equal prices at any optimum, so a tie group moves
    between the boundary groups as a block and the unsplit sibling
    configuration achieves the same revenue.

    Raises :class:`NoFeasibleCandidate` if the tight case filters out every
    pair, which only happens when the true optimum for this ``k`` sits on
    the zero-price boundary and is therefore dominated by a shorter prefix.
    """
    _check_domain(inst)
    if not 1 <= k <= inst.n:
        raise ValueError(f"k must be in 1..{inst.n}, got {k}")
    u = inst.utilities
    log1pt = math.log1p(inst.t)
    if u[0] - u[k - 1] <= log1pt * (1.0 + _BAND_RTOL):
        # Shared-price logit optimum over all of [k]; nothing is dominated.
        acc = sum(math.exp(ui - 1.0) for ui in u[:k])
        r = lambert_w(acc / inst.a0)
        return PricingSolution(k, (1.0 + r,) * k, r, 0, 0, "unconstrained")

    neg = [-x for x in u[:k]]  # ascending, for bisect
    c = _water_level(u, neg, inst.t, log1pt)
    # The checks let a utility sit up to _FEAS_TOL on the wrong side of a
    # boundary.  Each such utility moves phi at a pair's own level c' by at
    # most (1 + t) _FEAS_TOL, and phi falls with slope at least 1 + t (at
    # least 1 within _FEAS_TOL above u_1), so a pair that passes has
    # |c' - c| <= (1 + m) _FEAS_TOL, where m <= 2k counts the utilities within
    # _FEAS_TOL of c' or c' - L, and its boundaries lie a further _FEAS_TOL
    # away.  Two more _FEAS_TOL absorb rounding.
    d = max(_ROOT_WINDOW, 2 * (k + 2) * _FEAS_TOL)
    # Top groups end between the last u_i > c + d and the last u_i >= c - d;
    # bottom groups start between the first u_i <= c - L + d and the first
    # u_i < c - L - d.
    k1_min = max(1, bisect_left(neg, -c - d))
    k1_max = min(k - 1, bisect_right(neg, d - c))
    k2_min = max(1, k - bisect_right(neg, log1pt + d - c))
    k2_max = k - bisect_left(neg, log1pt - d - c)
    best: BoundaryCandidate | None = None
    for k1 in range(k1_min, k1_max + 1):
        if u[k1 - 1] == u[k1]:
            continue  # would split an equal-utility run
        for k2 in range(k2_min, min(k2_max, k - k1) + 1):
            if u[k - k2 - 1] == u[k - k2]:
                continue
            cand = japtlm_candidate(inst, k, k1, k2)
            if not cand.feasible:
                continue
            if best is None or cand.revenue > best.revenue + _TIE_TOL:
                best = cand
    if best is None:
        raise NoFeasibleCandidate(
            f"no feasible boundary candidate for k={k}; "
            "the optimum for this prefix is price-boundary degenerate"
        )
    return PricingSolution(k, best.prices, best.revenue, best.k1, best.k2, "boundary-tight")


def solve_japtlm(inst: PricedInstance) -> PricingSolution:
    """Optimal joint assortment and prices: best of ``solve_japtlm_k`` over
    all prefix sizes, ties to the smaller assortment.  Prefix sizes with no
    feasible boundary candidate are skipped (their optima are dominated by
    shorter prefixes); size 1 always succeeds, so a solution always exists.
    """
    _check_domain(inst)
    best: PricingSolution | None = None
    for k in range(1, inst.n + 1):
        try:
            sol = solve_japtlm_k(inst, k)
        except NoFeasibleCandidate:
            continue
        if best is None or sol.revenue > best.revenue:
            best = sol
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Quasi-same-price baseline
# ---------------------------------------------------------------------------


def _maximize_scalar(f, lo: float, hi: float) -> tuple[float, float]:
    """Deterministic bounded 1-D maximization; endpoints are always scored
    because the optimum frequently sits on the dominance clamp."""
    best_x, best_val = lo, f(lo)
    val_hi = f(hi)
    if val_hi > best_val:
        best_x, best_val = hi, val_hi
    if hi - lo > 1e-12:
        # An infeasible x scores -inf; Brent's parabolic step through it is
        # NaN (a warning), and the method then takes a golden-section step.
        with np.errstate(invalid="ignore"):
            res = minimize_scalar(
                lambda x: -f(x), bounds=(lo, hi), method="bounded",
                options={"xatol": 1e-9},
            )
        val = f(float(res.x))
        if val > best_val:
            best_x, best_val = float(res.x), val
    return best_x, best_val


def _best_shared_price(
    group_att: float, b: float, p_k: float, a0: float, lo: float, hi: float
) -> float:
    """Revenue-maximizing shared price in ``[lo, hi]`` for a group with
    ``sum(exp(u_i)) = group_att`` beside a last product of attractiveness
    ``b`` at price ``p_k``.

    With ``G = group_att``, ``A = b + a0`` and ``B = p_k b`` the revenue
    ``(p G e^-p + B) / (G e^-p + A)`` rises while ``G e^-p > A (p - 1) - B``
    and falls after, so it is unimodal with peak
    ``p* = 1 + B/A + W((G/A) e^(-1 - B/A))``, and clamping ``p*`` into the
    band is exact.
    """
    outside = b + a0
    shift = p_k * b / outside
    # ln of W's argument.  The outer search also tries p_k < 0 (when
    # u_k < -20), and then, with b >> a0, e^(-1 - B/A) can pass lambert_w's
    # range or overflow although the instance is valid: u = (0, -700),
    # t = e^10 - 1, a0 = e^-650 puts the argument at e^699.
    y = math.log(group_att) - math.log(outside) - 1.0 - shift if group_att > 0 else -math.inf
    if y <= _LOG_MAX_LAMBERT_ARG:
        w = lambert_w(math.exp(y))
    else:
        # W(e^y) solves w + ln(w) = y; Newton from y - ln(y).
        w = y - math.log(y)
        for _ in range(50):
            step = (w + math.log(w) - y) * w / (w + 1.0)
            w -= step
            if abs(step) <= 1e-15 * w:
                break
    return min(max(1.0 + shift + w, lo), hi)


def quasi_same_price_policy(inst: PricedInstance) -> PricingSolution:
    """One shared price for products ``1..k-1`` plus a separate price for
    product ``k``, best over ``k``.

    For each ``k`` the shared-price group must be internally dominance-free
    (``exp(u_1 - u_{k-1}) <= 1 + t``; once that fails for some ``k`` it
    fails for all larger ones).  Given the last product's price, the best
    shared price is the closed form of :func:`_best_shared_price`, clamped
    into the band where neither end dominates the other; an outer scan plus
    a bounded 1-D refinement handles the last price.  The shared-price
    optimum of :func:`fixed_price_policy` is also scored explicitly, so this
    policy never falls below it.
    """
    _check_domain(inst)
    u = inst.utilities
    t = inst.t
    a0 = inst.a0
    log1pt = math.log1p(t)

    fixed = fixed_price_policy(inst)
    best = fixed

    for k in range(2, inst.n + 1):
        if u[0] - u[k - 2] > log1pt * (1.0 + _BAND_RTOL):
            break
        group_att = sum(math.exp(ui) for ui in u[: k - 1])

        def inner(p_k: float) -> tuple[float, float]:
            b = math.exp(u[k - 1] - p_k)
            lo = max(0.0, p_k + (u[0] - u[k - 1]) - log1pt)
            hi = min(u[0] + 20.0, p_k + (u[k - 2] - u[k - 1]) + log1pt)
            if hi < lo:
                return lo, -math.inf
            p = _best_shared_price(group_att, b, p_k, a0, lo, hi)
            g = group_att * math.exp(-p)
            return p, (p * g + p_k * b) / (g + b + a0)

        # Outer scan over the last product's price, then local refinement.
        p_hi = u[k - 1] + 20.0
        grid = [p_hi * j / 80.0 for j in range(81)]
        outer_best_pk, outer_best = grid[0], -math.inf
        for p_k in grid:
            _, val = inner(p_k)
            if val > outer_best:
                outer_best_pk, outer_best = p_k, val
        # The grid runs from 0 to p_hi, which is below 0 when u_k < -20;
        # keep the refinement window inside it.
        width = abs(p_hi) / 80.0
        lo_r = max(min(0.0, p_hi), outer_best_pk - width)
        hi_r = min(max(0.0, p_hi), outer_best_pk + width)
        p_k, val = _maximize_scalar(lambda x: inner(x)[1], lo_r, hi_r)
        if val > best.revenue:
            p_shared, _ = inner(p_k)
            prices = (p_shared,) * (k - 1) + (p_k,)
            ratio = math.exp((u[0] - p_shared) - (u[k - 1] - p_k))
            mode = (
                "boundary-tight"
                if abs(ratio - (1.0 + t)) <= 1e-9 * (1.0 + t)
                else "unconstrained"
            )
            best = PricingSolution(k, prices, val, 0, 0, mode)
    return best


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    """Pass/fail for each structural property of a pricing solution."""

    price_bound: bool
    utility_order: bool
    decreasing_prices: bool
    decreasing_net: bool
    valid_pair: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.price_bound
            and self.utility_order
            and self.decreasing_prices
            and self.decreasing_net
            and self.valid_pair
        )


def check_pricing_invariants(
    sol: PricingSolution, inst: PricedInstance, tol: float = 1e-8
) -> InvariantReport:
    """Evaluate the optimal-solution properties on ``sol``:

    every price at least the revenue; the assortment is a utility-ordered
    prefix; prices non-increasing (equal utilities get equal prices); net
    utilities non-increasing; and the (assortment, prices) pair is valid.
    """
    u = inst.utilities
    k = sol.k
    p = sol.prices
    utility_order = 1 <= k <= inst.n and len(p) == k
    if not utility_order:
        return InvariantReport(False, False, False, False, False)
    price_bound = all(pi >= sol.revenue - tol for pi in p)
    decreasing_prices = all(p[i] >= p[i + 1] - tol for i in range(k - 1)) and all(
        abs(p[i] - p[j]) <= tol
        for i in range(k)
        for j in range(i + 1, k)
        if u[i] == u[j]
    )
    decreasing_net = all(
        u[i] - p[i] >= u[i + 1] - p[i + 1] - tol for i in range(k - 1)
    )
    full = list(p) + [math.inf] * (inst.n - k)
    valid = is_valid_pair(range(1, k + 1), full, inst)
    return InvariantReport(
        price_bound, utility_order, decreasing_prices, decreasing_net, valid
    )
