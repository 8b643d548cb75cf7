"""Core data model for two-stage Luce choice.

A market is a set of products with strictly positive attractiveness, an
outside option with attractiveness ``a0 >= 0``, and a strict partial order
("dominance") over the products.  Offered an assortment ``S``, customers
first discard every product dominated by another member of ``S`` (the
survivors form the consideration set ``c(S)``) and then choose among the
survivors with multinomial-logit probabilities.  With an empty dominance
relation the model collapses to the plain MNL.

The threshold variant ties dominance to attractiveness: ``x`` dominates
``y`` exactly when ``a_x > (1 + t) * a_y`` for a fixed threshold ``t > 0``.
The price-dependent variant used by the pricing solvers replaces the fixed
attractiveness with ``exp(u_i - p_i)`` for intrinsic utilities ``u_i``.

The dominance order is held once, as bitmasks (see
:class:`DominanceRelation`) that the model, the solvers and the oracles
all read; pair sets are derived from them for tests and serialization only.

Everything here is immutable after construction and all operations are pure
functions, so instances can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CycleError, IdOutOfRange, NonPositiveInput, SchemaError

__all__ = [
    "Product",
    "DominanceRelation",
    "id_mask",
    "mask_ids",
    "Instance",
    "PricedInstance",
    "PriceVector",
    "validate_partial_order",
    "threshold_dominance",
    "consideration_set",
    "choice_probability",
    "expected_revenue",
    "priced_attractiveness",
    "consideration_set_priced",
    "expected_revenue_priced",
    "is_valid_pair",
    "parse_instance",
    "parse_priced_instance",
    "instance_to_dict",
    "dump_instance",
]

# Relative guard band for price-dependent dominance comparisons.  Boundary
# price vectors are constructed so that the extreme attractiveness ratio is
# exactly 1 + t; without the band, one ulp of exp() rounding could flip such
# a product into dominated.  Exact ties still produce no edge.
_PRICED_DOMINANCE_RTOL = 1e-12

#: Prices are plain sequences of floats; ``math.inf`` marks "not offered".
PriceVector = Sequence[float]


@dataclass(frozen=True)
class Product:
    """A sellable item: 1-based id, unit revenue, and attractiveness."""

    id: int
    revenue: float
    attractiveness: float

    def __post_init__(self) -> None:
        if self.id < 1:
            raise IdOutOfRange(f"product id must be >= 1, got {self.id}")
        if not 0 <= self.revenue < math.inf:
            raise NonPositiveInput(f"revenue must be finite and >= 0, got {self.revenue}")
        if not 0 < self.attractiveness < math.inf:
            raise NonPositiveInput(
                f"attractiveness must be finite and > 0, got {self.attractiveness}"
            )


def id_mask(ids: Iterable[int]) -> int:
    """The bitmask of a set of products: bit ``i - 1`` stands for product ``i``."""
    mask = 0
    for i in ids:
        mask |= 1 << (i - 1)
    return mask


def mask_ids(mask: int) -> Iterator[int]:
    """The products in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _pairs(masks: Sequence[int]) -> frozenset[tuple[int, int]]:
    return frozenset((x, y) for y, mask in enumerate(masks, 1) for x in mask_ids(mask))


class DominanceRelation:
    """A strict partial order over products ``1..n``, as bitmasks.

    ``dominators[y - 1]`` is the :func:`id_mask` of the products that
    dominate ``y`` (the transitive closure); ``direct_dominators[y - 1]``
    keeps those that dominate no other dominator of ``y`` (the reduction).
    So ``y`` survives in an offer ``S`` iff ``dominators[y - 1] & id_mask(S)``
    is 0.  ``closure`` and ``reduction`` rebuild the pair sets (``(x, y)``:
    ``x`` dominates ``y``) on each access, for tests and serialization; no
    solver reads them.  Build one with :func:`validate_partial_order` or
    :func:`threshold_dominance`; the constructor trusts its masks.
    """

    __slots__ = ("n", "dominators", "direct_dominators")

    def __init__(
        self, n: int, dominators: Sequence[int], direct_dominators: Sequence[int]
    ) -> None:
        self.n = n
        self.dominators = tuple(dominators)
        self.direct_dominators = tuple(direct_dominators)

    @property
    def closure(self) -> frozenset[tuple[int, int]]:
        return _pairs(self.dominators)

    @property
    def reduction(self) -> frozenset[tuple[int, int]]:
        return _pairs(self.direct_dominators)

    def dominates(self, x: int, y: int) -> bool:
        return bool(self.dominators[y - 1] >> (x - 1) & 1)

    def is_antichain(self, subset: Iterable[int]) -> bool:
        members = list(subset)
        mask = id_mask(members)
        return not any(self.dominators[y - 1] & mask for y in members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DominanceRelation):
            return NotImplemented
        return self.n == other.n and self.dominators == other.dominators

    def __hash__(self) -> int:
        return hash((self.n, self.dominators))

    def __repr__(self) -> str:
        return f"DominanceRelation(n={self.n}, edges={sorted(self.reduction)})"


def validate_partial_order(
    edges: Iterable[tuple[int, int]], n: int
) -> DominanceRelation:
    """Build a :class:`DominanceRelation` from raw edges (``x`` dominates
    ``y``), transitively closed or not.

    One pass of Kahn's algorithm visits each product after its edge
    sources; a product on a cycle (a self-loop included) is never visited.
    A visited product's closure mask is its sources OR their closure masks,
    and its reduction mask the sources no other source's closure contains.

    Raises
    ------
    IdOutOfRange
        if an edge endpoint is outside ``1..n``.
    CycleError
        if the edges contain a cycle.
    """
    sources = [0] * n
    targets: list[list[int]] = [[] for _ in range(n)]
    for x, y in edges:
        x, y = int(x), int(y)
        if not (1 <= x <= n and 1 <= y <= n):
            raise IdOutOfRange(f"edge ({x}, {y}) references ids outside 1..{n}")
        bit = 1 << (x - 1)
        if not sources[y - 1] & bit:
            sources[y - 1] |= bit
            targets[x - 1].append(y - 1)

    waiting = [mask.bit_count() for mask in sources]
    order = [v for v in range(n) if not waiting[v]]
    closure = [0] * n
    inherited = [0] * n  # the OR of the edge sources' closure masks
    for x in order:  # appended to while read: the list is Kahn's queue
        closure[x] = sources[x] | inherited[x]
        for y in targets[x]:
            inherited[y] |= closure[x]
            waiting[y] -= 1
            if not waiting[y]:
                order.append(y)
    if len(order) < n:
        raise CycleError("dominance edges contain a cycle; not a strict order")
    direct = [s & ~i for s, i in zip(sources, inherited)]
    return DominanceRelation(n, closure, direct)


def _by_decreasing(values: Sequence[float]) -> tuple[list[int], list[int], list[float]]:
    """Positions by decreasing value, the prefix masks of that order, and the
    negated sorted values (``bisect_left(negated, -c)`` counts values > c)."""
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    prefix = [0]
    for i in order:
        prefix.append(prefix[-1] | 1 << i)
    return order, prefix, [-values[i] for i in order]


def threshold_dominance(
    attractiveness: Sequence[float], t: float
) -> DominanceRelation:
    """Dominance induced by an attractiveness threshold.

    ``x`` dominates ``y`` iff ``a_x > (1 + t) * a_y`` (strict; a ratio of
    exactly ``1 + t`` produces no edge).  The relation is transitive,
    antisymmetric and irreflexive by construction.  Sorted by decreasing
    attractiveness, the dominators of ``y`` form a prefix; its direct
    dominators are that prefix minus the dominators of the prefix's last
    (least attractive) member.
    """
    if not 0 < t < math.inf:
        raise NonPositiveInput(f"threshold t must be finite and > 0, got {t}")
    if any(not a > 0 for a in attractiveness):
        raise NonPositiveInput("all attractiveness values must be > 0")
    order, prefix, negated = _by_decreasing(attractiveness)
    factor = 1.0 + t
    above = [bisect_left(negated, -(factor * a)) for a in attractiveness]
    direct = [prefix[k] & ~prefix[above[order[k - 1]]] if k else 0 for k in above]
    return DominanceRelation(len(attractiveness), [prefix[k] for k in above], direct)


@dataclass(frozen=True)
class Instance:
    """Products, an outside option, and a dominance relation."""

    products: tuple[Product, ...]
    a0: float
    dominance: DominanceRelation

    def __post_init__(self) -> None:
        ids = sorted(p.id for p in self.products)
        if ids != list(range(1, len(self.products) + 1)):
            raise IdOutOfRange("product ids must be exactly 1..n")
        if list(ids) != [p.id for p in self.products]:
            object.__setattr__(
                self, "products", tuple(sorted(self.products, key=lambda p: p.id))
            )
        if not 0 <= self.a0 < math.inf:
            raise NonPositiveInput(f"a0 must be finite and >= 0, got {self.a0}")
        if self.dominance.n != len(self.products):
            raise IdOutOfRange(
                f"dominance is over {self.dominance.n} products, "
                f"instance has {len(self.products)}"
            )

    @property
    def n(self) -> int:
        return len(self.products)

    def revenue(self, i: int) -> float:
        return self.products[i - 1].revenue

    def attractiveness(self, i: int) -> float:
        return self.products[i - 1].attractiveness

    @property
    def ids(self) -> range:
        return range(1, self.n + 1)


def make_instance(
    revenues: Sequence[float],
    attractiveness: Sequence[float],
    a0: float,
    dominance: DominanceRelation,
) -> Instance:
    """Convenience constructor from parallel value lists."""
    products = tuple(
        Product(i + 1, float(r), float(a))
        for i, (r, a) in enumerate(zip(revenues, attractiveness))
    )
    return Instance(products, float(a0), dominance)


def consideration_set(S: Iterable[int], inst: Instance) -> frozenset[int]:
    """Undominated elements of ``S``; the support of the choice distribution.

    Idempotent: ``consideration_set(consideration_set(S)) == ...(S)``.
    """
    s = frozenset(S)
    mask = id_mask(s)
    dominators = inst.dominance.dominators
    return frozenset(x for x in s if not dominators[x - 1] & mask)


def choice_probability(x: int, S: Iterable[int], inst: Instance) -> float:
    """Probability of choosing ``x`` (or the outside option for ``x == 0``)
    from assortment ``S``.

    Dominated members of ``S`` have probability zero; survivors split the
    market proportionally to attractiveness, against ``a0``.
    """
    c = consideration_set(S, inst)
    denom = sum(inst.attractiveness(y) for y in c) + inst.a0
    if x == 0:
        return inst.a0 / denom if denom > 0 else 0.0
    if x not in c:
        return 0.0
    return inst.attractiveness(x) / denom


def expected_revenue(S: Iterable[int], inst: Instance) -> float:
    """Expected per-customer revenue of offering ``S``.

    Invariant: only the consideration set matters, so the value equals the
    expected revenue of ``consideration_set(S)``.  Empty offers earn 0.
    """
    c = consideration_set(S, inst)
    if not c:
        return 0.0
    denom = sum(inst.attractiveness(y) for y in c) + inst.a0
    if denom <= 0.0:
        return 0.0
    num = sum(inst.revenue(y) * inst.attractiveness(y) for y in c)
    return num / denom


# ---------------------------------------------------------------------------
# Price-dependent variant (threshold dominance over exp(u_i - p_i))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PricedInstance:
    """Products described by intrinsic utilities, with threshold dominance.

    ``utilities`` must be sorted non-increasing (the conventional indexing
    for the pricing results: product 1 has the highest intrinsic utility).
    Attractiveness under a price vector ``p`` is ``exp(u_i - p_i)``.
    """

    utilities: tuple[float, ...]
    t: float
    a0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "utilities", tuple(float(u) for u in self.utilities))
        if not 0 < self.t < math.inf:
            raise NonPositiveInput(f"threshold t must be finite and > 0, got {self.t}")
        if not 0 <= self.a0 < math.inf:
            raise NonPositiveInput(f"a0 must be finite and >= 0, got {self.a0}")
        if not all(map(math.isfinite, self.utilities)):
            raise SchemaError(f"utilities must be finite, got {self.utilities}")
        u = self.utilities
        if any(u[i] < u[i + 1] for i in range(len(u) - 1)):
            raise SchemaError("utilities must be sorted non-increasing")

    @property
    def n(self) -> int:
        return len(self.utilities)


def priced_attractiveness(i: int, p: PriceVector, inst: PricedInstance) -> float:
    """``exp(u_i - p_i)``; zero for an infinite price."""
    price = p[i - 1]
    if math.isinf(price):
        return 0.0
    return math.exp(inst.utilities[i - 1] - price)


def consideration_set_priced(
    S: Iterable[int], p: PriceVector, inst: PricedInstance
) -> frozenset[int]:
    """Undominated elements of ``S`` under price-dependent attractiveness."""
    s = sorted(set(S))
    att = {i: priced_attractiveness(i, p, inst) for i in s}
    factor = (1.0 + inst.t) * (1.0 + _PRICED_DOMINANCE_RTOL)
    if not att:
        return frozenset()
    top = max(att.values())
    return frozenset(j for j in s if not top > factor * att[j])


def expected_revenue_priced(
    S: Iterable[int], p: PriceVector, inst: PricedInstance
) -> float:
    """Expected revenue with prices playing the role of unit revenues."""
    c = consideration_set_priced(S, p, inst)
    if not c:
        return 0.0
    att = {i: priced_attractiveness(i, p, inst) for i in c}
    denom = sum(att.values()) + inst.a0
    if denom <= 0.0:
        return 0.0
    return sum(p[i - 1] * att[i] for i in c) / denom


def is_valid_pair(S: Iterable[int], p: PriceVector, inst: PricedInstance) -> bool:
    """True iff ``S`` is exactly the finitely-priced set and no member of
    ``S`` is dominated, i.e. the pair prices precisely what survives."""
    s = frozenset(S)
    finite = frozenset(i for i in range(1, inst.n + 1) if not math.isinf(p[i - 1]))
    if s != finite:
        return False
    return consideration_set_priced(s, p, inst) == s


# ---------------------------------------------------------------------------
# JSON instance schema
# ---------------------------------------------------------------------------

_TOP_KEYS = {"products", "a0", "dominance"}
_PRODUCT_KEYS = {"id", "revenue", "attractiveness", "utility"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer too large for a float
        return False


def _check_keys(obj: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)} in {where}")


def _parse_common(obj: Mapping) -> tuple[list[dict], float, Mapping]:
    if not isinstance(obj, Mapping):
        raise SchemaError("instance document must be a JSON object")
    _check_keys(obj, _TOP_KEYS, "instance")
    try:
        products = list(obj["products"])
        a0 = obj["a0"]
        dominance = obj["dominance"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"missing or malformed required field: {exc}") from exc
    if not _is_finite(a0):
        raise SchemaError(f"'a0' must be a finite number, got {a0!r}")
    for prod in products:
        if not isinstance(prod, Mapping):
            raise SchemaError("each product must be a JSON object")
        _check_keys(prod, _PRODUCT_KEYS, "product")
        for key in ("id", "revenue", "attractiveness"):
            if key not in prod:
                raise SchemaError(f"product missing required field '{key}'")
        if not _is_int(prod["id"]):
            raise SchemaError(f"product 'id' must be an integer, got {prod['id']!r}")
        for key in ("revenue", "attractiveness", "utility"):
            if key in prod and not _is_finite(prod[key]):
                raise SchemaError(f"product {key!r} must be a finite number, "
                                  f"got {prod[key]!r}")
    if not isinstance(dominance, Mapping):
        raise SchemaError("'dominance' must be a JSON object")
    products.sort(key=lambda prod: prod["id"])
    ids = [prod["id"] for prod in products]
    if ids != list(range(1, len(products) + 1)):
        raise SchemaError(f"product ids must be exactly 1..n, got {ids}")
    return products, float(a0), dominance


def _threshold(dom: Mapping) -> float:
    _check_keys(dom, {"type", "t"}, "dominance")
    t = dom.get("t")
    if not _is_finite(t):
        raise SchemaError(f"threshold dominance needs a finite number 't', got {t!r}")
    return float(t)


def _parse_dominance(dom: Mapping, attractiveness: Sequence[float]) -> DominanceRelation:
    dtype = dom.get("type")
    if dtype == "explicit":
        _check_keys(dom, {"type", "edges"}, "dominance")
        edges = dom.get("edges", [])
        if not isinstance(edges, list) or not all(
            isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e))
            for e in edges
        ):
            raise SchemaError("'edges' must be a list of [x, y] integer pairs")
        return validate_partial_order(edges, len(attractiveness))
    if dtype == "threshold":
        return threshold_dominance(attractiveness, _threshold(dom))
    raise SchemaError(f"dominance type must be 'explicit' or 'threshold', got {dtype!r}")


def parse_instance(obj: Mapping) -> Instance:
    """Build an :class:`Instance` from a decoded JSON object.

    Schema: ``{"products": [{"id", "revenue", "attractiveness",
    "utility"?}], "a0": float, "dominance": {"type": "explicit", "edges":
    [[x, y], ...]} | {"type": "threshold", "t": float}}``.  Unknown fields
    are rejected.  Ids and edge endpoints are JSON integers, the other
    values finite JSON numbers; nothing is coerced, so a string, a boolean
    or a fractional id raises :class:`SchemaError`.
    """
    raw_products, a0, dominance = _parse_common(obj)
    products = tuple(
        Product(prod["id"], float(prod["revenue"]), float(prod["attractiveness"]))
        for prod in raw_products
    )
    rel = _parse_dominance(dominance, [prod.attractiveness for prod in products])
    return Instance(products, a0, rel)


def parse_priced_instance(obj: Mapping) -> PricedInstance:
    """Build a :class:`PricedInstance` from the same JSON schema.

    Requires every product to carry a ``utility`` field and the dominance to
    be of threshold type (that supplies ``t``).  Utilities must already be
    non-increasing in id order.
    """
    raw_products, a0, dominance = _parse_common(obj)
    if dominance.get("type") != "threshold":
        raise SchemaError("pricing requires threshold dominance (field 't')")
    t = _threshold(dominance)
    utilities = []
    for prod in raw_products:
        if "utility" not in prod:
            raise SchemaError(f"product {prod['id']} has no 'utility' field")
        utilities.append(float(prod["utility"]))
    return PricedInstance(tuple(utilities), t, a0)


def instance_to_dict(inst: Instance, utilities: Sequence[float] | None = None) -> dict:
    """Serialize an instance back to the JSON schema (explicit edges use the
    transitive reduction; the closure is rebuilt on load)."""
    products = []
    for i, prod in enumerate(inst.products):
        entry = {
            "id": prod.id,
            "revenue": prod.revenue,
            "attractiveness": prod.attractiveness,
        }
        if utilities is not None:
            entry["utility"] = float(utilities[i])
        products.append(entry)
    return {
        "products": products,
        "a0": inst.a0,
        "dominance": {
            "type": "explicit",
            "edges": [list(e) for e in sorted(inst.dominance.reduction)],
        },
    }


def dump_instance(
    inst: Instance, path: str, utilities: Sequence[float] | None = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst, utilities), fh, indent=2, sort_keys=True)
        fh.write("\n")
