"""Maximum-weight antichain via minimum flow with lower bounds.

An antichain of a strict partial order is a subset with no two comparable
elements; these are exactly the assortments that survive their own
consideration-set filter.  Finding a maximum-weight antichain is the linear
subproblem of the fractional assortment solvers.

The construction: work on the transitive closure, keep only elements with
strictly positive weight, and split each kept element ``v`` into
``v_in -> v_out`` with a lower bound of ``w_v`` on that arc.  Source feeds
every ``v_in``, every ``v_out`` drains to the sink, and each closure edge
``v > u`` becomes ``v_out -> u_in``; these edges come from the relation's
dominator bitmasks (see :class:`~luceopt.model.DominanceRelation`) within
the mask of the kept elements.  Every source-sink path then covers a
chain, and the minimum feasible flow equals the maximum antichain weight
(the weighted form of the chains/antichains duality on comparability
graphs).  The antichain itself is read off the tight cut of the minimum
flow: elements whose split arc crosses from the source side to the
sink-reachable side of the residual graph.

The independent test oracle is :func:`luceopt.oracles.brute_force_antichain`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

from .errors import InfeasibleNetwork
from .model import DominanceRelation, id_mask, mask_ids

__all__ = [
    "WeightedPoset",
    "Arc",
    "FlowNetwork",
    "min_flow_with_lower_bounds",
    "max_weight_antichain",
]

_EPS = 1e-12


@dataclass(frozen=True)
class WeightedPoset:
    """A dominance relation with one real weight per element (any sign)."""

    relation: DominanceRelation
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != self.relation.n:
            raise ValueError(
                f"{len(self.weights)} weights for {self.relation.n} elements"
            )


@dataclass
class Arc:
    """A directed arc with a lower bound, a capacity and (after solving) a
    flow value.  ``capacity=math.inf`` is allowed."""

    tail: Hashable
    head: Hashable
    lower: float = 0.0
    capacity: float = math.inf
    flow: float = 0.0


@dataclass
class FlowNetwork:
    """A small arc-list network with designated source and sink."""

    source: Hashable
    sink: Hashable
    arcs: list[Arc] = field(default_factory=list)

    def add_arc(
        self, tail: Hashable, head: Hashable, lower: float = 0.0,
        capacity: float = math.inf,
    ) -> Arc:
        if lower < 0 or capacity < lower:
            raise ValueError(f"need 0 <= lower <= capacity, got {lower}, {capacity}")
        arc = Arc(tail, head, lower, capacity)
        self.arcs.append(arc)
        return arc

    def nodes(self) -> list[Hashable]:
        seen: dict[Hashable, None] = {self.source: None, self.sink: None}
        for arc in self.arcs:
            seen.setdefault(arc.tail, None)
            seen.setdefault(arc.head, None)
        return list(seen)

    def value(self) -> float:
        """Net flow out of the source."""
        out = sum(a.flow for a in self.arcs if a.tail == self.source)
        back = sum(a.flow for a in self.arcs if a.head == self.source)
        return out - back


class _Dinic:
    """Dinic's max-flow on float capacities (residuals below 1e-12 are
    treated as saturated).  Phase count is combinatorial, so real-valued
    capacities do not threaten termination."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.to: list[int] = []
        self.cap: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: float) -> int:
        e = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(e)
        self.to.append(u)
        self.cap.append(0.0)
        self.adj[v].append(e + 1)
        return e

    def flow_on(self, e: int) -> float:
        return self.cap[e + 1]  # reverse capacity accumulates pushed flow

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, math.inf, level, it)
                if pushed <= _EPS:
                    break
                total += pushed

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in self.adj[u]:
                v = self.to[e]
                if level[v] < 0 and self.cap[e] > _EPS:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, u: int, t: int, limit: float, level: list[int], it: list[int]) -> float:
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            e = self.adj[u][it[u]]
            v = self.to[e]
            if self.cap[e] > _EPS and level[v] == level[u] + 1:
                pushed = self._dfs(v, t, min(limit, self.cap[e]), level, it)
                if pushed > _EPS:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed  # paired residual edge
                    return pushed
            it[u] += 1
        return 0.0


def min_flow_with_lower_bounds(net: FlowNetwork) -> FlowNetwork:
    """Solve for a minimum-value feasible source-sink flow in place.

    Standard two-phase scheme: a feasible flow is found with an auxiliary
    max-flow (super source/sink absorbing the lower bounds, plus a
    sink-to-source circulation arc), then the flow is minimized by pushing
    back along residual paths from sink to source.

    Raises :class:`InfeasibleNetwork` when no flow meets the lower bounds.
    """
    nodes = net.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    s, t = index[net.source], index[net.sink]

    total_lower = sum(a.lower for a in net.arcs)
    big = total_lower + 1.0

    def capped(value: float) -> float:
        return big if math.isinf(value) else value

    # Phase 1: feasibility via auxiliary max-flow.
    aux = _Dinic(n + 2)
    aux_s, aux_t = n, n + 1
    arc_edge: list[int] = []
    for arc in net.arcs:
        arc_edge.append(
            aux.add_edge(index[arc.tail], index[arc.head], capped(arc.capacity - arc.lower))
        )
        if arc.lower > 0:
            aux.add_edge(aux_s, index[arc.head], arc.lower)
            aux.add_edge(index[arc.tail], aux_t, arc.lower)
    aux.add_edge(t, s, big)
    pushed = aux.max_flow(aux_s, aux_t)
    if pushed < total_lower - 1e-9 * max(1.0, total_lower):
        raise InfeasibleNetwork(
            f"lower bounds sum to {total_lower}, only {pushed} satisfiable"
        )
    flows = [arc.lower + aux.flow_on(e) for arc, e in zip(net.arcs, arc_edge)]

    # Phase 2: cancel as much source-sink flow as possible by sending flow
    # from sink to source in the residual network.
    red = _Dinic(n)
    fwd: list[int] = []
    bwd: list[int] = []
    for arc, f in zip(net.arcs, flows):
        fwd.append(red.add_edge(index[arc.tail], index[arc.head], capped(arc.capacity) - f))
        bwd.append(red.add_edge(index[arc.head], index[arc.tail], f - arc.lower))
    red.max_flow(t, s)
    for i, arc in enumerate(net.arcs):
        arc.flow = flows[i] + red.flow_on(fwd[i]) - red.flow_on(bwd[i])
    return net


def _sink_side(net: FlowNetwork) -> set[Hashable]:
    """Nodes reachable from the sink in the residual graph of the solved
    flow (forward where capacity remains, backward where flow exceeds the
    lower bound).  Its complement is the source side of the tight cut."""
    adj: dict[Hashable, list[Hashable]] = {}
    for arc in net.arcs:
        if arc.capacity - arc.flow > _EPS or math.isinf(arc.capacity):
            adj.setdefault(arc.tail, []).append(arc.head)
        if arc.flow - arc.lower > _EPS:
            adj.setdefault(arc.head, []).append(arc.tail)
    seen = {net.sink}
    stack = [net.sink]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def max_weight_antichain(poset: WeightedPoset) -> tuple[frozenset[int], float]:
    """Best antichain of the relation under additive weights.

    Elements with non-positive weight can never improve the objective and
    are dropped before the network is built, so they never appear in the
    result; when nothing has positive weight the empty antichain (value 0)
    is returned.  The reported value is recomputed from the weights of the
    selected elements; the flow value only certifies optimality.
    """
    weights = poset.weights
    positive = [i for i in range(1, poset.relation.n + 1) if weights[i - 1] > 0.0]
    if not positive:
        return frozenset(), 0.0

    net = FlowNetwork("s", "t")
    for v in positive:
        net.add_arc("s", (v, "in"))
        net.add_arc((v, "in"), (v, "out"), lower=weights[v - 1])
        net.add_arc((v, "out"), "t")
    dominators, kept = poset.relation.dominators, id_mask(positive)
    closure = (
        (x, y) for y in positive for x in mask_ids(dominators[y - 1] & kept)
    )
    for x, y in sorted(closure):
        net.add_arc((x, "out"), (y, "in"))

    min_flow_with_lower_bounds(net)
    sink_side = _sink_side(net)
    chosen = frozenset(
        v for v in positive if (v, "in") not in sink_side and (v, "out") in sink_side
    )
    return chosen, sum(weights[v - 1] for v in chosen)
