"""Maximum-weight antichain via one bipartite maximum flow.

An antichain of a strict partial order is a subset with no two comparable
elements; these are exactly the assortments that survive their own
consideration-set filter.  Finding a maximum-weight antichain is the linear
subproblem of the fractional assortment solvers.

The construction is Fulkerson's (1956) network for the weighted Dilworth
theorem.  Only elements with strictly positive weight are kept, and each
kept element ``x`` gets a left copy ``x'`` and a right copy ``x''``.  The
source feeds ``x'`` with capacity ``w_x``, ``x''`` drains to the sink with
capacity ``w_x``, and each closure pair ``x > y`` (from the relation's
dominator bitmasks, see :class:`~luceopt.model.DominanceRelation`, within
the mask of the kept elements) becomes an uncapacitated arc ``x' -> y''``.
A finite cut that puts ``x'`` on the source side puts there the right
copies of everything below ``x`` too, so the elements whose left copy is on
the source side and whose right copy is not form an antichain, and the cut
costs at least the total kept weight minus their weight (equality holds
for the cut that takes an antichain's left copies and the right copies
below it).  Hence the maximum flow equals the total kept weight minus the
maximum antichain weight, and the antichain is read off the minimum cut:
the elements ``x`` with ``x'`` reachable from the source in the final
residual graph and ``x''`` not.

The independent test oracle is :func:`luceopt.oracles.brute_force_antichain`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .model import DominanceRelation, id_mask, mask_ids

__all__ = ["WeightedPoset", "max_weight_antichain"]

_EPS = 1e-12


@dataclass(frozen=True)
class WeightedPoset:
    """A dominance relation with one finite real weight per element (any
    sign)."""

    relation: DominanceRelation
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != self.relation.n:
            raise ValueError(
                f"{len(self.weights)} weights for {self.relation.n} elements"
            )
        if not all(map(math.isfinite, self.weights)):
            raise ValueError(f"weights must be finite, got {self.weights}")


def _max_flow(
    n: int, arcs: Iterable[tuple[int, int, float]], s: int, t: int
) -> tuple[float, list[bool]]:
    """Dinic's maximum flow from ``s`` to ``t`` over nodes ``0..n-1``.

    ``arcs`` are ``(tail, head, capacity)``; ``capacity=math.inf`` is
    allowed as long as every source-sink path has a finite arc.  Residuals
    at or below 1e-12 count as saturated.  Returns the flow value and, per
    node, whether it is reachable from ``s`` in the final residual graph
    (the source side of a minimum cut).
    """
    head: list[int] = []  # arc e and its residual twin e ^ 1
    cap: list[float] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, c in arcs:
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0.0)

    total = 0.0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in adj[u]:
                v = head[e]
                if level[v] < 0 and cap[e] > _EPS:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return total, [lv >= 0 for lv in level]

        # Blocking flow: advance along level arcs, retreat from dead ends.
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                total += pushed
                k = next(i for i, e in enumerate(path) if cap[e] <= _EPS)
                u = head[path[k] ^ 1]
                del path[k:]
                continue
            edges, i, end, up = adj[u], it[u], len(adj[u]), level[u] + 1
            while i < end and not (cap[edges[i]] > _EPS and level[head[edges[i]]] == up):
                i += 1
            it[u] = i
            if i < end:
                path.append(edges[i])
                u = head[edges[i]]
            elif u == s:
                break
            else:
                u = head[path.pop() ^ 1]
                it[u] += 1


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

    # Nodes: source 0, sink 1, x' = 2 + k and x'' = 2 + m + k for the k-th
    # kept element x.
    m = len(positive)
    node = {x: 2 + k for k, x in enumerate(positive)}
    arcs = [(0, 2 + k, weights[x - 1]) for k, x in enumerate(positive)]
    arcs += [(2 + m + k, 1, weights[x - 1]) for k, x in enumerate(positive)]
    dominators, kept = poset.relation.dominators, id_mask(positive)
    arcs += [
        (node[x], m + node[y], math.inf)
        for y in positive
        for x in mask_ids(dominators[y - 1] & kept)
    ]
    _, reachable = _max_flow(2 + 2 * m, arcs, 0, 1)
    chosen = frozenset(
        x for k, x in enumerate(positive) if reachable[2 + k] and not reachable[2 + m + k]
    )
    return chosen, sum(weights[v - 1] for v in chosen)
