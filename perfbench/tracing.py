"""Spans around luceopt's public functions, installed from outside.

``installed`` replaces each listed function, in every ``luceopt`` module that
holds a reference to it, by a wrapper that records a span (name, start,
end, parent span, operation id) or, for functions called in inner loops,
only a count.  Spans stay in memory until the run writes them out.  A
span's self time is its duration minus its children's; a layer's self time
is the sum over the spans of that layer (the part of the name before the
first dot).  Nothing is recorded outside an operation.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("model", "antichain", "assortment", "capacitated", "pricing", "oracles")
OP_SPAN = "harness.op"


def _dominance_sizes(args, kwargs, rel) -> dict:
    return {"closure": len(rel.closure), "reduction": len(rel.reduction)}


def _positive(args, kwargs, result) -> dict:
    poset = args[0] if args else kwargs["poset"]
    return {"positive": sum(1 for w in poset.weights if w > 0.0)}


def _arcs(args, kwargs, result) -> dict:
    net = args[0] if args else kwargs["net"]
    return {"arcs": len(net.arcs)}


def _iterations(args, kwargs, sol) -> dict:
    return {"iterations": sol.iterations}


def _method(args, kwargs, result) -> dict:
    return {"method": result[1]}


def _evaluations(args, kwargs, result) -> dict:
    return {"evaluations": result.evaluations}


# (module, function, span name, attribute extractor)
SPANS = (
    ("model", "parse_instance", "model.parse", None),
    ("model", "parse_priced_instance", "model.parse", None),
    ("model", "validate_partial_order", "model.dominance_build", _dominance_sizes),
    ("model", "threshold_dominance", "model.dominance_build", _dominance_sizes),
    ("model", "expected_revenue", "model.expected_revenue", None),
    ("antichain", "max_weight_antichain", "antichain.max_weight_antichain", _positive),
    ("antichain", "min_flow_with_lower_bounds", "antichain.min_flow", _arcs),
    ("assortment", "solve_assortment_2slm", "assortment.solve_2slm", _iterations),
    ("assortment", "revenue_ordered_heuristic", "assortment.revenue_ordered", None),
    ("capacitated", "solve_capacitated_auto", "capacitated.auto", _method),
    ("capacitated", "solve_capacitated_tree", "capacitated.tree", _iterations),
    ("capacitated", "solve_capacitated_attcorr", "capacitated.attcorr", None),
    ("capacitated", "is_attractiveness_correlated",
     "capacitated.is_attractiveness_correlated", None),
    ("capacitated", "tree_dp_max_att", "capacitated.tree_dp", None),
    ("capacitated", "solve_capacitated_mnl", "capacitated.mnl", _iterations),
    ("pricing", "solve_japtlm", "pricing.solve_japtlm", None),
    ("pricing", "solve_japtlm_k", "pricing.solve_japtlm_k", None),
    ("pricing", "fixed_price_policy", "pricing.fixed", None),
    ("pricing", "quasi_same_price_policy", "pricing.quasi", None),
    ("oracles", "brute_force_assortment", "oracles.brute_force_assortment", _evaluations),
    ("oracles", "numeric_pricing_oracle", "oracles.numeric_pricing", _evaluations),
)

# (module, name, counter name): called too often for a span each.
# ``pricing.minimize_scalar`` is scipy's function as bound in luceopt.pricing.
COUNTS = (
    ("pricing", "japtlm_candidate", "pricing.candidates"),
    ("pricing", "lambert_w", "pricing.lambert_w"),
    ("pricing", "minimize_scalar", "pricing.minimize_scalar"),
)


class Recorder:
    """In-memory spans and per-operation counters of one traced run.

    A span is ``[id, name, start_ns, end_ns, parent_id, op_id, attrs]``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (op_id, name) -> count
        self.op_id: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def operation(self, op_id: int):
        """Open the root span of one operation; wrappers record only inside."""
        span = [len(self.spans), OP_SPAN, 0, 0, None, op_id, None]
        self.spans.append(span)
        self.op_id = op_id
        self._stack.append(span[0])
        span[2] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span[3] = time.perf_counter_ns()
            self._stack.pop()
            self.op_id = None

    def span_wrapper(self, fn, name: str, attrs):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            span = [len(self.spans), name, 0, 0, self._stack[-1], self.op_id, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                try:
                    span[6] = attrs(args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    pass  # the argument or result changed shape; counts read 0
            return result

        return wrapped

    def count_wrapper(self, fn, name: str):
        feasible = name + "_feasible"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.op_id is not None:
                self.counts[(self.op_id, name)] += 1
                if getattr(result, "feasible", False):
                    self.counts[(self.op_id, feasible)] += 1
            return result

        return wrapped


@contextmanager
def installed(recorder: Recorder):
    """Wrap the listed functions in every loaded luceopt module; restore
    the originals on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "luceopt" or name.startswith("luceopt."))]
    replaced: list[tuple[object, str, object]] = []
    try:
        plan = [(m, f, recorder.span_wrapper, (n, a)) for m, f, n, a in SPANS]
        plan += [(m, f, recorder.count_wrapper, (n,)) for m, f, n in COUNTS]
        for mod_name, fn_name, make, extra in plan:
            original = getattr(sys.modules.get("luceopt." + mod_name), fn_name, None)
            if original is None:
                # A later version may drop or rename a function; its
                # metrics then read 0 and the run lists it as missing.
                recorder.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = make(original, *extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
        yield recorder
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, int]:
    """Self time in ns of each span id: duration minus its children's."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_self_by_op(spans: list[list]) -> dict[int, dict[str, int]]:
    """Per operation, the self time in ns of each layer it touched."""
    own = self_times(spans)
    out: dict[int, dict[str, int]] = {}
    for s in spans:
        layer = s[1].split(".", 1)[0]
        if layer in LAYERS:
            by_layer = out.setdefault(s[5], {})
            by_layer[layer] = by_layer.get(layer, 0) + own[s[0]]
    return out


def _outermost(spans: list[list], name: str) -> list[list]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        if s[1] != name:
            continue
        parent = s[4]
        while parent is not None and by_id[parent][1] != name:
            parent = by_id[parent][4]
        if parent is None:
            out.append(s)
    return out


def summarize(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics, each averaged over the traced operations."""
    ops = [s for s in spans if s[1] == OP_SPAN]
    n_ops = max(1, len(ops))
    op_ns = sum(s[3] - s[2] for s in ops) or 1
    own = self_times(spans)
    named: dict[str, list[list]] = {}
    for s in spans:
        named.setdefault(s[1], []).append(s)

    def ms(name: str) -> float:
        return sum(s[3] - s[2] for s in _outermost(spans, name)) / 1e6 / n_ops

    def calls(name: str) -> float:
        return len(named.get(name, ())) / n_ops

    def attr_sum(name: str, key: str, outermost: bool = False) -> float:
        group = _outermost(spans, name) if outermost else named.get(name, ())
        return sum((s[6] or {}).get(key, 0) for s in group)

    def count(name: str) -> float:
        return sum(v for (_, n), v in counts.items() if n == name)

    iters_2slm = attr_sum("assortment.solve_2slm", "iterations")
    methods = Counter((s[6] or {}).get("method") for s in named.get("capacitated.auto", ()))
    candidates = count("pricing.candidates")
    m = {
        "model.parse.ms": ms("model.parse"),
        "model.dominance_build.ms": ms("model.dominance_build"),
        "model.closure_pairs": attr_sum("model.dominance_build", "closure", True) / n_ops,
        "model.reduction_pairs": attr_sum("model.dominance_build", "reduction", True) / n_ops,
        "model.expected_revenue.calls": calls("model.expected_revenue"),
        "model.expected_revenue.ms": ms("model.expected_revenue"),
        "antichain.max_weight_antichain.calls": calls("antichain.max_weight_antichain"),
        "antichain.max_weight_antichain.self_ms": sum(
            own[s[0]] for s in named.get("antichain.max_weight_antichain", ())
        ) / 1e6 / n_ops,
        "antichain.min_flow.ms": ms("antichain.min_flow"),
        "antichain.arcs": attr_sum("antichain.min_flow", "arcs") / n_ops,
        "antichain.positive_elements": attr_sum(
            "antichain.max_weight_antichain", "positive") / n_ops,
        "assortment.solve_2slm.ms": ms("assortment.solve_2slm"),
        "assortment.dinkelbach_iterations": iters_2slm / n_ops,
        "assortment.ms_per_iteration": (
            ms("assortment.solve_2slm") * n_ops / iters_2slm if iters_2slm else 0.0
        ),
        "assortment.revenue_ordered.ms": ms("assortment.revenue_ordered"),
        "capacitated.auto.ms": ms("capacitated.auto"),
        "capacitated.dispatch.tree": methods["tree"] / n_ops,
        "capacitated.dispatch.attcorr": methods["attcorr"] / n_ops,
        "capacitated.is_attractiveness_correlated.calls": calls(
            "capacitated.is_attractiveness_correlated"),
        "capacitated.is_attractiveness_correlated.ms": ms(
            "capacitated.is_attractiveness_correlated"),
        "capacitated.tree_dp.calls": calls("capacitated.tree_dp"),
        "capacitated.tree_dp.ms": ms("capacitated.tree_dp"),
        "capacitated.mnl.calls": calls("capacitated.mnl"),
        "capacitated.mnl.ms": ms("capacitated.mnl"),
        "capacitated.iterations": (
            attr_sum("capacitated.tree", "iterations")
            + attr_sum("capacitated.mnl", "iterations")
        ) / n_ops,
        "pricing.solve_japtlm.ms": ms("pricing.solve_japtlm"),
        "pricing.candidates": candidates / n_ops,
        "pricing.candidates_feasible": count("pricing.candidates_feasible") / n_ops,
        "pricing.feasible_ratio": (
            count("pricing.candidates_feasible") / candidates if candidates else 0.0
        ),
        "pricing.lambert_w.calls": count("pricing.lambert_w") / n_ops,
        "pricing.quasi.ms": ms("pricing.quasi"),
        "pricing.quasi.minimize_scalar.calls": count("pricing.minimize_scalar") / n_ops,
        "pricing.fixed.ms": ms("pricing.fixed"),
        "oracles.brute_force_assortment.ms": ms("oracles.brute_force_assortment"),
        "oracles.brute_force_assortment.evaluations": attr_sum(
            "oracles.brute_force_assortment", "evaluations") / n_ops,
        "oracles.numeric_pricing.ms": ms("oracles.numeric_pricing"),
        "oracles.numeric_pricing.evaluations": attr_sum(
            "oracles.numeric_pricing", "evaluations") / n_ops,
    }
    layer_ns = Counter()
    for by_layer in layer_self_by_op(spans).values():
        layer_ns.update(by_layer)
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_ns[layer] / 1e6 / n_ops
        m[f"{layer}.self_share"] = layer_ns[layer] / op_ns
    return m
