"""Random instance generation and the gap benchmark pipelines.

Instances are generated from a counter-based RNG so that any run is
reproducible from ``(seed, cell, index)`` alone: the bit generator is
Philox4x64-10 with ``key = (seed, cell)`` and ``counter = (index, 0, 0,
0)``, and each instance consumes draws in a fixed documented order.  The
report header records this so results can be regenerated elsewhere.

The assortment pipeline compares the revenue-ordered baseline against the
exact solver; the pricing pipeline compares the fixed-price and
quasi-same-price policies against the exact joint solver.  Published gap
tables of this kind are sample statistics over unseeded draws, so the
benchmark asserts per-instance dominance and directional trends rather
than specific historical numbers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .assortment import revenue_ordered_heuristic, solve_assortment_2slm
from .errors import SchemaError
from .model import (
    Instance,
    PricedInstance,
    _is_finite,
    _is_int,
    make_instance,
    validate_partial_order,
)
from .pricing import fixed_price_policy, quasi_same_price_policy, solve_japtlm

__all__ = [
    "RNG_SPEC",
    "AssortmentExperimentConfig",
    "PricingExperimentConfig",
    "StrategyStats",
    "GapRow",
    "generate_assortment_instance",
    "generate_pricing_instance",
    "generate_tree_instance",
    "run_assortment_benchmark",
    "run_pricing_benchmark",
    "emit_report",
    "parse_benchmark_config",
    "run_config",
]

RNG_SPEC = "philox4x64-10 key=(seed,cell) counter=(index,0,0,0)"


def _rng(seed: int, cell: int, index: int) -> np.random.Generator:
    bitgen = np.random.Philox(
        key=np.array([seed, cell], dtype=np.uint64),
        counter=np.array([index, 0, 0, 0], dtype=np.uint64),
    )
    return np.random.Generator(bitgen)


@dataclass(frozen=True)
class AssortmentExperimentConfig:
    """One benchmark cell: n products, outside option a0, edge density d.

    ``cell`` is the stream id used for RNG splitting (the cell's position
    in a config file; 0 for standalone generation).
    """

    n: int
    a0: float
    d: float
    count: int
    seed: int
    cell: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.d <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {self.d}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    @property
    def label(self) -> str:
        return f"({self.n},{_fmt_num(self.a0)},{_fmt_num(self.d)})"


@dataclass(frozen=True)
class PricingExperimentConfig:
    """One pricing cell: n products, threshold t, outside option a0."""

    n: int
    t: float
    a0: float
    count: int
    seed: int
    cell: int = 0

    def __post_init__(self) -> None:
        if not self.t > 0:
            raise ValueError(f"threshold t must be > 0, got {self.t}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    @property
    def label(self) -> str:
        return f"({self.n},{_fmt_num(self.t)},{_fmt_num(self.a0)})"


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else str(x)


def generate_assortment_instance(
    cfg: AssortmentExperimentConfig, index: int
) -> Instance:
    """Deterministic random instance for ``(cfg.seed, cfg.cell, index)``.

    Draw order: n revenues ~ U(0, 10), n attractiveness ~ U(0, 10), then
    one uniform per unordered pair (ascending lexicographic order).  A pair
    becomes a dominance edge with probability d, directed from the more
    attractive product to the less attractive one (exact ties get no edge,
    which keeps the sampled relation acyclic); the edge set is then
    transitively closed.
    """
    rng = _rng(cfg.seed, cfg.cell, index)
    n = cfg.n
    revenues = rng.uniform(0.0, 10.0, n)
    attractiveness = rng.uniform(0.0, 10.0, n)
    # U(0,10) never draws exactly 0, but clamp defensively: model requires > 0.
    attractiveness = np.maximum(attractiveness, 1e-12)
    pair_draws = rng.random(n * (n - 1) // 2)
    edges = []
    idx = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if pair_draws[idx] < cfg.d:
                ai, aj = attractiveness[i - 1], attractiveness[j - 1]
                if ai > aj:
                    edges.append((i, j))
                elif aj > ai:
                    edges.append((j, i))
            idx += 1
    rel = validate_partial_order(edges, n)
    return make_instance(revenues, attractiveness, cfg.a0, rel)


def generate_pricing_instance(
    cfg: PricingExperimentConfig, index: int
) -> PricedInstance:
    """Utilities ~ U(0, 10) sorted non-increasing; t and a0 from the cell."""
    rng = _rng(cfg.seed, cfg.cell, index)
    utilities = np.sort(rng.uniform(0.0, 10.0, cfg.n))[::-1]
    return PricedInstance(tuple(utilities), cfg.t, cfg.a0)


def generate_tree_instance(
    n: int, a0: float, seed: int, index: int, cell: int = 0
) -> Instance:
    """Random instance whose dominance reduction is a forest (for the tree
    solver's randomized suites): each product's direct dominator is drawn
    uniformly among lower ids (0 meaning none)."""
    rng = _rng(seed, cell, index)
    revenues = rng.uniform(0.0, 10.0, n)
    attractiveness = np.maximum(rng.uniform(0.0, 10.0, n), 1e-12)
    edges = []
    for child in range(2, n + 1):
        parent = int(rng.integers(0, child))
        if parent >= 1:
            edges.append((parent, child))
    rel = validate_partial_order(edges, n)
    return make_instance(revenues, attractiveness, a0, rel)


@dataclass(frozen=True)
class StrategyStats:
    """Aggregates for one baseline strategy within a cell."""

    avg_gap_pct: float
    worst_gap_pct: float
    avg_cardinality: float


@dataclass(frozen=True)
class GapRow:
    """One report row: a cell label, per-baseline gap stats, and the exact
    solver's average assortment size."""

    label: str
    baselines: dict[str, StrategyStats] = field(default_factory=dict)
    optimal_avg_cardinality: float = 0.0


def _gap_pct(opt: float, base: float) -> float:
    if opt <= 0.0:
        return 0.0
    return 100.0 * (1.0 - base / opt)


def run_assortment_benchmark(
    cfg: AssortmentExperimentConfig,
    instances: Iterable[Instance] | None = None,
) -> GapRow:
    """Average/worst revenue-ordered gap over one cell.

    ``instances`` overrides generation (used by tests to benchmark
    hand-built examples); otherwise ``cfg.count`` instances are generated.
    """
    if instances is None:
        instances = [
            generate_assortment_instance(cfg, i) for i in range(cfg.count)
        ]
    else:
        instances = list(instances)

    def evaluate(inst: Instance) -> tuple[float, int, int]:
        opt = solve_assortment_2slm(inst)
        ro = revenue_ordered_heuristic(inst)
        return _gap_pct(opt.revenue, ro.revenue), len(ro.assortment), len(opt.assortment)

    rows = [evaluate(inst) for inst in instances]
    gaps = [g for g, _, _ in rows]
    return GapRow(
        label=cfg.label,
        baselines={
            "RO": StrategyStats(
                float(np.mean(gaps)),
                float(np.max(gaps)),
                float(np.mean([c for _, c, _ in rows])),
            )
        },
        optimal_avg_cardinality=float(np.mean([c for _, _, c in rows])),
    )


def run_pricing_benchmark(
    cfg: PricingExperimentConfig,
    instances: Iterable[PricedInstance] | None = None,
) -> GapRow:
    """Fixed-price and quasi-same-price gaps against the exact joint solver."""
    if instances is None:
        instances = [generate_pricing_instance(cfg, i) for i in range(cfg.count)]
    else:
        instances = list(instances)

    def evaluate(inst: PricedInstance):
        opt = solve_japtlm(inst)
        fixed = fixed_price_policy(inst)
        quasi = quasi_same_price_policy(inst)
        return (
            _gap_pct(opt.revenue, fixed.revenue),
            _gap_pct(opt.revenue, quasi.revenue),
            fixed.k,
            quasi.k,
            opt.k,
        )

    rows = [evaluate(inst) for inst in instances]
    fixed_gaps = [r[0] for r in rows]
    quasi_gaps = [r[1] for r in rows]
    return GapRow(
        label=cfg.label,
        baselines={
            "Fixed-Price": StrategyStats(
                float(np.mean(fixed_gaps)),
                float(np.max(fixed_gaps)),
                float(np.mean([r[2] for r in rows])),
            ),
            "Quasi-Same-Price": StrategyStats(
                float(np.mean(quasi_gaps)),
                float(np.max(quasi_gaps)),
                float(np.mean([r[3] for r in rows])),
            ),
        },
        optimal_avg_cardinality=float(np.mean([r[4] for r in rows])),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _columns(rows: Sequence[GapRow]) -> list[str]:
    header = ["cell"]
    if rows:
        for name in rows[0].baselines:
            key = name.lower().replace("-", "_")
            header += [f"{key}_avg_gap_pct", f"{key}_worst_gap_pct", f"{key}_avg_cardinality"]
    header.append("optimal_avg_cardinality")
    return header


def _row_values(row: GapRow) -> list[str]:
    out = [row.label]
    for stats in row.baselines.values():
        out += [
            f"{stats.avg_gap_pct:.3f}",
            f"{stats.worst_gap_pct:.3f}",
            f"{stats.avg_cardinality:.3f}",
        ]
    out.append(f"{row.optimal_avg_cardinality:.3f}")
    return out


def emit_report(rows: Sequence[GapRow], fmt: str, path: str) -> str:
    """Write the gap table as CSV or Markdown (3-decimal fixed point).

    The header comment records the RNG specification so the numbers can be
    reproduced by any implementation of the same generator.
    """
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"format must be 'csv' or 'markdown', got {fmt!r}")
    header = _columns(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            fh.write(f"# rng: {RNG_SPEC}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(_row_values(row))
        else:
            fh.write(f"<!-- rng: {RNG_SPEC} -->\n")
            fh.write("| " + " | ".join(header) + " |\n")
            fh.write("|" + "|".join(["---"] * len(header)) + "|\n")
            for row in rows:
                fh.write("| " + " | ".join(_row_values(row)) + " |\n")
    return path


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


# field -> (what the value must be, check, conversion)
_CONFIG_FIELDS = {
    "count": ("an integer >= 1", lambda v: _is_int(v) and v >= 1, int),
    "seed": ("an integer in [0, 2**64)", lambda v: _is_int(v) and 0 <= v < 2**64, int),
    "n": ("an integer >= 1", lambda v: _is_int(v) and v >= 1, int),
    "a0": ("a finite number >= 0", lambda v: _is_finite(v) and v >= 0, float),
    "d": ("a finite number in [0, 1]", lambda v: _is_finite(v) and 0 <= v <= 1, float),
    "t": ("a finite number > 0", lambda v: _is_finite(v) and v > 0, float),
}

# experiment -> (cell config class, cell fields in constructor order)
_EXPERIMENTS = {
    "assortment": (AssortmentExperimentConfig, ("n", "a0", "d")),
    "pricing": (PricingExperimentConfig, ("n", "t", "a0")),
}


def _check_fields(obj, expected: Sequence[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = set(obj) - set(expected)
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)} in {where}")
    missing = [name for name in expected if name not in obj]
    if missing:
        raise SchemaError(f"missing fields {missing} in {where}")


def _field(obj: Mapping, name: str, where: str):
    rule, ok, convert = _CONFIG_FIELDS[name]
    value = obj[name]
    if not ok(value):
        raise SchemaError(f"{where}: {name!r} must be {rule}, got {value!r}")
    return convert(value)


def parse_benchmark_config(obj: Mapping) -> list:
    """Decode a benchmark config document into per-cell config objects.

    The document is ``{"experiment": ..., "cells": [...], "count": ...,
    "seed": ...}`` with exactly these fields:

    - ``experiment``: ``"assortment"`` or ``"pricing"``;
    - ``cells``: a non-empty list of cell objects.  A config without cells
      would produce a report without rows, so it is rejected rather than
      reported as a success;
    - ``count``: instances per cell, an integer >= 1;
    - ``seed``: an integer in [0, 2**64), the first word of the RNG key.

    An assortment cell has exactly ``n``, ``a0`` and ``d``; a pricing cell
    has exactly ``n``, ``t`` and ``a0``:

    - ``n``: an integer >= 1;
    - ``a0``: a finite number >= 0.  A pricing cell with ``a0 = 0`` parses;
      the pricing solvers then refuse it with ``ZeroOutsideOption``;
    - ``d``: a finite number in [0, 1];
    - ``t``: a finite number > 0.

    An integer is a JSON integer: not a boolean and not a float such as
    ``5.0``.  A number is a JSON integer or float, not a boolean or a
    string.  The top-level fields are checked before any cell, so the
    checks hold whatever ``cells`` holds.  Every violation raises
    :class:`SchemaError`, naming the field and, for a cell field, the
    cell's position in ``cells``.
    """
    _check_fields(obj, ("experiment", "cells", "count", "seed"), "benchmark config")
    experiment = obj["experiment"]
    if not isinstance(experiment, str) or experiment not in _EXPERIMENTS:
        raise SchemaError(
            f"experiment must be 'assortment' or 'pricing', got {experiment!r}"
        )
    cells = obj["cells"]
    if not isinstance(cells, list) or not cells:
        raise SchemaError("cells must be a non-empty list of cell objects")
    count = _field(obj, "count", "benchmark config")
    seed = _field(obj, "seed", "benchmark config")

    config_cls, names = _EXPERIMENTS[experiment]
    configs = []
    for pos, cell in enumerate(cells):
        where = f"cell {pos}"
        _check_fields(cell, names, where)
        values = [_field(cell, name, where) for name in names]
        configs.append(config_cls(*values, count, seed, cell=pos))
    return configs


def run_config(configs: Sequence) -> list[GapRow]:
    rows = []
    for cfg in configs:
        if isinstance(cfg, AssortmentExperimentConfig):
            rows.append(run_assortment_benchmark(cfg))
        else:
            rows.append(run_pricing_benchmark(cfg))
    return rows
