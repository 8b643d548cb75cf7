"""Command-line front end.

Subcommands: ``solve`` (assortment optimization, optionally capacitated),
``price`` (joint assortment and pricing policies), ``verify``
(solver-vs-oracle randomized comparisons), ``gen`` (instance files) and
``bench`` (gap tables from a config file).

Results go to stdout as JSON/CSV; diagnostics go to stderr.  Exit codes:
0 success, 1 input error (bad JSON, bad flags), 2 infeasible or oversized
(size guards, missing structure, a0 = 0 for pricing).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench
from .assortment import solve_assortment_2slm
from .capacitated import (
    BRUTE_FORCE_MAX_N,
    CapacitatedProblem,
    solve_capacitated_attcorr,
    solve_capacitated_auto,
    solve_capacitated_bruteforce,
    solve_capacitated_tree,
)
from .errors import (
    LuceOptError,
    NoFeasibleCandidate,
    NonPositiveInput,
    SchemaError,
    IdOutOfRange,
    CycleError,
)
from .model import (
    dump_instance,
    make_instance,
    parse_instance,
    parse_priced_instance,
    threshold_dominance,
)
from .oracles import brute_force_assortment, numeric_pricing_oracle
from .pricing import (
    fixed_price_policy,
    quasi_same_price_policy,
    solve_japtlm,
    solve_japtlm_k,
)

_INPUT_ERRORS = (SchemaError, IdOutOfRange, CycleError, NonPositiveInput,
                 json.JSONDecodeError, OSError, ValueError)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_load_json(args.instance))
    eps = args.eps
    if args.capacity is None and args.method in ("auto", "unconstrained"):
        sol = solve_assortment_2slm(inst, eps)
        method = "unconstrained"
    else:
        capacity = inst.n if args.capacity is None else args.capacity
        sol, method = _solve_capacitated(inst, capacity, args.method, eps)
    _emit(
        {
            "assortment": list(sol.assortment),
            "revenue": sol.revenue,
            "method": method,
        }
    )
    return 0


def _solve_capacitated(inst, capacity: int, method: str, eps: float):
    prob = CapacitatedProblem(inst, capacity)
    if method == "auto":
        return solve_capacitated_auto(prob, eps)
    if method == "bruteforce":
        return solve_capacitated_bruteforce(prob), "bruteforce"
    if method == "tree":
        return solve_capacitated_tree(prob, eps), "tree"
    if method == "attcorr":
        return solve_capacitated_attcorr(prob, eps), "attcorr"
    if method == "unconstrained":
        return solve_assortment_2slm(inst, eps), "unconstrained"
    raise ValueError(f"unknown method {method!r}")


def _cmd_price(args: argparse.Namespace) -> int:
    inst = parse_priced_instance(_load_json(args.instance))
    if args.policy == "tlm-opt":
        sol = solve_japtlm(inst)
    elif args.policy == "fixed":
        sol = fixed_price_policy(inst)
    else:
        sol = quasi_same_price_policy(inst)
    _emit(
        {
            "k": sol.k,
            "prices": list(sol.prices),
            "revenue": sol.revenue,
            "k1": sol.k1,
            "k2": sol.k2,
            "mode": sol.mode,
        }
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite in ("assortment", "capacitated") and args.max_n > BRUTE_FORCE_MAX_N:
        print(
            f"--max-n {args.max_n} exceeds the brute-force guard "
            f"({BRUTE_FORCE_MAX_N})",
            file=sys.stderr,
        )
        return 1
    if args.suite == "pricing" and args.max_n > 3:
        print("--max-n for the pricing suite is capped at 3", file=sys.stderr)
        return 1

    failures: list[dict] = []
    if args.suite == "assortment":
        for i in range(args.count):
            n = 2 + (i % max(1, args.max_n - 1))
            cfg = bench.AssortmentExperimentConfig(
                n=n, a0=float(1 + (i % 3)), d=0.2 + 0.2 * (i % 4),
                count=1, seed=args.seed, cell=i,
            )
            inst = bench.generate_assortment_instance(cfg, i)
            got = solve_assortment_2slm(inst)
            want = brute_force_assortment(inst)
            if abs(got.revenue - want.value) > 1e-6 * max(1.0, want.value):
                failures.append(
                    {"case": i, "solver": got.revenue, "oracle": want.value}
                )
    elif args.suite == "capacitated":
        for i in range(args.count):
            n = 2 + (i % max(1, args.max_n - 1))
            capacity = 1 + (i % min(4, n))
            if i % 2 == 0:
                inst = bench.generate_tree_instance(n, 1.0 + (i % 3), args.seed, i)
                solver = solve_capacitated_tree
            else:
                cfg = bench.AssortmentExperimentConfig(
                    n=n, a0=1.0 + (i % 3), d=0.5, count=1, seed=args.seed, cell=i,
                )
                base = bench.generate_assortment_instance(cfg, i)
                att = [p.attractiveness for p in base.products]
                rel = threshold_dominance(att, 0.4 + 0.2 * (i % 3))
                inst = make_instance(
                    [p.revenue for p in base.products], att, base.a0, rel
                )
                solver = solve_capacitated_attcorr
            prob = CapacitatedProblem(inst, capacity)
            got = solver(prob)
            want = brute_force_assortment(inst, capacity=capacity)
            if abs(got.revenue - want.value) > 1e-6 * max(1.0, want.value):
                failures.append(
                    {"case": i, "solver": got.revenue, "oracle": want.value}
                )
    else:
        for i in range(args.count):
            k = 1 + (i % args.max_n)
            cfg = bench.PricingExperimentConfig(
                n=k, t=(0.5, 1.0, 2.0, 5.0)[i % 4], a0=(1.0, 10.0)[i % 2],
                count=1, seed=args.seed, cell=i,
            )
            inst = bench.generate_pricing_instance(cfg, i)
            want = numeric_pricing_oracle(inst, k)
            tol = 1e-3 * max(1.0, want.value)
            try:
                got = solve_japtlm_k(inst, k)
            except NoFeasibleCandidate:
                # Zero-price boundary case: the prefix [k] is dominated by a
                # shorter one, so the overall optimum must still beat the
                # oracle's best price vector for [k].
                best = solve_japtlm(inst)
                if best.revenue < want.value - tol:
                    failures.append(
                        {"case": i, "solver": best.revenue, "oracle": want.value}
                    )
                continue
            if abs(got.revenue - want.value) > tol:
                failures.append(
                    {"case": i, "solver": got.revenue, "oracle": want.value}
                )

    for failure in failures:
        print(f"MISMATCH {failure}", file=sys.stderr)
    _emit(
        {
            "suite": args.suite,
            "count": args.count,
            "failures": failures,
            "ok": not failures,
        }
    )
    return 0 if not failures else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = bench.AssortmentExperimentConfig(
        n=args.n, a0=args.a0, d=args.density, count=args.count, seed=args.seed
    )
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        inst = bench.generate_assortment_instance(cfg, i)
        path = os.path.join(args.out, f"instance_{i:04d}.json")
        dump_instance(inst, path)
        print(path, file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    configs = bench.parse_benchmark_config(_load_json(args.config))
    rows = bench.run_config(configs)
    bench.emit_report(rows, args.format, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luceopt",
        description="Assortment and pricing optimization under dominance-"
        "filtered logit choice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="optimal (capacitated) assortment")
    p_solve.add_argument("--instance", required=True, help="instance JSON file")
    p_solve.add_argument("--capacity", type=int, default=None)
    p_solve.add_argument(
        "--method",
        choices=["auto", "bruteforce", "tree", "attcorr", "unconstrained"],
        default="auto",
    )
    p_solve.add_argument("--eps", type=float, default=1e-9)
    p_solve.set_defaults(fn=_cmd_solve)

    p_price = sub.add_parser("price", help="joint assortment and pricing")
    p_price.add_argument("--instance", required=True)
    p_price.add_argument(
        "--policy", choices=["tlm-opt", "fixed", "quasi"], default="tlm-opt"
    )
    p_price.set_defaults(fn=_cmd_price)

    p_verify = sub.add_parser("verify", help="randomized solver-vs-oracle checks")
    p_verify.add_argument(
        "--suite", choices=["assortment", "capacitated", "pricing"], required=True
    )
    p_verify.add_argument("--count", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--max-n", type=int, default=10)
    p_verify.set_defaults(fn=_cmd_verify)

    p_gen = sub.add_parser("gen", help="write random instance files")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--a0", type=float, required=True)
    p_gen.add_argument("--density", type=float, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--out", default=".")
    p_gen.set_defaults(fn=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run a benchmark config")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LuceOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
