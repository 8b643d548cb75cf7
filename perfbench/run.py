"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload assort-dag --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
times half as long untraced, replays the same operations with spans
around each layer's functions, and prints the per-layer metrics.  The run
record (versions, load, operation counts, known-count checks) is printed
before the result and written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "luceopt" / "__init__.py").is_file():
        print(f"error: no luceopt sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import harness  # imports luceopt, numpy and scipy
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    import luceopt

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if Path(luceopt.__file__).resolve().parent != (src / "luceopt").resolve():
        print(f"error: luceopt was imported from {luceopt.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), ROOT, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
