"""Record the exact-solver revenue of every pool document at the default
seed into ``perfbench/reference.json``.

    python3 perfbench/record_reference.py

Runs compare against it at the default seed (revenues only, so a
tie-break change does not fail).  Re-record only for a change that is
meant to alter optimal revenues, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import REFERENCE  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    out = {}
    for name, w in WORKLOADS.items():
        revenues = []
        for r in range(w.rounds):
            for s, spec in enumerate(w.slots):
                case = w.make(DEFAULT_SEED, s, r, spec)
                answer = w.run(case)
                fails = w.check(case, answer)
                if fails:
                    print(f"{name} round {r} slot {s}: {fails}", file=sys.stderr)
                    return 1
                revenues.append(w.revenue(answer))
        out[name] = revenues
        print(f"{name}: {len(revenues)} revenues", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
