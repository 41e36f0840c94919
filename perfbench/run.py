"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from
``src/`` there.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ledger.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

WORKLOADS = ("paper_suites", "scan", "ruleset", "serve")
ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    harness.WORK_DIR.mkdir(exist_ok=True)
    workload = importlib.import_module(args.workload)
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace))
    except harness.BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    mismatches = result.pop("mismatches")
    if mismatches:
        print("incorrect outputs: " + "; ".join(mismatches), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
