"""Time one fresh-process set-up of a workload.

    python3 perfbench/setup_probe.py --workload scan --seed 1

Prints ``{"setup_s": ...}``: the seconds spent importing the package
plus the workload's own set-up (compiling its patterns, building its
matchers), scaled to the reference host speed (``harness.Clock``).
Generating the inputs is not counted.  ``run.py`` starts
this script several times per run and reports the median.
"""

import argparse
import importlib
import json
import time

import harness

calibrated = harness.calibration_seconds()
started = time.perf_counter()
import repro  # noqa: E402,F401  (the import is what is being timed)

imported = time.perf_counter() - started


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    task = importlib.import_module(args.workload).setup_task(args.seed)
    begun = time.perf_counter()
    task()
    built = time.perf_counter() - begun
    factor = harness.speed_factor([calibrated, harness.calibration_seconds()])
    print(json.dumps({"setup_s": (imported + built) * factor}))


if __name__ == "__main__":
    main()
