"""icroute benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload busy_relay --seed 0 --seconds 45 --trace 0

Run from the root of a source tree that holds `src/icroute`.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines above it are for people.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

from measure import run
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    # A run makes one pass of fixed work, sized to about BENCHMARK.json's
    # run_seconds, so that its simulated work never depends on host speed.
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="accepted for the common interface; unused")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "icroute", "__init__.py")):
        print(f"run.py: no icroute sources under {SRC}", file=sys.stderr)
        return 2

    report = run(WORKLOADS[args.workload], args.seed, bool(args.trace), OUT,
                 SRC)
    print("\n".join(report.lines))
    print(report.result_line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
