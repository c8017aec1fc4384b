#!/usr/bin/env python3
"""Benchmark entry point: run one workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {train,select,serve} \\
        [--seed N] [--seconds S] [--trace 0|1]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` the per-layer metrics.
See ``perfbench/NOTES.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Single-threaded numerics and no ambient fault or worker settings: set
# before numpy is imported, so every run measures the same configuration.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_JOBS", "REPRO_FAULTS", "REPRO_SERVICE_FAULTS", "REPRO_DISK_FAULTS"):
    os.environ.pop(_var, None)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "select", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (HERE.parent / "src" / "repro").is_dir():
        print(f"error: no program source at {HERE.parent / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
