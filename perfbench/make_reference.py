#!/usr/bin/env python3
"""Regenerate the benchmark's stored inputs and reference digests.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Writes ``perfbench/data/size_model_tiny.json`` (the tiny-grid size model,
training seed 0, that the ``select`` workload loads) and
``perfbench/data/reference.json``: the digest of every op input of the
default workload seed (0) — the ``train`` model, the ``select`` outcome for
each churn seed (the same for every workload seed), and the ``serve``
report.  Regenerate only when a change is *meant* to alter results, and
say so in the change; the harness counts any other difference as failed ops.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401  (pins threads and sys.path like a benchmark run)

import harness
from workloads import MODEL_PATH, SelectWorkload, ServeWorkload, TrainWorkload

DEFAULT_SEED = 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).resolve().parent) as tmp:
        workdir = Path(tmp)
        train = TrainWorkload(DEFAULT_SEED, workdir)
        model_dict, _ = train.run(DEFAULT_SEED)
        from repro.core.size_model import SizePredictionModel

        SizePredictionModel.from_dict(model_dict).save(MODEL_PATH)
        reference = {"train": {str(DEFAULT_SEED): harness.digest(model_dict)}}
        select = SelectWorkload(DEFAULT_SEED, workdir)
        reference["select"] = {}
        for key in sorted(select.keys):
            payload, problem = select.run(key)
            if problem is not None:
                print(f"select churn seed {key}: {problem}", file=sys.stderr)
                return 1
            reference["select"][str(key)] = harness.digest(payload)
        serve = ServeWorkload(DEFAULT_SEED, workdir)
        payload, problem = serve.run(DEFAULT_SEED)
        if problem is not None:
            print(f"serve: {problem}", file=sys.stderr)
            return 1
        reference["serve"] = {str(DEFAULT_SEED): harness.digest(payload)}
    with open(harness.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {MODEL_PATH} and {harness.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
