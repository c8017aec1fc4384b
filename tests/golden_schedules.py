"""Golden schedule corpus: the schedules whose bytes are pinned.

Every list-scheduler change must leave these schedules byte-identical.
Each schedule is reduced to one SHA-256 over its ``host``, ``start`` and
``finish`` array bytes and its ``ops`` value (type name plus the exact
float in hex, so the digest does not depend on how a numpy version prints
a scalar).  The groups:

* ``tiny_grid_mcp`` — every MCP sweep point of a cold tiny-grid
  (``repro train --grid tiny``) size-model training with seed 0;
* ``heuristic_sample`` — every registered heuristic on a fixed seeded
  sample of random DAGs paired with homogeneous, clock-heterogeneous,
  multi-cluster networked and uniform-slow-network RCs (the kinds
  ``test_property_schedule_invariants.py`` draws, plus a uniform network
  factor other than 1);
* ``chapter4_smoke`` / ``chapter5_smoke`` — every schedule the chapter IV
  and chapter V experiments compute at smoke scale, seed 0, serially.

Regenerate ``tests/data/schedule_digests.json`` only when a change is
*meant* to alter schedules::

    PYTHONPATH=src python tests/golden_schedules.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

DATA = Path(__file__).resolve().parent / "data" / "schedule_digests.json"

#: Random DAG / RC pairs per RC kind in ``heuristic_sample``.
SAMPLES_PER_KIND = 12
RC_KINDS = ("homogeneous", "het_clock", "networked", "uniform_network")


def schedule_digest(schedule) -> str:
    """SHA-256 of a schedule's decision and time arrays and its op count."""
    h = hashlib.sha256()
    for arr in (schedule.host, schedule.start, schedule.finish):
        h.update(np.ascontiguousarray(arr).tobytes())
    ops = schedule.ops
    h.update(f"{type(ops).__name__}:{float(ops).hex()}".encode())
    return h.hexdigest()


@contextlib.contextmanager
def recording_schedules() -> Iterator[list[str]]:
    """Record the digest of every ``schedule_dag`` result, in call order.

    Every module attribute bound to :func:`repro.scheduling.base.schedule_dag`
    (including ``from ... import schedule_dag`` sites) is swapped for a
    recording wrapper and restored on exit.
    """
    import repro.scheduling.base as base

    original = base.schedule_dag
    digests: list[str] = []

    def recorder(*args, **kwargs):
        schedule = original(*args, **kwargs)
        digests.append(schedule_digest(schedule))
        return schedule

    sites = [
        mod for mod in list(sys.modules.values())
        if getattr(mod, "schedule_dag", None) is original
    ]
    for mod in sites:
        mod.schedule_dag = recorder
    try:
        yield digests
    finally:
        for mod in sites:
            mod.schedule_dag = original


def _tiny_grid_mcp() -> list[str]:
    from repro.cli import _GRIDS
    from repro.core.size_model import SizePredictionModel

    with recording_schedules() as digests:
        SizePredictionModel.train(_GRIDS["tiny"], seed=0, jobs=1)
    return digests


def _sample_rc(kind: str, rng: np.random.Generator):
    from repro.resources.collection import ResourceCollection

    n_hosts = int(rng.integers(1, 41))
    if kind == "homogeneous":
        return ResourceCollection.homogeneous(n_hosts, speed=float(rng.choice((0.5, 1.0, 2.0))))
    if kind == "het_clock":
        return ResourceCollection.heterogeneous_clock(n_hosts, float(rng.uniform(0.05, 0.9)), rng)
    n_clusters = int(rng.integers(1, 4))
    inter = float(rng.choice((2.0, 8.0, 32.0)))
    factor = np.full((n_clusters, n_clusters), inter)
    if kind == "networked":
        np.fill_diagonal(factor, 1.0)
    return ResourceCollection(
        speed=rng.uniform(0.5, 2.0, size=n_hosts),
        cluster=rng.integers(0, n_clusters, size=n_hosts),
        comm_factor=factor,
    )


def sample_inputs() -> list[tuple[str, object, object]]:
    """The fixed ``(kind, dag, rc)`` sample of ``heuristic_sample``."""
    from repro.dag.random_dag import RandomDagSpec, generate_random_dag

    rng = np.random.default_rng(20071110)
    cases = []
    for kind in RC_KINDS:
        for _ in range(SAMPLES_PER_KIND):
            spec = RandomDagSpec(
                size=int(rng.integers(2, 61)),
                ccr=float(rng.choice((0.01, 0.5, 2.0))),
                parallelism=float(rng.uniform(0.1, 1.0)),
                regularity=float(rng.uniform(0.0, 1.0)),
                density=float(rng.uniform(0.1, 1.0)),
                mean_comp_cost=float(rng.choice((1.0, 40.0))),
            )
            dag = generate_random_dag(spec, rng)
            cases.append((kind, dag, _sample_rc(kind, rng)))
    return cases


def _heuristic_sample() -> list[str]:
    from repro.scheduling import list_schedulers, schedule_dag

    cases = sample_inputs()
    return [
        schedule_digest(schedule_dag(name, dag, rc))
        for name in list_schedulers()
        for _, dag, rc in cases
    ]


def _chapter(run: Callable[[], None]) -> list[str]:
    with recording_schedules() as digests, contextlib.redirect_stdout(io.StringIO()):
        run()
    return digests


def _chapter4_smoke() -> list[str]:
    from repro.experiments.runner import run_chapter4
    from repro.experiments.scales import get_scale

    return _chapter(lambda: run_chapter4(get_scale("smoke"), seed=0, jobs=1))


def _chapter5_smoke() -> list[str]:
    from repro.experiments.runner import run_chapter5
    from repro.experiments.scales import get_scale

    return _chapter(lambda: run_chapter5(get_scale("smoke"), seed=0, jobs=1, cache_dir=None))


#: Group name -> function computing its digests, in a fixed order.
GROUPS: dict[str, Callable[[], list[str]]] = {
    "tiny_grid_mcp": _tiny_grid_mcp,
    "heuristic_sample": _heuristic_sample,
    "chapter4_smoke": _chapter4_smoke,
    "chapter5_smoke": _chapter5_smoke,
}


#: Hex digits of each per-schedule digest kept in the data file; they only
#: locate the first differing schedule, the group digest pins all bytes.
PREFIX = 16


def summarise(digests: list[str]) -> dict[str, object]:
    """The pinned form of one group: count, group digest, short digests."""
    return {
        "count": len(digests),
        "sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "prefixes": [d[:PREFIX] for d in digests],
    }


def load() -> dict[str, dict[str, object]]:
    """The pinned groups, by name."""
    return json.loads(DATA.read_text())


def main() -> int:
    pinned = {name: summarise(fn()) for name, fn in GROUPS.items()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(pinned, indent=1) + "\n")
    for name, group in pinned.items():
        print(f"{name}: {group['count']} schedules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
