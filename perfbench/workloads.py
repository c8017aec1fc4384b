"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the workload seed, then runs *ops*:
one op is one unit of work a user waits for.  ``keys`` is the op sequence
of one cycle; a run repeats whole cycles, so every run of a seed measures
the same population of ops.  ``run(key)`` returns ``(payload, problem)``:
the JSON-able result that the harness digests and checks, and a reason
string when the op completed but did not do what the user asked.

* ``train``  — one cold ``SizePredictionModel.train`` on the ``tiny`` grid
  (what ``repro train`` runs); the training seed is the workload seed.
* ``select`` — one ``repro select`` request in-process: generate (with the
  self-check) from a stored tiny-grid model, build the churn, run the
  selection pipeline, write the outcome atomically.  The churn seed cycles
  through a fixed list whose order the workload seed sets.
* ``serve``  — one journaled ``SelectionService.run`` of 16 tenants: three
  in four ask for 4–8 hosts at 3.0 GHz, one in four for 12–16 hosts in a
  band above the fastest cluster (refused, then respecified).  The
  workload seed permutes which tenant gets which size.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

import repro.observe as observe
from repro.cli import _GRIDS
from repro.core.generator import ResourceSpecificationGenerator
from repro.core.size_model import SizePredictionModel
from repro.dag.montage import montage_dag, montage_level_counts
from repro.durability import atomic_write_json
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import get_scale
from repro.resources.churn import ResourceChurn, parse_churn_spec
from repro.selection.pipeline import PipelineConfig, SelectionPipeline
from repro.service import SelectionService, ServiceConfig, TenantRequest, make_spec

DATA = Path(__file__).resolve().parent / "data"
#: Tiny-grid size model (training seed 0) that ``select`` loads instead of
#: retraining; ``make_reference.py`` writes it.
MODEL_PATH = DATA / "size_model_tiny.json"

#: The churn of the ROADMAP's ``repro serve`` example.
CHURN = "fail=0.002,competitor=0.01,util=0.3"
#: ``select`` cycles through these churn seeds.  One of them (29) loses a
#: bound host mid-run and rebinds; every other op binds on the first rung
#: and runs undisturbed, so 31 of 32 ops share one ladder path.
SELECT_CHURN_SEEDS = tuple(range(32))
#: ``serve`` uses one churn seed (the ROADMAP example's).
SERVE_CHURN_SEED = 7
#: Tenant RC sizes of ``serve``: the multiset is fixed so that every seed
#: asks for the same set of distinct specifications (the work the shared
#: ladder caches see); the seed only permutes it over the tenants.
SERVE_LOW_SIZES = (4, 5, 6, 7, 8, 4, 5, 6, 7, 8, 5, 7)
SERVE_HIGH_SIZES = (12, 13, 15, 16)
#: Relative clock spread of every tenant's band (``make_spec``'s default).
SERVE_TOLERANCE = 0.3


class TrainWorkload:
    name = "train"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.grid = _GRIDS["tiny"]
        self.keys: tuple[int, ...] = (int(seed),)

    def run(self, key: int) -> tuple[Any, str | None]:
        with observe.use_registry(observe.MetricsRegistry()):
            model = SizePredictionModel.train(self.grid, seed=key, jobs=None)
        return model.to_dict(), None


class SelectWorkload:
    name = "select"

    def __init__(self, seed: int, workdir: Path) -> None:
        scale = get_scale("smoke")
        self.platform = build_universe(scale, 0)
        self.model = SizePredictionModel.load(MODEL_PATH)
        self.dag = montage_dag(scale.montage_levels, ccr=0.01)
        self.churn = parse_churn_spec(CHURN)
        self.config = PipelineConfig()
        rng = np.random.default_rng(seed)
        self.keys = tuple(int(s) for s in rng.permutation(SELECT_CHURN_SEEDS))
        self.outcome_path = workdir / "outcome.json"

    def run(self, key: int) -> tuple[Any, str | None]:
        with observe.use_registry(observe.MetricsRegistry()):
            spec = ResourceSpecificationGenerator(self.model).generate(self.dag)
            churn = ResourceChurn.from_config(self.platform, self.churn.with_seed(key))
            outcome = SelectionPipeline(self.platform, churn, self.config).run(self.dag, spec)
            payload = outcome.to_dict()
            atomic_write_json(self.outcome_path, payload, indent=2)
        return payload, None if outcome.fulfilled else "request unfulfilled"


class ServeWorkload:
    name = "serve"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.platform = build_universe(get_scale("smoke"), 0)
        self.churn = parse_churn_spec(CHURN).with_seed(SERVE_CHURN_SEED)
        self.keys = (int(seed),)
        self.requests = serve_requests(self.platform, seed)
        self.journal_path = workdir / "serve.jsonl"

    def run(self, key: int) -> tuple[Any, str | None]:
        with observe.use_registry(observe.MetricsRegistry()):
            service = SelectionService(self.platform, self.churn, ServiceConfig())
            report = service.run(self.requests, journal_path=str(self.journal_path))
        n = len(report.outcomes)
        problem = None
        if report.n_admitted < n or report.n_fulfilled < n:
            problem = f"{report.n_admitted}/{n} admitted, {report.n_fulfilled}/{n} fulfilled"
        return report.to_dict(), problem


def serve_requests(platform, seed: int) -> list[TenantRequest]:
    """The 16 tenant requests of ``serve``, arriving in pairs 2 s apart
    (as ``synthesize_requests`` does) over one shared 19-task Montage DAG."""
    rng = np.random.default_rng(seed)
    low = [int(s) for s in rng.permutation(SERVE_LOW_SIZES)]
    high = [int(s) for s in rng.permutation(SERVE_HIGH_SIZES)]
    # The band's lower edge sits 10% above the fastest cluster's clock,
    # so no host satisfies the first rung.
    fastest_ghz = float(platform.host_clock.max())
    high_ghz = 1.1 * fastest_ghz / (1.0 - SERVE_TOLERANCE)
    dag = montage_dag(montage_level_counts(3), ccr=0.01)
    requests = []
    for t in range(len(low) + len(high)):
        if t % 4 == 3:
            spec = make_spec(dag, high.pop(), clock_ghz=high_ghz,
                             heterogeneity_tolerance=SERVE_TOLERANCE)
        else:
            spec = make_spec(dag, low.pop(), heterogeneity_tolerance=SERVE_TOLERANCE)
        requests.append(TenantRequest(tenant=t, dag=dag, spec=spec, arrival_s=float(t // 2) * 2.0))
    return requests


WORKLOADS = {w.name: w for w in (TrainWorkload, SelectWorkload, ServeWorkload)}
