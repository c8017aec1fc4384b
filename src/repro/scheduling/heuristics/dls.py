"""Dynamic Level Scheduling (Sih & Lee) and min-min — the expensive
"sophisticated" heuristics of the Chapter V sensitivity analysis and the
Chapter VI heuristic prediction model.

Both repeatedly evaluate every (ready task, host) pair, so their abstract
operation count — accumulated while running — grows like ``n * r̄ * p``
where ``r̄`` is the mean ready-set size.  That cost is what makes them lose
on turn-around time for large DAGs / large RCs despite (sometimes) better
makespans (Fig. VI-1).
"""

from __future__ import annotations

import numpy as np

from repro.dag.graph import DAG
from repro.resources.collection import ResourceCollection
from repro.scheduling.base import Schedule, SchedulerState, register_scheduler

__all__ = ["schedule_dls", "schedule_minmin"]


def _batch_scheduler(
    dag: DAG,
    rc: ResourceCollection,
    name: str,
    pick: "str",
) -> Schedule:
    """Shared engine for DLS / min-min.

    At each step, for every ready task compute per-host metrics and place
    the best (task, host) pair according to ``pick``:

    * ``"dls"``  — maximise ``SL(t) - max(EST, avail) + delta(t, h)``, where
      ``delta = mean_exec(t) - exec(t, h)`` favours fast hosts;
    * ``"minmin"`` — minimise the earliest completion time.
    """
    state = SchedulerState(dag, rc)
    p = rc.n_hosts
    plan = dag.plan
    sl = dag.bottom_levels(include_comm=False)
    mean_exec = dag.comp * float(np.mean(1.0 / rc.speed))

    # A ready task's data-ready and execution times are fixed once its
    # parents are placed; only host availability moves between steps.
    ready: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def release(v: int) -> None:
        ready[v] = (state.data_ready_all_hosts(v), dag.comp[v] / rc.speed)

    indeg = list(plan.in_degree)
    for v in range(dag.n):
        if indeg[v] == 0:
            release(v)
    while ready:
        avail = np.array(state.avail)
        best_score = -np.inf
        best_task = -1
        best_host = -1
        best_start = 0.0
        for v in sorted(ready):
            data_ready, exec_times = ready[v]
            est = np.maximum(data_ready, avail)
            state.ops += (plan.in_degree[v] + 1) * p
            if pick == "dls":
                scores = sl[v] - est + (mean_exec[v] - exec_times)
            else:  # minmin: lower completion is better
                scores = -(est + exec_times)
            h = int(scores.argmax())
            if scores[h] > best_score or (
                scores[h] == best_score and v < best_task
            ):
                best_score = float(scores[h])
                best_task = v
                best_host = h
                best_start = float(est[h])
        state.place(best_task, best_host, best_start)
        del ready[best_task]
        for u in plan.children[best_task]:
            indeg[u] -= 1
            if indeg[u] == 0:
                release(u)
    return state.result(name)


@register_scheduler("dls")
def schedule_dls(dag: DAG, rc: ResourceCollection) -> Schedule:
    """Dynamic Level Scheduling (Fig. V-13)."""
    return _batch_scheduler(dag, rc, "dls", "dls")


@register_scheduler("minmin")
def schedule_minmin(dag: DAG, rc: ResourceCollection) -> Schedule:
    """Min-min batch heuristic (the Pegasus workhorse, §IV.1.2)."""
    return _batch_scheduler(dag, rc, "minmin", "minmin")
