"""The cheap list schedulers: greedy, FCFS, FCA and the random baseline.

These are the heuristics whose scheduling time is (nearly) independent of
the DAG's communication structure — ``O(n (log p + indeg))`` abstract
operations — which is why they stay usable on huge resource universes
(Fig. IV-5) and why FCA wins for small DAGs in the Chapter VI heuristic
prediction model.

* **greedy** (Fig. IV-3): as soon as a task's dependencies have cleared,
  assign it to the earliest-available host (start-soonest rule, ignoring
  communication when choosing).
* **fcfs** (Fig. V-15): ready tasks in FIFO order; the lowest-indexed host
  that is idle at the task's ready time, else the earliest-available host.
* **fca** (Fig. V-14, reconstructed — see DESIGN.md): ready tasks in
  descending static-level order; the *fastest* host among the idle ones,
  else the earliest-available (fastest on ties).  Speed-aware but
  communication-oblivious.
* **random**: a uniformly random host per task.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from repro.dag.graph import DAG
from repro.resources.collection import ResourceCollection
from repro.scheduling.base import Schedule, SchedulerState, log2ceil, register_scheduler

__all__ = ["schedule_greedy", "schedule_fcfs", "schedule_fca", "schedule_random"]


def _run_ready_queue(
    dag: DAG,
    rc: ResourceCollection,
    name: str,
    priority: np.ndarray,
    choose_host: Callable[[SchedulerState, int, float], int],
    extra_ops: float = 0.0,
) -> Schedule:
    """Shared engine: pop ready tasks by (ready_time, priority, id), let
    ``choose_host(state, task, ready_time)`` pick the host, place tightly."""
    state = SchedulerState(dag, rc)
    plan = dag.plan
    p = rc.n_hosts
    priority = priority.tolist()
    indeg = list(plan.in_degree)
    dep_ready = [0.0] * dag.n  # max parent finish
    heap: list[tuple[float, float, int]] = [
        (0.0, priority[v], v) for v in range(dag.n) if indeg[v] == 0
    ]
    heapq.heapify(heap)
    while heap:
        t_ready, _, v = heapq.heappop(heap)
        h = choose_host(state, v, t_ready)
        start = max(state.avail[h], state.data_ready_on_host(v, h))
        state.place(v, h, start)
        state.ops += plan.in_degree[v] + log2ceil(p)
        for u in plan.children[v]:
            dep_ready[u] = max(dep_ready[u], state.finish[v])
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(heap, (dep_ready[u], priority[u], u))
    state.ops += extra_ops
    return state.result(name)


def _first_min(values: list[float]) -> int:
    """Index of the first minimum (``np.argmin``'s tie rule)."""
    return values.index(min(values))


@register_scheduler("greedy")
def schedule_greedy(dag: DAG, rc: ResourceCollection) -> Schedule:
    """Simple greedy (Fig. IV-3): earliest-available host, readiness order."""

    def choose(state: SchedulerState, v: int, t: float) -> int:
        return _first_min(state.avail)

    return _run_ready_queue(dag, rc, "greedy", np.zeros(dag.n), choose)


@register_scheduler("fcfs")
def schedule_fcfs(dag: DAG, rc: ResourceCollection) -> Schedule:
    """FCFS (Fig. V-15): FIFO ready order, first idle host."""
    # FIFO = order in which tasks become ready; ties by id.  The ready heap
    # already orders by (ready time, priority, id); priority 0 gives FIFO.

    def choose(state: SchedulerState, v: int, t: float) -> int:
        for h, a in enumerate(state.avail):
            if a <= t:
                return h
        return _first_min(state.avail)

    return _run_ready_queue(dag, rc, "fcfs", np.zeros(dag.n), choose)


@register_scheduler("fca")
def schedule_fca(dag: DAG, rc: ResourceCollection) -> Schedule:
    """FCA (Fig. V-14): fastest available host, static-level task order."""
    sl = dag.bottom_levels(include_comm=False)
    speed = rc.speed.tolist()

    def choose(state: SchedulerState, v: int, t: float) -> int:
        avail = state.avail
        # The fastest idle host; if none is idle, the fastest of the
        # earliest-available ones.  First index on ties either way.
        idle = [h for h, a in enumerate(avail) if a <= t]
        if not idle:
            best = min(avail)
            idle = [h for h, a in enumerate(avail) if a == best]
        return max(idle, key=speed.__getitem__)

    # Higher static level = more critical = earlier; heap pops smallest.
    extra = dag.n * log2ceil(dag.n) + dag.m
    return _run_ready_queue(dag, rc, "fca", -sl, choose, extra_ops=extra)


@register_scheduler("random")
def schedule_random(dag: DAG, rc: ResourceCollection, seed: int = 0) -> Schedule:
    """Uniformly random host per task (the Pegasus-style baseline)."""
    rng = np.random.default_rng(seed)
    hosts = rng.integers(0, rc.n_hosts, size=dag.n).tolist()

    def choose(state: SchedulerState, v: int, t: float) -> int:
        return hosts[v]

    return _run_ready_queue(dag, rc, "random", np.zeros(dag.n), choose)
