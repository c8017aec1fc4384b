"""Shared machinery for the list schedulers.

A run threads one :class:`SchedulerState` through a heuristic.  The
per-task work is a scalar Python scan: host availability and each task's
host/start/finish live in Python lists (frozen into arrays by
:meth:`SchedulerState.result`), and each task reads its parents from the
DAG's cached :attr:`~repro.dag.graph.DAG.plan`.  The host counts are small
(mostly ``p < 32`` in the knee sweeps), where per-call numpy overhead would
cost more than the arithmetic it vectorises.

On a *homogeneous network* (every ``comm_factor`` entry equal, as in every
RC of the knee sweeps) one rule gives every host's data-ready time: a host
holding some of the task's parents is ready at ``max(latest local parent
finish, latest remote arrival from the other hosts' parents, 0)``; every
other host is ready at the latest remote arrival.  :meth:`best_finish_host`
then scans ``max(avail, ready) + comp / speed`` over the hosts with a
strict ``<``, which keeps the first index on ties as ``np.argmin`` does.
A *heterogeneous network* (multi-cluster platform RCs, ``p`` in the
hundreds) keeps a numpy path: each parent adds one length-``p`` arrival
row.  Both paths give the same floats as evaluating every (parent, host)
pair directly.

Operation counts (``Schedule.ops``) are *analytic*, reflecting the paper's
implementation complexity (e.g. MCP examines every host for every task:
``(indeg + 1) * p`` per task), not the shortcuts used here — see
:mod:`repro.scheduling.costmodel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro.observe as observe
from repro.dag.graph import DAG
from repro.resources.collection import ResourceCollection

__all__ = [
    "Schedule",
    "SchedulerError",
    "SchedulerState",
    "register_scheduler",
    "get_scheduler",
    "list_schedulers",
    "schedule_dag",
]


class SchedulerError(RuntimeError):
    """Raised for invalid scheduler inputs or internal inconsistencies."""


@dataclass
class Schedule:
    """Result of scheduling a DAG onto a resource collection.

    ``ops`` is the abstract operation count of the heuristic run (analytic
    model, see module docstring); ``makespan`` is the difference between the
    earliest task start and the latest task finish (§III.1.1).
    """

    heuristic: str
    host: np.ndarray
    start: np.ndarray
    finish: np.ndarray
    ops: float
    n_hosts: int

    @property
    def makespan(self) -> float:
        return float(self.finish.max() - self.start.min())

    def hosts_used(self) -> int:
        """Number of distinct hosts the schedule touches."""
        return int(np.unique(self.host).size)


class SchedulerState:
    """Mutable state threaded through a scheduling run.

    ``avail[h]`` is when host ``h`` frees up; ``host``/``start``/``finish``
    record each placed task (``-1``/NaN until placed).  All four are Python
    lists; ``ops`` accumulates the analytic operation count.
    """

    def __init__(self, dag: DAG, rc: ResourceCollection) -> None:
        self.dag = dag
        self.rc = rc
        plan = dag.plan
        self._comp = plan.comp
        self._parents = plan.parents
        self._speed = rc.speed.tolist()
        self.avail = [0.0] * rc.n_hosts
        self.host = [-1] * dag.n
        self.start = [math.nan] * dag.n
        self.finish = [math.nan] * dag.n
        self.ops = 0.0
        comm = rc.comm_factor
        if bool(np.all(comm == comm.flat[0])):
            self._net: float | None = float(comm.flat[0])
        else:
            self._net = None
            self._cluster = rc.cluster.tolist()
            self._comm = comm.tolist()

    # ------------------------------------------------------------------
    def _homog_ready(self, v: int) -> tuple[float, int, float]:
        """Data-ready times of ``v`` on a homogeneous network.

        Returns ``(remote, h1, ready1)``: host ``h1`` is ready at
        ``ready1`` and every other host at ``remote``, the latest remote
        arrival.  The rule gives a host holding some of the parents
        ``max(latest local finish, latest arrival from the other hosts'
        parents, 0)``; for every such host except the one holding the
        latest arrival that is ``remote`` itself, since a parent's local
        finish never exceeds its remote arrival.
        """
        parents = self._parents[v]
        if not parents:
            return 0.0, -1, 0.0
        finish, host, net = self.finish, self.host, self._net
        arrivals = [finish[u] + w * net for u, w in parents]
        remote = max(arrivals)
        h1 = host[parents[arrivals.index(remote)][0]]
        local = other = -math.inf
        for (u, _), r in zip(parents, arrivals):
            if host[u] == h1:
                if finish[u] > local:
                    local = finish[u]
            elif r > other:
                other = r
        return remote, h1, max(local, other, 0.0)

    def _ready_array(self, v: int) -> np.ndarray:
        """Data-ready times of ``v`` on every host of a heterogeneous network."""
        rc = self.rc
        ready = np.zeros(rc.n_hosts, dtype=np.float64)
        finish, host, cluster = self.finish, self.host, self._cluster
        for u, w in self._parents[v]:
            hu = host[u]
            contrib = finish[u] + w * rc.comm_factor[cluster[hu]][rc.cluster]
            contrib[hu] = finish[u]
            np.maximum(ready, contrib, out=ready)
        return ready

    def data_ready_all_hosts(self, v: int) -> np.ndarray:
        """Earliest time task ``v``'s inputs are present on each host."""
        if self._net is None:
            return self._ready_array(v)
        remote, h1, ready1 = self._homog_ready(v)
        ready = np.full(self.rc.n_hosts, remote)
        if h1 >= 0:
            ready[h1] = ready1
        return ready

    def data_ready_on_host(self, v: int, h: int) -> float:
        """Earliest time task ``v``'s inputs are present on host ``h``."""
        if self._net is not None:
            remote, h1, ready1 = self._homog_ready(v)
            return ready1 if h == h1 else remote
        finish, host, cluster = self.finish, self.host, self._cluster
        to_h = [row[cluster[h]] for row in self._comm]
        t = 0.0
        for u, w in self._parents[v]:
            hu = host[u]
            arrival = finish[u] if hu == h else finish[u] + w * to_h[cluster[hu]]
            if arrival > t:
                t = arrival
        return t

    def place(self, v: int, h: int, start: float) -> None:
        """Commit task ``v`` to host ``h`` at ``start`` (non-preemptive)."""
        end = start + self._comp[v] / self._speed[h]
        self.host[v] = h
        self.start[v] = start
        self.finish[v] = end
        self.avail[h] = end

    def best_finish_host(self, v: int) -> tuple[int, float]:
        """Host minimising the finish time of ``v`` (MCP's rule); returns
        ``(host, start)``, the first host on ties."""
        c = self._comp[v]
        avail = self.avail
        if self._net is None:
            start = np.maximum(self._ready_array(v), avail)
            fin = start + c / self.rc.speed
            h = int(fin.argmin())
            return h, float(start[h])
        remote, h1, ready1 = self._homog_ready(v)
        fin = [(a if a > remote else remote) + c / s for a, s in zip(avail, self._speed)]
        if h1 >= 0:
            a = avail[h1]
            fin[h1] = (a if a > ready1 else ready1) + c / self._speed[h1]
        h = fin.index(min(fin))
        a, r = avail[h], (ready1 if h == h1 else remote)
        return h, (a if a > r else r)

    def best_start_host(self, v: int) -> tuple[int, float]:
        """Host minimising the start time of ``v`` (greedy's rule)."""
        start = np.maximum(self.data_ready_all_hosts(v), self.avail)
        h = int(start.argmin())
        return h, float(start[h])

    def result(self, heuristic: str) -> Schedule:
        """Freeze the state into a :class:`Schedule`."""
        if min(self.host) < 0:  # pragma: no cover - defensive
            raise SchedulerError("not all tasks were scheduled")
        return Schedule(
            heuristic=heuristic,
            host=np.array(self.host, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            finish=np.array(self.finish, dtype=np.float64),
            # The count has always been a numpy float; keep its type.
            ops=np.float64(self.ops),
            n_hosts=self.rc.n_hosts,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
SchedulerFn = Callable[..., Schedule]
_REGISTRY: dict[str, SchedulerFn] = {}


def register_scheduler(name: str) -> Callable[[SchedulerFn], SchedulerFn]:
    """Decorator registering a scheduler under ``name``."""
    def deco(fn: SchedulerFn) -> SchedulerFn:
        if name in _REGISTRY:
            raise ValueError(f"scheduler {name!r} already registered")
        _REGISTRY[name] = fn
        return fn

    return deco


def get_scheduler(name: str) -> SchedulerFn:
    """Look up a scheduler by name (``mcp``, ``greedy``, ``fcfs``, ``fca``,
    ``dls``, ``minmin``, ``random``)."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SchedulerError(
            f"unknown scheduler {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_schedulers() -> list[str]:
    """Names of every registered scheduler."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def schedule_dag(name: str, dag: DAG, rc: ResourceCollection, **kwargs) -> Schedule:
    """Schedule ``dag`` on ``rc`` with the named heuristic.

    Every run is metered (:mod:`repro.observe`): one ``schedule_dag`` span
    plus ``scheduler.runs`` / ``scheduler.tasks_scheduled`` counters and a
    per-heuristic run counter.
    """
    fn = get_scheduler(name)
    with observe.span("schedule_dag"):
        schedule = fn(dag, rc, **kwargs)
    observe.inc("scheduler.runs")
    observe.inc(f"scheduler.runs.{name}")
    observe.inc("scheduler.tasks_scheduled", dag.n)
    return schedule


def _ensure_loaded() -> None:
    # Import the heuristic modules for their registration side effects.
    from repro.scheduling import heuristics  # noqa: F401


def log2ceil(x: float) -> float:
    """log2 bounded below by 1, used in the analytic op counts."""
    return max(1.0, math.log2(max(2.0, x)))
