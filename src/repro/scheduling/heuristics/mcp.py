"""Modified Critical Path (MCP) — Fig. IV-2 / Fig. V-12.

1. ``CP`` = longest path (node + edge weights) through the DAG.
2. ``ALAP_i = CP - BL_i`` where ``BL_i`` is the bottom level of node *i*
   (longest path from *i* to an exit node, inclusive).
3. Nodes are processed in ascending ALAP order.  The paper orders ties by
   the lexicographically smallest list of descendant ALAP values; we use the
   standard O(n log n) simplification — smallest child ALAP, then node id —
   and process nodes through a ready-queue so the order is always
   topologically valid even with zero-cost tasks (see DESIGN.md,
   "Documented algorithmic reconstructions").  The order depends on the
   DAG alone, so it is computed once per DAG (``DAG.plan.alap_order``) and
   reused by every run of a knee sweep.
4. Each node goes to the host that *completes* its execution soonest,
   accounting for data arrival from every parent (end-of-queue insertion).

Analytic cost (``Schedule.ops``): computing BL touches every edge; sorting
is ``n log n``; the host-selection loop examines every host for every node,
with every in-edge contributing — ``sum_v (indeg(v) + 1) * p``.  This is the
term that makes MCP expensive on large resource universes (Fig. IV-5) and
that grows the scheduling time with RC size (Fig. V-3).
"""

from __future__ import annotations

from repro.dag.graph import DAG
from repro.resources.collection import ResourceCollection
from repro.scheduling.base import Schedule, SchedulerState, log2ceil, register_scheduler

__all__ = ["schedule_mcp"]


@register_scheduler("mcp")
def schedule_mcp(dag: DAG, rc: ResourceCollection) -> Schedule:
    """Schedule ``dag`` on ``rc`` with MCP."""
    state = SchedulerState(dag, rc)
    p = rc.n_hosts
    plan = dag.plan  # the ALAP order does not depend on the RC
    state.ops += dag.m + dag.n * log2ceil(dag.n)
    for v in plan.alap_order:
        h, start = state.best_finish_host(v)
        state.place(v, h, start)
        state.ops += (plan.in_degree[v] + 1) * p
    return state.result("mcp")
