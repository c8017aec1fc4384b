"""Measurement loop: set-up, timed window, output verification, tracing.

:func:`measure` runs one workload and returns the result object that
``run.py`` prints.  Untraced (``trace=False``) it reports the end-to-end
metrics, with every time rescaled to one host speed by
:class:`reference.HostReference`; traced it reports the per-layer metrics
from :class:`tracer.LayerTracer`, plus the tracing overhead: untraced and
traced cycles alternate inside one window, so host drift cancels out.

Every op's result is digested.  An op fails when it raises, reports a
problem (an unfulfilled request or tenant), gives a digest different from
an earlier op on the same input, or differs from the stored reference
digest for its input.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any

from reference import HostReference, Sampler, slowness
from tracer import LayerTracer
from workloads import DATA, WORKLOADS

REFERENCE_PATH = DATA / "reference.json"

#: An untraced run sets up at least this many times and for at least
#: SETUP_MIN_S seconds; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
#: p90 is printed only with at least this many ops beyond it.
TAIL_MIN_BEYOND = 10

END_TO_END = (
    ("norm_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("scheduling.calls", "count"),
    ("scheduling.tasks", "count"),
    ("scheduling.self_s", "s"),
    ("scheduling.us_per_task", "us"),
    ("knee.sweeps", "count"),
    ("knee.points", "count"),
    ("knee.self_s", "s"),
    ("size_model.fit_s", "s"),
    ("alternatives.calls", "count"),
    ("alternatives.offered", "count"),
    ("alternatives.tried", "count"),
    ("alternatives.self_s", "s"),
    ("alternatives.total_s", "s"),
    ("alternatives.used_frac", "frac"),
    ("generator.calls", "count"),
    ("generator.self_s", "s"),
    ("analysis.calls", "count"),
    ("analysis.self_s", "s"),
    ("dag.characteristics_s", "s"),
    ("selection.calls", "count"),
    ("selection.hit_frac", "frac"),
    ("selection.self_s", "s"),
    ("resources.churn_builds", "count"),
    ("resources.churn_s", "s"),
    ("resources.bind_calls", "count"),
    ("resources.bind_conflicts", "count"),
    ("resources.bind_s", "s"),
    ("pipeline.runs", "count"),
    ("pipeline.self_s", "s"),
    ("pipeline.refusals", "count"),
    ("pipeline.respecifications", "count"),
    ("service.runs", "count"),
    ("service.self_s", "s"),
    ("journal.appends", "count"),
    ("journal.bytes", "B"),
    ("journal.self_s", "s"),
    ("durability.writes", "count"),
    ("durability.self_s", "s"),
    ("unattributed.self_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_frac", "frac"),
)


def digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON rendering of an op's result."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict[str, dict[str, str]]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Verifier:
    """Digest checks shared by every op of one run."""

    def __init__(self, workload: str, reference: dict[str, dict[str, str]]) -> None:
        self.expected = dict(reference.get(workload, {}))
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, key: Any, payload: Any, problem: str | None) -> None:
        self.attempted += 1
        d = digest(payload)
        k = str(key)
        if k not in self.seen:
            self.seen[k] = d
        if problem is None and d != self.seen[k]:
            problem = f"digest {d[:12]} differs from an earlier op on the same input"
        ref = self.expected.get(k)
        if problem is None and ref is not None and d != ref:
            problem = f"digest {d[:12]} differs from the reference {ref[:12]}"
        if problem is not None:
            self.fail(key, problem)

    def fail(self, key: Any, problem: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"op on input {key} failed: {problem}", file=sys.stderr)


def _run_op(wl, key, verifier: Verifier, clock=time.perf_counter) -> float:
    """One verified op; returns its time (seconds) on ``clock``."""
    t0 = clock()
    try:
        payload, problem = wl.run(key)
    except Exception:
        elapsed = clock() - t0
        verifier.attempted += 1
        verifier.fail(key, traceback.format_exc(limit=3).strip().splitlines()[-1])
        return elapsed
    elapsed = clock() - t0
    verifier.check(key, payload, problem)
    return elapsed


def _cycle(wl, verifier: Verifier) -> tuple[list[float], float]:
    """One pass over ``wl.keys``; returns ``(latencies, elapsed)``."""
    start = time.perf_counter()
    latencies = [_run_op(wl, key, verifier) for key in wl.keys]
    return latencies, time.perf_counter() - start


def _window(wl, seconds: float, verifier: Verifier, sampler: Sampler):
    """Closed loop over whole cycles of ``wl.keys`` for at least
    ``seconds``; returns ``(latencies, host slowness over the window)``."""
    gc.collect()
    sampler.take()
    latencies: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not latencies:
        latencies += [_run_op(wl, key, verifier, sampler.clock) for key in wl.keys]
    return latencies, sampler.take()


def _traced_window(wl, seconds: float, verifier: Verifier, tracer: LayerTracer):
    """Alternate untraced and traced cycles for at least ``seconds``,
    installing the tracer for each traced cycle only, and end on a traced
    one.  Returns ``(untraced ops/s, traced ops/s, traced latencies)``."""
    gc.collect()
    plain: list[float] = []
    traced: list[float] = []
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced or len(plain) > len(traced):
        if len(plain) <= len(traced):
            latencies, elapsed = _cycle(wl, verifier)
            plain += latencies
            plain_s += elapsed
            continue
        tracer.install()
        try:
            latencies, elapsed = _cycle(wl, verifier)
        finally:
            tracer.restore()
        traced += latencies
        traced_s += elapsed
    return len(plain) / plain_s, len(traced) / traced_s, traced


def _set_up(cls, seed: int, workdir: Path, verifier: Verifier,
            clock=time.perf_counter) -> tuple[Any, float]:
    """Build a workload's inputs and run one warm-up op; returns the
    workload and the set-up time on ``clock``."""
    t0 = clock()
    wl = cls(seed, workdir)
    _run_op(wl, wl.keys[0], verifier, clock)
    return wl, clock() - t0


def end_to_end(latencies: list[float], window_slowness: float,
               setups: list[float], setup_slowness: float) -> dict[str, float]:
    """``latencies`` and ``window_slowness`` from :func:`_window`; the
    set-up times and the slowness sampled while they ran."""
    return {
        "norm_ops_per_s": len(latencies) * window_slowness / sum(latencies),
        "setup_s": statistics.median(setups) / setup_slowness,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def latency_percentiles(workload: str, latencies: list[float]) -> str | None:
    """p50/p90 diagnostic line, for runs with at least TAIL_MIN_BEYOND ops
    beyond p90.  Not a gated metric: on a host that switches between speed
    states both percentiles jump with the mix of states (see NOTES.md)."""
    n = len(latencies)
    if n * 0.1 < TAIL_MIN_BEYOND:
        return None
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return (f"{workload}: latency p50 {deciles[4] * 1e3:.2f} ms, "
            f"p90 {deciles[8] * 1e3:.2f} ms over {n} ops (diagnostic only)")


def per_layer(tracer: LayerTracer, latencies: list[float], untraced_ops_per_s: float,
              traced_ops_per_s: float) -> dict[str, float]:
    n = len(latencies)
    c, t = tracer.counts, tracer.self_s
    values: dict[str, float] = {}
    for name, unit in PER_LAYER:
        # Derived values (ratios, inclusive and op times) are set below.
        source = c if unit in ("count", "B") else t
        values[name] = source.get(name, 0) / n
    tasks = c.get("scheduling.tasks", 0)
    if tasks:
        values["scheduling.us_per_task"] = t.get("scheduling.self_s", 0.0) / tasks * 1e6
    offered = c.get("alternatives.offered", 0)
    if offered:
        values["alternatives.used_frac"] = c.get("alternatives.tried", 0) / offered
    calls = c.get("selection.calls", 0)
    if calls:
        values["selection.hit_frac"] = c.get("selection.hits", 0) / calls
    # Inclusive: the alternatives' own knee sweeps and scheduler runs.
    values["alternatives.total_s"] = tracer.total_s.get("alternatives.self_s", 0.0) / n
    values["trace.op_s"] = sum(latencies) / n
    values["unattributed.self_s"] = (sum(latencies) - tracer.covered_s) / n
    values["trace.overhead_frac"] = untraced_ops_per_s / traced_ops_per_s - 1.0
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict[str, dict[str, str]] | None = None,
            setup_repeats: int = SETUP_REPEATS,
            setup_min_s: float = SETUP_MIN_S) -> dict[str, Any]:
    """Run one workload; return ``{correct, attempted, failed, metrics}``."""
    cls = WORKLOADS[workload]
    verifier = Verifier(workload, load_reference() if reference is None else reference)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=Path(__file__).resolve().parent))
    ref = HostReference()
    slowness_start = slowness(*ref.sample(0.5))
    try:
        if not trace:
            setups: list[float] = []
            with Sampler(ref) as sampler:
                while len(setups) < setup_repeats or sum(setups) < setup_min_s:
                    wl, setup_s = _set_up(cls, seed, workdir, verifier, sampler.clock)
                    setups.append(setup_s)
                setup_slowness = sampler.take()
                latencies, window_slowness = _window(wl, seconds, verifier, sampler)
            values = end_to_end(latencies, window_slowness, setups, setup_slowness)
            units = dict(END_TO_END)
            print(f"{workload}: {len(latencies)} ops, {len(latencies) / sum(latencies):.4g} "
                  f"ops/s at the host's own speed, slowness {window_slowness:.3f} "
                  f"(diagnostic only)", file=sys.stderr)
            diagnostic = latency_percentiles(workload, latencies)
            if diagnostic is not None:
                print(diagnostic, file=sys.stderr)
        else:
            wl, _ = _set_up(cls, seed, workdir, verifier)
            tracer = LayerTracer()
            plain_rate, traced_rate, traced = _traced_window(wl, seconds, verifier, tracer)
            values = per_layer(tracer, traced, plain_rate, traced_rate)
            units = dict(PER_LAYER)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    slowness_end = slowness(*ref.sample(0.5))
    print(f"{workload}: host slowness {slowness_start:.3f} at start, "
          f"{slowness_end:.3f} at end (diagnostic only)", file=sys.stderr)
    return {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
