"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps one public function per layer boundary and
records a span around every call: wall time, the time covered by nested
spans (so a layer's *self* time excludes the layers it calls), and a few
counts taken from the call's arguments and result.  The program itself is
not modified: the wrappers are installed by rebinding every attribute in
``sys.modules`` that holds the original function object (matched by
identity), which also catches import-by-name sites such as
``from repro.scheduling.base import schedule_dag``.  Methods are wrapped on
their class.  :meth:`LayerTracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from repro.selection.pipeline import PipelineConfig

Hook = Callable[[dict, tuple, dict, Any, BaseException | None, Any], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_schedule(c, args, kwargs, result, exc, _):
    c["scheduling.calls"] += 1
    c["scheduling.tasks"] += _arg(args, kwargs, 1, "dag").n


def _count_sweep(c, args, kwargs, result, exc, _):
    c["knee.sweeps"] += 1
    if result is not None:
        c["knee.points"] += len(result.sizes)


#: Both ladder builders (``SelectionPipeline._spec_ladder`` and
#: ``SelectionService._alternatives``) drop the alternatives equal to the
#: request and keep the first ``max_respecs``; the workloads use the
#: default configuration.
_MAX_RESPECS = PipelineConfig().max_respecs


def _count_alternatives(c, args, kwargs, result, exc, _):
    # ``offered`` counts the alternatives that reach the ladder, not the
    # raw list the function returns.
    c["alternatives.calls"] += 1
    if result is not None:
        spec = _arg(args, kwargs, 1, "spec")
        request = (spec.size, spec.clock_min_mhz, spec.clock_max_mhz)
        distinct = sum((a.size, a.clock_min_mhz, a.clock_max_mhz) != request for a, _ in result)
        c["alternatives.offered"] += min(distinct, _MAX_RESPECS)


def _counter(name: str) -> Hook:
    def hook(c, args, kwargs, result, exc, _):
        c[name] += 1

    return hook


def _count_select(c, args, kwargs, result, exc, _):
    c["selection.calls"] += 1
    if result is not None and result[0] is not None:
        c["selection.hits"] += 1


def _count_bind(c, args, kwargs, result, exc, _):
    # ``bind`` raises BindingError on a conflict.
    c["resources.bind_calls"] += 1
    if exc is not None:
        c["resources.bind_conflicts"] += 1


def _count_try_bind(c, args, kwargs, result, exc, _):
    # ``try_bind`` returns the conflicting hosts; empty means bound.
    c["resources.bind_calls"] += 1
    if result:
        c["resources.bind_conflicts"] += 1


def _count_pipeline(c, args, kwargs, result, exc, _):
    c["pipeline.runs"] += 1
    if result is not None:
        c["pipeline.refusals"] += result.refusals
        c["pipeline.respecifications"] += result.respecifications
        c["alternatives.tried"] += result.respecifications


def _count_service(c, args, kwargs, result, exc, _):
    c["service.runs"] += 1
    if result is not None:
        c["alternatives.tried"] += sum(
            o.outcome.respecifications for o in result.outcomes if o.outcome is not None
        )


def _journal_position(args, kwargs):
    fh = args[0]._fh
    return None if fh is None else fh.tell()


def _count_journal(c, args, kwargs, result, exc, before):
    c["journal.appends"] += 1
    fh = args[0]._fh
    if before is not None and fh is not None:
        c["journal.bytes"] += fh.tell() - before


#: ``(module, qualified name, self-time bucket, count hook, pre-call probe)``
#: for every wrapped layer boundary.
TARGETS: tuple[tuple[str, str, str, Hook, Callable | None], ...] = (
    ("repro.scheduling.base", "schedule_dag", "scheduling.self_s", _count_schedule, None),
    ("repro.core.knee", "sweep_turnaround", "knee.self_s", _count_sweep, None),
    ("repro.core.size_model", "SizePredictionModel.fit", "size_model.fit_s",
     _counter("size_model.fits"), None),
    ("repro.core.alternatives", "alternative_specifications", "alternatives.self_s",
     _count_alternatives, None),
    ("repro.core.generator", "ResourceSpecificationGenerator.generate", "generator.self_s",
     _counter("generator.calls"), None),
    ("repro.analysis.spec", "analyze_specification", "analysis.self_s",
     _counter("analysis.calls"), None),
    ("repro.analysis.preflight", "preflight_specification", "analysis.self_s",
     _counter("analysis.calls"), None),
    ("repro.analysis.passes", "subsumes", "analysis.self_s", _counter("analysis.calls"), None),
    ("repro.dag.metrics", "characteristics", "dag.characteristics_s",
     _counter("dag.characteristics"), None),
    ("repro.selection.pipeline", "select_once", "selection.self_s", _count_select, None),
    ("repro.resources.churn", "ResourceChurn.from_config", "resources.churn_s",
     _counter("resources.churn_builds"), None),
    ("repro.resources.binding", "Binder.bind", "resources.bind_s", _count_bind, None),
    ("repro.resources.binding", "Binder.try_bind", "resources.bind_s", _count_try_bind, None),
    ("repro.selection.pipeline", "SelectionPipeline.run", "pipeline.self_s",
     _count_pipeline, None),
    ("repro.service", "SelectionService.run", "service.self_s", _count_service, None),
    ("repro.journal", "Journal.append", "journal.self_s", _count_journal, _journal_position),
    ("repro.durability", "atomic_write_bytes", "durability.self_s",
     _counter("durability.writes"), None),
)


class LayerTracer:
    """Span recorder over the layer functions in :data:`TARGETS`.

    Use as a context manager (install on entry, restore on exit).  Totals
    accumulate over every traced call; ``covered_s`` is the wall
    time spent inside outermost spans, so ``op wall - covered_s`` is the
    time no layer span accounts for.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        #: Inclusive (self + nested) time per bucket.
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        self._stack: list[list[float]] = []
        self._installed: list[tuple[Any, str, Any, Any]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, bucket: str, hook: Hook, probe: Callable | None) -> Callable:
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            before = probe(args, kwargs) if probe is not None else None
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[bucket] += dt - frame[0]
                total_s[bucket] += dt
                if stack:
                    stack[-1][0] += dt
                else:
                    self.covered_s += dt
                hook(counts, args, kwargs, result, exc, before)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap every target; idempotence is not supported (install once)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, qualname, bucket, hook, probe in TARGETS:
            module = importlib.import_module(module_name)
            *owner_path, attr = qualname.split(".")
            if owner_path:
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new: Any = classmethod(self._wrap(raw.__func__, bucket, hook, probe))
                else:
                    new = self._wrap(raw, bucket, hook, probe)
                setattr(owner, attr, new)
                self._installed.append((owner, attr, raw, new))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, bucket, hook, probe)
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for name, value in list(namespace.items()):
                    if value is original:
                        setattr(mod, name, wrapper)
            self._installed.append((None, attr, original, wrapper))

    def restore(self) -> None:
        """Put every original back, including in modules imported after
        :meth:`install` that picked up a wrapper by name."""
        wrappers = {id(new): original for owner, _, original, new in self._installed
                    if owner is None}
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                original = wrappers.get(id(value))
                if original is not None:
                    setattr(mod, name, original)
        for owner, attr, raw, _ in reversed(self._installed):
            if owner is not None:
                setattr(owner, attr, raw)
        self._installed.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
