"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402,F401  (pins threads and puts src/ on sys.path)

import harness  # noqa: E402
import reference  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _short(workload: str, trace: bool, **kwargs) -> dict:
    # One cycle of ops, one set-up: the smallest complete run.
    return harness.measure(workload, 0, 1e-3, trace, setup_repeats=1, setup_min_s=0.0, **kwargs)


def test_declared_metrics_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _declared("end_to_end") == dict(harness.END_TO_END)
    assert _declared("per_layer") == dict(harness.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_reports_every_metric_with_its_unit(workload):
    before = _bindings()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = _short(workload, trace)
        # A traced run installs and restores the tracer around each traced cycle.
        assert all(value is before[k] for k, value in _bindings().items())
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 2
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(kind)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if not trace:
            assert all(v > 0 for v in values.values())
            continue
        # Layer self times plus the unattributed rest make up the op time.
        self_times = sum(v for k, v in values.items()
                         if k.endswith("_s") and k not in ("trace.op_s", "alternatives.total_s"))
        assert self_times == pytest.approx(values["trace.op_s"], rel=1e-6)
        if workload == "select":
            assert values["alternatives.calls"] == 0
            assert values["scheduling.calls"] >= 2  # execute plus the hidden baseline
        else:
            largest = max((k for k in values if k.endswith(".self_s")), key=values.get)
            assert largest == "scheduling.self_s"


def test_perturbed_reference_digest_counts_as_failed_ops():
    reference = harness.load_reference()
    key = next(iter(reference["select"]))
    bad = dict(reference, select=dict(reference["select"], **{key: "0" * 64}))
    result = _short("select", False, reference=bad)
    assert not result["correct"]
    # One full cycle visits every churn seed once, plus the warm-up op.
    assert 1 <= result["failed"] <= 2
    assert _short("select", False)["failed"] == 0


def test_reference_counts_only_the_main_threads_cpu_time():
    # A busy thread holds the interpreter lock about half the time; the
    # reference's CPU time must leave that half out, or work the program
    # does in the background would inflate the slowness.
    ref = reference.HostReference()
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    busy = threading.Thread(target=spin)
    busy.start()
    try:
        t0 = time.perf_counter()
        cpu_s, reps = ref.sample(0.5)
        wall_s = time.perf_counter() - t0
    finally:
        stop.set()
        busy.join(timeout=10)
    assert not busy.is_alive()
    assert reps >= 1
    assert cpu_s < 0.8 * wall_s


def test_sampler_samples_inside_a_long_op_and_stops_its_clock():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler(reference.HostReference()) as sampler:
        c0, w0 = sampler.clock(), time.perf_counter()
        while time.perf_counter() - w0 < 2.6 * reference.PERIOD_S:
            sum(range(1000))
        paused_s = (time.perf_counter() - w0) - (sampler.clock() - c0)
        assert sampler.take() > 0
    # Two samples fired inside the "op"; its clock left both out.
    assert paused_s >= 2 * reference.SHARE * reference.PERIOD_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _bindings() -> dict:
    """Every module attribute and class attribute the tracer targets."""
    found = {}
    for module_name, qualname, *_ in tracer_mod.TARGETS:
        module = importlib.import_module(module_name)
        *owner_path, attr = qualname.split(".")
        if owner_path:
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            found[(module_name, qualname)] = owner.__dict__[attr]
            continue
        original = getattr(module, attr)
        found[(module_name, qualname)] = original
        for mod in list(sys.modules.values()):
            for name, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    found[(mod.__name__, name)] = value
    return found


def test_tracer_restores_originals_and_keeps_outputs_identical(tmp_path):
    from repro import service
    from repro.selection import pipeline

    before = _bindings()
    plain = {}
    for name, cls in WORKLOADS.items():
        wl = cls(0, tmp_path)
        plain[name] = harness.digest(wl.run(wl.keys[0])[0])
    with tracer_mod.LayerTracer() as t:
        # Import-by-name sites are rebound too.
        assert pipeline.schedule_dag is not before[("repro.scheduling.base", "schedule_dag")]
        assert service.select_once is not before[("repro.selection.pipeline", "select_once")]
        for name, cls in WORKLOADS.items():
            wl = cls(0, tmp_path)
            assert harness.digest(wl.run(wl.keys[0])[0]) == plain[name], name
    assert t.counts["scheduling.calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_run_py_prints_the_result_as_its_last_line():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "select", "--seconds", "0.001",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_run_py_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
