"""Self-tests of the benchmark harness (outside the tier-1 suite).

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import asyncio
import inspect
import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUNS = ROOT / ".e2e_runs"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from layers import LayerTracer, Target  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import Window  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_NAMES = [m["name"] for m in SPEC["end_to_end"]]
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]


class ThreadClock:
    """A fake clock per thread: ``advance`` moves only the caller's."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "t", 0.0)

    def advance(self, dt: float) -> None:
        self._local.t = self() + dt


def test_nested_self_time():
    clock = ThreadClock()
    tracer = LayerTracer(clock)
    with tracer.span("outer"):
        clock.advance(1)
        with tracer.span("inner"):
            clock.advance(2)
            with tracer.span("leaf"):
                clock.advance(4)
        clock.advance(8)
        with tracer.span("inner"):
            clock.advance(16)
    assert dict(tracer.self_s) == {"outer": 9, "inner": 18, "leaf": 4}
    assert dict(tracer.total_s) == {"outer": 31, "inner": 22, "leaf": 4}
    assert dict(tracer.calls) == {"outer": 1, "inner": 2, "leaf": 1}
    name = threading.current_thread().name
    assert tracer.thread_wall[name] == 31
    assert tracer.thread_self[name] == 31
    assert tracer.thread_violations() == []


def test_two_threads_keep_separate_stacks():
    clock = ThreadClock()
    tracer = LayerTracer(clock)
    inside = threading.Event()
    done = threading.Event()

    def first():
        with tracer.span("a"):
            clock.advance(1)
            inside.set()
            assert done.wait(10)
            with tracer.span("b"):
                clock.advance(2)

    def second():
        assert inside.wait(10)
        with tracer.span("a"):
            clock.advance(5)
            with tracer.span("c"):
                clock.advance(3)
        done.set()

    threads = [
        threading.Thread(target=first, name="t1"),
        threading.Thread(target=second, name="t2"),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert dict(tracer.self_s) == {"a": 6, "b": 2, "c": 3}
    assert dict(tracer.thread_wall) == {"t1": 3, "t2": 8}
    assert dict(tracer.thread_self) == {"t1": 3, "t2": 8}
    assert tracer.thread_violations() == []


def test_violation_is_reported():
    tracer = LayerTracer(ThreadClock())
    tracer.thread_wall["t"] = 1.0
    tracer.thread_self["t"] = 2.0
    assert tracer.thread_violations() == [
        "thread t: self 2.000000 s > traced wall 1.000000 s"
    ]


def test_async_wrapper_records_inclusive_time_off_the_stack():
    async def slow(x):
        await asyncio.sleep(0.05)
        return x

    tracer = LayerTracer()
    wrapped = tracer.wrap(Target("svc", "m", "slow"), slow)
    assert inspect.iscoroutinefunction(wrapped)

    async def main():
        with tracer.span("outer"):
            return await asyncio.gather(wrapped(1), wrapped(2))

    assert asyncio.run(main()) == [1, 2]
    assert tracer.calls["svc"] == 2
    assert 0.09 <= tracer.total_s["svc"] < 1.0
    assert "svc" not in tracer.self_s
    # The overlapping coroutines never count as the sync span's children.
    assert tracer.self_s["outer"] == tracer.total_s["outer"]
    assert tracer.thread_violations() == []


def test_missing_targets_are_reported_absent():
    tracer = LayerTracer()
    original = json.dumps
    tracer.install(
        [
            Target("gone", "repro_no_such_module", "f"),
            Target("gone", "json", "no_such_function"),
            Target("gone", "json", "JSONDecoder.no_such_method"),
            Target("json", "json", "dumps", count=lambda r: ("chars", len(r))),
        ]
    )
    try:
        assert tracer.absent == [
            "repro_no_such_module:f",
            "json:no_such_function",
            "json:JSONDecoder.no_such_method",
        ]
        assert json.dumps([1]) == "[1]"
        tracer.enabled = False
        json.dumps([2])
    finally:
        tracer.uninstall()
    assert json.dumps is original
    assert tracer.calls["json"] == 1
    assert tracer.counts["chars"] == 3


def test_each_phase_takes_its_own_probe_scale():
    class FixedProbe:
        def __init__(self, factors):
            self.factors = iter(factors)

        def scale(self):
            return next(self.factors)

    window = Window(FixedProbe([2.0, 0.5, 1.0]))
    with window.phase("a"):
        time.sleep(0.02)
    with window.phase("b"):
        time.sleep(0.01)
    window.end_unit()
    a, b = window.phases["a"][0], window.phases["b"][0]
    assert window.wall_s[0] == pytest.approx(a / 2.0 + b / 0.5)
    assert window.unit_s[0] == pytest.approx(a + b)
    with window.phase("a"):
        pass
    window.end_unit()
    assert window.unit_s[1] == pytest.approx(window.wall_s[1])
    assert len(window.unit_s) == 2


def _run(*args, cwd=ROOT, timeout=170):
    """``run.py`` of the checkout at ``cwd``, run from there."""
    script = Path(cwd) / HERE.relative_to(ROOT) / "run.py"
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke():
    """``--smoke`` runs of every workload, untraced and traced."""
    RUNS.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(dir=RUNS)
    runs = {}
    try:
        for trace in (0, 1):
            t0 = time.monotonic()
            proc = _run(
                "--workload=all", "--smoke", f"--trace={trace}", f"--out={out}"
            )
            elapsed = time.monotonic() - t0
            assert proc.returncode == 0, proc.stderr[-2000:]
            records = {
                w: json.loads(
                    (Path(out) / f"{w}-seed0-trace{trace}.json").read_text()
                )
                for w in WORKLOADS
            }
            final = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[trace] = (elapsed, final, records)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return runs


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_smoke_all_workloads_under_a_minute(smoke):
    elapsed, final, records = smoke[0]
    assert elapsed < 60
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] == sum(r["attempted"] for r in records.values())


def test_emitted_names_match_benchmark_json(smoke):
    for trace, names in ((0, E2E_NAMES), (1, LAYER_NAMES)):
        _, final, records = smoke[trace]
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert list(final["metrics"]) == [
            f"{w}.{name}" for w in WORKLOADS for name in names
        ]
        for record in records.values():
            values = record["layers"] if trace else record["e2e"]
            assert sorted(values) == sorted(names)


def test_traced_run_reports_layers(smoke):
    _, final, records = smoke[1]
    assert final["correct"], [r["problems"] for r in records.values()]
    for workload, record in records.items():
        layers = record["layers"]
        assert record["absent"] == []
        assert sum(v for k, v in layers.items() if k.endswith("self_s")) > 0
        assert layers["modeled.cycles"] > 0, workload


def test_bare_directory_fails_without_a_result():
    RUNS.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=RUNS))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path,
                bare / path,
                ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
            )
        proc = _run("--workload=traverse", cwd=bare, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
