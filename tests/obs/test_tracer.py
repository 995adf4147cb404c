"""Tracer core: null object, installation, nesting, counters, metrics."""

import asyncio
import threading
import time

import pytest

import repro.obs.tracer as tracer_module

from repro.obs import (
    MetricsRegistry,
    NullTracer,
    Tracer,
    WarningEvent,
    active,
    enabled,
    install,
    override,
    traced,
)
from repro.obs.tracer import _NULL_SPAN
from repro.perf import counters


class TestNullObject:
    def test_active_defaults_to_null(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        install(None)
        tracer = active()
        assert not tracer.enabled
        assert not enabled()

    def test_null_span_is_shared_and_inert(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        install(None)
        tracer = active()
        span = tracer.span("anything", foo=1)
        assert span is _NULL_SPAN
        with span as s:
            s.set(bar=2)  # must be a silent no-op
        tracer.event(WarningEvent(source="test", message="ignored"))

    def test_null_metrics_keeps_nothing(self):
        tracer = NullTracer()
        tracer.metrics.inc("x")
        assert tracer.metrics.snapshot()["counters"] == {}


class TestInstallation:
    def test_override_wins_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        install(None)
        tracer = Tracer(label="scoped")
        with override(tracer) as installed:
            assert installed is tracer
            assert active() is tracer
            assert enabled()
        assert not active().enabled

    def test_env_var_enables(self, monkeypatch):
        install(None)
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert active().enabled
        assert active() is active()  # one lazy global instance

    def test_env_var_falsey_values(self, monkeypatch):
        for value in ("", "0", "false", "off", "no", "FALSE"):
            monkeypatch.setenv("REPRO_TRACE", value)
            install(None)  # re-reads the environment
            assert not active().enabled

    def test_install_null_forces_off_despite_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        forced = NullTracer()
        with override(forced):
            assert active() is forced
            assert not enabled()


class TestSpans:
    def test_nesting_records_parents(self):
        tracer = Tracer()
        with override(tracer):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    assert inner.parent_id == outer.span_id
        spans = {s["name"]: s for s in tracer.span_records()}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        # completion order: inner closes first
        assert [s["name"] for s in tracer.span_records()] == ["inner", "outer"]

    def test_span_times_and_attrs(self):
        tracer = Tracer()
        with tracer.span("t", mode="SC") as sp:
            sp.set(cycles=123.0)
        (rec,) = tracer.span_records()
        assert rec["dur_s"] >= 0.0
        assert rec["start_s"] >= 0.0
        assert rec["attrs"] == {"mode": "SC", "cycles": 123.0}

    def test_counter_deltas_are_recorded(self):
        tracer = Tracer()
        with tracer.span("work"):
            counters.kernel_executions += 2
            counters.kernel_probe_discarded += 1
        counters.kernel_executions -= 2
        counters.kernel_probe_discarded -= 1
        (rec,) = tracer.span_records()
        assert rec["counters"] == {
            "kernel_executions": 2,
            "kernel_probe_discarded": 1,
        }

    def test_exception_marks_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (rec,) = tracer.span_records()
        assert rec["error"] == "ValueError"

    def test_adopt_nests_foreign_records(self):
        worker = Tracer(label="worker")
        with worker.span("task"):
            with worker.span("kernel"):
                pass
            worker.event(WarningEvent(source="w", message="m"))
        tracer = Tracer()
        with tracer.span("before"):
            pass
        with tracer.span("sweep") as sweep:
            tracer.adopt(worker.records, worker.epoch_s, pid=4321)
        with tracer.span("after"):
            pass
        spans = tracer.span_records()
        ids = [s["id"] for s in spans]
        assert len(ids) == len(set(ids))
        adopted = {s["name"]: s for s in spans if "pid" in s["attrs"]}
        assert set(adopted) == {"task", "kernel"}
        assert min(s["id"] for s in adopted.values()) > sweep.span_id
        assert adopted["task"]["parent"] == sweep.span_id
        assert adopted["kernel"]["parent"] == adopted["task"]["id"]
        assert all(s["attrs"]["pid"] == 4321 for s in adopted.values())
        shift = worker.epoch_s - tracer.epoch_s
        (worker_event,) = worker.event_records("warning")
        (event,) = tracer.event_records("warning")
        assert event["t_s"] == worker_event["t_s"] + shift
        by_name = {s["name"]: s for s in worker.span_records()}
        for name, span in adopted.items():
            assert span["start_s"] == by_name[name]["start_s"] + shift

    def test_jsonable_attr_coercion(self):
        from repro.hardware import HWMode

        tracer = Tracer()
        with tracer.span("t", mode=HWMode.SCS, cols=(1, 2)):
            pass
        (rec,) = tracer.span_records()
        assert rec["attrs"] == {"mode": "SCS", "cols": [1, 2]}


def assert_pairs_nest(tracer, tags, pairs):
    """Every ``inner.<tag>`` span sits under an ``outer.<tag>`` span, and
    every outer span is a root."""
    spans = {s["id"]: s for s in tracer.span_records()}
    assert len(spans) == 2 * pairs * len(tags)
    wrong = 0
    for span in spans.values():
        kind, tag = span["name"].split(".")
        if kind == "outer":
            wrong += span["parent"] is not None
        else:
            wrong += spans[span["parent"]]["name"] != f"outer.{tag}"
    assert wrong == 0


class TestConcurrentNesting:
    """Each thread and each asyncio task nests its own spans."""

    def test_threads(self):
        tracer = Tracer()
        still_open = []

        def work(tag):
            for _ in range(200):
                with tracer.span(f"outer.{tag}"):
                    time.sleep(0)
                    with tracer.span(f"inner.{tag}"):
                        time.sleep(0)
            still_open.append(tracer_module._OPEN_SPAN.get())

        threads = [threading.Thread(target=work, args=(t,)) for t in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert_pairs_nest(tracer, "ab", 200)
        assert still_open == [None, None]
        assert tracer_module._OPEN_SPAN.get() is None

    def test_asyncio_tasks(self):
        tracer = Tracer()

        async def work(tag):
            for _ in range(50):
                with tracer.span(f"outer.{tag}"):
                    await asyncio.sleep(0)
                    with tracer.span(f"inner.{tag}"):
                        await asyncio.sleep(0)

        async def both():
            await asyncio.gather(work("a"), work("b"))

        asyncio.run(both())
        assert_pairs_nest(tracer, "ab", 50)
        assert tracer_module._OPEN_SPAN.get() is None


class TestTracedDecorator:
    def test_off_forwards_directly(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        install(None)

        @traced("test.fn", capture=("mode",))
        def fn(x, mode=None):
            return x + 1

        assert fn(1, mode="SC") == 2

    def test_on_wraps_in_span_with_captured_kwargs(self):
        @traced("test.fn", capture=("mode",))
        def fn(x, mode=None):
            return x + 1

        tracer = Tracer()
        with override(tracer):
            assert fn(1, mode="SC") == 2
        (rec,) = tracer.span_records()
        assert rec["name"] == "test.fn"
        assert rec["attrs"] == {"mode": "SC"}

    def test_preserves_function_name(self):
        @traced("test.fn")
        def my_kernel():
            pass

        assert my_kernel.__name__ == "my_kernel"


class TestMetrics:
    def test_inc_and_observe(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 2)
        reg.observe("lat", 0.5)
        reg.observe("lat", 1.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"hits": 3.0}
        obs = snap["observations"]["lat"]
        assert obs["count"] == 2
        assert obs["total"] == 2.0
        assert obs["min"] == 0.5
        assert obs["max"] == 1.5
