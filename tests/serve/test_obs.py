"""Serving observability: per-query spans, events, metrics."""

import asyncio

import repro.obs.tracer as tracer_module
from repro.graphs import Graph
from repro.obs import Tracer, override
from repro.obs.events import validate_record
from repro.serve import ServeConfig
from repro.serve.server import QueryService
from repro.workloads import chung_lu


def serve_one_query_traced():
    service = QueryService(ServeConfig(port=0))
    service.registry.register(
        "g", Graph(chung_lu(400, 2500, seed=3), name="g")
    )
    tracer = Tracer(label="serve-test")
    with override(tracer):
        try:
            response = asyncio.run(
                service.handle(
                    {"id": 1, "op": "query", "graph": "g",
                     "algorithm": "bfs", "source": 2}
                )
            )
        finally:
            service.close()
    assert response["ok"]
    return tracer, response


class TestServeTracing:
    def test_query_emits_span_event_and_metrics(self):
        tracer, response = serve_one_query_traced()
        spans = [
            r for r in tracer.records
            if r.get("type") == "span" and r.get("name") == "serve.query"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["graph"] == "g"
        assert spans[0]["attrs"]["cache_hit"] is False
        events = [
            r for r in tracer.records
            if r.get("type") == "event" and r.get("event") == "serve_query"
        ]
        assert len(events) == 1
        event = events[0]
        assert event["algorithm"] == "bfs"
        assert event["coalesced_width"] == 1
        assert event["latency_s"] > 0
        # The serve_query record satisfies the schema validator.
        assert validate_record(event) == []
        assert "serve.latency_s" in tracer.metrics.observations
        assert "serve.queue_depth" in tracer.metrics.observations
        assert "serve.coalesce_width" in tracer.metrics.observations

    def test_latency_never_reaches_cycle_records(self):
        """Serving wall-clock stays in obs; modelled cycles in the
        response equal the tracer-free direct run's cycles."""
        from repro.graphs import bfs

        tracer, response = serve_one_query_traced()
        graph = Graph(chung_lu(400, 2500, seed=3), name="g")
        direct = bfs(graph, 2)
        assert response["result"]["cycles"] == direct.log.total_cycles


class TestSpanNesting:
    def test_driver_spans_nest_under_their_own_query(self):
        """Concurrent queries on two graphs run their drivers on the
        executor's two threads; each driver span's parent chain reaches
        the query that ran it (or a root), never another query."""
        service = QueryService(ServeConfig(port=0, concurrency=4))
        for i in range(2):
            name = f"g{i}"
            service.registry.register(
                name, Graph(chung_lu(400, 2500, seed=3 + i), name=name)
            )
        requests = [
            {"id": j, "op": "query", "graph": f"g{j % 2}",
             "algorithm": ("bfs", "sssp", "pagerank")[j % 3],
             "source": j % 7}
            for j in range(12)
        ]
        for r in requests:
            if r["algorithm"] == "pagerank":
                del r["source"]

        async def burst():
            return await asyncio.gather(*(service.handle(r) for r in requests))

        tracer = Tracer(label="serve-nesting")
        with override(tracer):
            try:
                responses = asyncio.run(burst())
            finally:
                service.close()
        assert all(r["ok"] for r in responses)
        spans = {s["id"]: s for s in tracer.span_records()}
        drivers = [s for s in spans.values() if s["name"].startswith("algorithm.")]
        assert drivers
        for driver in drivers:
            parent = driver["parent"]
            while parent is not None and spans[parent]["name"] != "serve.query":
                parent = spans[parent]["parent"]
            if parent is None:
                continue
            query = spans[parent]["attrs"]
            assert query["graph"] == driver["attrs"]["graph"]
            if "source" in driver["attrs"]:
                assert query["source"] == driver["attrs"]["source"]
        assert tracer_module._OPEN_SPAN.get() is None
