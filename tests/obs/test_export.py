"""End-to-end export tests: a traced run must round-trip bit-identically.

The central acceptance check: run BFS under the oracle policy with a
live tracer, export JSONL, parse it back, and the per-iteration
``(algorithm, hw_mode, density)`` sequence must equal the live
:class:`ReconfigurationLog` record for record — floats included.
"""

import json

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.core import CoSparseRuntime
from repro.errors import ConfigurationError, SimulationError
from repro.graphs import bfs, bfs_multi
from repro.obs import (
    SCHEMA_VERSION,
    Tracer,
    agreement,
    decision_sequence,
    diff,
    override,
    read_jsonl,
    summarize,
    validate_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.export import chrome_trace_events
from repro.perf import counters


def traced_bfs(graph, policy="oracle", label=None):
    tracer = Tracer(label=label or f"bfs-{policy}")
    with override(tracer):
        rt = CoSparseRuntime(graph.operand, "2x8", policy=policy)
        run = bfs(graph, 0, runtime=rt)
    return tracer, run


def live_sequence(log):
    return [
        (r.algorithm, r.hw_mode.label, r.vector_density) for r in log.records
    ]


class TestJsonlRoundTrip:
    @pytest.mark.parametrize("policy", ["oracle", "tree", "static"])
    def test_decision_sequence_bit_identical(
        self, small_graph, tmp_path, policy
    ):
        tracer, run = traced_bfs(small_graph, policy)
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, path)
        data = read_jsonl(path)
        assert decision_sequence(data) == live_sequence(run.log)

    def test_schema_validates_clean(self, small_graph, tmp_path):
        tracer, _ = traced_bfs(small_graph)
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, path)
        assert validate_file(path) == []

    def test_header_and_metrics_records(self, small_graph, tmp_path):
        tracer, _ = traced_bfs(small_graph, label="named-run")
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, path)
        data = read_jsonl(path)
        assert data.header["schema"] == SCHEMA_VERSION
        assert data.label == "named-run"
        assert "counters" in data.metrics

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "header", "schema": 99, "label": "x"}) + "\n"
        )
        with pytest.raises(ConfigurationError):
            read_jsonl(str(path))

    def test_validate_flags_missing_keys(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "event", "event": "decision", "t_s": 0.0})
            + "\n"
        )
        problems = validate_file(str(path))
        assert any("missing key" in p for p in problems)
        assert any("no header" in p for p in problems)


class TestDecisionAudit:
    def test_every_iteration_audited(self, small_graph):
        tracer, run = traced_bfs(small_graph, "oracle")
        decisions = tracer.event_records("decision")
        assert len(decisions) == len(run.log)
        for event, record in zip(decisions, run.log.records):
            assert event["iteration"] == record.iteration
            assert event["policy"] == "oracle"
            assert event["tree_algorithm"] in ("ip", "op")
            assert event["cvd"] is not None
            assert event["thresholds"]  # live DecisionThresholds as dict
            # the oracle prices the full Fig. 2 candidate set
            assert set(event["alternatives"]) >= {"IP/SC", "OP/PC"}
            for alt in event["alternatives"].values():
                assert alt["cycles"] > 0

    def test_alternatives_match_log(self, small_graph):
        tracer, run = traced_bfs(small_graph, "oracle")
        for event, record in zip(
            tracer.event_records("decision"), run.log.records
        ):
            assert set(event["alternatives"]) == set(record.alternatives)
            for label, alt in event["alternatives"].items():
                assert alt["cycles"] == record.alternatives[label].cycles

    def test_tree_policy_emits_shadow_identical_to_choice(self, small_graph):
        tracer, run = traced_bfs(small_graph, "tree")
        for event, record in zip(
            tracer.event_records("decision"), run.log.records
        ):
            # under the tree policy the shadow IS the decision
            assert event["tree_algorithm"] == record.algorithm
            assert event["tree_hw_mode"] == record.hw_mode.label

    def test_reconfig_events_match_log_switches(self, small_graph):
        tracer, run = traced_bfs(small_graph, "oracle")
        reconfigs = tracer.event_records("reconfig")
        assert len(reconfigs) == sum(
            1
            for r in run.log.records
            if r.sw_switched or r.hw_switched
        )
        assert sum(1 for e in reconfigs if e["sw_switched"]) == (
            run.log.sw_switches
        )
        assert sum(1 for e in reconfigs if e["hw_switched"]) == (
            run.log.hw_switches
        )
        for event in reconfigs:
            assert event["from_config"] != event["to_config"]


class TestBatchAudit:
    def test_batch_decisions_in_group_order(self, small_graph):
        tracer = Tracer()
        with override(tracer):
            rt = CoSparseRuntime(small_graph.operand, "2x8", policy="oracle")
            run = bfs_multi(small_graph, [0, 1, 2], runtime=rt)
        decisions = tracer.event_records("decision")
        assert len(decisions) == len(run.log)
        for event, record in zip(decisions, run.log.records):
            assert event["algorithm"] == record.algorithm
            assert event["hw_mode"] == record.hw_mode.label
            assert event["vector_density"] == record.vector_density
            assert event["batch_id"] == record.batch_id
            assert event["batch_column"] == record.batch_column

    def test_probe_discarded_counter_and_events(self, small_graph):
        counters.reset()
        tracer = Tracer()
        with override(tracer):
            rt = CoSparseRuntime(small_graph.operand, "2x8", policy="oracle")
            run = bfs_multi(small_graph, [0, 1, 2], runtime=rt)
        # the oracle prices (and discards) one probe per batch column
        assert counters.kernel_probe_discarded == len(run.log)
        discarded = tracer.event_records("probe_discarded")
        assert len(discarded) == len(run.log)
        for event in discarded:
            assert event["batch_id"] is not None
            assert event["algorithm"] in ("ip", "op")
        counters.reset()

    def test_tree_policy_discards_nothing(self, small_graph):
        counters.reset()
        rt = CoSparseRuntime(small_graph.operand, "2x8", policy="tree")
        bfs_multi(small_graph, [0, 1], runtime=rt)
        assert counters.kernel_probe_discarded == 0
        counters.reset()


class TestSanitizerEvents:
    def test_violation_emits_event_before_raise(self, monkeypatch, tmp_path):
        # The violation also dumps the flight ring: into tmp_path.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        tracer = Tracer()
        with override(tracer):
            with pytest.raises(SimulationError, match=r"\[sanitizer\]"):
                sanitize.Sanitizer().check("unit/test", False, "boom")
        (event,) = tracer.event_records("sanitizer_violation")
        assert event["label"] == "unit/test"
        assert event["message"] == "boom"


class TestChromeTrace:
    def test_export_loads_and_mirrors_spans(self, small_graph, tmp_path):
        tracer, _ = traced_bfs(small_graph)
        path = str(tmp_path / "run.trace.json")
        write_chrome_trace(tracer, path)
        with open(path) as fh:
            payload = json.load(fh)
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == len(tracer.span_records())
        assert len(instants) == len(tracer.event_records())
        names = {e["name"] for e in complete}
        assert {"algorithm.bfs", "spmv", "decide", "kernel"} <= names
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_chrome_events_from_parsed_data(self, small_graph, tmp_path):
        tracer, _ = traced_bfs(small_graph)
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, path)
        from_tracer = chrome_trace_events(tracer)
        from_data = chrome_trace_events(read_jsonl(path))
        assert len(from_tracer) == len(from_data)


class TestAnalysis:
    def test_agreement_rates(self, small_graph, tmp_path):
        tracer, _ = traced_bfs(small_graph, "oracle")
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, path)
        ag = agreement(read_jsonl(path))
        assert ag["decisions"] == ag["audited"] > 0
        assert ag["priced"] == ag["decisions"]
        assert 0.0 <= ag["tree_vs_oracle_rate"] <= 1.0

    def test_summarize_mentions_spans_and_decisions(
        self, small_graph, tmp_path
    ):
        tracer, run = traced_bfs(small_graph)
        path = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, path)
        text = summarize(read_jsonl(path))
        assert "spans" in text
        assert "decisions:" in text
        assert f"decisions: {len(run.log)}" in text

    def test_diff_identical_runs(self, small_graph, tmp_path):
        tracer, _ = traced_bfs(small_graph, label="a")
        pa, pb = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_jsonl(tracer, pa)
        write_jsonl(tracer, pb)
        text = diff(read_jsonl(pa), read_jsonl(pb))
        assert "decision sequences identical" in text

    def test_diff_reports_divergence(self, small_graph, tmp_path):
        ta, _ = traced_bfs(small_graph, "oracle", label="oracle")
        tb, _ = traced_bfs(small_graph, "static", label="static")
        pa, pb = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_jsonl(ta, pa)
        write_jsonl(tb, pb)
        text = diff(read_jsonl(pa), read_jsonl(pb))
        # a static IP/SC run cannot match the oracle's OP phases
        assert "differ" in text or "identical" in text


class TestEnergyWarning:
    def test_none_energy_emits_warning_event(self):
        from repro.core import IterationRecord, ReconfigurationLog
        from repro.formats import ConversionCost
        from repro.hardware import HWMode, MemCounters, RunReport

        log = ReconfigurationLog()
        log.append(
            IterationRecord(
                iteration=0,
                vector_density=0.1,
                algorithm="ip",
                hw_mode=HWMode.SC,
                report=RunReport(
                    cycles=10.0, counters=MemCounters(), energy_j=None
                ),
                conversion=ConversionCost(),
            )
        )
        tracer = Tracer()
        with override(tracer):
            assert log.total_energy_j is None
        (event,) = tracer.event_records("warning")
        assert event["source"] == "ReconfigurationLog"
        assert "no record carries energy" in event["message"]

