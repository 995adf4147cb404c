"""Typed observability events (schema v1).

Every event the runtime emits is a dataclass here, serialised to one
JSONL record of the shape ``{"type": "event", "event": <kind>, "t_s":
<trace-relative seconds>, ...fields}``.  The schema is deliberately
flat and versioned (:data:`SCHEMA_VERSION`, stamped into the run's
header record) so exported logs stay parseable across revisions;
:func:`validate_record` is the machine check ``python -m repro.obs
validate`` and ``make trace-demo`` run over every exported line.

Event kinds
-----------
``decision``
    One per SpMV invocation: the frontier density, the active policy,
    the chosen ``(algorithm, hw_mode)``, the decision tree's shadow
    choice and crossover density (CVD), the live thresholds, every
    priced alternative (label -> cycles/energy), and whether a pricing
    probe's functional result was reused.
``reconfig``
    Emitted when an invocation switched software and/or hardware
    configuration; carries the from/to labels and the charged cycles.
``probe_discarded``
    A batched superstep priced candidates for a column and the batch
    kernel ran the winner without reusing its profile-only probe, as
    sequential ``spmv`` would without a trace (docs/model.md §6b).
``tuning``
    One autotune outcome, cold or from the plan cache: the winning
    ordering and vblock width with its modelled probe cycles and the
    identity baseline's.  The kind once carried a storage variant, hit
    rates and host wall clocks; :func:`validate_record` checks only the
    required keys, so logs exported with those fields still validate
    under schema v1.
``sanitizer_violation``
    The runtime sanitizer found a broken invariant (the event is
    emitted just before the ``SimulationError`` is raised).
``warning``
    Non-fatal observability notices (e.g. a run with no energy model
    asked for total joules).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "DecisionEvent",
    "ReconfigEvent",
    "ProbeDiscardedEvent",
    "TuningEvent",
    "ServeQueryEvent",
    "ClusterExchangeEvent",
    "ShardDecisionEvent",
    "SanitizerViolationEvent",
    "WarningEvent",
    "serialize_alternatives",
    "validate_record",
]

#: Version stamped into every exported run's header record.
SCHEMA_VERSION = 1


def serialize_alternatives(alternatives) -> Dict[str, dict]:
    """``{label: RunReport}`` -> plain-JSON ``{label: {cycles, energy_j}}``."""
    return {
        label: {"cycles": float(rep.cycles), "energy_j": rep.energy_j}
        for label, rep in alternatives.items()
    }


@dataclass
class DecisionEvent:
    """The full audit of one per-invocation configuration decision."""

    iteration: int
    policy: str
    vector_density: float
    algorithm: str
    hw_mode: str
    #: The shadow decision-tree walk (computed for every policy when
    #: tracing is on, so tree-vs-oracle agreement is always auditable).
    tree_algorithm: Optional[str] = None
    tree_hw_mode: Optional[str] = None
    cvd: Optional[float] = None
    thresholds: Dict[str, float] = field(default_factory=dict)
    #: Every priced alternative: label -> {"cycles": ..., "energy_j": ...}.
    alternatives: Dict[str, dict] = field(default_factory=dict)
    #: Whether the winning pricing probe's functional result was reused.
    probe_reused: bool = False
    batch_id: Optional[int] = None
    batch_column: Optional[int] = None

    kind = "decision"


@dataclass
class ReconfigEvent:
    """A software and/or hardware reconfiguration actually happened."""

    iteration: int
    from_config: str
    to_config: str
    sw_switched: bool
    hw_switched: bool
    reconfig_cycles: float = 0.0

    kind = "reconfig"


@dataclass
class ProbeDiscardedEvent:
    """A batch column's winning pricing probe was not reused."""

    batch_id: int
    batch_column: int
    algorithm: str
    hw_mode: str
    #: Whether the probe had even computed the functional result.
    executed: bool = False

    kind = "probe_discarded"


@dataclass
class TuningEvent:
    """One :func:`repro.tune.autotune` outcome (cold or warm)."""

    matrix_key: str
    geometry: str
    ordering: str
    vblock_width: int
    #: Candidates the plan was picked from.
    candidates: int = 0
    #: Whether the plan came straight from the persistent plan cache.
    plan_cache_hit: bool = False
    #: Winner's and identity baseline's modelled probe cycles.
    cycles: Optional[float] = None
    baseline_cycles: Optional[float] = None

    kind = "tuning"


@dataclass
class ServeQueryEvent:
    """One answered query of the long-running service (:mod:`repro.serve`).

    Emitted by the server after the response is computed; the latency is
    host wall clock (protocol + queueing + execution), never model
    cycles.
    """

    graph: str
    algorithm: str
    source: Optional[int] = None
    #: How many queries the coalescer answered with one batched
    #: execution (1 = ran alone; 0 = answered from the result cache).
    coalesced_width: int = 1
    cache_hit: bool = False
    latency_s: float = 0.0
    #: Admission-queue depth observed when the query was accepted.
    queue_depth: int = 0

    kind = "serve_query"


@dataclass
class ClusterExchangeEvent:
    """One modeled frontier exchange of a sharded run (repro.cluster).

    Emitted per charged iteration (the seed frontier is node-local and
    free); the cycles are *model* time through the interconnect, never
    host wall clock.
    """

    iteration: int
    topology: str
    nodes: int
    bytes_total: int
    max_link_bytes: int
    network_cycles: float

    kind = "cluster_exchange"


@dataclass
class ShardDecisionEvent:
    """One shard's per-iteration (algorithm, hw_mode) choice.

    Shards decide independently (each sees its own sub-matrix density),
    so one cluster iteration emits up to K of these alongside the
    exchange event.
    """

    iteration: int
    shard: int
    algorithm: str
    hw_mode: str
    vector_density: float
    cycles: float = 0.0

    kind = "shard_decision"


@dataclass
class SanitizerViolationEvent:
    """A runtime-sanitizer invariant failed (SimulationError follows)."""

    label: str
    message: str

    kind = "sanitizer_violation"


@dataclass
class WarningEvent:
    """A non-fatal observability notice."""

    source: str
    message: str

    kind = "warning"


def event_record(event, t_s: float) -> dict:
    """Serialise one event dataclass to its JSONL record."""
    record = {"type": "event", "event": event.kind, "t_s": t_s}
    record.update(asdict(event))
    return record


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
_RECORD_KEYS = {
    "header": ("schema", "label"),
    "span": ("name", "id", "parent", "start_s", "dur_s", "attrs", "counters"),
    "event": ("event", "t_s"),
    "metrics": ("metrics",),
}

_EVENT_KEYS = {
    "decision": (
        "iteration",
        "policy",
        "vector_density",
        "algorithm",
        "hw_mode",
        "thresholds",
        "alternatives",
        "probe_reused",
    ),
    "reconfig": (
        "iteration",
        "from_config",
        "to_config",
        "sw_switched",
        "hw_switched",
    ),
    "probe_discarded": (
        "batch_id",
        "batch_column",
        "algorithm",
        "hw_mode",
        "executed",
    ),
    "tuning": (
        "matrix_key",
        "geometry",
        "ordering",
        "vblock_width",
        "candidates",
        "plan_cache_hit",
    ),
    "serve_query": (
        "graph",
        "algorithm",
        "coalesced_width",
        "cache_hit",
        "latency_s",
    ),
    "cluster_exchange": (
        "iteration",
        "topology",
        "nodes",
        "bytes_total",
        "max_link_bytes",
        "network_cycles",
    ),
    "shard_decision": (
        "iteration",
        "shard",
        "algorithm",
        "hw_mode",
        "vector_density",
    ),
    "sanitizer_violation": ("label", "message"),
    "warning": ("source", "message"),
}


def validate_record(record) -> List[str]:
    """Schema-v1 problems with one parsed JSONL record ([] when clean)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    kind = record.get("type")
    if kind not in _RECORD_KEYS:
        return [f"unknown record type {kind!r}"]
    for key in _RECORD_KEYS[kind]:
        if key not in record:
            problems.append(f"{kind} record missing key {key!r}")
    if kind == "header" and record.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"header schema {record.get('schema')!r} != {SCHEMA_VERSION}"
        )
    if kind == "event":
        event = record.get("event")
        if event not in _EVENT_KEYS:
            problems.append(f"unknown event kind {event!r}")
        else:
            for key in _EVENT_KEYS[event]:
                if key not in record:
                    problems.append(f"{event} event missing key {key!r}")
    return problems
