"""Per-rule registries: what the invariant rules consider in/out of scope.

Everything here is data, not logic, so a new hardware constant, kernel or
allowlisted module is a one-line change reviewed next to the rule it
feeds.  Paths are package-relative posix paths (``repro/...``) matched by
prefix.
"""

from __future__ import annotations

__all__ = [
    "MAGIC_CONSTANTS",
    "R3_ALLOWED_PREFIXES",
    "R4_WALLCLOCK_ALLOWED_PREFIXES",
    "WALLCLOCK_CALLS",
    "SEEDED_RNG_CONSTRUCTORS",
    "PURE_KERNELS",
    "MUTATING_METHODS",
    "ALIASING_NUMPY_FUNCS",
]

# ----------------------------------------------------------------------
# R3 — hardware constants that must come from a config object
# ----------------------------------------------------------------------
#: Literal value -> why it is forbidden inline.  Matched by numeric
#: equality, so ``1e9``, ``1.0e9`` and ``1_000_000_000`` all hit.
MAGIC_CONSTANTS = {
    1e9: (
        "hardcoded 1 GHz clock rate; take it from HardwareParams.clock_hz "
        "(or ReconfigurationLog.clock_hz downstream)"
    ),
    1e-9: (
        "hardcoded 1 ns cycle period; use HardwareParams.cycle_s or "
        "RunReport.seconds(clock_hz)"
    ),
    4096: (
        "hardcoded 4 kB RCache bank size; use HardwareParams.bank_bytes "
        "/ bank_words"
    ),
    0.005: (
        "hardcoded crossover-vector-density threshold; use "
        "DecisionThresholds (core.decision)"
    ),
}

#: Modules allowed to *define* those constants: the hardware parameter
#: tables, the decision/calibration threshold definitions, the baseline
#: platform specs, and the linter itself.
R3_ALLOWED_PREFIXES = (
    "repro/hardware/",
    "repro/core/decision.py",
    "repro/core/calibration.py",
    "repro/baselines/platforms.py",
    "repro/analysis/",
)

# ----------------------------------------------------------------------
# R4 — determinism
# ----------------------------------------------------------------------
#: Wall-clock sources that must not leak into model-cycle accounting.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)

#: Modules whose *job* is measuring host wall-clock time (the span
#: tracer whose wall times annotate observability output without ever
#: feeding the cycle model, and the parallel sweep engine whose clock
#: reads feed only worker-utilization stats and pool timeouts —
#: REPRO_JOBS is determinism-neutral: results are bit-identical for any
#: worker count); everything else in the library models cycles and must
#: not read the host clock.
R4_WALLCLOCK_ALLOWED_PREFIXES = (
    "repro/obs/",
    "repro/parallel/",
    # The linter itself times its own analysis passes for --stats.
    "repro/analysis/",
    # The query service measures *service latency* (per-query response
    # times, coalescing windows, burst pacing); none of it touches the
    # modelled cycle counts, which stay bit-identical to direct calls.
    "repro/serve/",
    # The sharded runtime times the host-side shard fan-out for its
    # speedup report; interconnect time is modelled in cycles and the
    # merged results stay bit-identical for any worker count.
    "repro/cluster/",
)

#: numpy.random attributes that construct explicitly-seedable generators
#: (everything else under numpy.random is the legacy global-state API).
SEEDED_RNG_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
     "PCG64DXSM", "Philox", "MT19937", "SFC64"}
)

# ----------------------------------------------------------------------
# R5 — kernel purity
# ----------------------------------------------------------------------
#: Functions the runtime registers as pricing/profile-capable kernels.
#: A pricing probe must be repeatable, so these must never mutate their
#: vector/matrix arguments (DenseVector buffers, MultiVector columns,
#: current-value arrays) in place.
PURE_KERNELS = frozenset(
    {
        "inner_product",
        "outer_product",
        "inner_product_batch",
        "outer_product_batch",
    }
)

#: ndarray/container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {"fill", "sort", "put", "resize", "setflags", "itemset", "partition"}
)

#: numpy helpers that return a view (or may return the input unchanged),
#: so their result aliases the argument's buffer.
ALIASING_NUMPY_FUNCS = frozenset(
    {"asarray", "asanyarray", "ascontiguousarray", "atleast_1d", "ravel",
     "reshape", "broadcast_to"}
)

#: numpy functions that mutate their first positional argument.
MUTATING_NUMPY_FUNCS = frozenset({"copyto", "put", "place", "putmask"})

__all__.append("MUTATING_NUMPY_FUNCS")

# ----------------------------------------------------------------------
# R6 — async discipline (repro/serve)
# ----------------------------------------------------------------------
#: Dotted call origins that block the calling thread.  Any of these
#: reachable from an `async def` body stalls the whole event loop.
R6_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.getaddrinfo",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.request",
    }
)

#: Bare names of the functional kernels/drivers: CPU-heavy work that
#: must run in the worker pool (`run_in_executor`), never inline on the
#: event loop.
R6_BLOCKING_KERNELS = frozenset(
    {
        "inner_product",
        "outer_product",
        "inner_product_batch",
        "outer_product_batch",
        "spmv",
        "spmv_batch",
        "bfs",
        "sssp",
        "bfs_multi",
        "sssp_multi",
        "pagerank",
        "connected_components",
        "collaborative_filtering",
    }
)

#: Callable-shipping helpers: attribute/function name -> positional
#: index of the shipped callable (`loop.run_in_executor(executor, fn)`,
#: `asyncio.to_thread(fn)`).
R6_EXECUTOR_SHIPS = {"run_in_executor": 1, "to_thread": 0}

#: Methods that mutate shared registry/cache state when called on a
#: non-local receiver from a shipped closure; such calls must happen
#: under the per-graph lock (lexically inside `async with`).
R6_GUARDED_METHODS = frozenset(
    {
        "load",
        "register",
        "put",
        "setdefault",
        "move_to_end",
        "popitem",
        "append",
        "add",
        "update",
        "extend",
        "insert",
        "clear",
    }
)

# ----------------------------------------------------------------------
# R7 — shared-memory lifecycle
# ----------------------------------------------------------------------
#: Call origins that allocate/attach an OS shared-memory segment whose
#: handle must reach close()/unlink() (or escape to an owner) on every
#: exit path.
R7_SHM_ORIGINS = frozenset(
    {
        "multiprocessing.shared_memory.SharedMemory",
        "shared_memory.SharedMemory",
    }
)

# ----------------------------------------------------------------------
# R8 — interprocedural task purity
# ----------------------------------------------------------------------
#: Constructors whose first/`fn=` argument names a task function
#: ("module.path:function") that must stay pure.
R8_TASK_CLASSES = frozenset({"PricingTask"})

#: Container/dict/set methods that mutate their receiver (ndarray
#: mutators live in MUTATING_METHODS).
R8_MUTATING_CONTAINER_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "extend",
        "insert",
        "clear",
        "pop",
        "popitem",
        "remove",
        "discard",
        "move_to_end",
    }
)

#: Module-level memo dicts task functions may legitimately fill: pure
#: caches of deterministically reconstructible values (worker-side
#: semiring/system/partition memos, the shm attachment cache, the
#: workload cache's prepared operands).
R8_MEMO_GLOBALS = frozenset(
    {"_semirings", "_systems", "_partitions", "_attached",
     "_shard_runtimes", "_prepared"}
)

#: Dotted module prefixes whose state is observability/metering, not
#: results: writes into them do not make a task impure.
R8_EXEMPT_MODULE_PREFIXES = ("repro.obs", "repro.perf", "repro.analysis")

# ----------------------------------------------------------------------
# R9 — cache-key completeness
# ----------------------------------------------------------------------
#: Payload dataclass name -> (key-function name, fields exempt from the
#: key).  Exempt fields are execution-control or *result* fields — they
#: either cannot change the result (cacheable) or are filled in by the
#: computation the key addresses (a TuningPlan's verdict fields).
R9_KEYED_DATACLASSES = {
    "PricingTask": ("task_key", frozenset({"cacheable"})),
    "TuningPlan": (
        "plan_key",
        frozenset(
            {
                "ordering",
                "vblock_width",
                "matrix_key",
                "metrics",
                "baseline",
                "candidates",
            }
        ),
    ),
}

# ----------------------------------------------------------------------
# R10 — obs schema drift
# ----------------------------------------------------------------------
#: Name of the literal kind->required-keys map in repro/obs/events.py.
R10_EVENT_KEYS_NAME = "_EVENT_KEYS"

#: Envelope keys every exported event record carries besides the
#: dataclass fields (see repro.obs.events.event_record).
R10_RECORD_ENVELOPE_KEYS = frozenset({"type", "event", "t_s"})

#: Class-name suffixes R10 treats as schema'd record constructors: obs
#: event dataclasses (``*Event``) and the serve admin wire payloads
#: (``*Payload``, see repro/serve/admin.py) both declare a ``kind`` and
#: must stay in lockstep with their ``_EVENT_KEYS`` required-key maps.
R10_CTOR_SUFFIXES = ("Event", "Payload")

__all__ += [
    "R6_BLOCKING_CALLS",
    "R6_BLOCKING_KERNELS",
    "R6_EXECUTOR_SHIPS",
    "R6_GUARDED_METHODS",
    "R7_SHM_ORIGINS",
    "R8_TASK_CLASSES",
    "R8_MUTATING_CONTAINER_METHODS",
    "R8_MEMO_GLOBALS",
    "R8_EXEMPT_MODULE_PREFIXES",
    "R9_KEYED_DATACLASSES",
    "R10_EVENT_KEYS_NAME",
    "R10_RECORD_ENVELOPE_KEYS",
    "R10_CTOR_SUFFIXES",
]
