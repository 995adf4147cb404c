# Convenience targets for the CoSPARSE reproduction.

PYTHON ?= python

.PHONY: install lint lint-cold test test-O test-sanitize test-all serve-smoke bench bench-parallel bench-tune bench-serve bench-cluster bench-full bench-regress artifacts examples trace-demo clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# repro-lint: the whole-program invariant linter (R1 bare-assert, R2
# unit-mixing, R3 magic-constant, R4 nondeterminism, R5 kernel-purity,
# R6 async-discipline, R7 shm-lifecycle, R8 task-purity, R9
# cache-key-completeness, R10 obs-schema-drift).  The checked-in
# baseline is empty: HEAD must be clean.  Warm runs rehydrate per-file
# summaries from .repro_cache/lint-model.json (content-hashed).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro --baseline repro-lint.baseline.json --stats

# Same gate with the program-model cache disabled: every file is
# re-parsed.  Use it to rule the cache out when a finding looks stale.
lint-cold:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro --baseline repro-lint.baseline.json --stats --no-model-cache

# Fast smoke subset (excludes tests marked `slow`) plus the lint gate,
# the `python -O` pass and the sanitizer-enabled subset; `make test-all`
# runs everything, which is also what CI's tier-1 gate does.
test: lint test-O
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m "not slow"
	PYTHONPATH=src $(PYTHON) -m pytest tests/analysis -q
	REPRO_JOBS=2 PYTHONPATH=src $(PYTHON) -m pytest tests/parallel -q -m "not slow"
	PYTHONPATH=src $(PYTHON) -m repro.tune smoke
	$(MAKE) serve-smoke
	$(MAKE) test-sanitize

# The whole fast subset under `python -O`, which strips bare `assert`
# statements from the library and from the test oracles (trace replay and
# the exact heap merge in tests/hardware/trace_oracle.py are not test_*
# modules, so pytest does not rewrite their asserts): any correctness
# check hiding in one silently vanishes there, so the suite must still
# pass — guard checks have to raise real errors.
test-O:
	PYTHONPATH=src $(PYTHON) -O -m pytest tests/ -q -m "not slow"

# The runtime sanitizer (REPRO_SANITIZE=1) cross-checks partition
# histograms, distinct-count bounds, batch provenance and counter
# accounting on every kernel the tests of the kernels and of their
# callers drive: the graph drivers, the sharded runtime and the query
# service feed partially active and sharded columns, and the Fig. 4-6
# row tests feed the sweep's pricing tasks, whose reports it checks.
test-sanitize:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest tests/spmv tests/core tests/graphs tests/cluster tests/serve tests/experiments/test_rows.py -q -m "not slow"

test-all:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# Query-service end-to-end: in-process server, 20 mixed queries from
# concurrent clients (coalesced + cached), every answer bit-compared
# against the direct driver call.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.serve smoke

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Parallel sweep engine: serial-vs-pool speedup, bit-identity, and
# pricing-cache hit rate on the Fig. 4 quick grid (REPRO_JOBS governs
# the drivers elsewhere; this bench pins its own worker counts).
bench-parallel:
	$(PYTHON) -m pytest benchmarks/test_bench_parallel.py --benchmark-only -s

# Locality autotuner: tuned-vs-identity modelled probe cycles on the
# big-vector suite matrices, warm plan-cache path, and tuned-driver
# bit-identity (artifacts/ablation-tune.{csv,json}).
bench-tune:
	$(PYTHON) -m pytest benchmarks/test_bench_tune.py --benchmark-only -s

# Query service under bursty multi-client load: coalesced vs sequential
# throughput (target >= 2x), latency percentiles, bit-identity spot
# check (artifacts/serve_loadgen.{csv,json}).
bench-serve:
	$(PYTHON) -m pytest benchmarks/test_bench_serve.py --benchmark-only -s

# Distributed runtime: single-node vs 4-shard pooled PageRank wall
# clock on the large suite graphs (>= 1.8x where the host has the
# cores), modeled network share, and the bit-identity contract
# (artifacts/cluster_bench.{csv,json} + bench-history).
bench-cluster:
	$(PYTHON) -m pytest benchmarks/test_bench_cluster.py --benchmark-only -s

# Perf-regression gate: every bench run appends its wall-clock metrics
# to artifacts/bench-history.jsonl; this compares each bench's latest
# record against the rolling per-metric baseline (median of the prior
# runs) and fails on any metric past tolerance.
bench-regress:
	PYTHONPATH=src $(PYTHON) -m repro.obs regress

# The paper-scale grids (first run generates ~minutes of workloads into
# .repro_cache/; artifacts land under artifacts/).
bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

artifacts:
	$(PYTHON) -m repro all --scale 8

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

# Small traced BFS through repro.obs: exports artifacts/trace_demo.jsonl
# plus a Chrome/Perfetto trace, schema-validates every record, and
# cross-checks the exported decision sequence against the live log.
trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro.obs demo --out artifacts/trace_demo

clean:
	rm -rf .repro_cache .benchmarks artifacts .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
