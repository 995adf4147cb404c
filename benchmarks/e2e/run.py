"""End-to-end wall-clock benchmark of the CoSPARSE reproduction.

    python3 benchmarks/e2e/run.py --workload NAME|all [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR] [--smoke] [--write-golden]

Run from the repository root.  Each workload runs in its own child
process (``workloads.py``) with an empty workload cache, its own
artifacts and temp directories under ``.e2e_runs/`` (removed
afterwards), ``REPRO_JOBS=2`` and every other ``REPRO_*`` variable
cleared.  The script prints every metric by name with its unit, the
same times unscaled (``wall.*``), the per-phase breakdown, the hygiene
counters and the host core count, and as its last line one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` its ``per_layer`` metrics.
``--workload``, ``--seed``, ``--seconds`` and ``--trace`` are the
benchmark's command-line interface: a benchmark runner calls
``run.py --workload W --seed N --seconds S --trace T`` with ``S`` set
to ``run_seconds`` from ``BENCHMARK.json``, which is also the default
(``--smoke`` runs use ``SMOKE_SECONDS``).  ``--out DIR`` also writes
each workload's full record there; ``--write-golden`` stores this run's canonical records in
``golden.json`` instead of checking them.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GOLDEN = HERE / "golden.json"
WORKLOADS = ("traverse", "pagerank", "sweep", "serve")

#: A child that runs longer than this is killed with its process group.
CHILD_TIMEOUT_S = 170

#: Smoke runs measure this long (with one set-up per workload).
SMOKE_SECONDS = 1.0

#: ``REPRO_JOBS`` of every child: the same cap as ``POOL_WORKERS`` in
#: workloads.py, for any scheduler a workload does not size itself.
JOBS = "2"


def fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def child_env(run_dir: Path) -> dict:
    """The pinned environment of one workload's child process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for sub in ("cache", "artifacts", "tmp"):
        (run_dir / sub).mkdir(parents=True)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        REPRO_JOBS=JOBS,
        REPRO_CACHE_DIR=str(run_dir / "cache"),
        REPRO_ARTIFACTS_DIR=str(run_dir / "artifacts"),
        TMPDIR=str(run_dir / "tmp"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def run_child(workload, seed, seconds, trace, smoke):
    """Run one workload; returns its record, or None if it produced none."""
    run_dir = ROOT / ".e2e_runs" / f"{workload}-{os.getpid()}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
    ] + (["--smoke"] if smoke else [])
    before = shm_segments()
    try:
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(run_dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += f"\n{workload}: killed after {CHILD_TIMEOUT_S} s\n"
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: child exited {proc.returncode}", file=sys.stderr)
        return None
    record = json.loads(lines[-1])
    record["hygiene"] = {
        "parallel.shm_leaked": len(shm_segments() - before),
        "parallel.tracker_warnings": sum(
            "resource_tracker" in line for line in err.splitlines()
        ),
    }
    if record["layers"] is not None:
        record["layers"].update(record["hygiene"])
    return record


def golden_problems(record, write: bool):
    """Compare (or store) the canonical records against golden.json."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    family, canonical = record["family"], record["canonical"]
    if write:
        golden[family] = canonical
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        return []
    expected = golden.get(family)
    if expected is None:
        return [f"golden.json has no entry for {family}"]
    return [
        f"canonical {family}.{label} differs from golden.json: "
        f"{canonical.get(label)} != {want}"
        for label, want in sorted(expected.items())
        if canonical.get(label) != want
    ]


def report(record, spec, trace) -> dict:
    """Print one workload's lines; return its BENCHMARK.json metrics."""
    section = "per_layer" if trace else "end_to_end"
    values = record["layers"] if trace else record["e2e"]
    print(
        f"== {record['workload']} seed={record['seed']} trace={trace} "
        f"host.cores={record['cores']} python={record['versions']['python']} "
        f"numpy={record['versions']['numpy']} units={record['units']} "
        f"p50_samples={record['samples']}"
    )
    metrics = {}
    for entry in spec[section]:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:32s} {values[name]:>16.6g} {unit}")
    for name, value in sorted(record["wall"].items()):
        print(f"  {'wall.' + name:32s} {value:>16.6g} {name.rpartition('_')[2]}")
    for phase, ms in sorted(record["phases_ms"].items()):
        print(f"  {'phase.' + phase + '_ms':32s} {ms:>16.6g} ms")
    if not trace:
        for name, value in sorted(record["hygiene"].items()):
            print(f"  {name:32s} {value:>16d} count")
    frac = record["failed"] / max(record["attempted"], 1)
    print(
        f"  {'failed_frac':32s} {frac:>16.6g} "
        f"({record['failed']}/{record['attempted']})"
    )
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    if record["absent"]:
        print(f"  absent patch targets: {', '.join(record['absent'])}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end wall-clock benchmark (see README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write full records here")
    parser.add_argument("--smoke", action="store_true", help="short run")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro sources under {ROOT / 'src'}")
    bench = ROOT / "BENCHMARK.json"
    if not bench.is_file():
        return fail(f"{bench} not found")
    spec = json.loads(bench.read_text())
    seconds = args.seconds or (
        SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    results = []
    for workload in names:
        record = run_child(workload, args.seed, seconds, args.trace, args.smoke)
        if record is None:
            return 1
        problems = golden_problems(record, args.write_golden)
        record["failed"] += len(problems)
        record["problems"] += problems
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(
                args.out, f"{workload}-seed{args.seed}-trace{args.trace}.json"
            )
            with open(path, "w") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
        results.append((workload, report(record, spec, args.trace), record))

    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {
            f"{workload}.{name}": value
            for workload, ms, _ in results
            for name, value in ms.items()
        }
    failed = sum(r["failed"] for _, _, r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for _, _, r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
