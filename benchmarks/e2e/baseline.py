"""Repeat the benchmark and record its spread in ``baseline.json``.

    python3 benchmarks/e2e/baseline.py [--runs 10] [--sets 2]

Run from the repository root.  For every workload it runs
``run.py --trace 0`` ``--runs`` times per set, each run with another
seed (0, 1, 2, ...), alternating workloads and sets, then one traced
run with seed 0, and writes ``baseline.json`` next to this script.
For each end-to-end metric, and for the unscaled ``wall`` times, it
records every value, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the quartile distance and the
max-min range as shares of the median, and, for the end-to-end metrics
with two or more sets, each set's median and how far the last drifts
from the first.  Host core
count, git revision and Python/numpy versions go with it.  Every run is
also appended to the bench history (``repro.obs.bench``) under
``e2e.<workload>``, so ``python -m repro.obs regress --key e2e`` works.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.bench import append_record, bench_record  # noqa: E402

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, trace: int, out_dir: str) -> dict:
    subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            f"--workload={workload}",
            f"--seed={seed}",
            f"--trace={trace}",
            f"--out={out_dir}",
        ],
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    path = Path(out_dir) / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def spread(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / med,
        "max_spread_frac": (max(values) - min(values)) / med,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    records = {w: [[] for _ in range(args.sets)] for w in WORKLOADS}
    traced = {}
    (ROOT / ".e2e_runs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".e2e_runs") as out_dir:
        seed = 0
        for _ in range(args.runs):
            for s in range(args.sets):
                for workload in WORKLOADS:
                    record = run_once(workload, seed, 0, out_dir)
                    records[workload][s].append(record)
                    e2e = record["e2e"]
                    append_record(
                        bench_record(
                            f"e2e.{workload}",
                            {
                                "p50_s": e2e["p50_ms"] / 1e3,
                                "op_s": 1.0 / e2e["ops_per_s"],
                                "setup_s": e2e["setup_s"],
                            },
                        )
                    )
                    print(
                        f"set {s} seed {seed} {workload}: "
                        + " ".join(f"{k}={v:.5g}" for k, v in e2e.items()),
                        flush=True,
                    )
                seed += 1
        for workload in WORKLOADS:
            traced[workload] = run_once(workload, 0, 1, out_dir)

    first = records[WORKLOADS[0]][0][0]
    baseline = {
        "host": {
            "cores": first["cores"],
            "git_rev": bench_record("e2e", {})["git_rev"],
            **first["versions"],
        },
        "run_seconds": spec["run_seconds"],
        "runs_per_set": args.runs,
        "sets": args.sets,
        "workloads": {},
    }
    for workload in WORKLOADS:
        sets = records[workload]
        flat = [r for runs in sets for r in runs]
        entry = {
            "seeds": [r["seed"] for r in flat],
            "failed": sum(r["failed"] for r in flat),
            "metrics": {},
            "phases_ms": {
                phase: statistics.median(r["phases_ms"][phase] for r in flat)
                for phase in flat[0]["phases_ms"]
            },
            "wall": {
                name: spread([r["wall"][name] for r in flat])
                for name in flat[0]["wall"]
            },
            "hygiene": {
                name: max(r["hygiene"][name] for r in flat)
                for name in flat[0]["hygiene"]
            },
            "layers": traced[workload]["layers"],
        }
        for name, unit in units.items():
            row = {"unit": unit, **spread([r["e2e"][name] for r in flat])}
            if args.sets > 1:
                medians = [
                    statistics.median(r["e2e"][name] for r in runs)
                    for runs in sets
                ]
                row["set_medians"] = medians
                row["set_drift_frac"] = medians[-1] / medians[0] - 1.0
                row["set_iqr_frac"] = [
                    spread([r["e2e"][name] for r in runs])["iqr_frac"]
                    for runs in sets
                ]
            entry["metrics"][name] = row
        baseline["workloads"][workload] = entry
    out = HERE / "baseline.json"
    out.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
