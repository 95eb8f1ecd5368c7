"""Measure the baseline recorded in perfbench/baseline.json.

    python3 perfbench/baseline.py --seeds 101-110

For every workload in BENCHMARK.json: one `--trace 0` run per seed, then
one `--trace 1` run on the first seed. The end-to-end metrics are recorded
as median and quartiles over the seeds, with the spread (interquartile
range over median) the benchmark's bounds are judged against; the
per-layer metrics as measured by the traced run. The `metrics` and
`workloads` descriptions already in baseline.json are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"))
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_path = Path(args.out)
    record = json.loads(out_path.read_text(encoding="utf-8")) if out_path.exists() else {}
    record["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    record["run_seconds"] = bench["run_seconds"]
    record["seeds"] = args.seeds
    measured = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        hashes = {}
        for seed in args.seeds:
            result, notes = run(workload, seed, bench["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: correctness check failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in notes:
                if line.startswith("bundle_hash "):
                    hashes[str(seed)] = line.split()[1]
                if line.startswith("inputs "):
                    inputs = json.loads(line[len("inputs "):])
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        end_to_end = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / statistics.median(vals), "runs": len(vals)}
        traced, _ = run(workload, args.seeds[0], bench["run_seconds"], 1)
        measured[workload] = {
            "inputs": inputs,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        if hashes:
            measured[workload]["bundle_hash_by_seed"] = hashes
    record["measured"] = measured
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
