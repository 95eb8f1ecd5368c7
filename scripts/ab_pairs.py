"""Alternating A/B pairs of the benchmark: a parent revision against a change.

    python3 scripts/ab_pairs.py --parent REV --workload NAME --seeds 11,12,...,20

The change is HEAD. Both revisions are exported with `git archive` into
fresh temporary directories, so each side runs only its committed files, and
neither leaves anything behind in the repository. Each seed is one pair: one
run of `perfbench/run.py --workload NAME --seed SEED --seconds S --trace 0`
per side, with S the `run_seconds` of BENCHMARK.json, the parent first in
even pairs and the change first in odd ones, so a host whose speed drifts
favours neither side.

Writes `BENCH_<workload>_<date>.json` at the repository root (`_2`, `_3`,
... before `.json` if that file exists) with every run's metrics, each
side's median and quartiles per end-to-end metric (the quartile method of
perfbench/baseline.py), the number of pairs the change won (ties count for
neither side) and the Python version, and prints a summary. Where both
sides of a pair print a bundle hash (mix-all-tasks), the pair records
whether they are equal, and the summary counts the pairs that are
(`same_bundle`). Per metric it reports three rules:

- `within_bound`: the change's median is no worse than the parent's by more
  than the metric's relative `bound` in BENCHMARK.json (a bound of 0.25 lets
  a lower-is-better median grow by up to 25%);
- `resolved`: the parent's interquartile range, relative to its median, is
  no wider than that bound, or every change run reads better than every
  parent run. An unresolved metric's medians are too noisy to say whether
  it stayed within its bound;
- `claim_holds`: the change wins at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> dict:
    """The committed files of `rev`, written under `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return {"rev": rev, "commit": git("rev-parse", f"{rev}^{{commit}}"), "src_tree": git("rev-parse", f"{rev}:src")}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    run = {"seed": seed, "started": started, "exit": proc.returncode}
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["error"] = (proc.stderr or proc.stdout).strip()[-2000:]
        return run
    run["correct"] = last["correct"]
    run["metrics"] = {name: m["value"] for name, m in last["metrics"].items()}
    for line in lines:
        if line.startswith("bundle_hash "):
            run["bundle_hash"] = line.split()[1]
    return run


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "iqr": None}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
        wins = sum(1 for a, b in both if (b < a if lower else b > a))
        losses = sum(1 for a, b in both if (b > a if lower else b < a))
        parent = spread([a for a, _ in both])
        change = spread([b for _, b in both])
        entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                 "parent": parent, "change": change, "pairs": len(both), "wins": wins, "losses": losses}
        if both:
            worse = change["median"] - parent["median"] if lower else parent["median"] - change["median"]
            entry["within_bound"] = worse <= metric["bound"] * abs(parent["median"])
            olds, news = [a for a, _ in both], [b for _, b in both]
            separated = max(news) < min(olds) if lower else min(news) > max(olds)
            narrow = parent["iqr"] is not None and parent["iqr"] <= metric["bound"] * abs(parent["median"])
            entry["resolved"] = narrow or separated
        if both and parent["iqr"] is not None:
            gain = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
            entry["median_gain"] = gain
            entry["claim_holds"] = wins * 10 >= 9 * len(both) and gain > parent["iqr"]
        out[name] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    pairs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="ab_pairs.") as tmp:
        sides = {"parent": export(args.parent, Path(tmp) / "parent"),
                 "change": export("HEAD", Path(tmp) / "change")}
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"pair": i, "seed": seed, "order": order}
            for side in order:
                pair[side] = run_once(Path(tmp) / side, args.workload, seed, seconds)
            if "bundle_hash" in pair["parent"] and "bundle_hash" in pair["change"]:
                pair["same_bundle"] = pair["parent"]["bundle_hash"] == pair["change"]["bundle_hash"]
            pairs.append(pair)
            print(f"pair {i} seed {seed} " + " ".join(
                f"{side} {pair[side].get('metrics', {}).get('wall_s', float('nan')):.4f}" for side in order
            ), flush=True)

    summary = summarize(pairs, bench["end_to_end"])
    compared = [p["same_bundle"] for p in pairs if "same_bundle" in p]
    bundles = {"same_bundle": {"pairs": len(compared), "equal": sum(compared)}} if compared else {}
    today = datetime.date.today().isoformat()
    doc = {
        "workload": args.workload,
        "date": today,
        "command": f"perfbench/run.py --workload {args.workload} --seed SEED --seconds {seconds:g} --trace 0",
        "python": sys.version,
        "platform": platform.platform(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "parent": sides["parent"],
        "change": sides["change"],
        "seeds": seeds,
        "summary": {**summary, **bundles},
        "pairs": pairs,
    }
    # a second measurement on the same day never replaces the first
    out = ROOT / f"BENCH_{args.workload}_{today}.json"
    n = 1
    while out.exists():
        n += 1
        out = ROOT / f"BENCH_{args.workload}_{today}_{n}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, entry in summary.items():
        p, c = entry["parent"], entry["change"]
        print(f"{name}: parent median {p['median']} iqr {p['iqr']}; change median {c['median']} "
              f"iqr {c['iqr']}; change wins {entry['wins']}/{entry['pairs']}"
              + (f"; within bound: {entry['within_bound']}; resolved: {entry['resolved']}"
                 if "within_bound" in entry else "")
              + (f"; claim holds: {entry['claim_holds']}" if "claim_holds" in entry else ""))
    if compared:
        print(f"same bundle: {sum(compared)}/{len(compared)} pairs")
    failed = [(p["pair"], side) for p in pairs for side in ("parent", "change")
              if p[side].get("exit") != 0 or not p[side].get("correct")]
    if failed:
        print(f"failed runs (pair, side): {failed}")
    print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
