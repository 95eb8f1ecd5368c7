"""The signalmine benchmark: one command per run, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. A run

1. times `setup_s`: fresh interpreters importing `signalmine.cli` and
   loading the template registry (after one discarded start that fills the
   bytecode cache; half the samples here and half after step 4, so that
   the median spans the run rather than one moment of a host whose speed
   drifts);
2. generates the seeded inputs (`gen.py`) under `.bench_work/`;
3. for mix-all-tasks, extracts them to tuple files, untimed;
4. starts `worker.py`, which repeats the workload for `--seconds` and
   records wall time, CPU time, peak memory, failures and, with
   `--trace 1`, spans around the program's public functions;
5. checks the outputs, prints what it saw, and prints one JSON line last:
   the end-to-end metrics with `--trace 0`, the per-layer ones with
   `--trace 1`. Metric names and units come from BENCHMARK.json.

Any failed check makes the run print `"correct": false` and exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 10  # half before the worker, half after it
RUN_LIMIT_S = 170  # the whole run, worker included, must end before this
# The named corpus-level pools must hold at least this many distinct values,
# or the per-render pool scan would not show.
MIN_POOL = 1000
CHECKED_POOLS = ("daily_mail_titles", "wikihow_step_headlines", "wikidata_objects", "wordnet_words")

SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); import signalmine.cli; "
    "from signalmine.restructurer.templates import load_registry; load_registry()"
)


def time_setup(samples: int) -> list[float]:
    """Seconds each of `samples` fresh interpreters takes to set up."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


class Checks:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def extraction_summary(reports: dict[str, dict], docs: dict[str, int]) -> list[str]:
    """Share of documents skipped, per mine and rule, and rejected tuples."""
    lines = []
    for mine, rep in reports.items():
        skipped = sum(rep["skipped_docs"].values())
        lines.append(
            f"extract {mine}: docs {docs[mine]} accepted_share {1 - skipped / docs[mine]:.4f} "
            f"tuples {sum(rep['accepted'].values())}"
        )
        for rule, n in sorted(rep["skipped_docs"].items()):
            lines.append(f"  skipped {rule}: {n} ({n / docs[mine]:.4f})")
        for rule, n in sorted(rep["rejected"].items()):
            lines.append(f"  rejected {rule}: {n}")
    return lines


def check_extraction(out_dir: Path, docs: dict[str, int], checks: Checks, layers: dict, notes: list[str]) -> None:
    from signalmine.signal_model import load_tuples, validate_tuple

    reports = {}
    for mine in docs:
        tuples_path = out_dir / f"{mine}.tuples"
        report = json.loads(Path(f"{tuples_path}.report.json").read_text(encoding="utf-8"))
        reports[mine] = report
        tuples = load_tuples(tuples_path.read_text(encoding="utf-8"))
        accepted = sum(report["accepted"].values())
        checks.expect(accepted == len(tuples),
                      f"{mine}: report accepts {accepted} tuples, file holds {len(tuples)}")
        checks.expect(all(validate_tuple(t) for t in tuples), f"{mine}: a written tuple fails validation")
        checks.expect(len(tuples) > 0, f"{mine}: no tuples extracted")
        layers["signal_model.tuple_bytes"] += tuples_path.stat().st_size
        layers["extractors.docs_in"] += docs[mine]
        layers["extractors.tuples_out"] += len(tuples)
        layers["extractors.docs_skipped"] += sum(report["skipped_docs"].values())
        layers["extractors.tuples_rejected"] += sum(report["rejected"].values())
    notes.extend(extraction_summary(reports, docs))


def check_pools(tuples_dir: Path, checks: Checks, layers: dict, notes: list[str]) -> None:
    from signalmine.restructurer.pools import DistractorPools
    from signalmine.signal_model import load_tuples

    pools = DistractorPools()
    for path in sorted(tuples_dir.glob("*.tuples")):
        for tup in load_tuples(path.read_text(encoding="utf-8")):
            pools.observe(tup)
        layers["signal_model.tuple_bytes"] += path.stat().st_size
    sizes = {name: len(values) for name, values in pools.values.items()}
    layers["restructurer.pool_values"] = sum(sizes.values())
    layers["restructurer.pool_max"] = max(sizes.values(), default=0)
    notes.append("pools " + " ".join(f"{k}={v}" for k, v in sorted(sizes.items())))
    for name in CHECKED_POOLS:
        checks.expect(sizes.get(name, 0) >= MIN_POOL, f"pool {name} holds {sizes.get(name, 0)} < {MIN_POOL} values")


def check_bundle(bundle: Path, reps: list[dict], checks: Checks, layers: dict, notes: list[str]) -> None:
    from signalmine.dataset_io import verify_bundle
    from signalmine.restructurer.render import parse_options

    hashes = {r["digest"].get("bundle_hash") for r in reps}
    checks.expect(len(hashes) == 1, f"bundle hash differs across repetitions: {sorted(map(str, hashes))}")
    for r in reps:
        mixed, validated = r["stdout"][0].split(), r["stdout"][1].split()
        checks.expect(validated[:1] == ["ok"] and validated[1:] == mixed[1:],
                      f"validate did not confirm the bundle: {r['stdout'][1]!r}")
    manifest = verify_bundle(bundle)
    notes.append(f"bundle_hash {manifest['bundle_hash']}")
    mc = 0
    bad: list[str] = []
    for name in manifest["files"]:
        with open(bundle / name, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["family"] != "multiple_choice":
                    continue
                mc += 1
                options = parse_options(rec["source"])
                if options.count(rec["target"]) != 1:
                    bad.append(f"{rec['template_id']} (target {rec['target']!r} appears "
                               f"{options.count(rec['target'])} times among {len(options)} options)")
    checks.expect(not bad, f"{len(bad)} multiple-choice examples without their target exactly once, "
                           f"e.g. {'; '.join(bad[:3])}")
    checks.expect(mc > 0, "bundle holds no multiple-choice examples")
    notes.append(f"multiple_choice examples checked: {mc}")
    layers["dataset_io.bundle_bytes"] = sum(
        (bundle / n).stat().st_size for n in os.listdir(bundle))
    layers["mixer.examples_out"] = sum(f["lines"] for f in manifest["files"].values())
    layers["restructurer.render_errors"] = len(manifest.get("render_errors", []))


def check_eval(cli_run, work: Path, seed: int, reps: list[dict], checks: Checks, notes: list[str]) -> None:
    from worker import EVAL_SETS

    first = reps[0]["digest"]
    for r in reps[1:]:
        checks.expect(r["digest"] == first, "evaluation reports differ across repetitions")
    for name in EVAL_SETS:
        out = work / "out" / f"reference_{name}.json"
        code, _, err = cli_run(["evaluate", "--dataset", name, "--data", str(work / "in" / f"eval_{name}.jsonl"),
                                "--scorer", "reference", "--seed", str(seed), "--out", str(out)])
        checks.expect(code == 0, f"reference evaluate {name} failed: {err.strip()[:300]}")
        if code == 0:
            reference = json.loads(out.read_text(encoding="utf-8"))
            checks.expect(first.get(name) == reference,
                          f"{name}: external-stub report differs from the reference report")
            notes.append(f"eval {name}: avg {reference['avg']:.6f} per_prompt {reference['per_prompt']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.perf_counter()

    if not (SRC / "signalmine" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a signalmine checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import gen
    import worker

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, bench, work, began, gen, worker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there


def _run(args, bench: dict, work: Path, began: float, gen, worker) -> int:
    time_setup(1)  # fills the bytecode cache
    setup_samples = time_setup(SETUP_SAMPLES // 2)
    generated = gen.generate(args.seed, work / "in")
    cli = worker.import_program()
    checks = Checks()
    notes = [f"inputs {json.dumps(generated['sizes'], sort_keys=True)}",
             f"generated distinct pool values {json.dumps(generated['distinct'], sort_keys=True)}"]
    layers: Counter = Counter()
    cli_run = lambda cmd: worker.run_cli(cli, cmd)  # noqa: E731

    if args.workload == "mix-all-tasks":
        for cmd in worker.extract_commands(work / "in", work / "tuples", args.seed):
            code, _, err = cli_run(cmd)
            if code != 0:
                print(f"error: preparing tuples: {' '.join(cmd[:3])}: {err.strip()}", file=sys.stderr)
                return 1
        check_pools(work / "tuples", checks, layers, notes)

    budget = RUN_LIMIT_S - (time.perf_counter() - began)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--work", str(work),
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=max(budget, 1),
        # one string-hash layout for every run: dict and set layouts then
        # repeat from run to run, and so does the time they cost
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    setup_samples += time_setup(SETUP_SAMPLES - len(setup_samples))
    setup_s = statistics.median(setup_samples)
    if args.trace and (work / "spans.json").exists():
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        os.replace(work / "spans.json", out / f"{args.workload}.spans.json")
        notes.append(f"spans written to .bench_out/{args.workload}.spans.json")
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return 1
    result = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    reps = result["reps"]
    for r in reps:
        for err in r["errors"]:
            checks.failures.append(err)

    if not checks.failures:
        if args.workload == "extract-all":
            docs = {m: generated["sizes"][m] for m in worker.MINES}
            check_extraction(work / "out" / "extract", docs, checks, layers, notes)
            digests = {json.dumps(r["digest"], sort_keys=True) for r in reps}
            checks.expect(len(digests) == 1, "tuple files differ across repetitions")
        elif args.workload == "mix-all-tasks":
            check_bundle(work / "out" / f"bundle{len(reps) - 1}", reps, checks, layers, notes)
        else:
            check_eval(cli_run, work, args.seed, reps, checks, notes)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        layers.update(result["layers"])
        layers["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        if args.workload == "evaluate-external":
            layers["eval_harness.scorer.failed"] = result["failed"] / len(reps)
        values = {m["name"]: float(layers.get(m["name"], 0.0)) for m in bench["per_layer"]}
    else:
        values = {
            "wall_s": wall,
            "peak_rss_mb": result["peak_rss_mb"],
            "completed_share": 1.0 - result["failed"] / result["attempted"],
            "setup_s": setup_s,
        }

    for line in notes:
        print(line)
    print(f"repetitions {len(plain)} plain, {len(traced)} traced; wall_s each "
          + " ".join(f"{r['wall_s']:.4f}{'t' if r['traced'] else ''}" for r in reps))
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"failed_share {result['failed'] / result['attempted']:.6f}")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
