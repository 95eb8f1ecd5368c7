"""Runs one workload's repetitions in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --work DIR --seed N --seconds S --trace 0|1

`run.py` starts this after the inputs exist under DIR/in (and, for
mix-all-tasks, the tuple files under DIR/tuples), and reads DIR/worker.json
when it ends. The CLI is driven in-process, so interpreter start-up is not
part of any repetition. A separate process keeps the peak resident set
about the workload alone: input generation and the correctness checks
happen in the parent.

A repetition starts only while fewer than `--seconds` have passed, and at
least MIN_REPS run. With `--trace 1`, plain and traced repetitions
alternate, at least one of each, and spans are recorded only in the traced
ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402

MIN_REPS = 3

MINES = (
    "rotten_tomatoes", "daily_mail", "wikidata", "wikihow", "wikipedia",
    "wordnet", "qa_corpus", "arxiv", "paperswithcode", "plain_text",
)
EVAL_SETS = ("clinc150", "conll03", "scitldr")


def import_program():
    """Import the package from this checkout's `src`, never from elsewhere."""
    import signalmine

    origin = Path(signalmine.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        raise SystemExit(f"signalmine imported from {origin}, not from {ROOT / 'src'}")
    import signalmine.cli
    from signalmine.restructurer.templates import load_registry

    load_registry()
    return signalmine.cli


def run_cli(cli, args: list[str]) -> tuple[int, str, str]:
    """One command, in-process, as a user runs it: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a crash is a failed command, reported
            code = 3
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


# -- workloads ----------------------------------------------------------------


def extract_commands(in_dir: Path, out_dir: Path, seed: int) -> list[list[str]]:
    out_dir.mkdir(parents=True, exist_ok=True)
    cmds = []
    for mine in MINES:
        args = ["extract", "--mine", mine, "--in", str(in_dir / f"{mine}.jsonl"),
                "--out", str(out_dir / f"{mine}.tuples"), "--seed", str(seed)]
        if mine == "paperswithcode":
            args += ["--db", str(in_dir / "pwc_entity_db.jsonl")]
        cmds.append(args)
    return cmds


class Workload:
    """One repetition is `commands(rep)` run in order; `account` adds the
    repetition's operations to `attempted` and `failed`, counted from
    outside the program; `digest` returns what must repeat exactly across
    repetitions."""

    tracer: Tracer | None = None  # set during traced repetitions

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.attempted = 0
        self.failed = 0


class ExtractAll(Workload):
    """Ten `extract` commands, one per mine, language gate on."""

    def __init__(self, cli, work: Path, seed: int):
        super().__init__(work, seed)
        self.docs = {m: _count_lines(work / "in" / f"{m}.jsonl") for m in MINES}
        import signalmine.extractors as ex

        # documents that raise inside an adapter, counted per command
        self.raised = 0
        for mine, (adapter, primary_text) in list(ex._ADAPTERS.items()):
            ex._ADAPTERS[mine] = (self._counting(adapter), primary_text)

    def _counting(self, adapter):
        def wrapper(doc, ctx):
            try:
                return adapter(doc, ctx)
            except Exception:
                self.raised += 1
                raise

        return wrapper

    def commands(self, rep: int) -> list[list[str]]:
        return extract_commands(self.work / "in", self.work / "out" / "extract", self.seed)

    def account(self, rep: int, codes: list[int]) -> None:
        self.attempted += sum(self.docs.values())
        failed_commands = sum(self.docs[m] for m, c in zip(MINES, codes) if c != 0)
        self.failed += max(self.raised, failed_commands)
        self.raised = 0

    def digest(self, rep: int) -> dict:
        out = self.work / "out" / "extract"
        return {m: _sha256(out / f"{m}.tuples") for m in MINES}


class MixAllTasks(Workload):
    """`mix --spec all_tasks` over every mine's tuples, then `validate`."""

    def __init__(self, cli, work: Path, seed: int):
        super().__init__(work, seed)
        import signalmine.mixer as mixer

        self.capped: dict[int, int] = {}
        original = mixer.apply_caps

        def apply_caps(*args, **kwargs):
            pools, warnings = original(*args, **kwargs)
            self.capped = {index: len(pool) for index, pool in pools.items()}
            return pools, warnings

        mixer.apply_caps = apply_caps

    def bundle(self, rep: int) -> Path:
        return self.work / "out" / f"bundle{rep}"

    def commands(self, rep: int) -> list[list[str]]:
        args = ["mix", "--spec", "all_tasks"]
        for mine in MINES:
            args += ["--tuples", str(self.work / "tuples" / f"{mine}.tuples")]
        args += ["--out", str(self.bundle(rep)), "--seed", str(self.seed)]
        return [args, ["validate", "--bundle", str(self.bundle(rep))]]

    def account(self, rep: int, codes: list[int]) -> None:
        attempted = sum(self.capped.values())
        self.attempted += max(attempted, 1)
        if codes[0] != 0:
            self.failed += max(attempted, 1)
            return
        manifest = json.loads((self.bundle(rep) / "manifest.json").read_text(encoding="utf-8"))
        failed_entries = {int(err.split(":", 1)[0]) for err in manifest.get("render_errors", [])}
        self.failed += sum(self.capped.get(i, 0) for i in failed_entries)

    def digest(self, rep: int) -> dict:
        manifest = json.loads((self.bundle(rep) / "manifest.json").read_text(encoding="utf-8"))
        # keep only the newest bundle on disk
        for old in (self.work / "out").glob("bundle*"):
            if old != self.bundle(rep):
                shutil.rmtree(old)
        return {"bundle_hash": manifest["bundle_hash"]}


class EvaluateExternal(Workload):
    """Three `evaluate` runs through the JSON line protocol to the stub."""

    def __init__(self, cli, work: Path, seed: int):
        super().__init__(work, seed)
        # The harness and the scorer take turns (one client, closed loop), so
        # one CPU costs no parallelism. Sharing it keeps round trips off the
        # cross-CPU wake-up path, whose latency on a shared virtual machine
        # swings with the host's load; the highest-numbered CPU usually
        # takes fewer device interrupts. The stub inherits the affinity.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.requests = 0
        self.failures = 0
        from signalmine.eval_harness.scorers import ExternalCommandScorer, ScorerError

        bench = self

        class CountingScorer(ExternalCommandScorer):
            """The program's own scorer, with requests and failures counted."""

            def score(self, source, candidate):
                return bench._request(super().score, source, candidate)

            def generate(self, source):
                return bench._request(super().generate, source)

        self._scorer_error = ScorerError
        cli.ExternalCommandScorer = CountingScorer

    def _request(self, fn, *args):
        self.requests += 1
        span = self.tracer.open("eval_harness.scorer.request") if self.tracer else None
        try:
            return fn(*args)
        except self._scorer_error:
            self.failures += 1
            raise
        finally:
            if span is not None:
                self.tracer.close(span)

    def commands(self, rep: int) -> list[list[str]]:
        stub = f"external-cmd:{sys.executable} {HERE / 'stub_scorer.py'}"
        out = self.work / "out" / "eval"
        out.mkdir(parents=True, exist_ok=True)
        return [
            ["evaluate", "--dataset", name, "--data", str(self.work / "in" / f"eval_{name}.jsonl"),
             "--scorer", stub, "--seed", str(self.seed), "--out", str(out / f"{name}.json")]
            for name in EVAL_SETS
        ]

    def account(self, rep: int, codes: list[int]) -> None:
        self.attempted += max(self.requests, 1)
        self.failed += self.failures if all(c == 0 for c in codes) else max(self.requests, 1)
        self.requests = self.failures = 0

    def digest(self, rep: int) -> dict:
        out = self.work / "out" / "eval"
        return {name: json.loads((out / f"{name}.json").read_text(encoding="utf-8")) for name in EVAL_SETS}


WORKLOADS = {"extract-all": ExtractAll, "mix-all-tasks": MixAllTasks, "evaluate-external": EvaluateExternal}


# -- tracing --------------------------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions the commands call, through the module
    attributes they are looked up by."""
    import signalmine.cli as cli
    import signalmine.extractors as extractors
    import signalmine.mixer as mixer
    import signalmine.restructurer.render as render
    from signalmine.restructurer.pools import DistractorPools
    from signalmine.rng import derive_rng

    tracer.span(cli, "extract_documents", lambda mine, *a, **k: f"extractors.{mine}")
    tracer.span_iter(cli, "read_jsonl", "extractors.read_jsonl")
    tracer.span(extractors, "is_english", "normalizer.is_english")
    tracer.span(cli, "dump_tuples", "signal_model.dump_tuples")
    tracer.span(cli, "load_tuples", "signal_model.load_tuples")
    tracer.span(cli, "load_registry", "restructurer.load_registry")
    tracer.span(cli, "mix", "mixer.mix")
    tracer.span(DistractorPools, "build", "restructurer.pools_build")
    tracer.span(mixer, "apply_caps", "mixer.apply_caps")
    tracer.span(mixer, "split_assignments", "mixer.split_assignments")
    tracer.span(mixer, "render_with_selected", "restructurer.render_with_selected")
    tracer.span(render, "select_template", "restructurer.select_template")
    tracer.span(render, "render", "restructurer.render")
    tracer.span(cli, "write_bundle", "dataset_io.write_bundle")
    tracer.span(cli, "verify_bundle", "dataset_io.verify_bundle")
    tracer.span(cli, "eval_dataset", lambda dataset, *a, **k: f"eval_harness.eval_dataset.{dataset}")
    tracer.count_everywhere("signalmine", render.tuple_key, "restructurer.tuple_key.calls")
    tracer.count_everywhere("signalmine", derive_rng, "rng.derive_rng.calls")


def layer_metrics(tracer: Tracer, reps: int, questions: int) -> dict[str, float]:
    """Per-repetition figures from the spans of `reps` traced repetitions."""
    spans = tracer.summary()
    out: dict[str, float] = {}
    for name, entry in spans.items():
        if name in ("workload.rep", "eval_harness.scorer.request") or name.startswith("cli."):
            continue
        out[f"{name}.busy_s"] = entry["busy_s"] / reps
        out[f"{name}.self_s"] = entry["self_s"] / reps
        out[f"{name}.calls"] = entry["calls"] / reps
    for name, n in tracer.counts.items():
        out[name] = n / reps
    registry = spans.get("restructurer.load_registry")
    if registry:
        # seconds per registry load: setup_s pays it once, mix once more
        out["restructurer.load_registry.busy_s"] = statistics.median(registry["durations"])
    render = spans.get("restructurer.render_with_selected")
    if render:
        out["restructurer.render_us"] = render["busy_s"] / render["calls"] * 1e6
    requests = spans.get("eval_harness.scorer.request")
    if requests:
        lat = sorted(requests["durations"])
        out["eval_harness.scorer.requests"] = requests["calls"] / reps
        out["eval_harness.scorer.wait_s"] = requests["busy_s"] / reps
        out["eval_harness.scorer.latency_p50_us"] = _quantile(lat, 0.50) * 1e6
        out["eval_harness.scorer.latency_p99_us"] = _quantile(lat, 0.99) * 1e6
        out["eval_harness.requests_per_question"] = requests["calls"] / max(questions * reps, 1)
        harness = sum(e["busy_s"] for n, e in spans.items() if n.startswith("eval_harness.eval_dataset."))
        out["eval_harness.harness_self_s"] = (harness - requests["busy_s"]) / reps
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# -- main -----------------------------------------------------------------------


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    work = Path(args.work)
    cli = import_program()
    workload = WORKLOADS[args.workload](cli, work, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        # the registry load setup_s includes, once more with a span
        from signalmine.restructurer.templates import load_registry

        tracer.wrap_span(load_registry, "restructurer.load_registry")()
    questions = 0
    if args.workload == "evaluate-external":
        questions = 5 * sum(_count_lines(work / "in" / f"eval_{n}.jsonl") for n in EVAL_SETS)

    reps: list[dict] = []
    traced_reps = 0
    began = time.perf_counter()
    min_reps = 2 if tracer else MIN_REPS
    while len(reps) < min_reps or time.perf_counter() - began < args.seconds:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            instrument(tracer)
            workload.tracer = tracer
            rep_span = tracer.open("workload.rep")
        gc.collect()
        codes, outputs, errors = [], [], []
        cpu0 = _cpu()
        t0 = time.perf_counter()
        for cmd in workload.commands(len(reps)):
            if traced:
                span = tracer.open(f"cli.{cmd[0]}")
            code, out, err = run_cli(cli, cmd)
            if traced:
                tracer.close(span)
            codes.append(code)
            outputs.append(out)
            if code != 0:
                errors.append(f"{' '.join(cmd[:2])}: exit {code}: {err.strip()[:500]}")
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        if traced:
            tracer.close(rep_span)
            tracer.restore()
            workload.tracer = None
            traced_reps += 1
        rep = len(reps)
        workload.account(rep, codes)
        reps.append({"traced": traced, "wall_s": wall, "cpu_s": cpu, "codes": codes, "errors": errors,
                     "digest": workload.digest(rep) if not errors else {},
                     "stdout": [o[-300:] for o in outputs]})
        if errors:
            break

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "reps": reps,
        "peak_rss_mb": max(usage_self, usage_children) / 1024.0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "layers": layer_metrics(tracer, traced_reps, questions) if tracer and traced_reps else {},
    }
    if tracer:
        tracer.write(str(work / "spans.json"))
    (work / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
