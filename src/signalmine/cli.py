"""Operator surface: extract -> restructure -> mix -> evaluate.

Exit codes: 0 success, 1 data error (single-line `<class>: <message>` on
stderr), 2 usage error. All randomness flows from --seed, else the
SIGNALMINE_SEED environment variable, else 0: a mix spec says what to mix,
not how to draw. No command writes an output to a path given as one of its
inputs. Once its usage checks pass, and before it reads any input, a command
makes the missing directories that hold its outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shlex
import sys
from importlib import resources
from pathlib import Path

import click

from . import __version__
from .dataset_io import (
    IntegrityError,
    stats_report,
    verify_bundle,
    write_bundle,
    write_files_atomic,
)
from .eval_harness.datasets import eval_dataset, load_prompts, record_reader
from .eval_harness.gaokao import grade_gaokao, load_answers, load_paper
from .eval_harness.scorers import ExternalCommandScorer, ReferenceScorer, ScorerError
from .extractors import MINES, extract_documents, pwc, read_jsonl
from .mixer import mix, render_jobs
from .normalizer import DetectorError
from .report import ExtractionReport
from .restructurer.pools import DistractorPools
from .restructurer.render import ConfigError, RenderError
from .restructurer.templates import audit, load_registry
from .shards import Spill
from .signal_model import MixEntry, SchemaError, load_mixspec, read
from .store import SIGNALS, TupleStore
# not called here: extract shards encode their own lines, and mix and
# restructure read tuple files through a TupleStore. perfbench/worker.py wraps
# cli.dump_tuples and cli.load_tuples by name until it reads the program's own
# run records (ROADMAP item 1)
from .signal_model import dump_tuples, load_tuples  # noqa: F401

SEED_ENV = "SIGNALMINE_SEED"

_ERROR_CLASSES = {
    SchemaError: "schema-error",
    IntegrityError: "integrity-error",
    RenderError: "render-error",
    ConfigError: "config-error",
    ScorerError: "scorer-error",
    DetectorError: "detector-error",
    OSError: "io-error",
}
_DATA_ERRORS = tuple(_ERROR_CLASSES)


def _fail(exc: Exception) -> None:
    label = next(label for cls, label in _ERROR_CLASSES.items() if isinstance(exc, cls))
    click.echo(f"{label}: {exc}", err=True)
    sys.exit(1)


class _Commands(click.Group):
    """Any command's data error ends the run as one stderr line and exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except _DATA_ERRORS as exc:
            _fail(exc)


# every command's seed: click resolves --seed, then the environment, then 0
_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, envvar=SEED_ENV,
                            help=f"Random seed (default: ${SEED_ENV} or 0).")


def _prepare_outputs(outputs: dict[str, str | None], inputs: dict[str, str | tuple[str, ...] | None]) -> None:
    """A usage error if an output path (flag -> path or None) names an input
    file (flag -> path, a repeatable flag's paths, or None) or an earlier
    output, so that no run replaces what it reads or what it writes; else
    the directory that holds each output is made, if missing. A command
    calls this last among its usage checks, before it reads any input."""
    named: dict[Path, str] = {}
    for flag, paths in inputs.items():
        if isinstance(paths, tuple):
            named.update((Path(path).resolve(), f"a {flag}") for path in paths)
        elif paths:
            named[Path(paths).resolve()] = f"the {flag}"
    for flag, path in outputs.items():
        if path:
            resolved = Path(path).resolve()
            if resolved in named:
                raise click.UsageError(f"{flag} {path} names {named[resolved]} file")
            named[resolved] = f"the {flag}"
    for path in outputs.values():
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)


@click.group(cls=_Commands)
@click.version_option(__version__)
def main() -> None:
    """Mine signal tuples, render prompted examples, mix datasets, evaluate."""


@main.command()
@click.option("--mine", "mine", required=True, type=click.Choice(MINES))
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_seed_option
@click.option("--db", "db_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Typed term database (paperswithcode mine).")
@click.option("--blocklist", "blocklist_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Extra property names to discard, one per line (wikidata mine).")
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None,
              help="Extraction report path (default: <out>.report.json).")
def extract(mine, in_path, out_path, seed, db_path, blocklist_path, report_path):
    """Convert one mine's raw dump into validated signal tuples."""
    options: dict = {}
    report_path = report_path or f"{out_path}.report.json"
    if mine == "paperswithcode" and not db_path:
        raise click.UsageError("--db is required for the paperswithcode mine")
    for flag, value, owner in (("--db", db_path, "paperswithcode"), ("--blocklist", blocklist_path, "wikidata")):
        if value and mine != owner:
            raise click.UsageError(f"{flag} is for the {owner} mine only, not {mine}")
    _prepare_outputs({"--out": out_path, "--report": report_path},
                     {"--in": in_path, "--db": db_path, "--blocklist": blocklist_path})
    if db_path:
        options["entity_db"] = pwc.EntityDb(read_jsonl(db_path, lambda entry: read(entry, pwc.ENTRY)))
    if blocklist_path:
        try:
            lines = Path(blocklist_path).read_bytes().decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{blocklist_path}: not UTF-8 text: {exc}") from exc
        options["property_blocklist"] = tuple(l.strip() for l in lines if l.strip())
    report = ExtractionReport()
    with Spill(Path(out_path).parent) as spill:
        lines = extract_documents(mine, in_path, seed, report, spill, options=options)
        write_files_atomic({out_path: lines, report_path: [(report.to_json() + "\n").encode()]})
    click.echo(f"extracted {sum(report.accepted.values())} tuples from {report.docs_processed} documents")


@main.command()
@click.option("--tuples", "tuples_paths", required=True, multiple=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--templates", "templates_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Template catalog (defaults to the bundled one).")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--family", type=click.Choice(["multiple_choice", "generation", "auto"]),
              default="auto", show_default=True)
@_seed_option
def restructure(tuples_paths, templates_path, out_path, family, seed):
    """Render each tuple into one prompted source/target example."""
    _prepare_outputs({"--out": out_path}, {"--tuples": tuples_paths, "--templates": templates_path})
    registry = load_registry(templates_path)
    with TupleStore(tuples_paths) as store, Spill(Path(out_path).parent) as spill:
        pools = DistractorPools.build(store.scan())
        # an entry for each signal type present, at the type's position in
        # SIGNALS, so a job's entry index is its tuple's signal code
        entries: list[MixEntry | None] = [None] * len(SIGNALS)
        for code in dict.fromkeys(store.signal):
            signal_type, fam = SIGNALS[code], family
            if family == "auto":
                fam = "cloze" if signal_type == "plain_text_cloze" else next(
                    (f for f in ("multiple_choice", "generation") if registry.get(signal_type, f)), None)
                if fam is None:
                    raise ConfigError(f"no templates at all for {signal_type}")
            entries[code] = MixEntry(signal_type, fam)
        jobs = (entries, store.signal, range(len(store)), bytes(len(store)))
        errors = render_jobs(jobs, store, spill, registry, pools, seed)
        if errors:
            raise next(iter(errors.values()))  # the earliest
        write_files_atomic({out_path: map(spill.line_of, range(len(store)))})
    click.echo(f"rendered {len(store)} examples")


def _spec_file(spec_arg: str):
    """The mix spec file `spec_arg` names: a path, else a bundled preset."""
    path = Path(spec_arg)
    if path.exists():
        return path
    preset = resources.files("signalmine").joinpath("presets", f"{spec_arg}.json")
    if preset.is_file():
        return preset
    raise click.UsageError(f"unknown mix spec: {spec_arg}")


@main.command("mix")
@click.option("--spec", "spec_arg", required=True,
              help="MixSpec file path or bundled preset name.")
@click.option("--tuples", "tuples_paths", required=True, multiple=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False))
@_seed_option
def mix_command(spec_arg, tuples_paths, out_path, seed):
    """Cap, render, stage, split, and write a dataset bundle."""
    spec_file = _spec_file(spec_arg)
    _prepare_outputs({"--out": out_path}, {"--tuples": tuples_paths})
    spec = load_mixspec(spec_file)
    registry = load_registry()
    # the record lines spill beside the bundle, on the disk it goes to
    with TupleStore(tuples_paths) as store, Spill(Path(out_path).parent) as spill:
        result = mix(store, spec, registry, spill, seed)
        streams = {
            f"{spec.name}.stage{stage}.{split}": examples
            for (stage, split), examples in sorted(result.examples.items())
        }
        manifest_extra = {
            "spec_name": spec.name,
            "seed": seed,
            "spec_hash": _spec_hash(spec),
            "warnings": result.warnings,
            "render_errors": result.errors,
        }
        bundle_hash = write_bundle(out_path, streams, spill.line_of, manifest_extra)
    click.echo(f"bundle {bundle_hash}")


def _spec_hash(spec) -> str:
    """sha256 of the spec's fields; the manifest records the run's seed apart."""
    return hashlib.sha256(json.dumps(dataclasses.asdict(spec), sort_keys=True).encode()).hexdigest()[:16]


@main.command()
@click.option("--bundle", "bundle_path", required=True, type=click.Path(exists=True, file_okay=False))
def stats(bundle_path):
    """Per-signal sample counts recomputed from a bundle's files."""
    click.echo(stats_report(bundle_path), nl=False)


@main.command()
@click.option("--bundle", "bundle_path", required=True, type=click.Path(exists=True, file_okay=False))
def validate(bundle_path):
    """Check a bundle's digest and manifest line counts."""
    manifest = verify_bundle(bundle_path)
    click.echo(f"ok {manifest['bundle_hash']}")


@main.command()
@click.option("--paper", "paper_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--answers", "answers_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--essay-score", type=float, default=None,
              help="External essay score (overrides the answers file).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the per-section breakdown as JSON.")
def grade(paper_path, answers_path, essay_score, out_path):
    """Grade an exam answer file; prints per-section scores and the total."""
    _prepare_outputs({"--out": out_path}, {"--paper": paper_path, "--answers": answers_path})
    paper = load_paper(paper_path)
    answers = load_answers(answers_path)
    if essay_score is not None:
        answers["essay_score"] = essay_score
    sections, total = grade_gaokao(paper, **answers)
    for sec in sections:
        click.echo(f"{sec.name}: {sec.score:g} / {sec.max_points:g}")
    click.echo(f"total: {total:g}")
    if out_path:
        report = {
            "paper_id": paper.paper_id,
            "sections": {s.name: {"score": s.score, "max": s.max_points} for s in sections},
            "total": total,
        }
        write_files_atomic({out_path: [(json.dumps(report, indent=2, sort_keys=True) + "\n").encode()]})


def _make_scorer(scorer_arg: str):
    if scorer_arg == "reference":
        return ReferenceScorer()
    if not scorer_arg.startswith("external-cmd:"):
        raise click.UsageError(f"unknown scorer: {scorer_arg}")
    try:
        command = shlex.split(scorer_arg[len("external-cmd:"):])
    except ValueError as exc:
        raise ScorerError(f"cannot parse scorer command: {exc}") from exc
    return ExternalCommandScorer(command)


@main.command()
@click.option("--dataset", required=True, help="Dataset id (selects its family's prompts and metric).")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--prompts", "prompts_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON list of 5 {source, target} prompts; replaces the dataset's set.")
@click.option("--scorer", "scorer_arg", default="reference", show_default=True,
              help="'reference' or 'external-cmd:<command line>'.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_seed_option
def evaluate(dataset, data_path, prompts_path, scorer_arg, out_path, seed):
    """Score a dataset with its 5-prompt set by its family's metric; reports avg/max/std."""
    scorer = _make_scorer(scorer_arg)
    _prepare_outputs({"--out": out_path}, {"--data": data_path, "--prompts": prompts_path})
    try:
        prompts = load_prompts(prompts_path, dataset) if prompts_path else None
        numbered = list(read_jsonl(data_path, record_reader(dataset), numbered=True))
        report = eval_dataset(dataset, [rec for _, rec in numbered], scorer, seed=seed, prompts=prompts,
                              origins=[f"{data_path}:{number}" for number, _ in numbered])
        body = json.dumps(report.to_record(), indent=2, sort_keys=True)
        if out_path:
            write_files_atomic({out_path: [(body + "\n").encode()]})
        click.echo(body)
    finally:
        if isinstance(scorer, ExternalCommandScorer):
            try:
                scorer.close()
            except Exception:
                pass


@main.command("audit-templates")
def audit_templates():
    """Template catalog counts against the frozen registry manifest."""
    click.echo(json.dumps(audit(load_registry()), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
