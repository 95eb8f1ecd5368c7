"""Golden digests: the bundle bytes a fixed seed and fixed inputs produce.

The determinism tests elsewhere compare two runs of the same build; these
pin the bundle hash and the `extract` output across code versions. A change
that alters output bytes must update a digest here on purpose and say why.
"""

from __future__ import annotations

import hashlib
import json
import shlex
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import signalmine.cli as cli
from signalmine import shards
from signalmine.cli import main
from signalmine.eval_harness.scorers import ReferenceScorer
from signalmine.restructurer.pools import DistractorPools
from signalmine.restructurer.render import render
from signalmine.restructurer.templates import load_registry
from signalmine.rng import derive_rng
from signalmine.signal_model import LIST_SEP, SignalTuple, dump_tuples, load_tuples

from conftest import FIXTURES

MINES = (
    "rotten_tomatoes", "daily_mail", "wikidata", "wikihow", "wikipedia",
    "wordnet", "qa_corpus", "arxiv", "paperswithcode", "plain_text",
)

# `extract` every fixture mine, then `mix --spec all_tasks --seed 7`.
FIXTURE_BUNDLE_HASH = "4a2e52321197ecfa51f768bb5eb48e3cfacdf52a27afab2860191871b7ab56e2"
# The same run's `manifest.json`: the spec digest and the seed it records.
FIXTURE_SPEC_HASH = "6c3453777c3c094b"
# The same run, per stream: sha256 over its record lines sorted bytewise. The
# bundle hash pins the shuffled order as well; these pin only which records
# each stream holds, so they hold whatever order the shuffle starts from.
FIXTURE_STREAM_DIGESTS = {
    "all_tasks.stage1.train": "30763fa623312eeb992950e4e0b1e1ef1b9d6bc7bea8447fc82b4aed3c051126",
    "all_tasks.stage2.train": "c1058190430023a790f6898730f989fc10ee34a54661dce13c9776451f6b0916",
}
# The same run's `stats.tsv`, whose counts do not depend on record order.
FIXTURE_STATS_DIGEST = "7219de68ac1c3b1f4a7447562a6cf30ca7126802c531aa13892ff7059633891d"
# A generated corpus whose distractor pools exceed random.sample's set-size
# threshold, so the indexed sampling path is pinned as well.
SYNTHETIC_BUNDLE_HASH = "b1943d1f09389d55e9d9953455906f0d3e3d3f5822548bd2d3c5dd2ce853c77c"

# sha256 over `extract --seed 7`'s tuple file followed by its report, keyed by
# mine for its fixture dump and `unicode:<mine>` for `golden/unicode.jsonl`.
# The fixture dumps are ASCII-only; `golden/unicode.jsonl` adds
# accents, curly quotes, emoji, CJK, no-break and ideographic spaces, C1 and
# information-separator controls and non-English documents, so the
# non-ASCII branch of `purify` and the language gate are pinned too.
EXTRACT_DIGESTS = {
    "rotten_tomatoes": "93807e5993a66e04af1a6c299e17516244cdbee6c63a3a611dade2fb6a6c1ae7",
    "daily_mail": "02f64375b3cac98675ae6239a6503c228ed1e248d301139f9d105c3aa992a75f",
    "wikidata": "aa6c431ef2cc098cf954accd4d70680b169146489bfed8372806b3534cbd1ad8",
    "wikihow": "8e1d9ebeb244d99e3b23b220b42b7450fc270d4e995bb2273cc18bc3c934e315",
    "wikipedia": "4f933d728fba0ed2be06ee65a2dc030114f27d7005469c35d302769b5bbb742d",
    "wordnet": "0a9702c2cdb2ec9fb7103ecd8c2696a6a955c7513ac26e0712dd214582f71a64",
    "qa_corpus": "f9d360563303c365154caebe7b2c8f22c2636fa728f00f424defe5566dfb7d96",
    "arxiv": "cdba4e477feafe6ee0f492d07c1e8a7c3029f629847c435a37042b7530fad0db",
    "paperswithcode": "17462ed2dc55f7908b7151517175550417070072dfa185aca464314f48db7c0c",
    "plain_text": "ddf1645d7c5b4a900453624d072e3dd3d7394c9d06f2529e34394b25846e3977",
    "unicode:rotten_tomatoes": "0a9f44266c1c393b48381836f58c0ade191e61ec4e1fdfa8df8081775d8f1c95",
    "unicode:plain_text": "0da8d03269eb77c3fef3e68573a7b60349870487cf1ba181f76f60590372b005",
}

# `restructure --seed 3 --family <family>` of each fixture mine's tuple file
# (`extract --seed 7`): sha256 over the examples file, or the one stderr line
# of a run that fails. Pinned before `restructure` rendered through `mix`'s
# render shards; the earliest failing tuple decides a failing run's line.
RESTRUCTURE_OUTCOMES = {
    "auto:rotten_tomatoes": "e0c836cb5c4ea8b690372944e6f1e24455f5aec9e359481c604e83bb27161d1f",
    "auto:daily_mail": "5c5f28c09fae8d90ac75f2d11226814a5855c5b91750ec1d1f20a93633aeef42",
    "auto:wikidata": "84a81200126052707ec94bca0d720023a5e071ba3f404cf0a41a5414721abca6",
    "auto:wikihow": "e8d74fed3d5936d8e6616b433823dd4517473d06f23c894a87d958cdcafe0dfe",
    "auto:wikipedia": "c093f0b1df9b14a6c8643ad4f2fcaf45f813d0bf3d7dfd19ca02180bbda8caf2",
    "auto:wordnet": "481fddb15c79cf8f4b5fe2d60df238bfef230726660a51b5d3bb694aad6ca7bd",
    "auto:qa_corpus": "f5178f0e0bbcb277ca042ac5f4e0e7e6cf6425a9cb7254cb28f808620c0e1146",
    "auto:arxiv": "05770e6f9824e9b7dbcaaab88d5233e19e326b85e7d9fa2b7204bb5a963e8b54",
    "auto:paperswithcode": "b77486ed3966f7b071b421aebb8a53b54cb87a59f151cf37d1ec28f5ff7bae40",
    "auto:plain_text": "a046b19c7504636f20d022805326055d3902c354bb554229a88f7a84f903b067",
    "multiple_choice:rotten_tomatoes": "e0c836cb5c4ea8b690372944e6f1e24455f5aec9e359481c604e83bb27161d1f",
    "multiple_choice:daily_mail": "5c5f28c09fae8d90ac75f2d11226814a5855c5b91750ec1d1f20a93633aeef42",
    "multiple_choice:wikidata": "84a81200126052707ec94bca0d720023a5e071ba3f404cf0a41a5414721abca6",
    "multiple_choice:wikihow": "e8d74fed3d5936d8e6616b433823dd4517473d06f23c894a87d958cdcafe0dfe",
    "multiple_choice:wikipedia": "c093f0b1df9b14a6c8643ad4f2fcaf45f813d0bf3d7dfd19ca02180bbda8caf2",
    "multiple_choice:wordnet": "481fddb15c79cf8f4b5fe2d60df238bfef230726660a51b5d3bb694aad6ca7bd",
    "multiple_choice:qa_corpus": "config-error: no templates for (qa_triviaqa, multiple_choice, group=None)",
    "multiple_choice:arxiv": "05770e6f9824e9b7dbcaaab88d5233e19e326b85e7d9fa2b7204bb5a963e8b54",
    "multiple_choice:paperswithcode":
        "config-error: no templates for (paperswithcode_summary, multiple_choice, group=None)",
    "multiple_choice:plain_text": "a046b19c7504636f20d022805326055d3902c354bb554229a88f7a84f903b067",
    "generation:rotten_tomatoes": "c8a9faa37e02538845fe76442ee444b31bf8d81d5ee694f3e043da9c10091ba9",
    "generation:daily_mail": "render-error: no applicable template for tuple of daily_mail_temporal (group=None)",
    "generation:wikidata": "7da56a09d91a901fac66716f29208babeb043a5906adf46c64113d92d64254e0",
    "generation:wikihow": "467aa928b27142b5829cfbf415f23ba246585a04bc41f2b02a7ac20421d5eabb",
    "generation:wikipedia": "93ecf61b930ecf0dd3b82c00548bcab46e8492d03d4396de6ec62baa146d76ad",
    "generation:wordnet": "03f6855c15f92ab055df6a7c84e3a7abc9f6184664a5e4d5b6beaa1b561a0172",
    "generation:qa_corpus": "config-error: no templates for (qa_race, generation, group=None)",
    "generation:arxiv": "3665c6441f9a5079ac8c5e367018dc8b0f73d13e05af810f168bd0ae4ea4beef",
    "generation:paperswithcode": "13e56ae96088eb0091c889c92f479c5b5804904f81bc25086d704e39b80ca36e",
    "generation:plain_text": "a046b19c7504636f20d022805326055d3902c354bb554229a88f7a84f903b067",
}

# sha256 over every request the scorer receives while `evaluate --seed 5`
# scores a fixture set under `eval/` with the reference scorer, one JSON line
# each (`["score", source, candidate]` or `["generate", source]`), followed by
# the printed report. Pins the prompt text of accuracy, two-step NER and
# ROUGE-1 evaluation, not only the scores it leads to.
EVAL_DIGESTS = {
    "conll03": "e0deb034618fc271360e9b0905b4dce7c5096a84d17d696590b43ecf9cd38631",  # two-step NER
    "lama_trex": "a2a4be7a0d46c330837c551de6b1ef21262a1a565fea519784418b6d4dc42328",
    "mr": "fdd38897df728e3f68ea1bb7e65ab70c5861353f41d5dcb6a512c6ae620bbcc1",
    "qc": "a5b7b4e5e3f9712077adcd4a62932772f436619b51704a12a91d80e63f2028c5",
    "rte": "6f1f127999bd20819db8527b9a568e174c69cfb21ccb647e88d9ae342600c7af",
    "scitldr": "54a94bcff6b7559d575374873e883c5519de8ff92edb9a5d0d4bf48a4279c366",  # ROUGE-1
    "semeval2007": "762e7f74180441dba6b0d60340c03cd7c2192921e82e9d8c10750cb9b1eb7139",
    "snips": "4540828e5c2f45b52ce38db39383ecb3d99c1373a5e597e3751795b7b0dfa29b",
    "subj": "eaaf1fd8a0b7643e9613c0634aaabccf5153e606da9437f52e3b3b5289b34a0f",
    "tracie": "234f32575caf983150be70950858bef7b8d98c3f62bcc1a51e825b5cffb59539",
    "wiki80": "e6502437e7e6c45820e57e247f47ebb281495679139cf4739ba69172000334d6",
}

# sha256 over the raw bytes an `external-cmd:` scorer reads on stdin while
# `evaluate --seed 5` scores a fixture set under `eval/`, followed by the
# printed report. Pins the wire format itself: request order, key order and
# JSON escaping, one line per request.
EXTERNAL_REQUEST_DIGESTS = {
    "conll03": "d4422342760ac3f80d2d4fdf3137b926dd0bcf97a65d820864afd5978fe244cc",  # two-step NER
    "scitldr": "452c07d763381a7b044913bf9faf4948c788b6e83daad150915f1730547ecd8d",  # ROUGE-1
    "snips": "cf98e18a2b86c483ea74ffd47ced9cf11e5927731d790b56641dc0c533428d07",
}

# sha256 over the source and target of every template in the registry,
# rendered on the first three fixture tuples it applies to (3,343 renders),
# with pools built from all fixture tuples. The bundle pin reaches only the
# templates `mix` happens to select; this one reaches every template.
ALL_TEMPLATES_RENDER_DIGEST = "928c3c684270f3b0d5c95a268d56ba6fb5fe01cf8a6a06c1940d58f95740b624"
ALL_TEMPLATES_RENDERS = 3343

# The ordered pool values that one hand-built tuple per pool-feeding signal
# gives, every value distinct, so a swapped or reordered feed shows.
FEED_TUPLES = [
    SignalTuple("daily_mail_summary", ("dm title", "dm text", "dm summary"), "d/1"),
    SignalTuple("arxiv_summary", ("ax abstract", "ax title"), "a/1"),
    SignalTuple("wikidata_relation", ("wd text", "wd subject", "wd property", "wd object"), "w/1"),
    SignalTuple("wikidata_entity", ("we text", "we entity", "we type"), "w/2"),
    SignalTuple("wikihow_category_hierarchy", ("wh low", "wh high"), "h/1"),
    SignalTuple("wikihow_goal_step", ("gs goal", "gs step"), "h/2"),
    SignalTuple("wikihow_summary", ("su step", "su description"), "h/3"),
    SignalTuple("wikihow_procedure", ("pr goal", "pr first", "pr second"), "h/4"),
    SignalTuple("wikihow_question", ("qu title", "qu description", "qu first", "qu answer"), "h/5",
                {"related_questions": LIST_SEP.join(("qu related 1", "qu related 2"))}),
    SignalTuple("wordnet_pos", ("pos word", "pos sentence", "noun"), "n/1"),
    SignalTuple("wordnet_meaning", ("me word", "me sentence", "me meaning", "me a | me b"), "n/2"),
    SignalTuple("wordnet_synonym", ("sy word", "sy sentence", "sy synonym"), "n/3"),
    SignalTuple("wordnet_antonym", ("an word", "an sentence", "an antonym"), "n/4"),
]
FEED_POOLS = {
    "daily_mail_titles": ["dm title"],
    "arxiv_titles": ["ax title"],
    "wikidata_subjects": ["wd subject"],
    "wikidata_properties": ["wd property"],
    "wikidata_objects": ["wd object"],
    "wikidata_entity_types": ["we type"],
    "wikihow_high_categories": ["wh high"],
    "wikihow_goals": ["gs goal", "pr goal"],
    "wikihow_step_headlines": ["gs step", "su step", "pr first", "pr second"],
    "wikihow_questions": ["qu title", "qu related 1", "qu related 2"],
    "wordnet_words": ["pos word", "me word", "sy word", "sy synonym", "an word", "an antonym"],
}

SYNTHETIC_SIZE = 2100

_ADJECTIVES = ("quiet", "bright", "early", "northern", "local", "rapid", "hidden")
_NOUNS = ("harbor", "council", "garden", "bridge", "festival", "museum", "railway", "market", "school", "river", "tower")


def _invoke(args: list[str]) -> str:
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


def _mix(tmp_path, spec: str, tuple_files: list) -> str:
    args = ["mix", "--spec", spec, "--out", str(tmp_path / "bundle"), "--seed", "7"]
    for path in tuple_files:
        args += ["--tuples", str(path)]
    return _invoke(args).strip().split()[-1]


def synthetic_tuples(n: int = SYNTHETIC_SIZE) -> list[SignalTuple]:
    """`n` daily_mail_summary titles and `n` wikidata_relation objects, all
    distinct; subjects and properties repeat, so their pools stay smaller."""
    out = []
    for i in range(n):
        adj, noun = _ADJECTIVES[i % len(_ADJECTIVES)], _NOUNS[i % len(_NOUNS)]
        out.append(SignalTuple(
            "daily_mail_summary",
            (f"Report {i} on the {adj} {noun}",
             f"Officials said on day {i} that the {adj} {noun} would reopen after repairs.",
             f"The {adj} {noun} reopens after repairs, officials said on day {i}."),
            f"daily_mail/syn{i}",
        ))
        out.append(SignalTuple(
            "wikidata_relation",
            (f"Person {i % 700} is linked to place {i} by relation {i % 40}.",
             f"Person {i % 700}", f"relation {i % 40}", f"Place {i} of the {noun}"),
            f"wikidata/syn{i}",
        ))
    return out


def _extract(tmp_path, mine: str, dump):
    out = tmp_path / f"{mine}.tuples"
    args = ["extract", "--mine", mine, "--in", str(dump), "--out", str(out), "--seed", "7"]
    if mine == "paperswithcode":
        args += ["--db", str(FIXTURES / "mines" / "pwc_entity_db.jsonl")]
    _invoke(args)
    return out


@pytest.fixture(scope="module")
def fixture_tuple_files(tmp_path_factory):
    """`extract --seed 7` of every fixture mine, one tuple file each."""
    out = tmp_path_factory.mktemp("fixture_tuples")
    return [_extract(out, mine, FIXTURES / "mines" / f"{mine}.jsonl") for mine in MINES]


def test_fixture_pipeline_bundle_hash(tmp_path, fixture_tuple_files):
    assert _mix(tmp_path, "all_tasks", fixture_tuple_files) == FIXTURE_BUNDLE_HASH
    manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["spec_hash"], manifest["seed"]) == (FIXTURE_SPEC_HASH, 7)


def test_fixture_bundle_stream_contents(tmp_path, fixture_tuple_files):
    _mix(tmp_path, "all_tasks", fixture_tuple_files)
    bundle = tmp_path / "bundle"
    streams = {
        path.name: hashlib.sha256(b"".join(sorted(path.read_bytes().splitlines(keepends=True)))).hexdigest()
        for path in bundle.iterdir() if path.name not in ("manifest.json", "stats.tsv")
    }
    assert streams == FIXTURE_STREAM_DIGESTS
    assert hashlib.sha256((bundle / "stats.tsv").read_bytes()).hexdigest() == FIXTURE_STATS_DIGEST


class _RecordingScorer(ReferenceScorer):
    """The reference scorer, writing down every request it answers."""

    requests: list[str] = []

    def score(self, source, candidate):
        self.requests.append(json.dumps(["score", source, candidate]))
        return super().score(source, candidate)

    def generate(self, source):
        self.requests.append(json.dumps(["generate", source]))
        return super().generate(source)


@pytest.mark.parametrize("dataset", sorted(EVAL_DIGESTS))
def test_evaluate_requests_and_report_digest(dataset, monkeypatch):
    monkeypatch.setattr(_RecordingScorer, "requests", [])
    monkeypatch.setattr(cli, "ReferenceScorer", _RecordingScorer)
    report = _invoke(["evaluate", "--dataset", dataset, "--data", str(FIXTURES / "eval" / f"{dataset}.jsonl"),
                      "--seed", "5"])
    assert _RecordingScorer.requests
    blob = "".join(line + "\n" for line in _RecordingScorer.requests) + report
    assert hashlib.sha256(blob.encode()).hexdigest() == EVAL_DIGESTS[dataset]


# Answers with the reference scorer, imported from the source directory named
# by its second argument, and appends every stdin line, as read, to the file
# named by its first.
_RECORDING_PROGRAM = """
import json, sys
sys.path.insert(0, sys.argv[2])
from signalmine.eval_harness.scorers import ReferenceScorer
scorer = ReferenceScorer()
with open(sys.argv[1], "ab") as log:
    for raw in sys.stdin.buffer:
        log.write(raw)
        log.flush()
        request = json.loads(raw)
        if request["op"] == "score":
            reply = {"logprobs": scorer.score(request["source"], request["candidate"])}
        else:
            reply = {"text": scorer.generate(request["source"])}
        sys.stdout.write(json.dumps(reply) + "\\n")
        sys.stdout.flush()
"""


@pytest.mark.parametrize("dataset", sorted(EXTERNAL_REQUEST_DIGESTS))
def test_external_request_bytes_digest(dataset, tmp_path):
    program = tmp_path / "recorder.py"
    program.write_text(_RECORDING_PROGRAM, encoding="utf-8")
    log = tmp_path / "stdin.log"
    src = Path(cli.__file__).resolve().parents[1]
    command = " ".join(shlex.quote(str(a)) for a in (sys.executable, program, log, src))
    report = _invoke(["evaluate", "--dataset", dataset, "--data", str(FIXTURES / "eval" / f"{dataset}.jsonl"),
                      "--scorer", f"external-cmd:{command}", "--seed", "5"])
    blob = log.read_bytes() + report.encode()
    assert hashlib.sha256(blob).hexdigest() == EXTERNAL_REQUEST_DIGESTS[dataset]


@pytest.mark.parametrize("key", sorted(EXTRACT_DIGESTS))
def test_extract_output_digest(tmp_path, key):
    mine = key.rpartition(":")[2]
    dump = FIXTURES / "golden" / "unicode.jsonl" if ":" in key else FIXTURES / "mines" / f"{mine}.jsonl"
    out = _extract(tmp_path, mine, dump)
    report = out.with_name(out.name + ".report.json")
    assert hashlib.sha256(out.read_bytes() + report.read_bytes()).hexdigest() == EXTRACT_DIGESTS[key]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_restructure_outcome_per_fixture_mine_at_any_worker_count(monkeypatch, tmp_path, fixture_tuple_files,
                                                                   workers):
    monkeypatch.setattr(shards, "worker_count", lambda: workers)
    outcomes = {}
    for family in ("auto", "multiple_choice", "generation"):
        for path in fixture_tuple_files:
            out = tmp_path / f"{family}.{path.stem}.jsonl"
            result = CliRunner().invoke(main, ["restructure", "--tuples", str(path), "--out", str(out),
                                               "--seed", "3", "--family", family])
            if result.exit_code == 0:
                outcomes[f"{family}:{path.stem}"] = hashlib.sha256(out.read_bytes()).hexdigest()
            else:
                assert result.exit_code == 1 and not out.exists()
                outcomes[f"{family}:{path.stem}"] = result.output.rstrip("\n")
    assert outcomes == RESTRUCTURE_OUTCOMES


def test_synthetic_corpus_bundle_hash(tmp_path):
    tuples = tmp_path / "synthetic.tuples"
    tuples.write_text(dump_tuples(synthetic_tuples()), encoding="utf-8")
    entries = [
        {"signal_type": signal, "family": family, "stage": 1 if family == "multiple_choice" else 2}
        for signal in ("daily_mail_summary", "wikidata_relation")
        for family in ("multiple_choice", "generation")
    ]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "synthetic", "split_ratio": 0.1, "entries": entries}), encoding="utf-8")
    assert _mix(tmp_path, str(spec), [tuples]) == SYNTHETIC_BUNDLE_HASH


def test_every_template_render_digest(fixture_tuple_files):
    tuples = [t for path in fixture_tuple_files for t in load_tuples(path.read_text(encoding="utf-8"))]
    pools = DistractorPools.build(tuples)
    by_signal: dict[str, list[SignalTuple]] = {}
    for tup in tuples:
        by_signal.setdefault(tup.signal_type, []).append(tup)
    digest = hashlib.sha256()
    renders = 0
    for template in load_registry().by_id.values():
        applicable = [t for t in by_signal.get(template.signal_type, []) if template.applies_to(t)]
        for i, tup in enumerate(applicable[:3]):
            example = render(tup, template, pools, derive_rng(7, "golden", template.template_id, i), seed=7)
            digest.update(json.dumps([template.template_id, i, example.source, example.target]).encode() + b"\n")
            renders += 1
    assert renders == ALL_TEMPLATES_RENDERS
    assert digest.hexdigest() == ALL_TEMPLATES_RENDER_DIGEST


def test_pool_feed_order():
    assert DistractorPools.build(FEED_TUPLES).values == FEED_POOLS
