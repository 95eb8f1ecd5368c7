"""Golden digests: the bundle bytes a fixed seed and fixed inputs produce.

The determinism tests elsewhere compare two runs of the same build; these
pin the bundle hash across code versions. A change that alters output bytes
must update a digest here on purpose and say why.
"""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from signalmine.cli import main
from signalmine.signal_model import SignalTuple, dump_tuples

from conftest import FIXTURES

MINES = (
    "rotten_tomatoes", "daily_mail", "wikidata", "wikihow", "wikipedia",
    "wordnet", "qa_corpus", "arxiv", "paperswithcode", "plain_text",
)

# `extract` every fixture mine, then `mix --spec all_tasks --seed 7`.
FIXTURE_BUNDLE_HASH = "ec30dbf7f6e44d822872b814d27e871771356a4134a01bb9d5c011f2f1a1a47b"
# A generated corpus whose distractor pools exceed random.sample's set-size
# threshold, so the indexed sampling path is pinned as well.
SYNTHETIC_BUNDLE_HASH = "d79bdff4fdacd13672dbe13d8d3ac83683ae5a2f0860d8d2156e8877385b328f"

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


def test_fixture_pipeline_bundle_hash(tmp_path):
    tuple_files = []
    for mine in MINES:
        out = tmp_path / f"{mine}.tuples"
        args = ["extract", "--mine", mine, "--in", str(FIXTURES / "mines" / f"{mine}.jsonl"),
                "--out", str(out), "--seed", "7"]
        if mine == "paperswithcode":
            args += ["--db", str(FIXTURES / "mines" / "pwc_entity_db.jsonl")]
        _invoke(args)
        tuple_files.append(out)
    assert _mix(tmp_path, "all_tasks", tuple_files) == FIXTURE_BUNDLE_HASH


def test_synthetic_corpus_bundle_hash(tmp_path):
    tuples = tmp_path / "synthetic.tuples"
    tuples.write_text(dump_tuples(synthetic_tuples()), encoding="utf-8")
    entries = [
        {"signal_type": signal, "family": family, "stage": 1 if family == "multiple_choice" else 2}
        for signal in ("daily_mail_summary", "wikidata_relation")
        for family in ("multiple_choice", "generation")
    ]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "synthetic", "split_ratio": 0.1, "global_seed": 7,
                                "entries": entries}), encoding="utf-8")
    assert _mix(tmp_path, str(spec), [tuples]) == SYNTHETIC_BUNDLE_HASH
