from __future__ import annotations

import json
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import strategies as st

from signalmine.extractors import document, extract_documents, read_jsonl
from signalmine.extractors.pwc import ENTRY, EntityDb
from signalmine.normalizer import trigram_detector
from signalmine.report import ExtractionReport
from signalmine.shards import Spill
from signalmine.signal_model import dump_tuples, load_tuples, read

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_docs(name: str) -> list[dict]:
    return list(read_jsonl(str(FIXTURES / "mines" / f"{name}.jsonl")))


def always_english(_text: str) -> tuple[str, float]:
    return ("en", 1.0)


def run_adapter(module, doc: dict, ctx) -> list:
    """`module.extract` on `doc` as the extract runner hands it over: read
    through the mine's `FIELDS`, with its doc_id."""
    return module.extract({**read(doc, module.FIELDS, []), "doc_id": doc["doc_id"]}, ctx)


def extract_lines(mine: str, docs, seed: int, report: ExtractionReport, detector=trigram_detector,
                  options=None) -> list[str]:
    """`extract_documents` of `docs`, each with its id read as the `extract`
    command reads it, through a spill of its own: the tuple-file lines, each
    with its newline."""
    with Spill(tempfile.gettempdir()) as spill:
        text = b"".join(extract_documents(mine, map(document, docs), seed, report, spill, detector,
                                          options)).decode()
    return [line + "\n" for line in text.split("\n")[:-1]]


def extract_fixture(mine: str, seed: int = 7, **options):
    """Extract a fixture dump with a detector that admits every document
    (rule tests want to see the word-count gates, not the language detector)."""
    if mine == "paperswithcode" and "entity_db" not in options:
        options["entity_db"] = EntityDb(read_jsonl(str(FIXTURES / "mines" / "pwc_entity_db.jsonl"),
                                                   partial(read, shape=ENTRY)))
    report = ExtractionReport()
    lines = extract_lines(
        mine,
        fixture_docs(mine),
        seed=seed,
        report=report,
        detector=always_english,
        options=options,
    )
    return load_tuples("".join(lines)), report


@pytest.fixture(scope="session", autouse=True)
def unicode_tables():
    """Builds hypothesis's unicode tables once, before any test draws text.
    In a checkout without `.hypothesis/`, building them takes seconds, and the
    first test to draw a string would fail its health check as slow input
    generation."""
    st.text().validate()


@pytest.fixture
def tuple_file(tmp_path_factory):
    """Writes tuples to a tuple file (`dump_tuples`) in a directory of its
    own and returns its path: `mix` and `restructure` read tuples only from
    their files."""
    def write(tuples) -> Path:
        path = tmp_path_factory.mktemp("tuples") / "in.tuples"
        path.write_text(dump_tuples(tuples), encoding="utf-8")
        return path

    return write


@pytest.fixture(scope="session")
def all_fixture_tuples():
    out = []
    for mine in (
        "rotten_tomatoes", "daily_mail", "wikidata", "wikihow", "wikipedia",
        "wordnet", "qa_corpus", "arxiv", "paperswithcode", "plain_text",
    ):
        out.extend(extract_fixture(mine)[0])
    return out


def load_eval_fixture(name: str) -> list[dict]:
    return list(read_jsonl(str(FIXTURES / "eval" / f"{name}.jsonl")))


def gaokao_fixture(name: str):
    path = FIXTURES / "gaokao" / name
    if name.endswith(".jsonl"):
        return list(read_jsonl(str(path)))
    return json.loads(path.read_text(encoding="utf-8"))
