"""One streaming adapter per data mine.

Every adapter is a pure function over a single parsed document record that
reports the candidates it rejects; the runner handles the language gate,
doc-id uniqueness, validation, canonical ordering, and the accepted counts
(one per tuple returned, so the report matches the output by construction).
All sampling inside adapters draws from an RNG keyed by (seed, mine, doc_id)
so per-document work is order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from ..normalizer import Detector, DetectorError, is_english, trigram_detector
from ..report import ExtractionReport
from ..signal_model import SchemaError, SignalTuple, json_lines, validate_tuple

from . import arxiv, daily_mail, plain_text, pwc, qa, rotten_tomatoes, wikidata, wikihow, wikipedia, wordnet

MINES = (
    "rotten_tomatoes",
    "daily_mail",
    "wikidata",
    "wikihow",
    "wikipedia",
    "wordnet",
    "qa_corpus",
    "arxiv",
    "paperswithcode",
    "plain_text",
)


@dataclass
class ExtractContext:
    seed: int
    report: ExtractionReport
    options: Mapping[str, object] = field(default_factory=dict)


_ADAPTERS: dict[str, tuple[Callable, Callable]] = {
    "rotten_tomatoes": (rotten_tomatoes.extract, rotten_tomatoes.primary_text),
    "daily_mail": (daily_mail.extract, daily_mail.primary_text),
    "wikidata": (wikidata.extract, wikidata.primary_text),
    "wikihow": (wikihow.extract, wikihow.primary_text),
    "wikipedia": (wikipedia.extract, wikipedia.primary_text),
    "wordnet": (wordnet.extract, wordnet.primary_text),
    "qa_corpus": (qa.extract, qa.primary_text),
    "arxiv": (arxiv.extract, arxiv.primary_text),
    "paperswithcode": (pwc.extract, pwc.primary_text),
    "plain_text": (plain_text.extract, plain_text.primary_text),
}


def extract_documents(
    mine: str,
    docs: Iterable[Mapping],
    seed: int,
    report: ExtractionReport,
    detector: Detector = trigram_detector,
    options: Mapping[str, object] | None = None,
) -> list[SignalTuple]:
    if mine not in _ADAPTERS:
        raise SchemaError(f"unknown mine: {mine}")
    adapter, primary_text = _ADAPTERS[mine]
    options = dict(options or {})
    if mine == "wordnet":
        docs = list(docs)
        options["vocabulary"] = {wordnet.headword(d) for d in docs}
    ctx = ExtractContext(seed=seed, report=report, options=options)

    seen_ids: set[str] = set()
    out: list[tuple[str, int, SignalTuple]] = []
    for doc in docs:
        doc_id = str(doc.get("doc_id", ""))
        if not doc_id:
            report.skip_doc(mine, "missing_doc_id")
            continue
        if doc_id in seen_ids:
            report.skip_doc(mine, "duplicate_doc_id")
            continue
        seen_ids.add(doc_id)
        report.docs_processed += 1
        text = primary_text(doc)
        try:
            if text and not is_english(text, detector):
                report.skip_doc(mine, "language")
                continue
        except DetectorError:
            report.skip_doc(mine, "detector_error")
            continue
        for i, tup in enumerate(adapter(doc, ctx)):
            verdict = validate_tuple(tup)
            if not verdict:
                report.reject(tup.signal_type, f"invalid:{verdict.reason.split(':')[0]}")
                continue
            report.accept(tup.signal_type)
            out.append((doc_id, i, tup))

    out.sort(key=lambda item: (item[0], item[1]))
    return [tup for _, _, tup in out]


def read_jsonl(path: str) -> Iterator[dict]:
    with open(path, "rb") as fh:
        yield from json_lines(fh, path)
