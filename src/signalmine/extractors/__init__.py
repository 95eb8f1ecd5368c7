"""One streaming adapter per data mine.

Every adapter is a pure function over a single parsed document record that
reports the candidates it rejects; the runner handles doc-id uniqueness,
the language gate, validation, canonical ordering, and the accepted counts
(one per tuple returned, so the report matches the output by construction).
All sampling inside adapters draws from an RNG keyed by (seed, mine, doc_id)
so per-document work is order-independent, and the documents can be dealt
into shards that run on every CPU, each spilling its tuple lines to disk.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

from ..normalizer import Detector, DetectorError, is_english, trigram_detector
from ..report import ExtractionReport
from ..shards import Spill
from ..signal_model import SchemaError, json_lines, tuple_line, validate_tuple

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


# per document, the end of its tuple lines in the spill file; the shard's
# counts; and its first failing document's position and exception, or None
ShardResult = tuple[array, tuple[ExtractionReport, tuple[int, Exception] | None]]


def _extract_shard(mine, adapter, primary_text, kept, positions, spill: BinaryIO, seed: int,
                   detector: Detector, options: Mapping[str, object]) -> ShardResult:
    """Gate, extract, validate and encode the (doc_id, document) pairs of
    `kept` at `positions` into `spill`, stopping at the first that raises.
    A field of the wrong JSON type, which an adapter meets as a `TypeError`,
    `ValueError` or `AttributeError`, is a `SchemaError` naming the document."""
    report = ExtractionReport()
    ctx = ExtractContext(seed=seed, report=report, options=options)
    ends = array("Q")
    end = 0
    for position in positions:
        doc_id, doc = kept[position]
        try:
            text = primary_text(doc)
            try:
                skip = "language" if text and not is_english(text, detector) else None
            except DetectorError:
                skip = "detector_error"
            if skip:
                report.skip_doc(mine, skip)
            else:
                for tup in adapter(doc, ctx):
                    verdict = validate_tuple(tup)
                    if not verdict:
                        report.reject(tup.signal_type, f"invalid:{verdict.reason.split(':')[0]}")
                        continue
                    report.accept(tup.signal_type)
                    end += spill.write(tuple_line(tup).encode())
        except Exception as exc:  # noqa: BLE001 - raised by the parent unless an earlier document failed
            if isinstance(exc, (TypeError, ValueError, AttributeError)) and not isinstance(exc, SchemaError):
                exc = SchemaError(f"{mine} document {doc_id}: a field has the wrong type: {exc}")
            return ends, (report, (position, exc))
        ends.append(end)
    return ends, (report, None)


def extract_documents(
    mine: str,
    docs: Iterable[Mapping],
    seed: int,
    report: ExtractionReport,
    spill: Spill,
    detector: Detector = trigram_detector,
    options: Mapping[str, object] | None = None,
) -> Iterator[bytes]:
    """The tuple-file lines of each document, in doc_id order, read from
    `spill` as the caller draws them.

    Here the first document with a given id wins, and whole-corpus options
    are built. The kept documents are then dealt into shards (`Spill.run`),
    each of which gates, extracts, validates and encodes its documents. The
    counts land in `report`. If documents raise, the error raised is that
    of the earliest one, as in one process.
    """
    if mine not in _ADAPTERS:
        raise SchemaError(f"unknown mine: {mine}")
    adapter, primary_text = _ADAPTERS[mine]
    options = dict(options or {})
    if mine == "wordnet":
        docs = list(docs)
        options["vocabulary"] = {wordnet.headword(d) for d in docs}

    seen_ids: set[str] = set()
    kept: list[tuple[str, Mapping]] = []
    for doc in docs:
        doc_id = str(doc.get("doc_id", ""))
        if not doc_id:
            report.skip_doc(mine, "missing_doc_id")
            continue
        if doc_id in seen_ids:
            report.skip_doc(mine, "duplicate_doc_id")
            continue
        seen_ids.add(doc_id)
        kept.append((doc_id, doc))
    report.docs_processed += len(kept)

    results = spill.run(len(kept), lambda positions, file: _extract_shard(
        mine, adapter, primary_text, kept, positions, file, seed, detector, options), "extract")
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    for shard_report, _ in results:
        report.add(shard_report)
    return map(spill.line_of, sorted(range(len(kept)), key=lambda position: kept[position][0]))


def read_jsonl(path: str) -> Iterator[dict]:
    with open(path, "rb") as fh:
        yield from json_lines(fh, path)
