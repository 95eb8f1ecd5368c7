"""One streaming adapter per data mine.

Every adapter is a pure function over a single parsed document record that
reports the candidates it rejects; the runner handles doc-id uniqueness,
the language gate, validation, canonical ordering, and the accepted counts
(one per tuple returned, so the report matches the output by construction).
All sampling inside adapters draws from an RNG keyed by (seed, mine, doc_id)
so per-document work is order-independent, and the documents can be dealt
into shards that run on every CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from ..normalizer import Detector, DetectorError, is_english, trigram_detector
from ..report import ExtractionReport
from ..shards import run_shards, shard_plan, worker_count
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


Line = tuple[int, int, str]  # (document position, index in the adapter's output, tuple-file line)
# the shard's lines and counts, and its first failing document's position
# and exception (None if none failed)
ShardResult = tuple[list[Line], ExtractionReport, tuple[int, Exception] | None]


def _extract_shard(mine, adapter, primary_text, docs: list[tuple[int, Mapping]], seed: int,
                   detector: Detector, options: Mapping[str, object]) -> ShardResult:
    """Gate, extract, validate and encode `docs`, (position, document)
    pairs, in order. The shard stops at the first document that raises."""
    report = ExtractionReport()
    ctx = ExtractContext(seed=seed, report=report, options=options)
    lines: list[Line] = []
    for position, doc in docs:
        try:
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
                lines.append((position, i, tuple_line(tup)))
        except Exception as exc:  # noqa: BLE001 - raised by the parent unless an earlier document failed
            return lines, report, (position, exc)
    return lines, report, None


def extract_documents(
    mine: str,
    docs: Iterable[Mapping],
    seed: int,
    report: ExtractionReport,
    detector: Detector = trigram_detector,
    options: Mapping[str, object] | None = None,
) -> list[str]:
    """The tuple-file line of every accepted tuple, ordered by (doc_id,
    position in its adapter's output).

    Here the first document with a given id wins, and whole-corpus options
    are built. The kept documents are then dealt into shards
    (`run_shards`), each of which gates, extracts, validates and encodes
    its documents. The counts land in `report`. If documents raise, the
    error raised is that of the earliest one, as in one process.
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

    def shard(positions: range) -> ShardResult:
        return _extract_shard(mine, adapter, primary_text, [(p, kept[p][1]) for p in positions],
                              seed, detector, options)

    results = run_shards(shard, shard_plan(len(kept), worker_count()), "extract")
    failures = [failure for _, _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    lines: list[Line] = []
    for shard_lines, shard_report, _ in results:
        lines.extend(shard_lines)
        report.add(shard_report)
    lines.sort(key=lambda item: (kept[item[0]][0], item[1]))
    return [line for _, _, line in lines]


def read_jsonl(path: str) -> Iterator[dict]:
    with open(path, "rb") as fh:
        yield from json_lines(fh, path)
