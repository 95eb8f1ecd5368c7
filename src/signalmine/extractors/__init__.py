"""One streaming adapter per data mine.

Each adapter module declares `FIELDS`, the document fields it reads, and the
runner reads every document through them (`signal_model.read`): text purified,
gate text joined for the language gate, numbers as floats, lists without
their empty texts, objects field by field. A null field reads as absent; one
of another JSON type is one schema error naming the document and the field.
Each adapter is a pure function of the values read that reports the
candidates it rejects; the runner handles doc-id uniqueness, the language
gate, validation, canonical ordering, and the accepted counts (one per tuple
returned, so the report matches the output by construction).
All sampling inside adapters draws from an RNG keyed by (seed, mine, doc_id)
so per-document work is order-independent, and the documents can be dealt
into shards that run on every CPU, each spilling its tuple lines to disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from ..normalizer import Detector, DetectorError, is_english, purify, trigram_detector
from ..report import ExtractionReport
from ..shards import Spill, earliest_failures
from ..signal_model import FieldError, SchemaError, json_lines, read, tuple_line, validate_tuple

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


_ADAPTERS: dict[str, tuple[Callable, dict]] = {
    mine: (module.extract, module.FIELDS) for mine, module in zip(MINES, (
        rotten_tomatoes, daily_mail, wikidata, wikihow, wikipedia, wordnet, qa, arxiv, pwc, plain_text))
}


def _extract_shard(mine, adapter, fields, kept, positions, put, seed: int, detector: Detector,
                   options: Mapping[str, object]) -> tuple[ExtractionReport, dict]:
    """Read, gate, extract, validate and encode the (doc_id, document) pairs
    of `kept` at `positions`, `put`ting each one's tuple lines, until one
    raises. The shard's counts, and that failure keyed by `mine`. A field of
    the wrong JSON type is a `FieldError` naming the document."""
    report = ExtractionReport()
    ctx = ExtractContext(seed=seed, report=report, options=options)
    for position in positions:
        doc_id, doc = kept[position]
        lines = []
        try:
            gate: list[str] = []
            values = read(doc, fields, gate)
            text = " ".join(gate)
            try:
                skip = "language" if text and not is_english(text, detector) else None
            except DetectorError:
                skip = "detector_error"
            if skip:
                report.skip_doc(mine, skip)
            else:
                for tup in adapter({**values, "doc_id": doc_id}, ctx):
                    verdict = validate_tuple(tup)
                    if not verdict:
                        report.reject(tup.signal_type, f"invalid:{verdict.reason.split(':')[0]}")
                        continue
                    report.accept(tup.signal_type)
                    lines.append(tuple_line(tup))
        except FieldError as exc:
            return report, {mine: (position, FieldError(f"{mine} document {doc_id}: {exc}"))}
        except Exception as exc:  # noqa: BLE001 - raised by the parent unless an earlier document failed
            return report, {mine: (position, exc)}
        put("".join(lines).encode())
    return report, {}


DOCUMENT = {"doc_id": str}  # the key of a dump line the runner reads itself


def document(doc: Mapping) -> tuple[str, Mapping]:
    """A dump line's id, read through DOCUMENT ("" if none), and document."""
    return read(doc, DOCUMENT)["doc_id"], doc


def extract_documents(
    mine: str,
    docs: Iterable[tuple[str, Mapping]],
    seed: int,
    report: ExtractionReport,
    spill: Spill,
    detector: Detector = trigram_detector,
    options: Mapping[str, object] | None = None,
) -> Iterator[bytes]:
    """The tuple-file lines of each of the (doc_id, document) pairs `docs`,
    in doc_id order, read from `spill` as the caller draws them.

    Here the first document with a given id wins, and whole-corpus options
    are built. The kept documents are then dealt into shards (`Spill.run`),
    each of which reads, gates, extracts, validates and encodes its
    documents. The counts land in `report`. If documents raise, the error
    raised is that of the earliest one, as in one process.
    """
    if mine not in _ADAPTERS:
        raise SchemaError(f"unknown mine: {mine}")
    adapter, fields = _ADAPTERS[mine]
    options = dict(options or {})
    if mine == "wordnet":
        docs = list(docs)
        # every document's headword, before the shards check any field; a
        # null one is absent, as the shards read it
        options["vocabulary"] = {purify(str(d.get("word") or "")).lower() for _, d in docs}

    seen_ids: set[str] = set()
    kept: list[tuple[str, Mapping]] = []
    for doc_id, doc in docs:
        if not doc_id:
            report.skip_doc(mine, "missing_doc_id")
            continue
        if doc_id in seen_ids:
            report.skip_doc(mine, "duplicate_doc_id")
            continue
        seen_ids.add(doc_id)
        kept.append((doc_id, doc))
    report.docs_processed += len(kept)

    results = spill.run(len(kept), lambda positions, put: _extract_shard(
        mine, adapter, fields, kept, positions, put, seed, detector, options), "extract")
    failures = earliest_failures(failures for _, failures in results)
    if failures:
        raise failures[mine]
    for shard_report, _ in results:
        report.add(shard_report)
    return map(spill.line_of, sorted(range(len(kept)), key=lambda position: kept[position][0]))


def read_jsonl(path: str, build: Callable | None = None, numbered: bool = False) -> Iterator:
    with open(path, "rb") as fh:
        yield from json_lines(fh, path, build, numbered)
