"""One streaming adapter per data mine.

The runner reads each dump once into a `shards.Lines` index, each line
only for its `doc_id` (and, for wordnet, its headword), and keeps the line
of the first document of each id. The kept documents are dealt into shards
that run on every CPU; each reads its own lines again from the index and
spills its tuple lines to disk.

A shard reads every document through its mine's `FIELDS`
(`signal_model.read`): text purified, gate text joined for the language
gate, numbers as floats, lists without their empty texts, objects field by
field. A null field reads as absent; one of another JSON type is one schema
error naming the document and the field. Each adapter is a pure function of
the values read that reports the candidates it rejects; the runner handles
doc-id uniqueness, the language gate, validation, canonical ordering, and
the accepted counts (one per tuple returned, so the report matches the
output by construction). All sampling inside adapters draws from an RNG
keyed by (seed, mine, doc_id), so per-document work is order-independent
and any shard may do it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from ..normalizer import Detector, DetectorError, is_english, purify, trigram_detector
from ..report import ExtractionReport
from ..shards import Lines, Spill, earliest_failures
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


DOCUMENT = {"doc_id": str}  # the key of a dump line the runner reads itself


def document(doc: Mapping) -> tuple[str, Mapping]:
    """A dump line's id, read through DOCUMENT ("" if none), and document."""
    return read(doc, DOCUMENT)["doc_id"], doc


def _first_ids(lines: Lines, mine: str, report: ExtractionReport, vocabulary: set[str] | None) -> list[str]:
    """Read the dump once (`Lines.records`), each line through `document`,
    and keep the line of the first document of each id: the kept ids. A
    document without an id, or with one seen before, is a skip count in
    `report`; each document's headword goes into `vocabulary`, if given."""
    seen: set[str] = set()

    def first(read_line) -> bool:
        doc_id, doc = read_line
        if vocabulary is not None:
            # every document's headword, before the shards check any field;
            # a null one is absent, as the shards read it
            vocabulary.add(purify(str(doc.get("word") or "")).lower())
        if doc_id and doc_id not in seen:
            seen.add(doc_id)
            return True
        report.skip_doc(mine, "duplicate_doc_id" if doc_id else "missing_doc_id")
        return False

    return [doc_id for doc_id, _ in lines.records(document, first)]


def _extract_shard(mine, adapter, fields, kept: Lines, ids: list[str], positions, put, seed: int,
                   detector: Detector, options: Mapping[str, object]) -> tuple[ExtractionReport, dict]:
    """Read again, gate, extract, validate and encode the documents `kept`
    at `positions`, whose ids are `ids`, `put`ting each one's tuple lines,
    until one raises. The shard's counts, and that failure keyed by `mine`.
    A field of the wrong JSON type is a `FieldError` naming the document."""
    report = ExtractionReport()
    ctx = ExtractContext(seed=seed, report=report, options=options)
    for position in positions:
        doc_id = ids[position]
        lines = []
        try:
            gate: list[str] = []
            values = read(kept.read(position, document, lambda read_line: read_line[0] == doc_id,
                                    f"document {doc_id}")[1], fields, gate)
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


def extract_documents(
    mine: str,
    dump: str | os.PathLike,
    seed: int,
    report: ExtractionReport,
    spill: Spill,
    detector: Detector = trigram_detector,
    options: Mapping[str, object] | None = None,
) -> Iterator[bytes]:
    """The tuple-file lines of each document of the JSON-lines file `dump`,
    in doc_id order, read from `spill` as the caller draws them.

    Here the dump is read once, the first document with a given id wins,
    and whole-corpus options are built; no document is kept. The kept
    positions are then dealt into shards (`Spill.run`), each of which reads
    its documents' lines again, and gates, extracts, validates and encodes
    them. The counts land in `report`. A line that does not decode is raised
    before any shard runs; if documents raise, the error raised is that of
    the earliest one, as in one process.
    """
    if mine not in _ADAPTERS:
        raise SchemaError(f"unknown mine: {mine}")
    adapter, fields = _ADAPTERS[mine]
    options = dict(options or {})
    vocabulary = None
    if mine == "wordnet":
        vocabulary = options["vocabulary"] = set()
    with Lines([dump]) as kept:
        ids = _first_ids(kept, mine, report, vocabulary)
        report.docs_processed += len(ids)
        results = spill.run(len(ids), lambda positions, put: _extract_shard(
            mine, adapter, fields, kept, ids, positions, put, seed, detector, options), "extract")
    failures = earliest_failures(failures for _, failures in results)
    if failures:
        raise failures[mine]
    for shard_report, _ in results:
        report.add(shard_report)
    return map(spill.line_of, sorted(range(len(ids)), key=ids.__getitem__))


def read_jsonl(path: str, build: Callable | None = None, numbered: bool = False) -> Iterator:
    with open(path, "rb") as fh:
        yield from json_lines(fh, path, build, numbered)
