"""One streaming adapter per data mine.

The runner streams each dump: it reads the file once, one line at a time,
and decodes each line only for its `doc_id` (and, for wordnet, its
headword). Of the first document of each id it keeps the id and where the
line lies, and drops the document. The kept documents are dealt into shards
that run on every CPU; each shard reads its own lines again with
`os.pread`, decodes them, and spills its tuple lines to disk.

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
from array import array
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterator, Mapping

from ..dataset_io import IntegrityError
from ..normalizer import Detector, DetectorError, is_english, purify, trigram_detector
from ..report import ExtractionReport
from ..shards import Spill, earliest_failures
from ..signal_model import FieldError, SchemaError, json_line, json_lines, read, tuple_line, validate_tuple

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


class _Kept:
    """The first document of each doc_id in the dump `file` at `path`, in
    file order: its id, and its line's offset and length in `array`s."""

    def __init__(self, path: str, file: BinaryIO):
        self.path, self.file = path, file
        self.ids: list[str] = []
        self.offset = array("Q")
        self.size = array("I")  # with its newline

    def read(self, mine: str, report: ExtractionReport, vocabulary: set[str] | None) -> None:
        """Read the file once, a line at a time, each line through
        `document`: a line that does not decode is the `SchemaError`
        `read_jsonl` raises for it. A document without an id, or with one
        seen before, is a skip count in `report`; each document's headword
        goes into `vocabulary`, if given."""
        seen: set[str] = set()
        offset = 0
        for number, line in enumerate(self.file, 1):
            read_line = json_line(line, self.path, number, document)
            if read_line is not None:
                doc_id, doc = read_line
                if vocabulary is not None:
                    # every document's headword, before the shards check
                    # any field; a null one is absent, as the shards read it
                    vocabulary.add(purify(str(doc.get("word") or "")).lower())
                if not doc_id:
                    report.skip_doc(mine, "missing_doc_id")
                elif doc_id in seen:
                    report.skip_doc(mine, "duplicate_doc_id")
                else:
                    seen.add(doc_id)
                    self.ids.append(doc_id)
                    self.offset.append(offset)
                    self.size.append(len(line))
            offset += len(line)

    def document(self, position: int) -> Mapping:
        """The document at `position`, read from the file again. A line that
        is cut short or no longer decodes to a document of the id read there
        is an `IntegrityError` naming the file."""
        doc_id, size, offset = self.ids[position], self.size[position], self.offset[position]
        line = os.pread(self.file.fileno(), size, offset)
        try:
            read_line = json_line(line, self.path, 0, document) if len(line) == size else None
        except SchemaError:
            read_line = None
        if read_line is None or read_line[0] != doc_id:
            raise IntegrityError(
                f"{self.path}: changed since it was read: the {size} bytes at offset {offset} "
                f"no longer hold document {doc_id}"
            )
        return read_line[1]


def _extract_shard(mine, adapter, fields, kept: _Kept, positions, put, seed: int, detector: Detector,
                   options: Mapping[str, object]) -> tuple[ExtractionReport, dict]:
    """Read again, gate, extract, validate and encode the documents of
    `kept` at `positions`, `put`ting each one's tuple lines, until one
    raises. The shard's counts, and that failure keyed by `mine`. A field of
    the wrong JSON type is a `FieldError` naming the document."""
    report = ExtractionReport()
    ctx = ExtractContext(seed=seed, report=report, options=options)
    for position in positions:
        doc_id = kept.ids[position]
        lines = []
        try:
            gate: list[str] = []
            values = read(kept.document(position), fields, gate)
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
    with open(dump, "rb") as file:
        kept = _Kept(str(dump), file)
        kept.read(mine, report, vocabulary)
        report.docs_processed += len(kept.ids)
        results = spill.run(len(kept.ids), lambda positions, put: _extract_shard(
            mine, adapter, fields, kept, positions, put, seed, detector, options), "extract")
    failures = earliest_failures(failures for _, failures in results)
    if failures:
        raise failures[mine]
    for shard_report, _ in results:
        report.add(shard_report)
    return map(spill.line_of, sorted(range(len(kept.ids)), key=kept.ids.__getitem__))


def read_jsonl(path: str, build: Callable | None = None, numbered: bool = False) -> Iterator:
    with open(path, "rb") as fh:
        yield from json_lines(fh, path, build, numbered)
