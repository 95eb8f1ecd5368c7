"""ML-paper sentences + a typed term database -> entity, entity-typing, and
introduction-summary tuples.

Database entries shorter than three characters or longer than six words are
dropped; "other"-typed entries (generic terminology) must exceed two words.
Span matching is exact after normalization: non-alphanumerics stripped and
case folded, longest span wins at each position, scanning resumes after a
match.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from ..normalizer import truncate_words, word_count
from ..signal_model import GATE, LIST_SEP, NO_ENTITIES, TEXT, SchemaError, SignalTuple

ENTITY_SIGNAL = "paperswithcode_entity"
SUMMARY_SIGNAL = "paperswithcode_summary"

ENTITY_TYPES = ("dataset", "metric", "task", "method", "other")
MAX_SPAN_WORDS = 4
MIN_ENTRY_CHARS = 3
MAX_ENTRY_WORDS = 6
MIN_OTHER_WORDS = 3  # "other" entries must exceed two words
MAX_SUMMARY_WORDS = 400

_NON_ALNUM_RE = re.compile(r"[^a-zA-Z0-9]+")


def normalize_span(span: str) -> str:
    """Comparison key: drop non-alphanumerics, fold case."""
    return _NON_ALNUM_RE.sub("", span).lower()


# a database entry: `EntityDb` takes entries read through it (`signal_model.read`)
ENTRY = {"surface": TEXT, "type": str}


class EntityDb:
    def __init__(self, entries: Iterable[Mapping]):
        self.by_key: dict[str, str] = {}
        for entry in entries:
            surface, etype = entry["surface"], entry["type"].lower()
            if etype not in ENTITY_TYPES:
                continue
            if len(surface) < MIN_ENTRY_CHARS or word_count(surface) > MAX_ENTRY_WORDS:
                continue
            if etype == "other" and word_count(surface) < MIN_OTHER_WORDS:
                continue
            key = normalize_span(surface)
            if key:
                self.by_key.setdefault(key, etype)

    def __len__(self) -> int:
        return len(self.by_key)

    def lookup(self, span: str) -> str | None:
        return self.by_key.get(normalize_span(span))


def match_entities(sentence: str, db: EntityDb) -> list[tuple[str, str]]:
    """(surface span, type) matches; longest span wins, no overlaps.

    A span's key is the join of its tokens' keys (`normalize_span` drops
    the spaces between them), so each token is normalized once."""
    tokens = sentence.split()
    keys = [normalize_span(token) for token in tokens]
    found: list[tuple[str, str]] = []
    i = 0
    while i < len(tokens):
        matched = 0
        for span_len in range(min(MAX_SPAN_WORDS, len(tokens) - i), 0, -1):
            etype = db.by_key.get("".join(keys[i : i + span_len]))
            if etype is not None:
                found.append((" ".join(tokens[i : i + span_len]), etype))
                matched = span_len
                break
        i += matched if matched else 1
    return found


FIELDS = {"sentences": [GATE], "abstract": GATE, "introduction": TEXT}


def extract(doc: Mapping, ctx) -> list[SignalTuple]:
    db = ctx.options.get("entity_db")
    if not isinstance(db, EntityDb) or len(db) == 0:
        raise SchemaError("paperswithcode extraction needs a non-empty entity db")
    provenance = f"paperswithcode/{doc['doc_id']}"

    out: list[SignalTuple] = []
    for sentence in doc["sentences"]:
        matches = match_entities(sentence, db)
        surfaces = []
        for span, _ in matches:
            if span not in surfaces:
                surfaces.append(span)
        out.append(
            SignalTuple(
                ENTITY_SIGNAL,
                (sentence, ", ".join(surfaces) if surfaces else NO_ENTITIES),
                provenance,
                {
                    "variant": "entities",
                    "has_entities": "yes" if surfaces else "no",
                    "entity_list": LIST_SEP.join(surfaces),
                },
            )
        )
        for span, etype in matches:
            out.append(
                SignalTuple(
                    ENTITY_SIGNAL,
                    (sentence, span),
                    provenance,
                    {
                        "variant": "typing",
                        "entity": span,
                        "entity_type": etype,
                        "category": etype,
                    },
                )
            )

    introduction, abstract = doc["introduction"], doc["abstract"]
    if not introduction or not abstract:
        ctx.report.reject(SUMMARY_SIGNAL, "missing_sections")
    elif word_count(introduction) < word_count(abstract):
        ctx.report.reject(SUMMARY_SIGNAL, "introduction_shorter_than_abstract")
    else:
        out.append(
            SignalTuple(
                SUMMARY_SIGNAL,
                (truncate_words(introduction, MAX_SUMMARY_WORDS), truncate_words(abstract, MAX_SUMMARY_WORDS)),
                provenance,
            )
        )
    return out
