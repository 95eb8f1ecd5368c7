"""Encyclopedia pages -> section-title, entity, and neutral-sentiment tuples.

Paragraphs containing any of the sixteen noise words (edit-history chrome,
license boilerplate, talk-page etiquette) are dropped before anything else.
The page's hyperlink surfaces form its entity set; reference superscripts
like "[3]" are not entities.
"""

from __future__ import annotations

import re
from typing import Mapping

from ..normalizer import truncate_words, word_count
from ..rng import derive_rng
from ..signal_model import GATE, LIST_SEP, NO_ENTITIES, TEXT, SignalTuple

SECTION_SIGNAL = "wikipedia_sections"
ENTITY_SIGNAL = "wikipedia_entities"
SENTIMENT_SIGNAL = "wikipedia_sentiment"

NOISE_WORDS = (
    "edit",
    "ip address",
    "redirect",
    "whois rdns rbls",
    "username",
    "licence",
    "welcome",
    "please",
    "thank",
    "wiki",
    "click",
    "file",
    "license",
    "copyright",
)
MIN_SECTION_WORDS = 10
MIN_SECTIONS = 2
MIN_PARAGRAPH_WORDS = 10
TRUNCATE_WORDS = 256


FIELDS = {
    "paragraphs": [{"text": GATE, "links": [TEXT]}],
    "sections": [{"title": TEXT, "text": GATE}],
}


def is_noisy(paragraph: str) -> bool:
    low = " " + re.sub(r"[^a-z0-9 ]", " ", paragraph.lower()) + " "
    low = re.sub(r"\s+", " ", low)
    return any(f" {term} " in low for term in NOISE_WORDS)


def _is_reference_link(surface: str) -> bool:
    return surface.startswith("[") and surface.endswith("]")


def mark_entities(paragraph: str, entity_set: set[str]) -> list[str]:
    """All exact matches of set members, longest match first at each position,
    deduplicated preserving first appearance."""
    tokens = paragraph.split()
    max_len = max((len(e.split()) for e in entity_set), default=0)
    found: list[str] = []
    i = 0
    while i < len(tokens):
        matched = 0
        for span_len in range(min(max_len, len(tokens) - i), 0, -1):
            candidate = " ".join(tokens[i : i + span_len])
            if candidate in entity_set:
                if candidate not in found:
                    found.append(candidate)
                matched = span_len
                break
        i += matched if matched else 1
    return found


def extract(doc: Mapping, ctx) -> list[SignalTuple]:
    doc_id = doc["doc_id"]
    provenance = f"wikipedia/{doc_id}"
    rng = derive_rng(ctx.seed, "wikipedia", doc_id)

    sections = [(s["title"], s["text"]) for s in doc["sections"] if s["title"] and s["text"]]

    out: list[SignalTuple] = []

    eligible_sections = [
        (t, x) for t, x in sections if word_count(x) >= MIN_SECTION_WORDS and not is_noisy(x)
    ]
    if len(eligible_sections) < MIN_SECTIONS:
        if sections:
            ctx.report.reject(SECTION_SIGNAL, "too_few_sections")
    else:
        all_titles = [t for t, _ in eligible_sections]
        for title, text in eligible_sections:
            siblings = [t for t in all_titles if t != title]
            out.append(
                SignalTuple(
                    SECTION_SIGNAL,
                    (truncate_words(text, TRUNCATE_WORDS), title),
                    provenance,
                    {"sibling_titles": LIST_SEP.join(siblings)} if siblings else {},
                )
            )

    entity_set = {
        surface for p in doc["paragraphs"] for surface in p["links"] if not _is_reference_link(surface)
    }

    clean_paragraphs = []
    for text in (p["text"] for p in doc["paragraphs"] if p["text"]):
        if is_noisy(text):
            ctx.report.reject(ENTITY_SIGNAL, "noise_words")
            continue
        if word_count(text) < MIN_PARAGRAPH_WORDS:
            ctx.report.reject(ENTITY_SIGNAL, "short_paragraph")
            continue
        clean_paragraphs.append(text)

    for text in clean_paragraphs:
        entities = mark_entities(text, entity_set)
        out.append(
            SignalTuple(
                ENTITY_SIGNAL,
                (text, ", ".join(entities) if entities else NO_ENTITIES),
                provenance,
                {
                    "has_entities": "yes" if entities else "no",
                    "entity_list": LIST_SEP.join(entities),
                },
            )
        )

    if clean_paragraphs:
        text = truncate_words(rng.choice(clean_paragraphs), TRUNCATE_WORDS)
        out.append(SignalTuple(SENTIMENT_SIGNAL, (text, "neutral"), provenance))
    return out
