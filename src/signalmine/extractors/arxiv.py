"""Paper metadata -> category and title-summary tuples.

A category tuple is emitted only for papers tagged with exactly one of the
eight top-level domains.
"""

from __future__ import annotations

from typing import Mapping

from ..normalizer import truncate_words, word_count
from ..signal_model import GATE, TEXT, SignalTuple

CATEGORY_SIGNAL = "arxiv_category"
SUMMARY_SIGNAL = "arxiv_summary"

DOMAINS = (
    "Computer Science",
    "Electrical Engineering and Systems Science",
    "Quantitative Biology",
    "Statistics",
    "Economics",
    "Mathematics",
    "Physics",
    "Quantitative Finance",
)
MIN_TITLE_WORDS = 3
MIN_ABSTRACT_WORDS = 20
MAX_ABSTRACT_WORDS = 400


FIELDS = {"abstract": GATE, "title": TEXT, "categories": [TEXT]}


def extract(doc: Mapping, ctx) -> list[SignalTuple]:
    provenance = f"arxiv/{doc['doc_id']}"
    title, abstract = doc["title"], doc["abstract"]
    categories = [c for c in doc["categories"] if c in DOMAINS]

    out: list[SignalTuple] = []
    abstract_t = truncate_words(abstract, MAX_ABSTRACT_WORDS)

    if len(categories) == 1 and abstract_t:
        out.append(
            SignalTuple(
                CATEGORY_SIGNAL,
                (abstract_t, categories[0]),
                provenance,
                {"category": categories[0]},
            )
        )
    else:
        ctx.report.reject(CATEGORY_SIGNAL, "not_single_category")

    if word_count(title) < MIN_TITLE_WORDS:
        ctx.report.reject(SUMMARY_SIGNAL, "short_title")
    elif word_count(abstract) < MIN_ABSTRACT_WORDS:
        ctx.report.reject(SUMMARY_SIGNAL, "short_abstract")
    elif word_count(abstract) < word_count(title):
        ctx.report.reject(SUMMARY_SIGNAL, "abstract_shorter_than_title")
    else:
        out.append(SignalTuple(SUMMARY_SIGNAL, (abstract_t, title), provenance))
    return out
