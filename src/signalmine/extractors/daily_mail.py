"""News articles -> category, summary, and temporal-order tuples.

"summary" is the concatenation of an article's bullet points; articles whose
summary mentions update/here/find are redirection noise and dropped whole.
"""

from __future__ import annotations

import re
from typing import Mapping
from urllib.parse import urlsplit

from ..normalizer import truncate_words, word_count
from ..rng import derive_rng
from ..signal_model import GATE, LIST_SEP, TEXT, SignalTuple

CATEGORY_SIGNAL = "daily_mail_category"
SUMMARY_SIGNAL = "daily_mail_summary"
TEMPORAL_SIGNAL = "daily_mail_temporal"

CATEGORIES = ("Money", "News", "Sport", "Health", "Science", "Travel")
_SLUG_TO_CATEGORY = {c.lower(): c for c in CATEGORIES}
_SLUG_TO_CATEGORY["sciencetech"] = "Science"

SUMMARY_BLOCKLIST = ("update", "here", "find")
MAX_WORDS = 400
MIN_CATEGORY_SUMMARY_WORDS = 5
MIN_BODY_WORDS = 20
MIN_SUMMARY_WORDS = 10
MIN_TEMPORAL_BULLETS = 2


FIELDS = {"body": GATE, "url": str, "title": TEXT, "bullets": [TEXT]}


def _blocked(summary: str) -> bool:
    words = {w.lower() for w in re.findall(r"[a-zA-Z']+", summary)}
    return any(term in words for term in SUMMARY_BLOCKLIST)


def category_from_url(url: str) -> str | None:
    """First path segment after the host, mapped onto the accepted set."""
    path = urlsplit(url).path
    segments = [s for s in path.split("/") if s]
    if not segments:
        return None
    return _SLUG_TO_CATEGORY.get(segments[0].lower())


def extract(doc: Mapping, ctx) -> list[SignalTuple]:
    doc_id = doc["doc_id"]
    provenance = f"daily_mail/{doc_id}"
    url, title, body, bullets = doc["url"], doc["title"], doc["body"], doc["bullets"]
    summary = " ".join(bullets)

    if _blocked(summary):
        ctx.report.skip_doc("daily_mail", "summary_blocklist")
        return []

    out: list[SignalTuple] = []

    # Category: summary classified by the url's section.
    if not url:
        ctx.report.skip_doc("daily_mail", "unparseable_url")
    else:
        category = category_from_url(url)
        if category is None:
            ctx.report.reject(CATEGORY_SIGNAL, "category_not_accepted")
        elif word_count(summary) < MIN_CATEGORY_SUMMARY_WORDS:
            ctx.report.reject(CATEGORY_SIGNAL, "short_summary")
        else:
            out.append(
                SignalTuple(
                    CATEGORY_SIGNAL,
                    (truncate_words(summary, MAX_WORDS), category),
                    provenance,
                    {"category": category},
                )
            )

    # Summary: one merged tuple carrying title/text/summary projections.
    if word_count(body) < MIN_BODY_WORDS:
        ctx.report.reject(SUMMARY_SIGNAL, "short_body")
        summary_ok = False
    elif word_count(summary) < MIN_SUMMARY_WORDS:
        ctx.report.reject(SUMMARY_SIGNAL, "short_summary")
        summary_ok = False
    elif word_count(body) < word_count(summary):
        ctx.report.reject(SUMMARY_SIGNAL, "body_shorter_than_summary")
        summary_ok = False
    elif word_count(body) < word_count(title):
        ctx.report.reject(SUMMARY_SIGNAL, "body_shorter_than_title")
        summary_ok = False
    elif not title:
        ctx.report.reject(SUMMARY_SIGNAL, "missing_title")
        summary_ok = False
    else:
        summary_ok = True
        out.append(
            SignalTuple(
                SUMMARY_SIGNAL,
                (title, truncate_words(body, MAX_WORDS), truncate_words(summary, MAX_WORDS)),
                provenance,
            )
        )

    # Temporal: ordered pairs over all bullet pairs, plus adjacent pairs.
    if summary_ok:
        if len(bullets) < MIN_TEMPORAL_BULLETS:
            ctx.report.reject(TEMPORAL_SIGNAL, "too_few_bullets")
        else:
            text = truncate_words(body, MAX_WORDS)
            rng = derive_rng(ctx.seed, "daily_mail", doc_id, "temporal")
            for i in range(len(bullets)):
                for j in range(i + 1, len(bullets)):
                    first, last = bullets[i], bullets[j]
                    pair = [first, last]
                    rng.shuffle(pair)
                    out.append(
                        SignalTuple(
                            TEMPORAL_SIGNAL,
                            (text, LIST_SEP.join(pair)),
                            provenance,
                            {
                                "variant": "order",
                                "one_bullet_point": pair[0],
                                "another_bullet_point": pair[1],
                                "first_bp": first,
                                "last_bp": last,
                            },
                        )
                    )
            for i in range(len(bullets) - 1):
                out.append(
                    SignalTuple(
                        TEMPORAL_SIGNAL,
                        (text, LIST_SEP.join((bullets[i], bullets[i + 1]))),
                        provenance,
                        {
                            "variant": "next",
                            "first_bullet_point": bullets[i],
                            "second_bullet_point": bullets[i + 1],
                            "all_bullet_points": LIST_SEP.join(bullets),
                        },
                    )
                )
    return out
