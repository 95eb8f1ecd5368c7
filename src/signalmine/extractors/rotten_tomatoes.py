"""Review + rating -> sentiment tuples.

Only reviews with clear polarity survive: rating above 3.5 is positive,
below 2.5 negative, anything between is dropped, as are reviews shorter than
five words.
"""

from __future__ import annotations

from typing import Mapping

from ..normalizer import word_count
from ..signal_model import GATE, SignalTuple

SIGNAL = "rotten_tomatoes_sentiment"

POSITIVE_ABOVE = 3.5
NEGATIVE_BELOW = 2.5
MIN_REVIEW_WORDS = 5


FIELDS = {"review": GATE, "rating": float}


def extract(doc: Mapping, ctx) -> list[SignalTuple]:
    review, rating = doc["review"], doc["rating"]
    if rating is None:
        ctx.report.reject(SIGNAL, "missing_rating")
        return []
    if word_count(review) < MIN_REVIEW_WORDS:
        ctx.report.reject(SIGNAL, "short_review")
        return []
    if rating > POSITIVE_ABOVE:
        label = "positive"
    elif rating < NEGATIVE_BELOW:
        label = "negative"
    else:
        ctx.report.reject(SIGNAL, "ambiguous_polarity")
        return []
    return [
        SignalTuple(
            SIGNAL,
            (review, label),
            f"rotten_tomatoes/{doc['doc_id']}",
            {"rating": repr(rating), "category": label},
        )
    ]
