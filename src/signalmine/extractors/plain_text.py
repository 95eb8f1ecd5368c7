"""Plain text -> cloze corruption tuples.

Non-adjacent word spans covering roughly `CLOZE_RATE` of the text are each
replaced by one sentinel token; the tuple stores the corrupted text, the
ordered sentinels, and the original spans. Substituting the spans back at
the sentinel positions reproduces the input exactly.
"""

from __future__ import annotations

import random
import re
from typing import Mapping

from ..signal_model import GATE, LIST_SEP, SchemaError, SignalTuple
from ..rng import derive_rng

SIGNAL = "plain_text_cloze"

_SENTINEL_LETTERS = ("X", "Y", "Z", "W")
_SENTINEL_RE = re.compile(r"^<[XYZW]\d*>$")
_SPAN_LENGTHS = (1, 2, 3, 4, 5)
_SPAN_WEIGHTS = (0.15, 0.2, 0.3, 0.2, 0.15)  # mean span length 3
CLOZE_RATE = 0.15
MIN_WORDS = 2


def sentinel(i: int) -> str:
    letter = _SENTINEL_LETTERS[i % 4]
    suffix = "" if i < 4 else str(i // 4 + 1)
    return f"<{letter}{suffix}>"


def corrupt(text: str, cloze_rate: float, rng: random.Random) -> tuple[str, list[str], list[str]] | None:
    """(corrupted_text, sentinels, spans) of purified `text`, or None if untreatable."""
    if not 0 < cloze_rate < 1:
        raise SchemaError(f"cloze_rate must be in (0, 1), got {cloze_rate}")
    tokens = text.split()
    n = len(tokens)
    if n < MIN_WORDS:
        return None
    if any(_SENTINEL_RE.match(t) for t in tokens):
        return None

    target = max(1, round(cloze_rate * n))
    target = min(target, n - 1)  # at least one word survives
    masked = [False] * n
    spans: list[tuple[int, int]] = []
    covered = 0
    attempts = 0
    while covered < target and attempts < 8 * n + 16:
        attempts += 1
        length = min(rng.choices(_SPAN_LENGTHS, weights=_SPAN_WEIGHTS)[0], target - covered, n - 1)
        start = rng.randrange(0, n - length + 1)
        lo = max(0, start - 1)
        hi = min(n, start + length + 1)
        if any(masked[lo:hi]):
            continue
        for k in range(start, start + length):
            masked[k] = True
        spans.append((start, length))
        covered += length
    if not spans:
        return None

    spans.sort()
    sentinels = [sentinel(i) for i in range(len(spans))]
    out_tokens: list[str] = []
    cursor = 0
    for (start, length), mark in zip(spans, sentinels):
        out_tokens.extend(tokens[cursor:start])
        out_tokens.append(mark)
        cursor = start + length
    out_tokens.extend(tokens[cursor:])
    span_texts = [" ".join(tokens[s : s + l]) for s, l in spans]
    return " ".join(out_tokens), sentinels, span_texts


def reconstruct(corrupted_text: str, sentinels: list[str], spans: list[str]) -> str:
    """Substitute each sentinel with its span; inverse of corrupt()."""
    if len(sentinels) != len(spans):
        raise SchemaError("sentinel/span count mismatch")
    mapping = dict(zip(sentinels, spans))
    out: list[str] = []
    for token in corrupted_text.split():
        if token in mapping:
            out.append(mapping[token])
        else:
            out.append(token)
    return " ".join(out)


FIELDS = {"text": GATE}


def extract(doc: Mapping, ctx) -> list[SignalTuple]:
    rng = derive_rng(ctx.seed, "plain_text", doc["doc_id"])
    result = corrupt(doc["text"], CLOZE_RATE, rng)
    if result is None:
        ctx.report.reject(SIGNAL, "too_short")
        return []
    corrupted, sentinels, spans = result
    return [
        SignalTuple(
            SIGNAL,
            (corrupted, LIST_SEP.join(sentinels), LIST_SEP.join(spans)),
            f"plain_text/{doc['doc_id']}",
        )
    ]
