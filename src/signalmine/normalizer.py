"""Text purification applied to every extracted field, and the language gate.

Pipeline order is fixed: whitespace folding, ASCII stripping, whitespace
folding again (stripping can merge words and leave double spaces), then the
language gate. A "word" everywhere in this package is a maximal run of
non-space characters in normalized text.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Callable, Tuple

from .wordlists import COMMON_WORDS, STOP_WORDS

_WS_RE = re.compile(r"[ \t\n\r\f\v]+")
# ASCII characters that str.split() and str.strip() treat as whitespace but
# _WS_RE does not fold
_SEPARATOR_RE = re.compile(r"[\x1c-\x1f]")

# Detector contract: text -> (language tag, probability in [0, 1]).
Detector = Callable[[str], Tuple[str, float]]

ENGLISH_THRESHOLD = 0.9999


class DetectorError(Exception):
    """The language detector itself failed (distinct from a non-English verdict)."""


def normalize_whitespace(text: str) -> str:
    if text.isascii() and not _SEPARATOR_RE.search(text):
        # here str.split() splits on exactly _WS_RE's characters
        return " ".join(text.split())
    return _WS_RE.sub(" ", text).strip()


def strip_non_ascii(text: str) -> str:
    return text.encode("ascii", "ignore").decode("ascii")


def purify(text: str) -> str:
    """Whitespace -> ASCII strip -> whitespace, without the language gate."""
    if text.isascii():
        # stripping is the identity and folding is idempotent
        return normalize_whitespace(text)
    return normalize_whitespace(strip_non_ascii(normalize_whitespace(text)))


def word_count(text: str) -> int:
    return len(text.split())


def truncate_words(text: str, n: int) -> str:
    return " ".join(text.split()[:n])


def is_english(text: str, detector: Detector) -> bool:
    """True iff the detector reports English strictly above the threshold."""
    try:
        lang, prob = detector(text)
    except DetectorError:
        raise
    except Exception as exc:  # noqa: BLE001 - oracle is arbitrary user code
        raise DetectorError(str(exc)) from exc
    return lang == "en" and prob > ENGLISH_THRESHOLD


def _trigrams(word: str) -> set[str]:
    padded = f" {word} "
    return {padded[i : i + 3] for i in range(len(padded) - 2)}


def _build_profile() -> frozenset[str]:
    grams: set[str] = set()
    for word in COMMON_WORDS | STOP_WORDS:
        grams |= _trigrams(word)
    return frozenset(grams)

_PROFILE = _build_profile()

_TOKEN_RE = re.compile(r"[a-zA-Z']+")

# Distinct tokens of a corpus number in the thousands; the bound only keeps
# an adversarial vocabulary from growing the cache without limit.
_TOKEN_CACHE_SIZE = 1 << 16


@functools.lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _token_score(tok: str) -> tuple[int, int]:
    """(profile hits, distinct trigrams) of one token."""
    grams = _trigrams(tok)
    return len(grams & _PROFILE), len(grams)


def trigram_detector(text: str) -> tuple[str, float]:
    """Bundled fallback detector: trigram hit rate against an English profile,
    squashed to a probability. Intended for rough gating, not linguistics.

    The hit rate sums, over every token, its profile hits and its distinct
    trigrams; both sums are integers, so scoring each distinct token once
    gives the same rate to the last bit."""
    hits = total = 0
    for tok in _TOKEN_RE.findall(text.lower()):
        h, n = _token_score(tok)
        hits += h
        total += n
    if not total:
        return ("und", 0.0)
    prob = 1.0 / (1.0 + math.exp(-(hits / total - 0.42) * 55.0))
    return ("en", prob)
