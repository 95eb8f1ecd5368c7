from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from signalmine import normalizer
from signalmine.normalizer import (
    DetectorError,
    ENGLISH_THRESHOLD,
    is_english,
    normalize_whitespace,
    purify,
    strip_non_ascii,
    trigram_detector,
    truncate_words,
    word_count,
)
from signalmine.signal_model import GATE, TEXT, FieldError, read
from signalmine.wordlists import COMMON_WORDS


def test_whitespace_folding():
    assert normalize_whitespace("a\t\tb\n c") == "a b c"
    assert normalize_whitespace("abc") == "abc"
    assert normalize_whitespace("  x  ") == "x"


def test_strip_non_ascii():
    assert strip_non_ascii("café") == "caf"
    assert strip_non_ascii("hello") == "hello"
    # oracle: per-codepoint filter
    text = "naïve test"
    assert strip_non_ascii(text) == "".join(c for c in text if ord(c) <= 127) == "nave test"


def test_purify_order_handles_stripping_artifacts():
    # stripping a non-ascii char between spaces must not leave a double space
    assert purify("a é b") == "a b"


@given(st.text(max_size=200))
def test_whitespace_idempotent(text):
    once = normalize_whitespace(text)
    assert normalize_whitespace(once) == once


@given(st.text(max_size=200))
def test_strip_non_ascii_idempotent_and_shrinking(text):
    once = strip_non_ascii(text)
    assert strip_non_ascii(once) == once
    assert len(once) <= len(text)


def test_word_count_and_truncate():
    assert word_count(normalize_whitespace("a b  c")) == 3
    assert truncate_words("a b c d", 2) == "a b"
    text = " ".join(f"w{i}" for i in range(400))
    assert truncate_words(text, 400) == text


@given(st.text(alphabet="ab ", max_size=300), st.integers(min_value=0, max_value=50))
def test_truncate_bound(text, n):
    assert word_count(truncate_words(normalize_whitespace(text), n)) <= n


def test_is_english_threshold_is_strict():
    assert is_english("x", lambda t: ("en", 0.99999))
    assert not is_english("x", lambda t: ("en", 0.9999))
    assert not is_english("x", lambda t: ("fr", 1.0))
    assert ENGLISH_THRESHOLD == 0.9999


def test_detector_failure_is_distinct():
    def broken(_):
        raise RuntimeError("backend down")

    with pytest.raises(DetectorError):
        is_english("x", broken)


def test_bundled_detector_separates_languages():
    english = (
        "The committee met on Tuesday morning to discuss the new school budget "
        "and decided that every student should receive additional support."
    )
    french = (
        "Le comité s'est réuni mardi matin pour discuter du nouveau budget "
        "scolaire et a décidé que chaque élève devrait recevoir un soutien."
    )
    lang, p_en = trigram_detector(english)
    assert lang == "en" and p_en > ENGLISH_THRESHOLD
    _, p_fr = trigram_detector(french)
    assert p_fr <= ENGLISH_THRESHOLD
    assert trigram_detector("")[1] == 0.0


# ------------------------------------------------- reference implementations
# Copies of the straightforward per-character / per-trigram versions the fast
# paths replaced (verbatim but for `_WS_RE`, inlined); outputs must match
# them exactly, floats included.
def reference_normalize_whitespace(text: str) -> str:
    return re.sub(r"[ \t\n\r\f\v]+", " ", text).strip()


def reference_strip_non_ascii(text: str) -> str:
    return "".join(ch for ch in text if ord(ch) < 128)


def reference_purify(text: str) -> str:
    return reference_normalize_whitespace(reference_strip_non_ascii(reference_normalize_whitespace(text)))


def _reference_trigrams(word: str) -> set[str]:
    padded = f" {word} "
    return {padded[i : i + 3] for i in range(len(padded) - 2)}


def reference_trigram_detector(text: str) -> tuple[str, float]:
    toks = [t for t in re.findall(r"[a-zA-Z']+", text.lower()) if t]
    if not toks:
        return ("und", 0.0)
    grams: list[str] = []
    for tok in toks:
        grams.extend(_reference_trigrams(tok))
    if not grams:
        return ("und", 0.0)
    hit = sum(1 for g in grams if g in normalizer._PROFILE) / len(grams)
    prob = 1.0 / (1.0 + math.exp(-(hit - 0.42) * 55.0))
    return ("en", prob)


# \x1c-\x1f are ASCII and removed by str.strip/str.split but not by _WS_RE;
# \x85, \xa0, \u2028 and \u3000 are non-ASCII whitespace; the Kelvin sign and
# dotted capital I lowercase to ASCII letters (plus a combining dot).
_ODD = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\u212a\u0130é'\t\n\r\x0b\x0c "
_MIXED = st.text(alphabet=_ODD + "abcEnglishtex", max_size=200)
_ENGLISHY = st.lists(
    st.sampled_from(sorted(COMMON_WORDS)) | st.text(alphabet=_ODD + "qzxj", max_size=4),
    max_size=60,
).map(" ".join)
_TEXTS = st.text(max_size=200) | _MIXED | _ENGLISHY


@pytest.mark.parametrize("text", ["a\x1cb", " \x1f x \x1e", "a \x85 b", "caf\xe9\xa0au  lait",
                                  "\u3000x\u2028", "\u212aing \u0130t's", "'",
                                  "the the cat sat on the mat mat qqq " * 7])
def test_corner_cases_match_reference(text):
    assert normalize_whitespace(text) == reference_normalize_whitespace(text)
    assert purify(text) == reference_purify(text)
    assert trigram_detector(text) == reference_trigram_detector(text)


@settings(max_examples=400)
@given(_TEXTS)
def test_purify_matches_reference(text):
    assert normalize_whitespace(text) == reference_normalize_whitespace(text)
    assert strip_non_ascii(text) == reference_strip_non_ascii(text)
    assert purify(text) == reference_purify(text)


@settings(max_examples=400)
@given(_TEXTS)
def test_trigram_detector_matches_reference_exactly(text):
    assert trigram_detector(text) == reference_trigram_detector(text)
    assert trigram_detector(purify(text)) == reference_trigram_detector(reference_purify(text))


@settings(max_examples=400)
@given(st.lists(_TEXTS, max_size=6))
def test_gate_text_reads_as_purify_of_the_raw_join(parts):
    """The gate text, the purified non-empty GATE values joined by spaces,
    differs from `purify` of the raw join only in separator characters at
    part edges: it has the same tokens, so the same detector verdict, and is
    empty exactly when that is. It is purified already, so a join of
    purified texts needs no second `purify`."""
    gate: list[str] = []
    read({"parts": parts}, {"parts": [GATE]}, gate)
    joined, reference = " ".join(gate), purify(" ".join(parts))
    assert re.findall(r"[a-zA-Z']+", joined.lower()) == re.findall(r"[a-zA-Z']+", reference.lower())
    assert trigram_detector(joined) == trigram_detector(reference)
    assert bool(joined) == bool(reference)
    assert purify(joined) == joined


def test_read_checks_purifies_and_defaults_each_declared_field():
    fields = {"t": TEXT, "g": GATE, "s": str, "n": float, "l": [TEXT], "o": [{"x": GATE, "y": [str]}]}
    gate: list[str] = []
    doc = {"t": " a\tb ", "g": "c  d", "s": " e ", "n": 3, "l": ["f", " \xa0", None], "o": [{"x": "h"}, None],
           "unread": 5}
    assert read(doc, fields, gate) == {"t": "a b", "g": "c d", "s": " e ", "n": 3.0, "l": ["f"],
                                       "o": [{"x": "h", "y": []}, {"x": "", "y": []}]}
    assert gate == ["c d", "h"]
    # absent and null read alike
    assert read({"t": None, "n": None, "o": None}, fields, gate) == read({}, fields, gate) == {
        "t": "", "g": "", "s": "", "n": None, "l": [], "o": []}
    for doc, message in [
        ({"t": 5}, "'t' must be a string, got 5"),
        ({"s": ["x"]}, "'s' must be a string, got ['x']"),
        ({"n": True}, "'n' must be a number, got True"),
        ({"n": "4.5"}, "'n' must be a number, got '4.5'"),
        ({"n": 10 ** 400}, "'n' must be a number, got 1000"),
        ({"l": "abc"}, "'l' must be a list, got 'abc'"),
        ({"o": [{"y": [0]}]}, "'o[].y[]' must be a string, got 0"),
        ({"o": [[]]}, "'o[]' must be an object, got []"),
    ]:
        with pytest.raises(FieldError) as caught:
            read(doc, fields, [])
        assert str(caught.value).startswith(message)


def test_token_cache_is_bounded():
    maxsize = normalizer._token_score.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 1 << 16
