"""Lexicon senses -> part-of-speech, meaning, synonym, and antonym tuples.

Candidates come from a frequency-ordered word dump. Each word is lemmatized
per part of speech with suffix-detachment rules validated against the dump's
own vocabulary, so inflected duplicates collapse onto one lemma. Stop words
and words shorter than three characters are pruned.
"""

from __future__ import annotations

from typing import Mapping

from ..signal_model import GATE, LIST_SEP, TEXT, SignalTuple
from ..wordlists import STOP_WORDS

POS_SIGNAL = "wordnet_pos"
MEANING_SIGNAL = "wordnet_meaning"
SYNONYM_SIGNAL = "wordnet_synonym"
ANTONYM_SIGNAL = "wordnet_antonym"

PARTS_OF_SPEECH = ("noun", "verb", "adjective", "adverb")
MIN_WORD_CHARS = 3

_DETACHMENT_RULES: dict[str, tuple[tuple[str, str], ...]] = {
    "noun": (
        ("ses", "s"), ("ves", "f"), ("xes", "x"), ("zes", "z"),
        ("ches", "ch"), ("shes", "sh"), ("ies", "y"), ("men", "man"), ("s", ""),
    ),
    "verb": (
        ("ies", "y"), ("es", "e"), ("es", ""), ("ed", "e"), ("ed", ""),
        ("ing", "e"), ("ing", ""), ("s", ""),
    ),
    "adjective": (("est", "e"), ("est", ""), ("er", "e"), ("er", "")),
    "adverb": (),
}

def lemmatize(word: str, pos: str, vocabulary: set[str]) -> str:
    """Suffix detachment validated against the vocabulary; identity fallback."""
    for suffix, repl in _DETACHMENT_RULES.get(pos, ()):
        if word.endswith(suffix) and len(word) > len(suffix):
            candidate = word[: -len(suffix)] + repl
            if candidate in vocabulary and candidate != word:
                return candidate
            # doubled final consonant: bigger -> big, running -> run
            if len(candidate) >= 2 and candidate[-1] == candidate[-2]:
                dedoubled = candidate[:-1]
                if dedoubled in vocabulary and dedoubled != word:
                    return dedoubled
    return word


FIELDS = {
    "word": TEXT,
    "senses": [{"pos": str, "meaning": TEXT, "examples": [GATE], "synonyms": [TEXT], "antonyms": [TEXT]}],
}


def extract(doc: Mapping, ctx) -> list[SignalTuple]:
    # every document's headword, gathered by the runner before the first
    # document, so no lemma depends on document order
    vocabulary = ctx.options.get("vocabulary", frozenset())
    word = doc["word"].lower()
    provenance = f"wordnet/{doc['doc_id']}"
    if not word:
        ctx.report.skip_doc("wordnet", "missing_word")
        return []
    if word in STOP_WORDS:
        ctx.report.skip_doc("wordnet", "stop_word")
        return []
    if len(word) < MIN_WORD_CHARS:
        ctx.report.skip_doc("wordnet", "too_short")
        return []
    senses = doc["senses"]
    if not senses:
        ctx.report.skip_doc("wordnet", "not_in_lexicon")
        return []

    out: list[SignalTuple] = []
    all_meanings: list[str] = []
    for sense in senses:
        gloss = sense["meaning"]
        if gloss and gloss not in all_meanings:
            all_meanings.append(gloss)

    for sense in senses:
        pos = sense["pos"].lower()
        if pos not in PARTS_OF_SPEECH:
            ctx.report.reject(POS_SIGNAL, "unknown_pos")
            continue
        lemma = lemmatize(word, pos, vocabulary)
        if lemma != word:
            # inflected form of a word the dump already carries: the lemma's
            # own record is the one that emits
            ctx.report.reject(POS_SIGNAL, "lemmatized_away")
            continue

        if not sense["examples"]:
            ctx.report.reject(POS_SIGNAL, "no_example_sentence")
            continue
        sentence = sense["examples"][0]
        synonyms = [s for s in map(str.lower, sense["synonyms"]) if s != lemma]
        antonyms = [a.lower() for a in sense["antonyms"]]

        out.append(SignalTuple(POS_SIGNAL, (lemma, sentence, pos), provenance))

        if sense["meaning"]:
            out.append(
                SignalTuple(
                    MEANING_SIGNAL,
                    (lemma, sentence, sense["meaning"], LIST_SEP.join(all_meanings)),
                    provenance,
                )
            )
        syn_meta = {"all_synonyms": LIST_SEP.join(synonyms)} if synonyms else {}
        for syn in synonyms:
            out.append(SignalTuple(SYNONYM_SIGNAL, (lemma, sentence, syn), provenance, syn_meta))
        ant_meta = {"all_antonyms": LIST_SEP.join(antonyms)} if antonyms else {}
        for ant in antonyms:
            out.append(SignalTuple(ANTONYM_SIGNAL, (lemma, sentence, ant), provenance, ant_meta))
    return out
