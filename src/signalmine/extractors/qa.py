"""Reading-comprehension corpora -> (context, question, options, answer) tuples.

Contexts longer than 400 words are dropped rather than truncated; questions
must end with "?" or ":" or be cloze questions (carry a blank). The NLI-style
corpus maps onto (premise, hypothesis, label) and skips the question gate.
Web-search evidence is the only admissible source for the trivia corpus.
"""

from __future__ import annotations

import re
from typing import Mapping

from ..normalizer import word_count
from ..signal_model import GATE, LIST_SEP, TEXT, SignalTuple

CORPUS_KINDS = ("control", "dream", "logiqa", "reclor", "race", "race_c", "triviaqa")
MAX_CONTEXT_WORDS = 400
_BLANK_RE = re.compile(r"_{2,}")


def signal_for(kind: str) -> str:
    return f"qa_{kind}"


def is_cloze_question(question: str) -> bool:
    return bool(_BLANK_RE.search(question))


FIELDS = {"context": GATE, "question": GATE, "kind": str, "answer": TEXT, "options": [TEXT], "source": str}


def extract(doc: Mapping, ctx) -> list[SignalTuple]:
    kind = doc["kind"].lower()
    if kind not in CORPUS_KINDS:
        ctx.report.skip_doc("qa_corpus", "unknown_corpus_kind")
        return []
    signal = signal_for(kind)
    provenance = f"qa_corpus/{doc['doc_id']}"

    context, question, answer, options = doc["context"], doc["question"], doc["answer"], doc["options"]

    if not answer:
        ctx.report.reject(signal, "missing_answer")
        return []
    if not context or word_count(context) > MAX_CONTEXT_WORDS:
        ctx.report.reject(signal, "context_too_long" if context else "missing_context")
        return []

    if kind == "control":
        if not question:
            ctx.report.reject(signal, "missing_hypothesis")
            return []
        return [SignalTuple(signal, (context, question, answer), provenance)]

    if not question:
        ctx.report.reject(signal, "missing_question")
        return []
    cloze = is_cloze_question(question)
    if not (question.endswith("?") or question.endswith(":") or cloze):
        ctx.report.reject(signal, "question_terminal_mark")
        return []
    if kind == "triviaqa":
        if (doc["source"] or "web").lower() != "web":
            ctx.report.reject(signal, "non_web_evidence")
            return []
        return [SignalTuple(signal, (context, question, answer), provenance)]

    if not options:
        ctx.report.reject(signal, "missing_options")
        return []
    if answer not in options:
        ctx.report.reject(signal, "answer_not_in_options")
        return []
    return [
        SignalTuple(
            signal,
            (context, question, LIST_SEP.join(options), answer),
            provenance,
            {"is_cloze": "yes" if cloze else "no"},
        )
    ]
