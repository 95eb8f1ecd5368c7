"""Knowledge-base items -> relation quads and entity-typing triples.

Uninformative properties are dropped by three predicate rules (identifiers,
culture-qualified names, image/url plumbing) plus an extensible explicit
list. Every tuple needs a context paragraph mentioning its arguments; items
without one yield nothing.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from ..rng import derive_rng
from ..signal_model import GATE, TEXT, SignalTuple

RELATION_SIGNAL = "wikidata_relation"
ENTITY_SIGNAL = "wikidata_entity"

INSTANCE_OF = "P31"

_IDENTIFIER_RE = re.compile(r"\b(id|identifier|code|number)\b", re.IGNORECASE)
_CULTURE_RE = re.compile(r"\(.+\)")
_MEDIA_RE = re.compile(r"\b(image|url|logo|website|link|file|flag)\b", re.IGNORECASE)


def property_blocked(name: str, extra_blocklist: Iterable[str] = ()) -> bool:
    if name in extra_blocklist:
        return True
    if _IDENTIFIER_RE.search(name):
        return True
    if _CULTURE_RE.search(name):
        return True
    if _MEDIA_RE.search(name):
        return True
    return False


FIELDS = {
    "paragraphs": [GATE],
    "label": TEXT,
    "properties": [{"property": TEXT, "object": TEXT, "pid": str}],
}


def _mentioning(paragraphs: list[str], *needles: str) -> list[str]:
    hits = []
    for p in paragraphs:
        low = p.lower()
        if all(n.lower() in low for n in needles):
            hits.append(p)
    return hits


def extract(doc: Mapping, ctx) -> list[SignalTuple]:
    doc_id = doc["doc_id"]
    provenance = f"wikidata/{doc_id}"
    subject = doc["label"]
    if not subject:
        ctx.report.skip_doc("wikidata", "dangling_item")
        return []
    paragraphs = doc["paragraphs"]
    extra_blocklist = tuple(ctx.options.get("property_blocklist", ()))
    rng = derive_rng(ctx.seed, "wikidata", doc_id)

    out: list[SignalTuple] = []
    for prop in doc["properties"]:
        name, obj, pid = prop["property"], prop["object"], prop["pid"]
        if not name or not obj:
            ctx.report.reject(RELATION_SIGNAL, "malformed_property")
            continue

        if pid == INSTANCE_OF or name.lower() == "instance of":
            candidates = _mentioning(paragraphs, subject)
            if not candidates:
                ctx.report.reject(ENTITY_SIGNAL, "no_context_paragraph")
            else:
                text = rng.choice(candidates)
                out.append(SignalTuple(ENTITY_SIGNAL, (text, subject, obj), provenance))
            continue

        if property_blocked(name, extra_blocklist):
            ctx.report.reject(RELATION_SIGNAL, "property_blocklist")
            continue
        candidates = _mentioning(paragraphs, subject, obj)
        if not candidates:
            ctx.report.reject(RELATION_SIGNAL, "no_context_paragraph")
            continue
        text = rng.choice(candidates)
        out.append(SignalTuple(RELATION_SIGNAL, (text, subject, name, obj), provenance))
    return out
