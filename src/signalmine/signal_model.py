"""Signal typology and the shared record types.

The catalog enumerates the 30 task-relevant signal types (one per row of the
collected-signal statistics, with per-mine variants folded into their parent
id) plus the generic plain-text cloze signal. All types are immutable and the
catalog is read-only after import.
"""

from __future__ import annotations

import json
import os
import re
import reprlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .normalizer import purify

FORMAT_VERSION = "1"

# Separator used to pack list-valued fields (options, positions, spans) into a
# single text field.
LIST_SEP = " | "

FAMILIES = ("multiple_choice", "generation", "cloze")

# Marker used for an empty entity list: tuple fields must stay non-empty.
NO_ENTITIES = "None"


class SchemaError(ValueError):
    """Structural problem: unknown signal type, malformed record, bad spec."""


_SURROGATE_ESCAPE = re.compile(r"\\u[dD]")  # one search costs half of two `in` tests


def _loads(text: str):
    """`json.loads(text)`, refusing a lone surrogate escape such as
    "\\ud800": JSON allows it, but the `str` it gives cannot be encoded as
    UTF-8, so no output could ever hold it (`UnicodeEncodeError`). Only
    text that holds such an escape is checked."""
    value = json.loads(text)
    if _SURROGATE_ESCAPE.search(text):
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    return value


def json_line(line: str | bytes, name: str, number: int, build: Callable | None = None):
    """The JSON object on `line`, text or UTF-8 bytes, or what `build` makes
    of it, or None if the line is blank. A line that is not UTF-8, not JSON,
    not an object or not encodable as UTF-8, or a `FieldError` of `build`,
    is one `SchemaError` naming `name` and `number`, the line's 1-based
    number. One trailing newline is dropped first, so a decoder's position
    lies within the line."""
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.removesuffix("\n")
        if not line.strip():
            return None
        rec = _loads(line)
    except ValueError as exc:  # UnicodeError or JSONDecodeError
        raise SchemaError(f"{name}:{number}: not a JSON record: {exc}") from exc
    if type(rec) is not dict:
        raise SchemaError(f"{name}:{number}: not a JSON record: expected a JSON object")
    try:
        return rec if build is None else build(rec)
    except FieldError as exc:
        raise FieldError(f"{name}:{number}: {exc}") from exc


def json_lines(lines: Iterable[str | bytes], name: str, build: Callable | None = None,
               numbered: bool = False) -> Iterator:
    """What `json_line` reads from each non-blank line of `lines`; if
    `numbered`, as a pair after the line's 1-based number."""
    for number, line in enumerate(lines, 1):
        rec = json_line(line, name, number, build)
        if rec is not None:
            yield (number, rec) if numbered else rec


def read_json(file, object_only: bool = True, build: Callable | None = None):
    """The JSON document in `file`, a path or a package resource, or what
    `build` makes of it. Bytes that are not UTF-8, text that is not JSON or
    not encodable as UTF-8, (if `object_only`) a document that is not an
    object, or a `FieldError` of `build` are one `SchemaError` naming the
    file."""
    data = (Path(file) if isinstance(file, (str, os.PathLike)) else file).read_bytes()
    try:
        doc = _loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeError or JSONDecodeError
        raise SchemaError(f"{file}: not a JSON document: {exc}") from exc
    if object_only and type(doc) is not dict:
        raise SchemaError(f"{file}: not a JSON document: expected a JSON object")
    try:
        return doc if build is None else build(doc)
    except FieldError as exc:
        raise FieldError(f"{file}: {exc}") from exc


TEXT, GATE = "text", "gate"
_REQUIRED = object()


def required(kind):
    """A declared key that must be given: absent or null, it is refused."""
    return kind, _REQUIRED


def default(kind, value):
    """A declared key that reads as `value` when it is absent (`read`)."""
    return kind, value


class OneOf(dict):
    """A kind: an object whose string `kind` names which of these shapes it has."""


class FieldError(SchemaError):
    """A JSON value or key that its declared shape refuses (`read`)."""


def read(doc: Mapping, shape: Mapping, gate: list[str] | None = None, closed: bool = False) -> dict:
    """The keys of `shape` in the object `doc`, each checked against its kind:
    - TEXT or GATE: a string, purified; each non-empty GATE value is appended
      to `gate`, in declaration order; str: a string as it is;
    - float: a number, not a bool (nor an int beyond a double's range), as a
      float; int: an integer, not a bool; bool;
    - [kind]: a list (or tuple), without empty texts if a list of texts;
    - a dict of kinds: an object of those keys; {str: kind}: an object of any
      keys, its values of one kind; OneOf(name=shape, ...): an object whose
      `kind` names its shape; required(kind), default(kind, value): see there.
    An absent key reads as "", None, False, [], {} or an object of defaults.
    In an open shape, undeclared keys are ignored and null reads as absent,
    but as an item of a list of neither texts nor objects (such as [str] or
    [[str]]), which is refused. In a closed one, an undeclared key or a null
    is refused, but where a key's declared default is None. A refused value
    is a `FieldError` naming its path, such as 'steps[].headline' or
    'requires.meta_equals.variant'."""
    return _object(doc, shape, "", gate, closed)


def _object(doc: Mapping, shape: Mapping, prefix: str, gate, closed: bool) -> dict:
    kind = shape.get(str)
    if kind is not None:  # free keys
        return {key: _value(value, kind, prefix + key, gate, closed) for key, value in doc.items()}
    if closed and not doc.keys() <= shape.keys():
        key = next(key for key in doc if key not in shape)
        raise FieldError(f"'{prefix}{key}' is not a declared key")
    values = {}
    for key, kind in shape.items():
        value = doc.get(key)
        strict = closed  # whether a null is refused
        if type(kind) is tuple:
            kind, fallback = kind
            if value is None and fallback is _REQUIRED:
                if key not in doc:
                    raise FieldError(f"'{prefix}{key}' must be {_expected(kind)}, got nothing")
                strict = True
            elif value is None and (fallback is None or not closed or key not in doc):
                values[key] = fallback
                continue
        values[key] = _value(value, kind, prefix + key, gate, strict and key in doc)
    return values


_TYPES = {float: "a number", int: "an integer", bool: "true or false"}
_EMPTY = {float: None, int: None, bool: False}


def _expected(kind) -> str:
    if isinstance(kind, list):
        return "a list"
    return "an object" if isinstance(kind, dict) else _TYPES.get(kind, "a string")


def _value(value, kind, path: str, gate, closed: bool):
    if value is None:  # absent, or a null that reads as absent
        if closed:
            raise FieldError(f"'{path}' must be {_expected(kind)}, got None")
        if isinstance(kind, list):
            return []
        if type(kind) is OneOf:
            return None
        return _object({}, kind, path + ".", gate, closed) if isinstance(kind, dict) else _EMPTY.get(kind, "")
    if kind is TEXT or kind is GATE or kind is str:
        if type(value) is str:
            if kind is not str:
                value = purify(value)
                if kind is GATE and value:
                    gate.append(value)
            return value
    elif kind is float:  # a bool is no number here, nor an int beyond a double's range
        if type(value) is float or type(value) is int and abs(value) <= sys.float_info.max:
            return float(value)
    elif isinstance(kind, list):  # or a tuple, as `dataclasses.asdict` gives
        if type(value) is list or type(value) is tuple:
            kind, path = kind[0], path + "[]"
            # a null item is refused in an open shape too, but a text's or an object's
            closed = closed or not (kind is TEXT or kind is GATE or isinstance(kind, dict))
            items = [_value(item, kind, path, gate, closed) for item in value]
            return [item for item in items if item != ""] if kind is TEXT or kind is GATE else items
    elif type(kind) is OneOf:
        if type(value) is dict:
            name = value.get("kind")
            if type(name) is not str or name not in kind:
                raise FieldError(f"'{path}.kind' must be one of {', '.join(map(repr, kind))}, "
                                 f"got {reprlib.repr(name)}")
            return _object(value, kind[name], path + ".", gate, closed)
    elif isinstance(kind, dict):
        if type(value) is dict:
            return _object(value, kind, path + ".", gate, closed)
    elif type(value) is kind:
        return value
    raise FieldError(f"'{path}' must be {_expected(kind)}, got {reprlib.repr(value)}")


@dataclass(frozen=True)
class SignalType:
    id: str
    mine: str
    field_names: tuple[str, ...]
    schema_label: str  # display form used by the statistics report

    @property
    def arity(self) -> int:
        return len(self.field_names)


def _st(id: str, mine: str, fields: str, label: str) -> SignalType:
    return SignalType(id, mine, tuple(fields.split()), label)


_CATALOG_ENTRIES = [
    _st("rotten_tomatoes_sentiment", "rotten_tomatoes", "review sentiment", "(review,rating)"),
    _st("daily_mail_category", "daily_mail", "summary category", "(text,category)"),
    _st("daily_mail_summary", "daily_mail", "title text summary", "(title,text,summary)"),
    _st("daily_mail_temporal", "daily_mail", "text events", "(text,events)"),
    _st("wikidata_entity", "wikidata", "text entity entity_type", "(text,entity,entity_type)"),
    _st("wikidata_relation", "wikidata", "text subject property object", "(subject,object,relation,text)"),
    _st("wikihow_text_category", "wikihow", "title_description category", "(text,category)"),
    _st("wikihow_category_hierarchy", "wikihow", "low_category high_category", "(low_category,high_category)"),
    _st("wikihow_goal_step", "wikihow", "goal step_headline", "(goal,steps)"),
    _st("wikihow_summary", "wikihow", "step_headline step_description", "(text,summary)"),
    _st("wikihow_procedure", "wikihow", "goal first_step_headline second_step_headline", "(first_step,second_step,goal)"),
    _st("wikihow_question", "wikihow", "title title_description first_related_question answer", "(question,description,related_questions,answer)"),
    _st("wikipedia_entities", "wikipedia", "paragraph entities", "(text,entities)"),
    _st("wikipedia_sections", "wikipedia", "section_text section_title", "(texts,titles)"),
    _st("wikipedia_sentiment", "wikipedia", "text sentiment", "(text,neutral_sentiment)"),
    _st("wordnet_pos", "wordnet", "word sentence pos", "(word,sentence,pos)"),
    _st("wordnet_meaning", "wordnet", "word sentence meaning possible_meanings", "(word,sentence,meaning,possible_meanings)"),
    _st("wordnet_synonym", "wordnet", "word sentence synonym", "(word,sentence,synonyms)"),
    _st("wordnet_antonym", "wordnet", "word sentence antonym", "(word,sentence,antonyms)"),
    _st("qa_control", "qa_corpus", "premise hypothesis label", "(premise,hypothesis,label)"),
    _st("qa_dream", "qa_corpus", "context question options answer", "(context,question,options,answer)"),
    _st("qa_logiqa", "qa_corpus", "context question options answer", "(context,question,options,answer)"),
    _st("qa_reclor", "qa_corpus", "context question options answer", "(context,question,options,answer)"),
    _st("qa_race", "qa_corpus", "context question options answer", "(context,question,options,answer)"),
    _st("qa_race_c", "qa_corpus", "context question options answer", "(context,question,options,answer)"),
    _st("qa_triviaqa", "qa_corpus", "context question answer", "(context,question,answer)"),
    _st("arxiv_category", "arxiv", "abstract category", "(text,category)"),
    _st("arxiv_summary", "arxiv", "abstract title", "(text,summary)"),
    _st("paperswithcode_entity", "paperswithcode", "sentence entities", "(text,entities,datasets,methods,tasks,metrics)"),
    _st("paperswithcode_summary", "paperswithcode", "introduction abstract", "(text,summary)"),
    _st("plain_text_cloze", "plain_text", "corrupted_text corrupted_positions target_spans", "(corrupted_text,corrupted_positions,target_spans)"),
]

CATALOG: Mapping[str, SignalType] = {st.id: st for st in _CATALOG_ENTRIES}
TASK_SIGNAL_IDS: tuple[str, ...] = tuple(st.id for st in _CATALOG_ENTRIES if st.id != "plain_text_cloze")

assert len(TASK_SIGNAL_IDS) == 30
assert len(CATALOG) == 31


@dataclass(frozen=True)
class SignalTuple:
    signal_type: str
    fields: tuple[str, ...]
    source_doc: str  # "<mine>/<doc_id>" provenance locator
    extraction_meta: Mapping[str, str] = field(default_factory=dict)

    def named_fields(self) -> dict[str, str]:
        st = CATALOG.get(self.signal_type)
        if st is None:
            raise SchemaError(f"unknown signal type: {self.signal_type}")
        return dict(zip(st.field_names, self.fields))

    def get(self, name: str) -> str | None:
        named = self.named_fields()
        if name in named:
            return named[name]
        return self.extraction_meta.get(name)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_tuple(tup: SignalTuple) -> Verdict:
    """Accept, or reject naming the first violated invariant.

    An unknown signal type is a structural error (raised), not a rejection.
    """
    st = CATALOG.get(tup.signal_type)
    if st is None:
        raise SchemaError(f"unknown signal type: {tup.signal_type}")
    if len(tup.fields) != st.arity:
        return Verdict(False, f"arity: expected {st.arity} fields, got {len(tup.fields)}")
    for name, value in zip(st.field_names, tup.fields):
        if not value:
            return Verdict(False, f"empty_field: {name}")
        if value != value.strip() or "\t" in value or "\n" in value or "  " in value:
            return Verdict(False, f"unnormalized_field: {name}")
    return Verdict(True)


def tuple_to_record(tup: SignalTuple) -> dict:
    rec = {
        "v": FORMAT_VERSION,
        "signal_type": tup.signal_type,
        "fields": tup.named_fields(),
        "source_doc": tup.source_doc,
    }
    if tup.extraction_meta:
        rec["meta"] = dict(tup.extraction_meta)
    return rec


# a tuple-file line; `tuple_from_record` also checks it against the catalog
TUPLE = {"v": str, "signal_type": required(str), "fields": required({str: str}), "source_doc": required(str),
         "meta": {str: str}}


def tuple_from_record(rec: Mapping) -> SignalTuple:
    """The tuple a tuple-file line holds. It must read through TUPLE (closed),
    name a catalog signal type and give each field that type declares; else
    it is a `FieldError` naming the key.

    The checks below accept just what that reading accepts, at a fraction
    of its cost (a test pins them to it); a record they refuse is read
    through TUPLE only to word the refusal."""
    signal_type, named, source_doc = rec.get("signal_type"), rec.get("fields"), rec.get("source_doc")
    meta = rec.get("meta", {})
    st = CATALOG.get(signal_type) if type(signal_type) is str else None
    # the three required keys, "v" and "meta" if given, and no other
    if (st is not None and type(named) is dict and type(meta) is dict
            and len(rec) == 3 + ("v" in rec) + ("meta" in rec)):
        try:
            fields = tuple(map(named.__getitem__, st.field_names))
            # a TypeError unless each is a string
            "".join((rec.get("v", ""), source_doc, *named.values(), *meta.values()))
            return SignalTuple(signal_type, fields, source_doc, dict(meta))
        except (KeyError, TypeError):
            pass
    values = read(rec, TUPLE, closed=True)
    signal_type = values["signal_type"]
    if signal_type not in CATALOG:
        raise FieldError(f"'signal_type' must be a catalog signal type, got {reprlib.repr(signal_type)}")
    missing = next(name for name in CATALOG[signal_type].field_names if name not in values["fields"])
    raise FieldError(f"'fields.{missing}' must be a string, got nothing")


def tuple_line(tup: SignalTuple) -> str:
    """`tup`'s line in a tuple file. Field order inside the record follows
    the SignalType's declared order."""
    return json.dumps(tuple_to_record(tup), ensure_ascii=False) + "\n"


def dump_tuples(tuples: Iterable[SignalTuple]) -> str:
    return "".join(map(tuple_line, tuples))


def load_tuples(text: str | bytes, name: str = "<tuples>") -> list[SignalTuple]:
    """The tuples in `text`, a tuple file's text or UTF-8 bytes; `name`
    names it in errors."""
    lines = text.split(b"\n" if isinstance(text, bytes) else "\n")
    return list(json_lines(lines, name, tuple_from_record))


@dataclass(frozen=True)
class PromptedExample:
    source: str
    target: str
    signal_type: str
    template_id: str
    family: str
    seed: int
    split: str = "train"
    source_doc: str = ""

    def validate(self) -> Verdict:
        if self.family not in FAMILIES:
            return Verdict(False, f"unknown family: {self.family}")
        if not self.target:
            return Verdict(False, "empty target")
        if self.family in ("multiple_choice", "generation"):
            if self.source.count("QUERY:") != 1:
                return Verdict(False, "source must contain QUERY: exactly once")
            if self.source.count("TEXT:") > 1:
                return Verdict(False, "source may contain TEXT: at most once")
            if "TEXT:" in self.source and self.source.index("TEXT:") > self.source.index("QUERY:"):
                return Verdict(False, "TEXT: must precede QUERY:")
        return Verdict(True)


# a bundle record, as `dataset_io.encode_record` writes it
EXAMPLE = {"source": required(str), "target": required(str), "signal_type": required(str),
           "template_id": required(str), "family": required(str), "seed": required(int),
           "split": default(str, "train"), "source_doc": str, "v": str}


def example_from_record(rec: Mapping) -> PromptedExample:
    """The example a bundle record holds, read through EXAMPLE (closed)."""
    values = read(rec, EXAMPLE, closed=True)
    del values["v"]
    return PromptedExample(**values)


@dataclass(frozen=True)
class MixEntry:
    signal_type: str
    family: str
    cap: int | None = None
    per_category_cap: int | None = None
    stage: int = 1
    template_group: str | None = None
    composition: Mapping[str, int] | None = None  # category value -> exact count
    # the key the composition counts, "category" if None: a field's name, or
    # else an extraction_meta key, read as `SignalTuple.get` reads it
    composition_key: str | None = None

    def __post_init__(self) -> None:
        # each refusal names the key as a spec file holds it
        if self.signal_type not in CATALOG:
            raise FieldError(f"'entries[].signal_type' must be a catalog signal type, got {self.signal_type!r}")
        if self.family not in FAMILIES:
            raise FieldError(f"'entries[].family' must be one of {', '.join(map(repr, FAMILIES))}, "
                             f"got {self.family!r}")
        for key, cap in (("cap", self.cap), ("per_category_cap", self.per_category_cap)):
            if cap is not None and cap <= 0:
                raise FieldError(f"'entries[].{key}' must be positive, got {cap}")
        if self.stage < 1:
            raise FieldError(f"'entries[].stage' must be >= 1, got {self.stage}")


@dataclass(frozen=True)
class MixSpec:
    entries: tuple[MixEntry, ...]
    split_ratio: float = 0.0
    name: str = "mix"

    def __post_init__(self) -> None:
        if not self.entries:
            raise FieldError("'entries' must hold an entry")
        if not (0 <= self.split_ratio < 1):
            raise FieldError(f"'split_ratio' must be in [0, 1), got {self.split_ratio!r}")
        stages = self.stages
        if stages != list(range(1, len(stages) + 1)):
            raise FieldError(f"'entries[].stage' values must be contiguous from 1, got {stages}")

    @property
    def stages(self) -> list[int]:
        return sorted({e.stage for e in self.entries})


# a mix spec file; `MixEntry` and `MixSpec` check the values' ranges, naming the key
MIX_ENTRY = {
    "signal_type": required(str), "family": required(str),
    "cap": default(int, None), "per_category_cap": default(int, None), "stage": default(int, 1),
    "template_group": default(str, None), "composition": default({str: int}, None),
    "composition_key": default(str, None),
}
MIX_SPEC = {"entries": [MIX_ENTRY], "split_ratio": default(float, 0.0), "name": default(str, "mix")}


def mixspec_from_record(rec: Mapping) -> MixSpec:
    """The mix spec `rec` holds, read through MIX_SPEC (closed)."""
    values = read(rec, MIX_SPEC, closed=True)
    # an empty composition counts nothing, as an absent one
    entries = tuple(MixEntry(**{**e, "composition": e["composition"] or None}) for e in values["entries"])
    return MixSpec(**{**values, "entries": entries})


def load_mixspec(file) -> MixSpec:
    """The mix spec in `file`, a path or a package resource."""
    return read_json(file, build=mixspec_from_record)
