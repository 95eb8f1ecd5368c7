"""Signal typology and the shared record types.

The catalog enumerates the 30 task-relevant signal types (one per row of the
collected-signal statistics, with per-mine variants folded into their parent
id) plus the generic plain-text cloze signal. All types are immutable and the
catalog is read-only after import.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

FORMAT_VERSION = "1"

# Separator used to pack list-valued fields (options, positions, spans) into a
# single text field.
LIST_SEP = " | "

FAMILIES = ("multiple_choice", "generation", "cloze")
SPLITS = ("train", "validation")

# Marker used for an empty entity list: tuple fields must stay non-empty.
NO_ENTITIES = "None"


class SchemaError(ValueError):
    """Structural problem: unknown signal type, malformed record, bad spec."""


def json_lines(lines: Iterable[str | bytes], name: str) -> Iterator[dict]:
    """The JSON object on each non-blank line of `lines`, text or UTF-8
    bytes. A line that is not UTF-8, not JSON or not an object is one
    `SchemaError` naming `name` and the 1-based line."""
    for i, line in enumerate(lines, 1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line.strip():
                continue
            rec = json.loads(line)
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise SchemaError(f"{name}:{i}: not a JSON record: {exc}") from exc
        if type(rec) is not dict:
            raise SchemaError(f"{name}:{i}: not a JSON record: expected a JSON object")
        yield rec


def read_json(file, object_only: bool = True):
    """The JSON document in `file`, a path or a package resource. Bytes that
    are not UTF-8, text that is not JSON, or (if `object_only`) a document
    that is not an object are one `SchemaError` naming the file."""
    data = (Path(file) if isinstance(file, (str, os.PathLike)) else file).read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise SchemaError(f"{file}: not a JSON document: {exc}") from exc
    if object_only and type(doc) is not dict:
        raise SchemaError(f"{file}: not a JSON document: expected a JSON object")
    return doc


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


def validate_tuple(tup: SignalTuple, registry: Mapping[str, SignalType] = CATALOG) -> Verdict:
    """Accept, or reject naming the first violated invariant.

    An unknown signal type is a structural error (raised), not a rejection.
    """
    st = registry.get(tup.signal_type)
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


def tuple_from_record(rec: Mapping) -> SignalTuple:
    try:
        signal_type = rec["signal_type"]
        named = rec["fields"]
        source_doc = rec["source_doc"]
    except KeyError as exc:
        raise SchemaError(f"tuple record missing key: {exc}") from exc
    meta = rec.get("meta", {})
    st = CATALOG.get(signal_type) if type(signal_type) is str else None
    if st is None:
        raise SchemaError(f"unknown signal type: {signal_type}")
    if type(named) is not dict or type(meta) is not dict:
        raise SchemaError("tuple record 'fields' and 'meta' must be objects")
    try:
        fields = tuple(named[name] for name in st.field_names)
        "".join((source_doc, *fields, *meta.values()))  # TypeError unless all are strings
    except KeyError as exc:
        raise SchemaError(f"tuple record missing field: {exc}") from exc
    except TypeError as exc:
        raise SchemaError("tuple record 'source_doc', fields and meta values must be strings") from exc
    return SignalTuple(signal_type, fields, source_doc, dict(meta))


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
    return [tuple_from_record(rec) for rec in json_lines(lines, name)]


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


def example_from_record(rec: Mapping) -> PromptedExample:
    """The example a bundle record holds. A missing key, a text value that
    is not a string or a seed that is not a JSON integer is a
    `SchemaError`."""
    try:
        values = {key: rec[key] for key in ("source", "target", "signal_type", "template_id", "family", "seed")}
    except KeyError as exc:
        raise SchemaError(f"example record missing key: {exc}") from exc
    values["split"] = rec.get("split", "train")
    values["source_doc"] = rec.get("source_doc", "")
    for key, value in values.items():
        if type(value) is not (int if key == "seed" else str):
            kind = "an integer" if key == "seed" else "a string"
            raise SchemaError(f"example record '{key}' must be {kind}, got {value!r}")
    return PromptedExample(**values)


@dataclass(frozen=True)
class MixEntry:
    signal_type: str
    family: str
    weight: float = 1.0
    cap: int | None = None
    per_category_cap: int | None = None
    stage: int = 1
    template_group: str | None = None
    composition: Mapping[str, int] | None = None  # category value -> exact count
    composition_key: str | None = None  # field/meta key the composition counts

    def __post_init__(self) -> None:
        if self.signal_type not in CATALOG:
            raise SchemaError(f"unknown signal type in mix entry: {self.signal_type}")
        if self.family not in FAMILIES:
            raise SchemaError(f"unknown family in mix entry: {self.family}")
        if not 0 <= self.weight < math.inf:  # false for NaN too
            raise SchemaError(f"mix weight must be a finite number >= 0, got {self.weight!r}")
        if self.cap is not None and self.cap <= 0:
            raise SchemaError("cap must be positive when given")
        if self.per_category_cap is not None and self.per_category_cap <= 0:
            raise SchemaError("per_category_cap must be positive when given")
        if self.stage < 1:
            raise SchemaError("stage must be >= 1")


@dataclass(frozen=True)
class MixSpec:
    entries: tuple[MixEntry, ...]
    split_ratio: float = 0.0
    global_seed: int = 0
    name: str = "mix"

    def __post_init__(self) -> None:
        if not self.entries:
            raise SchemaError("mix spec has no entries")
        if not any(e.weight > 0 for e in self.entries):
            raise SchemaError("mix spec needs at least one entry with weight > 0")
        if not (0 <= self.split_ratio < 1):
            raise SchemaError("split_ratio must be in [0, 1)")
        stages = sorted({e.stage for e in self.entries})
        if stages != list(range(1, len(stages) + 1)):
            raise SchemaError(f"stages must be contiguous from 1, got {stages}")

    @property
    def stages(self) -> list[int]:
        return sorted({e.stage for e in self.entries})


def _json_int(value: object, what: str) -> int:
    """`value`, which must be a JSON integer: a bool or a float (1.0
    included) is refused, not truncated."""
    if type(value) is not int:
        raise SchemaError(f"mix spec: {what} must be an integer, got {value!r}")
    return value


def _optional_int(rec: Mapping, key: str) -> int | None:
    return None if rec.get(key) is None else _json_int(rec[key], f"'{key}'")


def _json_number(value: object, what: str) -> float:
    """`value`, which must be a finite JSON number, as a float: a bool, a
    string, NaN or an infinity (Python's `json` parses both) is refused."""
    if type(value) not in (int, float):
        raise SchemaError(f"mix spec: {what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise SchemaError(f"mix spec: {what} must be a finite number, got {value!r}")
    return float(value)


def _json_str(value: object, what: str) -> str:
    if type(value) is not str:
        raise SchemaError(f"mix spec: {what} must be a string, got {value!r}")
    return value


def _optional_str(rec: Mapping, key: str) -> str | None:
    return None if rec.get(key) is None else _json_str(rec[key], f"'{key}'")


def mixspec_from_record(rec: Mapping) -> MixSpec:
    try:
        entries = tuple(
            MixEntry(
                signal_type=_json_str(e["signal_type"], "'signal_type'"),
                family=_json_str(e["family"], "'family'"),
                weight=_json_number(e.get("weight", 1.0), "'weight'"),
                cap=_optional_int(e, "cap"),
                per_category_cap=_optional_int(e, "per_category_cap"),
                stage=_json_int(e.get("stage", 1), "'stage'"),
                template_group=_optional_str(e, "template_group"),
                composition={value: _json_int(count, f"composition count for {value!r}")
                             for value, count in dict(e["composition"]).items()}
                if e.get("composition") else None,
                composition_key=_optional_str(e, "composition_key"),
            )
            for e in rec.get("entries", [])
        )
        return MixSpec(
            entries=entries,
            split_ratio=_json_number(rec.get("split_ratio", 0.0), "'split_ratio'"),
            global_seed=_json_int(rec.get("global_seed", 0), "'global_seed'"),
            name=_json_str(rec.get("name", "mix"), "'name'"),
        )
    except SchemaError:
        raise
    except KeyError as exc:
        raise SchemaError(f"mix spec entry missing key: {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:  # a value of the wrong type or size
        raise SchemaError(f"mix spec: {exc}") from exc


def load_mixspec(file) -> MixSpec:
    """The mix spec in `file`, a path or a package resource."""
    return mixspec_from_record(read_json(file))
