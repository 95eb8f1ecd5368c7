"""Prompt-template registry backed by the bundled catalog file.

Templates are data, not code: each record carries the source/target patterns
with `{name}` placeholders, an optional answer rule, and optional
applicability requirements. The registry groups them by (signal_type,
family) and is immutable after load; it only memoizes which templates of a
group apply to a tuple.
The `{name}` pattern language and the answer rules defined here serve the
evaluation and exam prompts as well.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping

from ..signal_model import (CATALOG, LIST_SEP, NO_ENTITIES, OneOf, SchemaError, SignalTuple, default, json_lines,
                            read, read_json, required)

PLACEHOLDER_RE = re.compile(r"\{([A-Za-z0-9_]+)\}")
OPTION_SLOT_RE = re.compile(r"^(.*)_(with|without)_or$")


class RenderError(Exception):
    """A prompt cannot be rendered (pool too small, missing binding, no
    answer); carries the offending group for the manifest."""


_BRACE_RE = re.compile(r"[{}]")


@lru_cache(maxsize=4096)
def _compile(pattern: str) -> tuple[tuple[tuple[str, bool], ...], str | None]:
    """Split a pattern into segments, read left to right.

    Returns (segments, error). A segment is (text, False) for literal text,
    with `{{` and `}}` already unescaped, or (name, True) for a placeholder;
    empty literals are dropped, so a pattern that is one placeholder
    substitutes to the bound string itself, not a copy. Reading stops at the
    first malformed placeholder or stray `}`, whose message `error` carries;
    substitution raises it only after every placeholder before it is bound,
    the order in which the text is read.
    """
    segments: list[tuple[str, bool]] = []
    run: list[str] = []
    error = None
    i = 0
    while (m := _BRACE_RE.search(pattern, i)) is not None:
        j = m.start()
        run.append(pattern[i:j])
        if pattern.startswith("{{", j) or pattern.startswith("}}", j):
            run.append(pattern[j])
            i = j + 2
            continue
        if pattern[j] == "}":
            error = f"stray '}}' at offset {j}"
            break
        placeholder = PLACEHOLDER_RE.match(pattern, j)
        if not placeholder:
            error = f"malformed placeholder at offset {j}"
            break
        segments.append(("".join(run), False))
        segments.append((placeholder.group(1), True))
        run = []
        i = placeholder.end()
    else:
        run.append(pattern[i:])
    segments.append(("".join(run), False))
    return tuple(s for s in segments if s[0]), error


def _names(pattern: str) -> set[str]:
    return {text for text, is_placeholder in _compile(pattern)[0] if is_placeholder}


def substitute(pattern: str, bindings: Mapping[str, str]) -> str:
    """Bind every `{name}` of `pattern`; `{{` and `}}` stand for `{` and `}`.

    Bound values are inserted as they are, never read as patterns. An unbound
    name, a malformed placeholder or a stray `}` raises `RenderError`.
    """
    segments, error = _compile(pattern)
    out = []
    for text, is_placeholder in segments:
        if is_placeholder:
            if text not in bindings:
                raise RenderError(f"unbound placeholder '{text}'")
            text = bindings[text]
        out.append(text)
    if error is not None:
        raise RenderError(error)
    return "".join(out)


def answer_value(rule: Mapping, values: Mapping[str, str]) -> str:
    """The answer a rule read through RULE gives for a record's field values;
    a `cond` rule whose field is missing, or whose cases all miss, raises
    `RenderError`."""
    kind = rule["kind"]
    if kind == "const":
        return rule["value"]
    if kind == "presence":
        raw = values.get(rule["field"])
        return rule["present"] if raw and raw != NO_ENTITIES else rule["absent"]
    value = values.get(rule["field"])  # a `cond` rule
    if value is None:
        raise RenderError(f"answer rule needs field '{rule['field']}'")
    for case in rule["cases"]:
        if (value == case["literal"]) != case["negate"]:
            return case["value"]
    raise RenderError(f"answer rule has no case for value '{value}'")


# the shape of an answer rule of each kind, as `answer_value` reads it
RULE = OneOf(
    const={"kind": str, "value": required(str)},
    presence={"kind": str, "present": required(str), "absent": required(str), "field": default(str, "entities")},
    cond={"kind": str, "field": required(str),
          "cases": required([{"literal": required(str), "value": required(str), "negate": bool}])},
)

# an evaluation prompt; a null answer is none, so a prompt read reads back the same
PROMPT = {"source": required(str), "target": required(str), "answer": default(RULE, None)}


def rule_options(rule: Mapping) -> list[str]:
    """The distinct values of a `cond` rule's cases, in order."""
    return list(dict.fromkeys(case["value"] for case in rule.get("cases", [])))


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    signal_type: str
    family: str
    group: str
    source_pattern: str
    target_pattern: str
    answer: Mapping | None = None
    requires: Mapping | None = None
    slots: Mapping[str, str] = field(default_factory=dict)
    _placeholders: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = frozenset(_names(self.source_pattern) | _names(self.target_pattern))
        object.__setattr__(self, "_placeholders", names)

    def placeholders(self) -> frozenset[str]:
        return self._placeholders

    def option_slots(self) -> set[str]:
        bases = set()
        for name in self.placeholders():
            m = OPTION_SLOT_RE.match(name)
            if m:
                bases.add(m.group(1))
        return bases

    def applies_to(self, tup: SignalTuple) -> bool:
        """Whether `tup` meets the template's `requires`, as TEMPLATE reads it."""
        if self.requires is None:
            return True
        for key, value in self.requires["meta_equals"].items():
            if tup.extraction_meta.get(key) != value:
                return False
        for key in self.requires["meta_nonempty"]:
            if not tup.extraction_meta.get(key):
                return False
        for fname, minimum in self.requires["field_list_min"].items():
            raw = tup.get(fname) or ""
            if len([v for v in raw.split(LIST_SEP) if v]) < minimum:
                return False
        for key, minimum in self.requires["meta_list_min"].items():
            raw = tup.extraction_meta.get(key, "")
            if len([v for v in raw.split(LIST_SEP) if v]) < minimum:
                return False
        return True


# a catalog line; an absent or null `answer` or `requires` reads as None
TEMPLATE = {
    "id": required(str), "signal_type": required(str), "family": required(str), "group": str,
    "source": required(str), "target": required(str), "answer": default(RULE, None),
    "requires": default({"meta_equals": {str: str}, "meta_nonempty": [str], "field_list_min": {str: int},
                         "meta_list_min": {str: int}}, None),
    "slots": {str: str},
}


def template_from_record(rec: Mapping) -> PromptTemplate:
    """The template of a catalog line, read through TEMPLATE (closed)."""
    values = read(rec, TEMPLATE, closed=True)
    return PromptTemplate(
        template_id=values["id"],
        signal_type=values["signal_type"],
        family=values["family"],
        group=values["group"],
        source_pattern=values["source"],
        target_pattern=values["target"],
        answer=values["answer"],
        requires=values["requires"],
        slots=values["slots"],
    )


class _Eligibility:
    """Which templates of one group apply to a tuple.

    The answer depends only on which of the group's distinct `requires`
    predicates the tuple meets, and a group has few (at most 2 in the
    bundled catalog). Each predicate is tested once per call, through
    `applies_to` of the first template carrying it, and the filtered list
    is built once per combination of outcomes.
    """

    __slots__ = ("templates", "tests", "needs", "lists")

    def __init__(self, templates: list[PromptTemplate]):
        keys = [json.dumps(t.requires, sort_keys=True) if t.requires else None for t in templates]
        distinct = list(dict.fromkeys(k for k in keys if k is not None))
        self.templates = templates
        self.tests = tuple(templates[keys.index(k)] for k in distinct)
        # per template: the index of the predicate it needs, or None
        self.needs = tuple(None if k is None else distinct.index(k) for k in keys)
        self.lists: dict[tuple[bool, ...], list[PromptTemplate]] = {}

    def __call__(self, tup: SignalTuple) -> list[PromptTemplate]:
        if not self.tests:
            return self.templates
        met = tuple([t.applies_to(tup) for t in self.tests])
        found = self.lists.get(met)
        if found is None:
            found = [t for t, i in zip(self.templates, self.needs) if i is None or met[i]]
            self.lists[met] = found
        return found


class PromptRegistry:
    def __init__(self, templates: list[PromptTemplate]):
        self.by_id: dict[str, PromptTemplate] = {}
        self.groups: dict[tuple[str, str], list[PromptTemplate]] = {}
        self._by_group: dict[tuple[str, str, str], list[PromptTemplate]] = {}
        self._eligibility: dict[tuple[str, str, str], _Eligibility] = {}
        for tpl in templates:
            if tpl.signal_type not in CATALOG:
                raise SchemaError(f"template {tpl.template_id}: unknown signal {tpl.signal_type}")
            if tpl.template_id in self.by_id:
                raise SchemaError(f"duplicate template id: {tpl.template_id}")
            self.by_id[tpl.template_id] = tpl
            self.groups.setdefault((tpl.signal_type, tpl.family), []).append(tpl)
            self._by_group.setdefault((tpl.signal_type, tpl.family, tpl.group), []).append(tpl)

    def __len__(self) -> int:
        return len(self.by_id)

    def get(self, signal_type: str, family: str, group: str | None = None) -> list[PromptTemplate]:
        """Templates of a (signal, family), narrowed to one group if given.
        The lists are the registry's own: callers must not modify them."""
        if group:
            return self._by_group.get((signal_type, family, group), [])
        return self.groups.get((signal_type, family), [])

    def eligible(
        self, signal_type: str, family: str, group: str | None, tup: SignalTuple
    ) -> list[PromptTemplate]:
        """The templates of `get(signal_type, family, group)` that apply to
        `tup`, in catalog order. The lists are shared: callers must not
        modify them."""
        key = (signal_type, family, group or "")
        check = self._eligibility.get(key)
        if check is None:
            check = self._eligibility[key] = _Eligibility(self.get(signal_type, family, group))
        return check(tup)

    def counts(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (signal, family), templates in sorted(self.groups.items()):
            out.setdefault(signal, {})[family] = len(templates)
        return out


def _data_file(name: str):
    return resources.files("signalmine.restructurer").joinpath("data", name)


def validate_template(tpl: PromptTemplate) -> None:
    """Template invariants: patterns must compile; placeholders must be
    resolvable for the signal; multiple-choice prompts carry options (a slot
    or a literal quoted list), generation prompts carry no option slots."""
    from .pools import legal_placeholder

    if tpl.family not in ("multiple_choice", "generation"):
        raise SchemaError(f"template {tpl.template_id}: family must be multiple_choice or generation, "
                          f"got {tpl.family!r}")
    for pattern in (tpl.source_pattern, tpl.target_pattern):
        error = _compile(pattern)[1]
        if error is not None:
            raise SchemaError(f"template {tpl.template_id}: {error} in {pattern!r}")
    for name in tpl.placeholders():
        if not legal_placeholder(tpl.signal_type, name):
            raise SchemaError(
                f"template {tpl.template_id}: placeholder '{name}' is not resolvable "
                f"for {tpl.signal_type}"
            )
    slots = tpl.option_slots()
    if tpl.family == "generation" and slots:
        raise SchemaError(f"template {tpl.template_id}: generation prompts take no option slots")
    if tpl.family == "multiple_choice" and not slots:
        literal_options = re.findall(r'"[^"]+"', tpl.source_pattern)
        if len(literal_options) < 2:
            raise SchemaError(f"template {tpl.template_id}: multiple-choice prompt has no options")


def load_registry(path: str | None = None) -> PromptRegistry:
    file = _data_file("templates.jsonl") if path is None else Path(path)
    with file.open("rb") as fh:
        templates = list(json_lines(fh, str(file), template_from_record))
    for tpl in templates:
        validate_template(tpl)
    return PromptRegistry(templates)


# the frozen registry manifest: per signal type, its template count per family
REGISTRY_MANIFEST = {"per_signal": {str: {str: int}}, "total": int}


def load_manifest() -> dict:
    return read_json(_data_file("registry_manifest.json"),
                     build=lambda doc: read(doc, REGISTRY_MANIFEST, closed=True))


# the exam prompts: per question kind, its source and target patterns
GAOKAO_PROMPTS = {str: {"source": required(str), "target": required(str)}}
# the evaluation prompts: each dataset's prompt family, and each family's prompt set
EVAL_PROMPTS = {"datasets": {str: str}, "sets": {str: [PROMPT]}}


def load_gaokao_prompts() -> dict:
    return read_json(_data_file("gaokao_prompts.json"), build=lambda doc: read(doc, GAOKAO_PROMPTS, closed=True))


def load_eval_prompts() -> dict:
    return read_json(_data_file("eval_prompts.json"), build=lambda doc: read(doc, EVAL_PROMPTS, closed=True))


def audit(registry: PromptRegistry) -> dict:
    """Per-signal counts against the frozen manifest."""
    manifest = load_manifest()
    actual = registry.counts()
    return {
        "matches_manifest": actual == manifest["per_signal"],
        "total": len(registry),
        "per_signal": actual,
    }
