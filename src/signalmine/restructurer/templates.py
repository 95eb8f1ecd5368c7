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

from ..signal_model import CATALOG, LIST_SEP, NO_ENTITIES, SchemaError, SignalTuple, json_lines, read_json

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
    """The answer a rule gives for a record's field values; a `cond` rule
    whose field is missing, or whose cases all miss, raises `RenderError`."""
    kind = rule.get("kind")
    if kind == "const":
        return rule["value"]
    if kind == "presence":
        raw = values.get(rule.get("field", "entities")) or ""
        present = bool(raw) and raw != NO_ENTITIES
        return rule["present"] if present else rule["absent"]
    if kind == "cond":
        value = values.get(rule["field"])
        if value is None:
            raise RenderError(f"answer rule needs field '{rule['field']}'")
        for case in rule["cases"]:
            if case.get("negate"):
                if value != case["literal"]:
                    return case["value"]
            elif value == case["literal"]:
                return case["value"]
        raise RenderError(f"answer rule has no case for value '{value}'")
    raise SchemaError(f"unknown answer rule kind: {kind}")


# per answer rule kind, the keys whose values must be strings
_RULE_STRINGS = {"const": ("value",), "presence": ("present", "absent"), "cond": ("field",)}


def check_answer_rule(rule: object, owner: str) -> None:
    """Raise `SchemaError`, naming `owner`, unless `answer_value` can read
    `rule`: the keys its kind lists in `_RULE_STRINGS` hold strings, and so
    does a presence rule's optional `field`; a `cond` rule has a list of
    `cases`, each with string `literal` and `value` and an optional boolean
    `negate`."""
    if not isinstance(rule, dict) or rule.get("kind") not in _RULE_STRINGS:
        raise SchemaError(f"{owner} has an answer rule that is not a const, presence or cond object")
    kind = rule["kind"]
    keys = _RULE_STRINGS[kind] + (("field",) if "field" in rule and kind == "presence" else ())
    if not all(isinstance(rule.get(key), str) for key in keys):
        raise SchemaError(f"{owner} has a '{kind}' answer rule without a string {' and '.join(map(repr, keys))}")
    cases = rule.get("cases") if kind == "cond" else []
    if not isinstance(cases, list):
        raise SchemaError(f"{owner} has a 'cond' answer rule whose 'cases' is not a list")
    for case in cases:
        if not (isinstance(case, dict) and all(isinstance(case.get(key), str) for key in ("literal", "value"))):
            raise SchemaError(f"{owner} has an answer case without a string 'value' and 'literal'")
        if not isinstance(case.get("negate", False), bool):
            raise SchemaError(f"{owner} has an answer case whose 'negate' is not true or false")


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
        if not self.requires:
            return True
        meta_equals = self.requires.get("meta_equals", {})
        for key, value in meta_equals.items():
            if tup.extraction_meta.get(key) != value:
                return False
        for key in self.requires.get("meta_nonempty", ()):
            if not tup.extraction_meta.get(key):
                return False
        for fname, minimum in self.requires.get("field_list_min", {}).items():
            raw = tup.get(fname) or ""
            if len([v for v in raw.split(LIST_SEP) if v]) < int(minimum):
                return False
        for key, minimum in self.requires.get("meta_list_min", {}).items():
            raw = tup.extraction_meta.get(key, "")
            if len([v for v in raw.split(LIST_SEP) if v]) < int(minimum):
                return False
        return True


# per `requires` key, the container and item type `applies_to` reads
_REQUIRES_SHAPES = {
    "meta_equals": (dict, str),
    "meta_nonempty": (list, str),
    "field_list_min": (dict, int),
    "meta_list_min": (dict, int),
}


def _holds(value: object, container: type, kind: type) -> bool:
    """Whether `value` is a `container` (dict or list) of `kind` items;
    exact types, so a bool is not an integer."""
    items = value.values() if isinstance(value, dict) else value
    return isinstance(value, container) and all(type(item) is kind for item in items)


def _check_shapes(rec: Mapping, owner: str) -> None:
    """Raise `SchemaError`, naming `owner`, unless `rec`'s `slots` is an
    object of strings and its `requires` an object whose keys hold what
    `_REQUIRES_SHAPES` lists, where given."""
    if not _holds(rec.get("slots", {}), dict, str):
        raise SchemaError(f"{owner} has 'slots' that is not an object of strings")
    requires = rec.get("requires", {})
    if not isinstance(requires, dict):
        raise SchemaError(f"{owner} has 'requires' that is not an object")
    for key, (container, kind) in _REQUIRES_SHAPES.items():
        if key in requires and not _holds(requires[key], container, kind):
            shape = f"{'an object' if container is dict else 'a list'} of {'strings' if kind is str else 'integers'}"
            raise SchemaError(f"{owner} has 'requires.{key}' that is not {shape}")


def template_from_record(rec: Mapping) -> PromptTemplate:
    keys = ("id", "signal_type", "family", "source", "target")
    if not all(isinstance(rec.get(key), str) for key in keys) or not isinstance(rec.get("group", ""), str):
        raise SchemaError("template record needs string 'id', 'signal_type', 'family', 'source' and "
                          "'target', and a string 'group' if it has one")
    if "answer" in rec:
        check_answer_rule(rec["answer"], f"template {rec['id']}")
    _check_shapes(rec, f"template {rec['id']}")
    return PromptTemplate(
        template_id=rec["id"],
        signal_type=rec["signal_type"],
        family=rec["family"],
        group=rec.get("group", ""),
        source_pattern=rec["source"],
        target_pattern=rec["target"],
        answer=rec.get("answer"),
        requires=rec.get("requires"),
        slots=rec.get("slots", {}),
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
        templates = [template_from_record(rec) for rec in json_lines(fh, str(file))]
    for tpl in templates:
        validate_template(tpl)
    return PromptRegistry(templates)


def load_manifest() -> dict:
    return read_json(_data_file("registry_manifest.json"))


def load_gaokao_prompts() -> dict:
    return read_json(_data_file("gaokao_prompts.json"))


def load_eval_prompts() -> dict:
    return read_json(_data_file("eval_prompts.json"))


def audit(registry: PromptRegistry) -> dict:
    """Per-signal counts against the frozen manifest."""
    manifest = load_manifest()
    actual = registry.counts()
    return {
        "matches_manifest": actual == manifest["per_signal"],
        "total": len(registry),
        "per_signal": actual,
    }
