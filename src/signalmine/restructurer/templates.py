"""Prompt-template registry backed by the bundled catalog file.

Templates are data, not code: each record carries the source/target patterns
with `{name}` placeholders, an optional answer rule, and optional
applicability requirements. The registry groups them by (signal_type,
family) and is immutable after load.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping

from ..signal_model import CATALOG, LIST_SEP, SchemaError, SignalTuple

PLACEHOLDER_RE = re.compile(r"\{([A-Za-z0-9_]+)\}")
OPTION_SLOT_RE = re.compile(r"^(.*)_(with|without)_or$")


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

    def placeholders(self) -> set[str]:
        return set(PLACEHOLDER_RE.findall(self.source_pattern)) | set(
            PLACEHOLDER_RE.findall(self.target_pattern)
        )

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


def template_from_record(rec: Mapping) -> PromptTemplate:
    try:
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
    except KeyError as exc:
        raise SchemaError(f"template record missing key: {exc}") from exc


class PromptRegistry:
    def __init__(self, templates: list[PromptTemplate]):
        self.by_id: dict[str, PromptTemplate] = {}
        self.groups: dict[tuple[str, str], list[PromptTemplate]] = {}
        self._by_group: dict[tuple[str, str, str], list[PromptTemplate]] = {}
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

    def counts(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (signal, family), templates in sorted(self.groups.items()):
            out.setdefault(signal, {})[family] = len(templates)
        return out


def _data_text(name: str) -> str:
    return resources.files("signalmine.restructurer").joinpath("data", name).read_text("utf-8")


def validate_template(tpl: PromptTemplate) -> None:
    """Template invariants: placeholders must be resolvable for the signal;
    multiple-choice prompts carry options (a slot or a literal quoted list),
    generation prompts carry no option slots."""
    from .pools import legal_placeholder

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
    if path is None:
        text = _data_text("templates.jsonl")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    templates = []
    for i, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"template catalog line {i}: not JSON") from exc
        tpl = template_from_record(rec)
        validate_template(tpl)
        templates.append(tpl)
    return PromptRegistry(templates)


def load_manifest() -> dict:
    return json.loads(_data_text("registry_manifest.json"))


def load_gaokao_prompts() -> dict:
    return json.loads(_data_text("gaokao_prompts.json"))


def load_eval_prompts() -> dict:
    return json.loads(_data_text("eval_prompts.json"))


def audit(registry: PromptRegistry) -> dict:
    """Per-signal counts against the frozen manifest."""
    manifest = load_manifest()
    actual = registry.counts()
    return {
        "matches_manifest": actual == manifest["per_signal"],
        "total": len(registry),
        "per_signal": actual,
    }
