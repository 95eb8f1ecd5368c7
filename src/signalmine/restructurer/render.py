"""Turn signal tuples into prompted source/target examples.

Rendering is a pure function of (tuple, template, pools, rng stream): the
same seed always reproduces the same bytes. Every option list contains the
correct answer exactly once; list style is quoted items joined by commas,
with a final "or" for the with_or flavor.
"""

from __future__ import annotations

import hashlib
import random
import re
from collections.abc import Sequence
from typing import Mapping

from ..normalizer import word_count
from ..rng import derive_rng, derive_seed
from ..signal_model import LIST_SEP, NO_ENTITIES, PromptedExample, SchemaError, SignalTuple
from .pools import ALIASES, ENTITY_DRAWS, OPTION_SLOTS, OTHER_SLOTS, SHUFFLED_PAIRS, DistractorPools
from .templates import (
    OPTION_SLOT_RE,
    PromptRegistry,
    PromptTemplate,
    RenderError,
    answer_value,
    load_gaokao_prompts,
    substitute,
)

MIN_OPTIONS = 3
MAX_OPTIONS = 9


class ConfigError(Exception):
    """Registry-level problem: empty template group, unknown signal."""


def tuple_key(tup: SignalTuple) -> str:
    digest = hashlib.sha256()
    digest.update(tup.signal_type.encode())
    for f in tup.fields:
        digest.update(b"\x1f" + f.encode())
    digest.update(b"\x1e" + tup.source_doc.encode())
    for k in sorted(tup.extraction_meta):
        digest.update(f"\x1d{k}\x1c{tup.extraction_meta[k]}".encode())
    return digest.hexdigest()[:16]


def format_options(options: list[str], with_or: bool) -> str:
    quoted = [f'"{o}"' for o in options]
    if not with_or or len(quoted) == 1:
        return ", ".join(quoted)
    if len(quoted) == 2:
        return f"{quoted[0]} or {quoted[1]}"
    return ", ".join(quoted[:-1]) + ", or " + quoted[-1]


_OPTION_RUN_RE = re.compile(r'"[^"]+"(?:(?:, | or |, or | and |, and )"[^"]+")+')


def parse_options(source: str) -> list[str]:
    """Inverse view of a rendered option list.

    Option lists are runs of two or more quoted items separated by commas and
    a final "or"; the last such run in the source is the bound option list
    (other quoted strings, e.g. an embedded subject, stand alone or come
    earlier). Values themselves must not contain double quotes.
    """
    runs = _OPTION_RUN_RE.findall(source)
    if not runs:
        return re.findall(r'"([^"]+)"', source)
    best = runs[-1]
    for run in runs:
        if len(re.findall(r'"([^"]+)"', run)) > len(re.findall(r'"([^"]+)"', best)):
            best = run
    return re.findall(r'"([^"]+)"', best)


def _pool_values(
    spec: tuple, tup: SignalTuple, values: Mapping[str, str], pools: DistractorPools
) -> tuple[list[str], Mapping[str, int]]:
    """A pool's distinct values in order, and the position of each value.
    `values` is the tuple's field-or-meta view (see `render`).

    Corpus-level pools are returned as they are, without a copy: they are
    deduplicated when built.
    """
    kind, ref = spec
    if kind == "context":
        return pools.get(ref), pools.positions(ref)
    if kind == "labels":
        items = ref
    elif kind == "field":
        items = (values.get(ref) or "").split(LIST_SEP)
    elif kind == "meta":
        items = tup.extraction_meta.get(ref, "").split(LIST_SEP)
    else:
        raise SchemaError(f"unknown pool spec: {kind}")
    # packed lists may repeat a value; options must stay distinct
    positions: dict[str, int] = {}
    for v in items:
        if v and v not in positions:
            positions[v] = len(positions)
    return list(positions), positions


class _Without(Sequence):
    """`values` with the items at the sorted positions `skipped` left out.

    Items are looked up on access, never copied. `random.sample` and
    `Random.choice` only take the length of a population and index it, so
    they draw from this view exactly what they would draw from the filtered
    list, and a draw costs O(k + len(skipped)) instead of O(len(values)).
    """

    __slots__ = ("_values", "_skipped")

    def __init__(self, values: Sequence[str], skipped: Sequence[int]):
        self._values = values
        self._skipped = skipped

    def __len__(self) -> int:
        return len(self._values) - len(self._skipped)

    def __getitem__(self, i: int) -> str:
        if not 0 <= i < len(self):
            raise IndexError(i)
        for position in self._skipped:
            if position > i:
                break
            i += 1
        return self._values[i]


def _exclusion_values(values: Mapping[str, str], keys: tuple[str, ...]) -> set[str]:
    out: set[str] = set()
    for key in keys:
        raw = values.get(key)
        if raw:
            out.update(v for v in raw.split(LIST_SEP) if v)
    return out


def _build_options(
    base: str,
    tup: SignalTuple,
    values: Mapping[str, str],
    template: PromptTemplate,
    pools: DistractorPools,
    rng: random.Random,
) -> list[str]:
    key = (tup.signal_type, base)
    if key not in OPTION_SLOTS:
        raise RenderError(f"{tup.signal_type}/{template.group}: no option pool for slot '{base}'")
    correct_field, spec, mode = OPTION_SLOTS[key]
    if template.slots.get(base):
        correct_field = template.slots[base]
    correct = values.get(correct_field)
    if not correct:
        raise RenderError(f"{tup.signal_type}/{template.group}: missing correct option field '{correct_field}'")
    pool, positions = _pool_values(spec, tup, values, pools)

    if mode == "all":
        options = list(pool)
        if correct not in positions:
            options.insert(0, correct)
        if len(options) < 2:
            raise RenderError(f"{tup.signal_type}/{template.group}: option pool too small for '{base}'")
        return options

    at = positions.get(correct)
    distractors = _Without(pool, () if at is None else (at,))
    if len(distractors) < MIN_OPTIONS - 1:
        raise RenderError(f"{tup.signal_type}/{template.group}: distractor pool too small for '{base}'")
    count = rng.randint(MIN_OPTIONS, min(MAX_OPTIONS, len(distractors) + 1))
    chosen = rng.sample(distractors, count - 1)
    position = rng.randrange(count)
    chosen.insert(position, correct)
    return chosen


def _other_value(
    name: str, tup: SignalTuple, values: Mapping[str, str], pools: DistractorPools, rng: random.Random
) -> str:
    spec, excluded_keys = OTHER_SLOTS[(tup.signal_type, name)]
    pool, positions = _pool_values(spec, tup, values, pools)
    excluded = _exclusion_values(values, excluded_keys)
    candidates = _Without(pool, sorted(positions[v] for v in excluded if v in positions))
    if not candidates:
        raise RenderError(f"{tup.signal_type}: distractor pool empty for '{name}'")
    return rng.choice(candidates)


def _draw_entities(tup: SignalTuple, wanted: set[str], bindings: dict[str, str], rng: random.Random) -> None:
    """Bind each of `entity` and `not_entity` that is wanted and still unbound."""
    entities = [v for v in tup.extraction_meta.get("entity_list", "").split(LIST_SEP) if v]
    if "entity" in wanted and "entity" not in bindings:
        if not entities:
            raise RenderError(f"{tup.signal_type}: template needs an entity but the tuple has none")
        bindings["entity"] = rng.choice(entities)
    if "not_entity" in wanted and "not_entity" not in bindings:
        tokens = tup.fields[0].split()
        surfaces = set(entities)
        for _ in range(64):
            length = rng.randint(1, min(3, len(tokens)))
            start = rng.randrange(0, len(tokens) - length + 1)
            span = " ".join(tokens[start : start + length])
            if span in surfaces or span == NO_ENTITIES:
                continue
            if any(span in s or s in span for s in surfaces):
                continue
            bindings["not_entity"] = span
            break
        if "not_entity" not in bindings:
            raise RenderError(f"{tup.signal_type}: could not pick a non-entity span")


_A_AN_RE = re.compile(r"\ba/an(\s+\"?)([A-Za-z])")


def resolve_article(text: str) -> str:
    """Pick "a" or "an" for a/an slots by the next word's initial vowel."""

    def repl(m: re.Match) -> str:
        article = "an" if m.group(2).lower() in "aeiou" else "a"
        return f"{article}{m.group(1)}{m.group(2)}"

    if "a/an" not in text:
        return text
    return _A_AN_RE.sub(repl, text)


def render(
    tup: SignalTuple,
    template: PromptTemplate,
    pools: DistractorPools,
    rng: random.Random,
    seed: int = 0,
    split: str = "train",
) -> PromptedExample:
    if template.signal_type != tup.signal_type:
        raise RenderError(f"template {template.template_id} does not match {tup.signal_type}")

    names = template.placeholders()
    named = tup.named_fields()
    # what `tup.get` reads, built once: a field before a meta key of its name
    values = {**tup.extraction_meta, **named}
    # bindings read the other way round: a meta key shadows a field
    bindings = {**named, **tup.extraction_meta}
    for alias, target_name in ALIASES.get(tup.signal_type, {}).items():
        if target_name in bindings:
            bindings[alias] = bindings[target_name]

    pair = SHUFFLED_PAIRS.get(tup.signal_type)
    if pair and names.isdisjoint(pair[0]):
        pair = None
    if tup.signal_type in ENTITY_DRAWS:
        _draw_entities(tup, names.union(pair[1]) if pair else names, bindings, rng)
    if pair:
        shuffled = [bindings[n] for n in pair[1]]
        rng.shuffle(shuffled)
        bindings.update(zip(pair[0], shuffled))

    for name in sorted(names):
        if name in bindings:
            continue
        m = OPTION_SLOT_RE.match(name)
        if m:
            base = m.group(1)
            options = _build_options(base, tup, values, template, pools, rng)
            bindings[f"{base}_with_or"] = format_options(options, with_or=True)
            bindings[f"{base}_without_or"] = format_options(options, with_or=False)
            continue
        if (tup.signal_type, name) in OTHER_SLOTS:
            bindings[name] = _other_value(name, tup, values, pools, rng)

    if template.answer is not None:
        bindings["answer"] = answer_value(template.answer, values)

    target = substitute(template.target_pattern, bindings)
    if "length" in names:
        bindings["length"] = str(word_count(target))
    source = resolve_article(substitute(template.source_pattern, bindings))

    example = PromptedExample(
        source=source,
        target=target,
        signal_type=tup.signal_type,
        template_id=template.template_id,
        family=template.family,
        seed=seed,
        split=split,
        source_doc=tup.source_doc,
    )
    verdict = example.validate()
    if not verdict:
        raise RenderError(f"{template.template_id}: {verdict.reason}")
    return example


def select_template(
    registry: PromptRegistry,
    signal_type: str,
    family: str,
    tup: SignalTuple,
    seed: int,
    group: str | None,
    key: str,
) -> PromptTemplate:
    """Uniform seeded choice among the templates applicable to this tuple.

    The index is the 64-bit derived seed modulo the number of eligible
    templates, so choosing builds no `random.Random`; the modulo biases no
    template by more than len(eligible) / 2**64. `key` is the tuple's
    `tuple_key`.
    """
    if not registry.get(signal_type, family, group):
        raise ConfigError(f"no templates for ({signal_type}, {family}, group={group})")
    eligible = registry.eligible(signal_type, family, group, tup)
    if not eligible:
        raise RenderError(f"no applicable template for tuple of {signal_type} (group={group})")
    return eligible[derive_seed(seed, "select", signal_type, family, group or "", key) % len(eligible)]


def render_with_selected(
    registry: PromptRegistry,
    tup: SignalTuple,
    family: str,
    pools: DistractorPools,
    seed: int,
    group: str | None,
    key: str,
    split: str = "train",
) -> PromptedExample:
    """Select a template and render the tuple with it into an example of
    `split`; `key` as in `select_template`."""
    if tup.signal_type == "plain_text_cloze":
        return render_cloze(tup, seed, split)
    template = select_template(registry, tup.signal_type, family, tup, seed, group, key)
    rng = _LazyRng(seed, "render", template.template_id, key)
    return render(tup, template, pools, rng, seed=seed, split=split)


class _LazyRng:
    """`derive_rng(seed, *key)`, built when a method is first looked up.

    Most templates draw nothing, and seeding a Mersenne Twister costs a
    sha256 and a full state fill. The stream is private to one render, so
    building it late gives the same draws.
    """

    __slots__ = ("_seed", "_key", "_rng")

    def __init__(self, seed: int, *key: object):
        self._seed, self._key, self._rng = seed, key, None

    def __getattr__(self, name: str):
        if self._rng is None:
            self._rng = derive_rng(self._seed, *self._key)
        return getattr(self._rng, name)


CLOZE_TEMPLATE_ID = "plain_text_cloze.cloze.001"


def cloze_target(sentinels: list[str], spans: list[str]) -> str:
    """Sentinel-prefixed spans with one trailing sentinel after the last span."""
    from ..extractors.plain_text import sentinel as nth_sentinel

    parts: list[str] = []
    for mark, span in zip(sentinels, spans):
        parts.append(mark)
        parts.append(span)
    parts.append(nth_sentinel(len(sentinels)))
    return " ".join(parts)


def render_cloze(tup: SignalTuple, seed: int = 0, split: str = "train") -> PromptedExample:
    if tup.signal_type != "plain_text_cloze":
        raise RenderError("render_cloze only accepts plain_text_cloze tuples")
    named = tup.named_fields()
    sentinels = [s for s in named["corrupted_positions"].split(LIST_SEP) if s]
    spans = [s for s in named["target_spans"].split(LIST_SEP) if s]
    if len(sentinels) != len(spans):
        raise RenderError("cloze tuple has mismatched positions/spans")
    return PromptedExample(
        source=named["corrupted_text"],
        target=cloze_target(sentinels, spans),
        signal_type=tup.signal_type,
        template_id=CLOZE_TEMPLATE_ID,
        family="cloze",
        seed=seed,
        split=split,
        source_doc=tup.source_doc,
    )


GAOKAO_KINDS = ("reading_mc", "listening", "cloze_mc", "reading_cloze", "cloze_hint", "grammar", "essay")


def render_gaokao(record: Mapping, kind: str) -> PromptedExample:
    """Render one exam question with the fixed prompt for its subcategory."""
    prompts = load_gaokao_prompts()
    if kind not in GAOKAO_KINDS:
        raise ConfigError(f"unknown exam question kind: {kind}")
    key = kind
    if kind == "cloze_hint" and not record.get("hint"):
        key = "cloze_hint_no_hint"
    spec = prompts[key]
    bindings = {k: str(v) for k, v in record.items() if not isinstance(v, (list, dict))}
    options = record.get("options") or []
    if options:
        bindings["options_with_or"] = format_options([str(o) for o in options], with_or=True)
    bindings.setdefault("target", str(record.get("answer", "")))
    source = substitute(spec["source"], bindings)
    target = substitute(spec["target"], bindings)
    example = PromptedExample(
        source=source,
        target=target,
        signal_type=f"gaokao_{kind}",
        template_id=f"gaokao.{key}",
        family="generation" if kind in ("cloze_hint", "grammar", "essay") else "multiple_choice",
        seed=0,
    )
    verdict = example.validate()
    if not verdict:
        raise RenderError(f"gaokao {kind}: {verdict.reason}")
    return example
