"""Signal binding rules: the tables that pool building, rendering and
template validation all read, and the distractor pools wrong options come
from (fixed label spaces, packed lists the tuple carries in fields or
extraction_meta, or collections built over the tuple stream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..extractors.arxiv import DOMAINS as ARXIV_DOMAINS
from ..extractors.daily_mail import CATEGORIES as DAILY_MAIL_CATEGORIES
from ..extractors.pwc import ENTITY_TYPES as PWC_ENTITY_TYPES
from ..extractors.wikihow import ACCEPTED_CATEGORIES as WIKIHOW_CATEGORIES
from ..extractors.wordnet import PARTS_OF_SPEECH
from ..signal_model import CATALOG, LIST_SEP, SignalTuple
from .templates import OPTION_SLOT_RE


@dataclass
class DistractorPools:
    """Corpus-level value collections, deduplicated, insertion-ordered.

    Each pool keeps a value -> position map beside its list, so a render can
    find the positions of the values it must exclude without scanning.
    """

    values: dict[str, list[str]] = field(default_factory=dict)
    _positions: dict[str, dict[str, int]] = field(default_factory=dict)

    def add(self, pool: str, value: str) -> None:
        if not value:
            return
        positions = self._positions.setdefault(pool, {})
        if value not in positions:
            values = self.values.setdefault(pool, [])
            positions[value] = len(values)
            values.append(value)

    def get(self, pool: str) -> list[str]:
        return self.values.get(pool, [])

    def positions(self, pool: str) -> dict[str, int]:
        return self._positions.get(pool, {})

    def observe(self, tup: SignalTuple) -> None:
        named = tup.named_fields()
        for pool, key in POOL_FEEDS.get(tup.signal_type, ()):
            if key in named:
                self.add(pool, named[key])
            else:
                for value in tup.extraction_meta.get(key, "").split(LIST_SEP):
                    self.add(pool, value)

    @classmethod
    def build(cls, tuples: Iterable[SignalTuple]) -> "DistractorPools":
        pools = cls()
        for tup in tuples:
            pools.observe(tup)
        return pools


# Pool feeds: signal -> (pool, field or packed-list meta key), in the order
# `observe` adds them, which decides the distractors a seed draws.
POOL_FEEDS: dict[str, tuple[tuple[str, str], ...]] = {
    "daily_mail_summary": (("daily_mail_titles", "title"),),
    "arxiv_summary": (("arxiv_titles", "title"),),
    "wikidata_relation": (
        ("wikidata_subjects", "subject"), ("wikidata_properties", "property"), ("wikidata_objects", "object")),
    "wikidata_entity": (("wikidata_entity_types", "entity_type"),),
    "wikihow_category_hierarchy": (("wikihow_high_categories", "high_category"),),
    "wikihow_goal_step": (("wikihow_goals", "goal"), ("wikihow_step_headlines", "step_headline")),
    "wikihow_summary": (("wikihow_step_headlines", "step_headline"),),
    "wikihow_procedure": (
        ("wikihow_goals", "goal"),
        ("wikihow_step_headlines", "first_step_headline"),
        ("wikihow_step_headlines", "second_step_headline"),
    ),
    "wikihow_question": (("wikihow_questions", "title"), ("wikihow_questions", "related_questions")),
    "wordnet_pos": (("wordnet_words", "word"),),
    "wordnet_meaning": (("wordnet_words", "word"),),
    "wordnet_synonym": (("wordnet_words", "word"), ("wordnet_words", "synonym")),
    "wordnet_antonym": (("wordnet_words", "word"), ("wordnet_words", "antonym")),
}

# Option slot registry: (signal, base) -> (correct field, pool spec, mode).
# Pool specs: ("labels", <tuple>), ("context", <pool name>), ("field", <field>),
# ("meta", <meta key>). Mode "all" lists the whole pool; "sample" draws 3..9
# options including the correct one.
OPTION_SLOTS: dict[tuple[str, str], tuple[str, tuple, str]] = {
    ("daily_mail_category", "choices"): ("category", ("labels", DAILY_MAIL_CATEGORIES), "all"),
    ("daily_mail_summary", "choices"): ("title", ("context", "daily_mail_titles"), "sample"),
    ("daily_mail_summary", "titles"): ("title", ("context", "daily_mail_titles"), "sample"),
    ("daily_mail_temporal", "choices"): ("second_bullet_point", ("meta", "all_bullet_points"), "all"),
    ("wikidata_relation", "objects"): ("object", ("context", "wikidata_objects"), "sample"),
    ("wikidata_relation", "subjects"): ("subject", ("context", "wikidata_subjects"), "sample"),
    ("wikidata_relation", "properties"): ("property", ("context", "wikidata_properties"), "sample"),
    ("wikidata_entity", "entity_types"): ("entity_type", ("context", "wikidata_entity_types"), "sample"),
    ("wikihow_text_category", "choices"): ("category", ("labels", WIKIHOW_CATEGORIES), "sample"),
    ("wikihow_category_hierarchy", "high_categories"): (
        "high_category", ("context", "wikihow_high_categories"), "sample"),
    ("wikihow_goal_step", "step_headlines"): ("step_headline", ("context", "wikihow_step_headlines"), "sample"),
    ("wikihow_goal_step", "goals"): ("goal", ("context", "wikihow_goals"), "sample"),
    ("wikihow_summary", "step_headlines"): ("step_headline", ("context", "wikihow_step_headlines"), "sample"),
    ("wikihow_procedure", "step_headlines"): (
        "second_step_headline", ("meta", "other_step_headlines"), "all"),
    ("wikihow_question", "questions"): ("first_related_question", ("context", "wikihow_questions"), "sample"),
    ("wikipedia_sections", "section_titles"): ("section_title", ("meta", "sibling_titles"), "sample"),
    ("wordnet_meaning", "meanings"): ("meaning", ("field", "possible_meanings"), "all"),
    ("wordnet_synonym", "choices"): ("synonym", ("context", "wordnet_words"), "sample"),
    ("wordnet_antonym", "choices"): ("antonym", ("context", "wordnet_words"), "sample"),
    ("qa_dream", "choices"): ("answer", ("field", "options"), "all"),
    ("qa_logiqa", "choices"): ("answer", ("field", "options"), "all"),
    ("qa_reclor", "choices"): ("answer", ("field", "options"), "all"),
    ("qa_race", "choices"): ("answer", ("field", "options"), "all"),
    ("qa_race_c", "choices"): ("answer", ("field", "options"), "all"),
    ("arxiv_category", "categories"): ("category", ("labels", ARXIV_DOMAINS), "all"),
    ("arxiv_summary", "titles"): ("title", ("context", "arxiv_titles"), "sample"),
    ("paperswithcode_entity", "entity_types"): ("entity_type", ("labels", PWC_ENTITY_TYPES), "sample"),
}

# {other_*} placeholders: (signal, name) -> (pool spec, fields/meta excluded).
OTHER_SLOTS: dict[tuple[str, str], tuple[tuple, tuple[str, ...]]] = {
    ("daily_mail_category", "other_category"): (("labels", DAILY_MAIL_CATEGORIES), ("category",)),
    ("wikihow_text_category", "other_category"): (("labels", WIKIHOW_CATEGORIES), ("category",)),
    ("arxiv_category", "other_category"): (("labels", ARXIV_DOMAINS), ("category",)),
    ("daily_mail_summary", "other_title"): (("context", "daily_mail_titles"), ("title",)),
    ("arxiv_summary", "other_title"): (("context", "arxiv_titles"), ("title",)),
    ("wikidata_relation", "other_object"): (("context", "wikidata_objects"), ("object",)),
    ("wikidata_relation", "other_subject"): (("context", "wikidata_subjects"), ("subject",)),
    ("wikidata_relation", "other_property"): (("context", "wikidata_properties"), ("property",)),
    ("wikidata_entity", "other_entity_type"): (("context", "wikidata_entity_types"), ("entity_type",)),
    ("paperswithcode_entity", "other_entity_type"): (("labels", PWC_ENTITY_TYPES), ("entity_type",)),
    ("wikihow_category_hierarchy", "other_high_category"): (
        ("context", "wikihow_high_categories"), ("high_category", "low_category")),
    ("wikihow_summary", "other_step_headline"): (("context", "wikihow_step_headlines"), ("step_headline",)),
    ("wordnet_meaning", "other_meaning"): (("field", "possible_meanings"), ("meaning",)),
    ("wordnet_pos", "other_POS"): (("labels", PARTS_OF_SPEECH), ("pos",)),
    ("wordnet_synonym", "other_word"): (("context", "wordnet_words"), ("word", "synonym", "all_synonyms")),
    ("wordnet_antonym", "other_word"): (("context", "wordnet_words"), ("word", "antonym", "all_antonyms")),
    ("wikipedia_sections", "other_section_title"): (("meta", "sibling_titles"), ("section_title",)),
    ("wikihow_question", "not_related_question"): (
        ("context", "wikihow_questions"), ("title", "first_related_question", "related_questions")),
}

# Placeholder aliases per signal (prompt names -> tuple field names).
ALIASES: dict[str, dict[str, str]] = {
    "wordnet_pos": {"POS": "pos"},
    "daily_mail_category": {"text": "summary"},
}

# Placeholders bound from extraction_meta.
META_PLACEHOLDERS: dict[str, frozenset[str]] = {
    "daily_mail_temporal": frozenset({
        "one_bullet_point", "another_bullet_point", "first_bp", "last_bp",
        "first_bullet_point", "second_bullet_point",
    }),
    "paperswithcode_entity": frozenset({"entity_type"}),
}

# Signals whose unbound {entity} and {not_entity} are drawn at render time: an
# entity from the `entity_list` meta, a span of the first field that is none.
ENTITY_DRAWS = frozenset({"wikipedia_entities", "paperswithcode_entity"})
DRAWN_NAMES = ("entity", "not_entity")

# Shuffled pairs: signal -> (two placeholders, the two bindings whose seeded
# shuffle they take), e.g. the two options of "which is a named entity?".
SHUFFLED_PAIRS: dict[str, tuple[tuple[str, str], tuple[str, str]]] = {
    "wikipedia_entities": (("choice0", "choice1"), DRAWN_NAMES),
    "paperswithcode_entity": (("choice0", "choice1"), DRAWN_NAMES),
    "wikihow_procedure": (("choice1", "choice2"), ("first_step_headline", "second_step_headline")),
}


def legal_placeholder(signal_type: str, name: str) -> bool:
    """Is this placeholder resolvable for tuples of the given signal?"""
    st = CATALOG.get(signal_type)
    if st is None:
        return False
    if name in ("answer", "length") or name in st.field_names:
        return True
    if name in META_PLACEHOLDERS.get(signal_type, ()) or name in ALIASES.get(signal_type, {}):
        return True
    if signal_type in ENTITY_DRAWS and name in DRAWN_NAMES:
        return True
    pair = SHUFFLED_PAIRS.get(signal_type)
    if pair and name in pair[0]:
        return True
    m = OPTION_SLOT_RE.match(name)
    if m:
        return (signal_type, m.group(1)) in OPTION_SLOTS
    return (signal_type, name) in OTHER_SLOTS
