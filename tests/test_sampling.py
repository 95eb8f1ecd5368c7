"""Distractor sampling from indexed pools.

Renders draw distractors through a lazy view over the corpus pool that skips
the excluded values. These tests hold that view to the filtered-list code it
replaced, draw for draw, and check that a render reads only the elements it
draws.
"""

from __future__ import annotations

import random
from collections import ChainMap
from collections.abc import Sequence

import pytest

from signalmine.restructurer.pools import DistractorPools
from signalmine.restructurer.render import (
    MAX_OPTIONS,
    MIN_OPTIONS,
    _Without,
    _build_options,
    _other_value,
    render,
)
from signalmine.restructurer.templates import load_registry
from signalmine.rng import derive_rng
from signalmine.signal_model import LIST_SEP, SignalTuple

SEEDS = range(200)
LARGE = 50_000
# below random.sample's set-size threshold (21 + 64 for k > 5), where it
# copies the population into a list instead of drawing indexes
SMALL = 40


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def _pools(pool: str, n: int) -> DistractorPools:
    pools = DistractorPools()
    for i in range(n):
        pools.add(pool, f"value {i}")
    return pools


# -- the filtered-list code the view replaced, kept as the reference -----------


def reference_options(values: list[str], correct: str, rng: random.Random) -> list[str]:
    distractors = [v for v in values if v != correct]
    count = rng.randint(MIN_OPTIONS, min(MAX_OPTIONS, len(distractors) + 1))
    chosen = rng.sample(distractors, count - 1)
    chosen.insert(rng.randrange(count), correct)
    return chosen


def reference_other(values: list[str], excluded: set[str], rng: random.Random) -> str:
    return rng.choice([v for v in values if v not in excluded])


# -----------------------------------------------------------------------------


def view(tup: SignalTuple) -> ChainMap:
    """What `tup.get` reads: a field before a meta key of its name."""
    return ChainMap(tup.named_fields(), tup.extraction_meta)


def summary_tuple(title: str) -> SignalTuple:
    return SignalTuple(
        "daily_mail_summary",
        (title, "The harbor reopened after a week of repairs.", "The harbor reopened."),
        "daily_mail/d1",
    )


def synonym_tuple(word: str, synonym: str, all_synonyms: list[str]) -> SignalTuple:
    return SignalTuple(
        "wordnet_synonym",
        (word, f"The {word} was kept in the shed.", synonym),
        "wordnet/w1",
        {"all_synonyms": LIST_SEP.join(all_synonyms)},
    )


@pytest.mark.parametrize("skipped", [(), (0,), (29,), (3, 4, 5), (0, 10, 28, 29)])
def test_view_reads_as_the_filtered_list(skipped):
    values = [f"value {i}" for i in range(30)]
    view = _Without(values, skipped)
    expected = [v for i, v in enumerate(values) if i not in skipped]
    assert len(view) == len(expected)
    assert [view[i] for i in range(len(view))] == expected
    assert list(view) == expected
    with pytest.raises(IndexError):
        view[len(view)]


@pytest.mark.parametrize("n", [LARGE, SMALL])
@pytest.mark.parametrize("correct_in_pool", [False, True])
def test_option_sampling_matches_filtered_list(registry, n, correct_in_pool):
    pools = _pools("daily_mail_titles", n)
    title = pools.get("daily_mail_titles")[n // 3] if correct_in_pool else "a title outside the pool"
    tup = summary_tuple(title)
    template = registry.by_id["daily_mail_summary.mc.001"]
    values = list(pools.get("daily_mail_titles"))
    for seed in SEEDS:
        ours, theirs = derive_rng(seed, "options"), derive_rng(seed, "options")
        assert _build_options("choices", tup, view(tup), template, pools, ours) == reference_options(values, title, theirs)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [LARGE, SMALL])
def test_other_value_with_one_excluded_value_matches_filtered_list(n):
    pools = _pools("daily_mail_titles", n)
    title = pools.get("daily_mail_titles")[n - 1]
    tup = summary_tuple(title)
    values = list(pools.get("daily_mail_titles"))
    for seed in SEEDS:
        ours, theirs = derive_rng(seed, "other"), derive_rng(seed, "other")
        assert _other_value("other_title", tup, view(tup), pools, ours) == reference_other(values, {title}, theirs)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [LARGE, SMALL])
def test_other_value_with_several_excluded_values_matches_filtered_list(n):
    pools = _pools("wordnet_words", n)
    words = pools.get("wordnet_words")
    word, synonym = words[n // 2], words[n - 1]
    # further synonyms out of pool order, with repeats and one value the
    # pool does not hold
    all_synonyms = [synonym, words[0], words[7], word, "not pooled"]
    tup = synonym_tuple(word, synonym, all_synonyms)
    excluded = {word, synonym, *all_synonyms}
    values = list(words)
    for seed in SEEDS:
        ours, theirs = derive_rng(seed, "other"), derive_rng(seed, "other")
        assert _other_value("other_word", tup, view(tup), pools, ours) == reference_other(values, excluded, theirs)
        assert ours.getstate() == theirs.getstate()


class CountingPool(Sequence):
    """A pool that counts its element reads and its iterations."""

    def __init__(self, values: list[str]):
        self.values = values
        self.reads = 0
        self.iterations = 0

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        self.reads += 1
        return self.values[i]

    def __iter__(self):
        self.iterations += 1
        return iter(self.values)


def test_render_reads_only_the_drawn_elements_of_a_large_pool(registry):
    pools = _pools("daily_mail_titles", LARGE)
    counting = CountingPool(pools.values["daily_mail_titles"])
    pools.values["daily_mail_titles"] = counting
    tup = summary_tuple(counting.values[LARGE // 2])
    templates = registry.get("daily_mail_summary", "multiple_choice")
    assert any("{other_title}" in t.source_pattern for t in templates)
    drawn = 0
    for seed, template in enumerate(templates):
        counting.reads = 0
        render(tup, template, pools, derive_rng(seed, "render"))
        assert counting.iterations == 0
        assert counting.reads <= 32, template.template_id
        drawn += counting.reads > 0
    # most templates list options or name another title; a few use neither
    assert drawn >= len(templates) // 2
