from __future__ import annotations

import dataclasses
import json

import pytest

from signalmine.mixer import apply_caps, mix, split_assignments, stage_plan
from signalmine.restructurer.render import ConfigError, tuple_key
from signalmine.restructurer.templates import load_registry
from signalmine.shards import Spill
from signalmine.signal_model import MixEntry, MixSpec, SignalTuple, example_from_record
from signalmine.store import TupleStore

from conftest import extract_fixture


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def decoded(result, spill) -> dict:
    """A mix result's record lines, read back from its spill as examples."""
    return {key: [example_from_record(json.loads(spill.line_of(job))) for _, job in records]
            for key, records in result.examples.items()}


def capped_tuples(tuple_file, tuples: list[SignalTuple], spec: MixSpec):
    """`apply_caps` over `tuples`, each eligible for every entry of its
    signal type: the capped tuples per entry, and the warnings."""
    with TupleStore([tuple_file(tuples)]) as store:
        for _ in store.scan({"category"}):
            pass
        eligible = {index: [n for n, tup in enumerate(tuples) if tup.signal_type == entry.signal_type]
                    for index, entry in enumerate(spec.entries)}
        capped, warnings = apply_caps(store, eligible, spec)
    return {index: [tuples[n] for n in pool] for index, pool in capped.items()}, warnings


def mixed(tuple_file, tuples, spec, registry, spill):
    """`mix` of `tuples`, written to a tuple file."""
    with TupleStore([tuple_file(tuples)]) as store:
        return mix(store, spec, registry, spill)


def category_tuples(counts: dict[str, int]) -> list[SignalTuple]:
    out = []
    i = 0
    for category, n in counts.items():
        for _ in range(n):
            i += 1
            out.append(
                SignalTuple(
                    "daily_mail_category",
                    (f"summary text number {i} about things", category),
                    f"daily_mail/d{i}",
                    {"category": category},
                )
            )
    return out


def one_entry_spec(**over) -> MixSpec:
    defaults = dict(signal_type="daily_mail_category", family="multiple_choice")
    defaults.update(over)
    return MixSpec(entries=(MixEntry(**defaults),), global_seed=3, name="t")


def test_per_category_cap(tuple_file):
    tuples = category_tuples({"Sport": 8000, "Travel": 1000})
    spec = one_entry_spec(per_category_cap=5000)
    capped, warnings = capped_tuples(tuple_file, tuples, spec)
    got = capped[0]
    by_cat = {}
    for t in got:
        by_cat[t.extraction_meta["category"]] = by_cat.get(t.extraction_meta["category"], 0) + 1
    assert by_cat == {"Sport": 5000, "Travel": 1000}
    assert not warnings


def test_cap_shortfall_warns_not_fails(tuple_file):
    tuples = category_tuples({"Sport": 50})
    spec = one_entry_spec(cap=100)
    capped, warnings = capped_tuples(tuple_file, tuples, spec)
    assert len(capped[0]) == 50
    assert any("shortfall" in w for w in warnings)


def test_composition_counts(tuple_file):
    tuples = category_tuples({"Sport": 40, "Travel": 40, "News": 40})
    spec = one_entry_spec(composition={"Sport": 10, "Travel": 5}, composition_key="category")
    capped, warnings = capped_tuples(tuple_file, tuples, spec)
    by_cat = {}
    for t in capped[0]:
        by_cat[t.extraction_meta["category"]] = by_cat.get(t.extraction_meta["category"], 0) + 1
    assert by_cat == {"Sport": 10, "Travel": 5}
    assert not warnings


def test_caps_are_seeded_and_stable(tuple_file):
    tuples = category_tuples({"Sport": 100})
    spec = one_entry_spec(cap=10)
    a, _ = capped_tuples(tuple_file, tuples, dataclasses.replace(spec, global_seed=5))
    b, _ = capped_tuples(tuple_file, tuples, dataclasses.replace(spec, global_seed=5))
    c, _ = capped_tuples(tuple_file, tuples, dataclasses.replace(spec, global_seed=6))
    assert a == b
    assert a != c


def test_stage_plan_two_stage_curriculum():
    spec = MixSpec(entries=(
        MixEntry("wikidata_relation", "multiple_choice", stage=1),
        MixEntry("wikidata_entity", "multiple_choice", stage=1),
        MixEntry("wikipedia_entities", "generation", stage=2),
    ), name="ie", global_seed=0)
    plan = stage_plan(spec)
    assert plan[0] == (1, [0, 1])
    assert plan[1] == (2, [0, 1, 2])  # stage 2 is the union


def test_stage_plan_single_stage_passthrough():
    spec = MixSpec(entries=(MixEntry("wikidata_relation", "generation"),), name="x", global_seed=0)
    assert stage_plan(spec) == [(1, [0])]


def test_stage_plan_rejects_generation_in_stage_one():
    spec = MixSpec(entries=(
        MixEntry("wikidata_relation", "generation", stage=1),
        MixEntry("wikidata_relation", "multiple_choice", stage=2),
    ), name="bad", global_seed=0)
    with pytest.raises(ConfigError):
        stage_plan(spec)


def test_stage_plan_rejects_generation_only_curriculum():
    spec = MixSpec(entries=(
        MixEntry("wikidata_relation", "cloze", stage=1),
        MixEntry("wikidata_relation", "generation", stage=2),
    ), name="bad", global_seed=0)
    with pytest.raises(ConfigError):
        stage_plan(spec)


def test_split_is_per_tuple_and_exact_quota():
    spec = one_entry_spec()
    spec = MixSpec(entries=spec.entries, split_ratio=0.1, global_seed=9, name="s")
    tuples = category_tuples({"Sport": 1000})
    keys = [int(tuple_key(tup), 16) for tup in tuples]
    splits = split_assignments(keys, spec)
    assert splits == split_assignments(keys, spec)
    counts = list(splits)
    assert counts.count(1) == 100 and counts.count(0) == 900


def test_mix_end_to_end_no_leakage(registry, tmp_path, tuple_file):
    tuples = []
    for mine in ("rotten_tomatoes", "daily_mail", "wikihow"):
        tuples.extend(extract_fixture(mine)[0])
    spec = MixSpec(
        entries=(
            MixEntry("rotten_tomatoes_sentiment", "multiple_choice", stage=1),
            MixEntry("wikihow_procedure", "multiple_choice", stage=1),
            MixEntry("rotten_tomatoes_sentiment", "generation", stage=2),
        ),
        split_ratio=0.4,
        global_seed=11,
        name="leak",
    )
    with Spill(tmp_path) as spill:
        result = mixed(tuple_file, tuples, spec, registry, spill)
        examples_of = decoded(result, spill)
    assert not result.errors
    # a tuple's split is fixed before any entry renders it, so renderings can
    # never straddle train and validation; rotten tomatoes has exactly one
    # tuple per document, which makes the doc-level check exact there
    rt_train, rt_val = set(), set()
    for (stage, split), examples in examples_of.items():
        for ex in examples:
            if ex.signal_type == "rotten_tomatoes_sentiment":
                (rt_train if split == "train" else rt_val).add(ex.source_doc)
    assert rt_train and not rt_train & rt_val
    # curriculum monotonicity: stage 2 signal set contains stage 1's
    s1 = {ex.signal_type for ex in examples_of[(1, "train")] + examples_of[(1, "validation")]}
    s2 = {ex.signal_type for ex in examples_of[(2, "train")] + examples_of[(2, "validation")]}
    assert s1 <= s2


def test_mix_determinism(registry, tmp_path, tuple_file):
    tuples = extract_fixture("rotten_tomatoes")[0]
    spec = MixSpec(
        entries=(MixEntry("rotten_tomatoes_sentiment", "multiple_choice", cap=12),),
        split_ratio=0.2,
        global_seed=21,
        name="det",
    )
    with Spill(tmp_path) as spill_a, Spill(tmp_path) as spill_b:
        a = mixed(tuple_file, tuples, spec, registry, spill_a)
        b = mixed(tuple_file, tuples, spec, registry, spill_b)
        assert decoded(a, spill_a) == decoded(b, spill_b)


def test_all_tasks_preset_over_full_corpus(registry, tmp_path, tuple_file):
    import json
    from importlib import resources

    from signalmine.signal_model import mixspec_from_record

    tuples = []
    for mine in ("rotten_tomatoes", "daily_mail", "wikidata", "wikihow", "wikipedia",
                 "wordnet", "qa_corpus", "arxiv", "paperswithcode", "plain_text"):
        tuples.extend(extract_fixture(mine)[0])
    rec = json.loads(resources.files("signalmine").joinpath("presets", "all_tasks.json")
                     .read_text("utf-8"))
    rec["global_seed"] = 13
    spec = mixspec_from_record(rec)
    with Spill(tmp_path) as spill:
        result = mixed(tuple_file, tuples, spec, registry, spill)
        examples_of = decoded(result, spill)
    assert not result.errors, result.errors
    # the fixture corpus is tiny compared to the published caps
    assert any("shortfall" in w for w in result.warnings)
    emitted = {ex.signal_type for examples in examples_of.values() for ex in examples}
    # every task-relevant fixture signal with templates lands in the bundle
    assert "rotten_tomatoes_sentiment" in emitted
    assert "wikidata_relation" in emitted
    assert "qa_triviaqa" in emitted
    s1 = {ex.signal_type for ex in examples_of[(1, "train")]}
    s2 = {ex.signal_type for ex in examples_of[(2, "train")]}
    assert s1 <= s2


def test_every_preset_loads_and_plans():
    import json
    from importlib import resources

    from signalmine.signal_model import mixspec_from_record

    names = [p.name[:-5] for p in resources.files("signalmine").joinpath("presets").iterdir()
             if p.name.endswith(".json")]
    assert len(names) == 10
    for name in names:
        rec = json.loads(resources.files("signalmine").joinpath("presets", f"{name}.json")
                         .read_text("utf-8"))
        spec = mixspec_from_record(rec)
        plan = stage_plan(spec)
        assert plan[0][0] == 1


def test_uncovered_signals_are_warned(tuple_file):
    tuples = category_tuples({"Sport": 3})
    spec = one_entry_spec()
    tuples.append(SignalTuple("arxiv_summary", ("an abstract with enough words", "a title here"), "arxiv/a1"))
    _, warnings = capped_tuples(tuple_file, tuples, spec)
    assert any("not covered" in w and "arxiv_summary" in w for w in warnings)
