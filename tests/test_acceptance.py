"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from signalmine.dataset_io import write_bundle
from signalmine.eval_harness import ReferenceScorer, eval_dataset, micro_f1, score_mc
from signalmine.eval_harness.datasets import population_std
from signalmine.eval_harness.gaokao import GaokaoPaper, grade_gaokao
from signalmine.extractors import arxiv, plain_text, qa, rotten_tomatoes, wikihow, wordnet
from signalmine.extractors import ExtractContext
from signalmine.extractors.plain_text import corrupt, reconstruct
from signalmine.mixer import apply_caps, mix, split_assignments
from signalmine.normalizer import is_english, strip_non_ascii, truncate_words, word_count
from signalmine.report import ExtractionReport
from signalmine.restructurer.pools import DistractorPools
from signalmine.restructurer.render import parse_options, render_cloze, render_with_selected, tuple_key
from signalmine.restructurer.templates import load_registry
from signalmine.rng import derive_rng
from signalmine.shards import Spill
from signalmine.signal_model import MixEntry, MixSpec, SignalTuple
from signalmine.store import TupleStore

from conftest import extract_fixture, load_eval_fixture, gaokao_fixture, run_adapter
from verbatim_prompts import (
    CLOZE_WORKED_ORIGINAL,
    CLOZE_WORKED_SOURCE,
    CLOZE_WORKED_TARGET,
    VERBATIM_SOURCES,
)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


@pytest.fixture(scope="module")
def registry():
    return load_registry()


@pytest.fixture(scope="module")
def corpus():
    tuples = []
    for mine in ("rotten_tomatoes", "daily_mail", "wikidata", "wikihow", "wikipedia",
                 "wordnet", "qa_corpus", "arxiv", "paperswithcode", "plain_text"):
        tuples.extend(extract_fixture(mine)[0])
    return tuples


def test_gaokao_grading_arithmetic():
    """Published exam totals reproduce exactly (tolerance 0) in under 1s."""
    with criterion("gaokao-grading-arithmetic"):
        started = time.monotonic()
        rows = gaokao_fixture("results_columns.jsonl")
        columns = [r for r in rows if r["model"] != "ceiling"]
        assert len(columns) == 30
        paper = GaokaoPaper(paper_id="columns")
        for row in rows:
            _, total = grade_gaokao(paper, {}, section_scores=row["sections"], essay_score=row["essay"])
            assert total == row["total"], (row["paper"], row["model"])
            asr = dict(row["sections"], listening=row["listening_asr"])
            _, total = grade_gaokao(paper, {}, section_scores=asr, essay_score=row["essay"])
            assert total == row["total_asr"], (row["paper"], row["model"])
        ceiling = [r for r in rows if r["model"] == "ceiling"][0]
        assert ceiling["total"] == 150.0
        assert time.monotonic() - started < 1.0


def test_extraction_rule_suite():
    """Every numeric extraction gate holds at boundary and boundary±1."""
    with criterion("extraction-rule-suite"):
        rep = ExtractionReport()
        c = ExtractContext(seed=1, report=rep)

        def w(n, p="w"):
            return " ".join(f"{p}{i}" for i in range(n))

        # review length: 4 rejected, 5 accepted
        assert run_adapter(rotten_tomatoes, {"doc_id": "a", "review": w(4), "rating": 5.0}, c) == []
        assert run_adapter(rotten_tomatoes, {"doc_id": "b", "review": w(5), "rating": 5.0}, c)
        # rating polarity: strict on both sides
        assert run_adapter(rotten_tomatoes, {"doc_id": "c", "review": w(9), "rating": 3.5}, c) == []
        assert run_adapter(rotten_tomatoes, {"doc_id": "d", "review": w(9), "rating": 2.5}, c) == []

        # qa context: 400 kept, 401 dropped
        base = {"doc_id": "q", "kind": "race", "question": "Why?",
                "options": ["a", "b"], "answer": "a"}
        assert run_adapter(qa, dict(base, context=w(400)), c)
        assert run_adapter(qa, dict(base, context=w(401)), c) == []

        # word length: 2 chars pruned, 3 kept
        sense = [{"pos": "noun", "meaning": "m", "examples": ["an example sentence"]}]
        assert run_adapter(wordnet, {"doc_id": "ab", "word": "ab", "senses": sense}, c) == []
        assert run_adapter(wordnet, {"doc_id": "abc", "word": "abc", "senses": sense}, c)

        # step headline: 20 words kept, 21 dropped
        doc = {"doc_id": "h", "title": "How to X", "title_description": w(12),
               "steps": [{"headline": w(20, "k"), "description": w(40, "d")},
                         {"headline": w(21, "x"), "description": w(40, "e")},
                         {"headline": w(3, "y"), "description": w(40, "f")}],
               "related_questions": [], "category_path": ["A", "Travel"]}
        out = run_adapter(wikihow, doc, c)
        used = {h for t in out if t.signal_type == "wikihow_procedure"
                for h in (t.fields[1], t.fields[2])}
        assert any(h.startswith("k") for h in used) and not any(h.startswith("x") for h in used)

        # arxiv gates: title 2/3 words, abstract 19/20 words, 400-word cap
        ax = {"doc_id": "x", "categories": ["Physics"]}
        assert not [t for t in run_adapter(arxiv, dict(ax, title=w(2), abstract=w(30)), c)
                    if t.signal_type == "arxiv_summary"]
        assert [t for t in run_adapter(arxiv, dict(ax, title=w(3), abstract=w(30)), c)
                if t.signal_type == "arxiv_summary"]
        assert not [t for t in run_adapter(arxiv, dict(ax, title=w(3), abstract=w(19)), c)
                    if t.signal_type == "arxiv_summary"]
        assert [t for t in run_adapter(arxiv, dict(ax, title=w(3), abstract=w(20)), c)
                if t.signal_type == "arxiv_summary"]

        # news-article gates: category summary 4/5, body 19/20, summary 9/10,
        # temporal bullets 1/2
        from signalmine.extractors import daily_mail

        def dm(**over):
            doc = {"doc_id": "d", "url": "https://x.co.uk/sport/a.html", "title": w(6, "t"),
                   "bullets": [w(12, "b1"), w(12, "b2")], "body": w(60, "bo")}
            doc.update(over)
            return doc

        def dm_signals(**over):
            return {t.signal_type for t in run_adapter(daily_mail, dm(**over), c)}

        assert "daily_mail_category" not in dm_signals(bullets=[w(4)])
        assert "daily_mail_category" in dm_signals(bullets=[w(5)])
        assert "daily_mail_summary" not in dm_signals(body=w(19))
        assert "daily_mail_summary" in dm_signals(body=w(20, "bo"), bullets=[w(10, "bb")])
        assert "daily_mail_summary" not in dm_signals(bullets=[w(9, "bb")])
        assert "daily_mail_temporal" not in dm_signals(bullets=[w(12, "only")])
        assert "daily_mail_temporal" in dm_signals()

        # encyclopedia gates: section words 9/10, sections 1/2, paragraph 9/10
        from signalmine.extractors import wikipedia

        def wp(sections, paragraphs=()):
            return {"doc_id": "p", "sections": sections,
                    "paragraphs": [{"text": t, "links": []} for t in paragraphs]}

        two = [{"title": "A", "text": w(10, "a")}, {"title": "B", "text": w(10, "b")}]
        out = run_adapter(wikipedia, wp(two), c)
        assert {t.fields[1] for t in out if t.signal_type == "wikipedia_sections"} == {"A", "B"}
        short_one = [{"title": "A", "text": w(9, "a")}, {"title": "B", "text": w(10, "b")}]
        out = run_adapter(wikipedia, wp(short_one), c)
        assert not [t for t in out if t.signal_type == "wikipedia_sections"]
        out = run_adapter(wikipedia, wp(two[:1]), c)
        assert not [t for t in out if t.signal_type == "wikipedia_sections"]
        out = run_adapter(wikipedia, wp([], paragraphs=[w(9)]), c)
        assert not [t for t in out if t.signal_type == "wikipedia_entities"]
        out = run_adapter(wikipedia, wp([], paragraphs=[w(10)]), c)
        assert [t for t in out if t.signal_type == "wikipedia_entities"]

        # how-to gates: procedure needs 2 eligible steps
        one_step = dict(doc, steps=doc["steps"][:1])
        assert not [t for t in run_adapter(wikihow, one_step, c)
                    if t.signal_type == "wikihow_procedure"]

        # typed-term database gates: 2/3 chars, 6/7 words, "other" 2/3 words
        from signalmine.extractors.pwc import EntityDb

        db = EntityDb([
            {"surface": "ab", "type": "task"}, {"surface": "abc", "type": "task"},
            {"surface": w(6, "s"), "type": "task"}, {"surface": w(7, "l"), "type": "task"},
            {"surface": "two words", "type": "other"}, {"surface": "three word term", "type": "other"},
        ])
        assert db.lookup("ab") is None and db.lookup("abc") == "task"
        assert db.lookup(w(6, "s")) == "task" and db.lookup(w(7, "l")) is None
        assert db.lookup("two words") is None and db.lookup("three word term") == "other"

        # language threshold is strict
        assert not is_english("x", lambda t: ("en", 0.9999))
        assert is_english("x", lambda t: ("en", 0.99990001))

        # truncations: 400- and 256-word caps at the boundary
        assert word_count(truncate_words(w(401), 400)) == 400
        assert truncate_words(w(400), 400) == w(400)
        assert word_count(truncate_words(w(257), 256)) == 256
        # ascii stripping is exact
        assert strip_non_ascii("café") == "caf"


def test_cloze_round_trip_ten_thousand():
    """reconstruct(corrupt(t)) == t byte-exactly for 10,000 random texts."""
    with criterion("cloze-round-trip"):
        started = time.monotonic()
        rng = random.Random(99)
        vocabulary = ("the quick brown fox jumps over lazy dog near river bank "
                      "and a small bird sings in morning light with hope").split()
        done = 0
        while done < 10_000:
            n = rng.randint(2, 80)
            text = " ".join(rng.choice(vocabulary) for _ in range(n))
            rate = rng.uniform(0.05, 0.7)
            result = corrupt(text, rate, rng)
            if result is None:
                continue
            corrupted, sentinels, spans = result
            assert reconstruct(corrupted, sentinels, spans) == text
            done += 1
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_rendering_fidelity(registry, corpus):
    """The worked generic-signal example and >=3 verbatim prompts per signal."""
    with criterion("rendering-fidelity"):
        tup = SignalTuple(
            "plain_text_cloze",
            (CLOZE_WORKED_SOURCE, "<X> | <Y>", "for inviting | last"),
            "plain_text/p",
        )
        ex = render_cloze(tup)
        assert ex.source == CLOZE_WORKED_SOURCE
        assert ex.target == CLOZE_WORKED_TARGET
        assert (ex.source.replace("<X>", "for inviting").replace("<Y>", "last")
                == CLOZE_WORKED_ORIGINAL)

        # frozen transcriptions reproduce the catalog character-for-character
        per_signal: dict[str, int] = {}
        for template_id, frozen in VERBATIM_SOURCES.items():
            template = registry.by_id[template_id]
            assert template.source_pattern == frozen, template_id
            per_signal[template.signal_type] = per_signal.get(template.signal_type, 0) + 1
        counts = registry.counts()
        for signal in counts:
            available = sum(counts[signal].values())
            assert per_signal.get(signal, 0) >= min(3, available), signal

        # substitution keeps every literal character of the pattern
        rt = SignalTuple("rotten_tomatoes_sentiment",
                         ("A wonderful and moving film about friendship", "positive"),
                         "rotten_tomatoes/r", {"category": "positive"})
        pools = DistractorPools.build(corpus)
        from signalmine.restructurer.render import render

        rendered = render(rt, registry.by_id["rotten_tomatoes_sentiment.mc.001"], pools,
                          derive_rng(0, "v"))
        assert rendered.source == (
            "TEXT: A wonderful and moving film about friendship QUERY: "
            'What\'s the sentiment of this text? "Positive", "Negative" or "Neutral"?'
        )
        assert rendered.target == "Positive"


def test_mc_option_property_ten_thousand(registry, corpus):
    """10,000+ rendered MC examples: options distinct, in [2,10], target once."""
    with criterion("mc-option-property"):
        pools = DistractorPools.build(corpus)
        eligible = []
        for tup in corpus:
            templates = registry.get(tup.signal_type, "multiple_choice")
            if any(t.applies_to(tup) for t in templates):
                eligible.append(tup)
        assert eligible
        checked = 0
        seed = 0
        while checked < 10_000:
            seed += 1
            for tup in eligible:
                ex = render_with_selected(registry, tup, "multiple_choice", pools, seed, None, tuple_key(tup))
                options = parse_options(ex.source)
                assert len(options) == len(set(options)), ex.template_id
                assert 2 <= len(options) <= 10, ex.template_id
                assert options.count(ex.target) == 1, (ex.template_id, options, ex.target)
                checked += 1
        assert checked >= 10_000


def _pipeline_bundle_hash(tmp_path, seed: int, registry, tuple_file) -> str:
    docs = {
        "rotten_tomatoes": "rotten_tomatoes",
        "wikidata": "wikidata",
        "plain_text": "plain_text",
    }
    tuples = []
    for mine in docs:
        tuples.extend(extract_fixture(mine, seed=seed)[0])
    spec = MixSpec(
        entries=(
            MixEntry("rotten_tomatoes_sentiment", "multiple_choice", cap=15),
            MixEntry("wikidata_relation", "multiple_choice"),
            MixEntry("rotten_tomatoes_sentiment", "generation"),
            MixEntry("plain_text_cloze", "cloze"),
        ),
        split_ratio=0.25,
        name="detspec",
    )
    with TupleStore([tuple_file(tuples)]) as store, Spill(tmp_path) as spill:
        result = mix(store, spec, registry, spill, seed)
        assert not result.errors
        streams = {f"detspec.stage{stage}.{split}": exs
                   for (stage, split), exs in sorted(result.examples.items())}
        return write_bundle(tmp_path / f"bundle-{seed}-{len(list(tmp_path.iterdir()))}", streams,
                            spill.line_of)


def test_pipeline_determinism(tmp_path, registry, tuple_file):
    """Same seed => identical bundle hash; 20 different seeds all differ."""
    with criterion("pipeline-determinism"):
        a = _pipeline_bundle_hash(tmp_path, 7, registry, tuple_file)
        b = _pipeline_bundle_hash(tmp_path, 7, registry, tuple_file)
        assert a == b
        hashes = {_pipeline_bundle_hash(tmp_path, seed, registry, tuple_file) for seed in range(20)}
        assert len(hashes) == 20


def test_mixer_caps_and_split_leakage(registry, tuple_file):
    """Randomized caps are never exceeded; tuple splits never leak."""
    with criterion("mixer-caps-and-splits"):
        rng = random.Random(31)
        categories = ["Money", "News", "Sport", "Health", "Science", "Travel"]
        tuples = []
        for i in range(600):
            cat = rng.choice(categories)
            tuples.append(SignalTuple(
                "daily_mail_category",
                (f"summary body {i} with several words inside", cat),
                f"daily_mail/d{i}",
                {"category": cat},
            ))
        with TupleStore([tuple_file(tuples)]) as store:
            for _ in store.scan({"category"}):
                pass
        eligible = {0: range(len(tuples))}
        for trial in range(60):
            cap = rng.randint(1, 700)
            pcc = rng.choice([None, rng.randint(1, 120)])
            spec = MixSpec(
                entries=(MixEntry("daily_mail_category", "multiple_choice",
                                  cap=cap, per_category_cap=pcc),),
                name=f"r{trial}",
            )
            capped, _ = apply_caps(store, eligible, spec, trial)
            got = [tuples[n] for n in capped[0]]
            assert len(got) <= cap
            if pcc is not None:
                per_cat: dict[str, int] = {}
                for t in got:
                    per_cat[t.extraction_meta["category"]] = per_cat.get(
                        t.extraction_meta["category"], 0) + 1
                assert all(n <= pcc for n in per_cat.values())

        # 1,000 random split configurations: assignments are stable, quotas
        # exact, and no tuple ever straddles the two splits
        sample = tuples[:50]
        for trial in range(1000):
            ratio = rng.uniform(0.05, 0.9)
            seed = rng.randrange(10_000)
            spec = MixSpec(
                entries=(MixEntry("daily_mail_category", "multiple_choice"),),
                split_ratio=ratio,
                name=f"s{trial % 17}",
            )
            keys = [int(tuple_key(tup), 16) for tup in sample]
            first = split_assignments(keys, spec, seed)
            assert split_assignments(keys, spec, seed) == first
            assert list(first).count(1) == int(len(first) * ratio)


def test_scoring_oracle_equivalence():
    """score_mc, micro_f1 of one record, and report summaries agree with independent oracles."""
    with criterion("scoring-oracle-equivalence"):
        rng = random.Random(8)
        scorer = ReferenceScorer()
        vocab = "alpha beta gamma delta epsilon zeta eta theta".split()

        for _ in range(1000):
            source = " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 25)))
            options = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
                       for _ in range(rng.randint(2, 6))]
            got = score_mc(source, options, scorer)
            means = []
            for opt in options:
                logprobs = scorer.score(source, opt)
                means.append(sum(logprobs) / len(logprobs) if logprobs else -math.inf)
            best, best_mean = 0, means[0]
            for i, m in enumerate(means):
                if m > best_mean:
                    best, best_mean = i, m
            assert got == best

        surfaces = ["Mozart", "Vienna", "Salzburg", "Danube", "Curie", "Paris"]
        types = ["PER", "LOC", "ORG"]
        for _ in range(1000):
            pred = [(rng.choice(surfaces), rng.choice(types))
                    for _ in range(rng.randint(0, 5))]
            gold = [(rng.choice(surfaces), rng.choice(types))
                    for _ in range(rng.randint(0, 5))]
            got = micro_f1([(pred, gold)])
            pset, gset = set(pred), set(gold)
            if not pset or not gset:
                expected = 0.0
            else:
                tp = len(pset & gset)
                p = tp / len(pset)
                r = tp / len(gset)
                expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert got == expected

        report = eval_dataset("subj", load_eval_fixture("subj"), scorer, seed=3)
        scores = list(report.per_prompt)
        assert abs(report.avg - sum(scores) / len(scores)) <= 1e-9
        assert abs(report.max - max(scores)) <= 1e-9
        mean = sum(scores) / len(scores)
        assert abs(report.std - math.sqrt(sum((s - mean) ** 2 for s in scores) / len(scores))) <= 1e-9
        assert population_std([0.0, 1.0]) == 0.5


def test_end_to_end_evaluation_smoke():
    """`evaluate` completes for one dataset per task family inside 2 minutes."""
    with criterion("end-to-end-evaluation"):
        started = time.monotonic()
        scorer = ReferenceScorer()
        plan = [
            ("qc", "accuracy"),            # topic classification
            ("mr", "accuracy"),            # sentiment classification
            ("conll03", "micro_f1"),       # information extraction
            ("rte", "accuracy"),           # natural language inference
            ("snips", "accuracy"),         # intent detection
            ("lama_trex", "accuracy"),     # fact retrieval
            ("tracie", "accuracy"),        # temporal reasoning
            ("semeval2007", "accuracy"),   # word sense disambiguation
            ("scitldr", "rouge1"),         # summarization
        ]
        for dataset, metric in plan:
            report = eval_dataset(dataset, load_eval_fixture(dataset), scorer, seed=1)
            record = report.to_record()
            assert record["metric"] == metric
            assert len(record["per_prompt"]) == 5
            assert record["std"] >= 0.0
            assert record["avg"] <= record["max"]
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
