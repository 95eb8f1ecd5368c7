from __future__ import annotations

import math
import random
import re

import pytest

from signalmine.eval_harness import (
    ReferenceScorer,
    ScorerError,
    eval_dataset,
    eval_two_step_ner,
    micro_f1,
    score_mc,
)
from signalmine.eval_harness.datasets import population_std, rouge1, subsample
from signalmine.eval_harness.ner import parse_entity_list
from signalmine.restructurer.render import format_options
from signalmine.signal_model import SchemaError

from conftest import load_eval_fixture


class TableScorer:
    """Deterministic stub: per-token log-probs looked up in a table."""

    def __init__(self, table):
        self.table = table

    def score(self, source, candidate):
        return [self.table.get(tok, -5.0) for tok in candidate.split()]

    def generate(self, source):
        return self.table.get("__generate__", "")


def test_score_mc_forced_argmax():
    scorer = TableScorer({"yes": 0.0, "no": -1.0})
    assert score_mc("q", ["no", "yes"], scorer) == 1


def test_score_mc_tie_breaks_low_index():
    scorer = TableScorer({})
    assert score_mc("q", ["alpha", "beta"], scorer) == 0


def test_score_mc_mean_not_sum():
    # "b c" has the higher mean (-0.3 against -0.5) and the lower sum (-0.6)
    scorer = TableScorer({"a": -0.5, "b": -0.3, "c": -0.3})
    assert score_mc("q", ["a", "b c"], scorer) == 1
    assert score_mc("q", ["b c", "a"], scorer) == 0


def test_score_mc_agrees_with_bruteforce_oracle():
    rng = random.Random(4)
    scorer = ReferenceScorer()
    for _ in range(300):
        source = " ".join(rng.choice("red green blue word token item".split())
                          for _ in range(rng.randint(3, 30)))
        options = [" ".join(rng.choice("red green blue other thing".split())
                            for _ in range(rng.randint(1, 4)))
                   for _ in range(rng.randint(2, 5))]
        got = score_mc(source, options, scorer)
        # independent oracle: recompute means directly and argmax with ties low
        means = []
        for opt in options:
            lps = scorer.score(source, opt)
            means.append(sum(lps) / len(lps) if lps else -math.inf)
        best = max(range(len(means)), key=lambda i: (means[i], -i))
        assert got == best


def test_score_mc_scorer_failure_is_unanswered():
    class Broken:
        def score(self, s, c):
            raise ScorerError("down")

        def generate(self, s):
            raise ScorerError("down")

    assert score_mc("q", ["a", "b"], Broken()) is None


def test_score_mc_needs_two_options():
    with pytest.raises(ValueError):
        score_mc("q", ["only"], TableScorer({}))


def test_parse_entity_list_dedupes_in_order():
    assert parse_entity_list("Mozart, Vienna , Mozart, ,Salzburg") == ["Mozart", "Vienna", "Salzburg"]
    assert parse_entity_list("") == []


def test_ner_f1_examples():
    # one record's F1 is micro_f1 over a single pair
    assert micro_f1([([("Mozart", "PER")], [("Mozart", "PER")])]) == 1.0
    assert micro_f1([([], [("Mozart", "PER")])]) == 0.0
    assert micro_f1([([("A", "X"), ("B", "Y")], [("A", "X"), ("C", "Z")])]) == 0.5


def test_micro_f1_aggregates_over_pairs():
    pairs = [([("A", "X")], [("A", "X")]), ([("B", "Y")], [("C", "Z")])]
    # tp=1, pred=2, gold=2 -> p=r=f1=0.5
    assert micro_f1(pairs) == 0.5


def test_two_step_ner_with_stub():
    types = {"Mozart": "PER", "Salzburg": "LOC"}

    class Stub:
        def score(self, source, candidate):
            import re

            quoted = re.findall(r'"([^"]+)"', source)
            entity = quoted[0] if quoted else ""
            return [0.0 if types.get(entity) == candidate else -2.0]

        def generate(self, source):
            return "Mozart, Salzburg"

    pred = eval_two_step_ner(
        "Mozart was born in Salzburg",
        Stub(),
        ["LOC", "PER"],
        "TEXT: {text} QUERY: List all the entities in the text.",
        'TEXT: {text} QUERY: What\'s the entity type of "{entity}"? {choices_with_or}?',
    )
    assert ("Mozart", "PER") in pred and ("Salzburg", "LOC") in pred


def test_rouge1_unigram_overlap():
    assert rouge1("the cat sat", "the cat sat") == 1.0
    assert rouge1("alpha beta", "gamma delta") == 0.0
    # P=2/3, R=2/4 -> F1 = 2*(2/3)*(1/2)/((2/3)+(1/2))
    value = rouge1("The cat, sat!", "the cat ran far")
    assert abs(value - (2 * (2 / 3) * 0.5 / ((2 / 3) + 0.5))) < 1e-12
    assert rouge1("", "x") == 0.0


def test_population_std_examples():
    assert population_std([0.0, 1.0]) == 0.5
    assert population_std([0.3, 0.3, 0.3]) == 0.0


def test_subsample_caps_and_is_seeded():
    records = list(range(100))
    a = subsample(records, 10, seed=1)
    b = subsample(records, 10, seed=1)
    c = subsample(records, 10, seed=2)
    assert a == b and len(a) == 10
    assert a != c
    assert subsample(records, 200, seed=1) == records


class PerfectScorer:
    """Looks up the record by its context appearing in the source and scores
    its gold label highest; a ceiling oracle for MC fixtures."""

    def __init__(self, records, text_key="context", gold_key="label"):
        self.table = [(str(r[text_key]), str(r[gold_key])) for r in records]

    def score(self, source, candidate):
        for text, gold in self.table:
            if text in source:
                return [0.0 if candidate == gold else -10.0]
        return [-10.0]

    def generate(self, source):
        return ""


def test_eval_dataset_perfect_oracle_scores_one():
    records = load_eval_fixture("semeval2007")
    report = eval_dataset("semeval2007", records, PerfectScorer(records), seed=0)
    assert report.per_prompt == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert report.avg == report.max == 1.0
    assert report.std == 0.0


def test_eval_dataset_summary_matches_recomputation():
    records = load_eval_fixture("subj")
    report = eval_dataset("subj", records, ReferenceScorer(), seed=0)
    scores = list(report.per_prompt)
    assert len(scores) == 5
    assert abs(report.avg - sum(scores) / 5) < 1e-12
    assert report.max == max(scores)
    mean = sum(scores) / 5
    assert abs(report.std - math.sqrt(sum((s - mean) ** 2 for s in scores) / 5)) < 1e-12


def test_eval_dataset_equal_scores_have_zero_std():
    class Constant:
        def score(self, source, candidate):
            return [-1.0]

        def generate(self, source):
            return ""

    records = load_eval_fixture("mr")
    report = eval_dataset("mr", records, Constant(), seed=0)
    assert report.std == 0.0
    assert report.avg == report.max == report.per_prompt[0]


def test_eval_dataset_unknown_prompt_set():
    with pytest.raises(SchemaError):
        eval_dataset("no_such_dataset", [{"text": "x", "label": "y"}], ReferenceScorer())


def test_eval_dataset_summarization_rouge():
    records = load_eval_fixture("scitldr")
    report = eval_dataset("scitldr", records, ReferenceScorer(), seed=0)
    assert report.metric == "rouge1"
    assert all(0.0 <= s <= 1.0 for s in report.per_prompt)
    assert report.max > 0.0  # the lead heuristic overlaps the summaries a bit


def test_eval_dataset_ner_micro_f1():
    records = load_eval_fixture("conll03")
    report = eval_dataset("conll03", records, ReferenceScorer(), seed=0)
    assert report.metric == "micro_f1"
    assert all(0.0 <= s <= 1.0 for s in report.per_prompt)


class _Recording(ReferenceScorer):
    def __init__(self):
        self.sources = []

    def score(self, source, candidate):
        self.sources.append(source)
        return super().score(source, candidate)

    def generate(self, source):
        self.sources.append(source)
        return super().generate(source)


def test_two_step_ner_binds_document_text_verbatim():
    class Stub:
        def __init__(self):
            self.sources = []

        def score(self, source, candidate):
            self.sources.append(source)
            return [0.0]

        def generate(self, source):
            self.sources.append(source)
            return "Mozart"

    text = "Mozart quoted {entity} and {choices_with_or} in {{a}} letter"
    stub = Stub()
    eval_two_step_ner(text, stub, ["LOC", "PER"], "TEXT: {text} QUERY: List the entities.",
                      'TEXT: {text} QUERY: What\'s the entity type of "{entity}"? {choices_with_or}?')
    assert stub.sources[0] == f"TEXT: {text} QUERY: List the entities."
    assert set(stub.sources[1:]) == {
        f'TEXT: {text} QUERY: What\'s the entity type of "Mozart"? "LOC" or "PER"?'}


_RTE_RULE = {"kind": "cond", "field": "label", "cases": [
    {"literal": "entailment", "negate": False, "value": "Yes"},
    {"literal": "entailment", "negate": True, "value": "No"}]}


def _prompt_doc(source):
    return [{"source": source, "target": "{answer}", "answer": _RTE_RULE}] * 5


def test_eval_prompt_unescapes_braces_like_a_template():
    from signalmine.restructurer.templates import substitute

    pattern = 'TEXT: {premise} QUERY: does {{hypothesis}} "{hypothesis}" follow? "Yes" or "No"?'
    record = {"premise": "It rained", "hypothesis": "The street is wet", "label": "entailment"}
    scorer = _Recording()
    eval_dataset("custom", [record], scorer, prompts=_prompt_doc(pattern))
    expected = 'TEXT: It rained QUERY: does {hypothesis} "The street is wet" follow? "Yes" or "No"?'
    assert substitute(pattern, {k: str(v) for k, v in record.items()}) == expected
    assert set(scorer.sources) == {expected}


def test_eval_cond_rule_on_record_without_its_field_raises():
    from signalmine.restructurer.templates import RenderError

    record = {"premise": "It rained", "hypothesis": "The street is wet"}
    doc = _prompt_doc('TEXT: {premise} QUERY: "{hypothesis}"? "Yes" or "No"?')
    with pytest.raises(RenderError, match="answer rule needs field 'label'"):
        eval_dataset("custom", [record], ReferenceScorer(), prompts=doc)


@pytest.mark.parametrize("dataset,message", [("snips", "unbound placeholder 'label'"),
                                             ("mr", "answer rule needs field 'label'")])
def test_eval_null_label_reads_as_absent(dataset, message):
    # bound as "None", it was an option of every snips record, and mr ended
    # in "answer rule has no case for value 'None'"
    from signalmine.restructurer.templates import RenderError

    records = load_eval_fixture(dataset)
    records[3] = {**records[3], "label": None, "note": None}
    with pytest.raises(RenderError, match=re.escape(message)):
        eval_dataset(dataset, records, ReferenceScorer(), seed=0)
    del records[3]
    assert eval_dataset(dataset, records, ReferenceScorer(), seed=0).per_prompt


def test_eval_target_pattern_gives_gold_and_label_space():
    # the target's field name was read by stripping its braces, so this set
    # ended in "record options unusable (gold='', options=[])"
    records = load_eval_fixture("snips")
    prompts = [{"source": "TEXT: {text} QUERY: What's the intent? {choices_with_or}?",
                "target": "Intent: {label}", "answer": None}] * 5
    golds = [{**rec, "label": f"Intent: {rec['label']}"} for rec in records]
    report = eval_dataset("snips", records, PerfectScorer(golds, text_key="text"), prompts=prompts)
    assert report.per_prompt == (1.0,) * 5
    scorer = _Recording()
    eval_dataset("snips", records, scorer, prompts=prompts)
    space = [f"Intent: {label}" for label in dict.fromkeys(rec["label"] for rec in records)]
    assert len(space) > 2
    assert all(source.endswith(f"{format_options(space, with_or=True)}?") for source in scorer.sources)


def _seed_reference_score(source, candidate):
    """ReferenceScorer.score as it was before it kept the last source."""
    tokens = re.findall(r"[a-z0-9']+", source.lower())
    counts = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    denom = len(tokens) + 0.5 * 1000.0
    return [math.log((counts.get(t, 0) + 0.5) / denom) for t in re.findall(r"[a-z0-9']+", candidate.lower())]


def test_reference_scorer_keeps_last_source_with_identical_floats():
    rng = random.Random(3)
    words = ["the", "cat", "sat", "on", "mat", "it's", "Dog", "42", "a"]
    sources = [" ".join(rng.choice(words) for _ in range(rng.randint(0, 30))) for _ in range(12)]
    scorer = ReferenceScorer()
    # runs of candidates on one source, with returns to earlier sources
    for _ in range(100):
        source = rng.choice(sources)
        for _ in range(rng.randint(1, 5)):
            candidate = " ".join(rng.choice(words) for _ in range(rng.randint(0, 4)))
            assert scorer.score(source, candidate) == _seed_reference_score(source, candidate)
