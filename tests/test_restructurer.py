from __future__ import annotations

import pytest

from signalmine.restructurer import render as render_module
from signalmine.restructurer.pools import DistractorPools
from signalmine.restructurer.render import (
    ConfigError,
    RenderError,
    format_options,
    parse_options,
    render,
    render_cloze,
    render_gaokao,
    render_with_selected,
    resolve_article,
    select_template,
    tuple_key,
)
from signalmine.restructurer.templates import PromptRegistry, PromptTemplate, load_manifest, load_registry, audit
from signalmine.rng import derive_rng, derive_seed
from signalmine.signal_model import SignalTuple

from conftest import extract_fixture
from verbatim_prompts import (
    CLOZE_WORKED_ORIGINAL,
    CLOZE_WORKED_SOURCE,
    CLOZE_WORKED_TARGET,
    VERBATIM_SOURCES,
)


@pytest.fixture(scope="module")
def registry():
    return load_registry()


@pytest.fixture(scope="module")
def fixture_pools(registry):
    tuples = []
    for mine in ("rotten_tomatoes", "daily_mail", "wikidata", "wikihow", "wikipedia",
                 "wordnet", "qa_corpus", "arxiv", "paperswithcode"):
        tuples.extend(extract_fixture(mine)[0])
    return tuples, DistractorPools.build(tuples)


def rt_tuple(label="positive"):
    return SignalTuple(
        "rotten_tomatoes_sentiment",
        ("A wonderful and moving film about friendship", label),
        "rotten_tomatoes/r1",
        {"rating": "4.5", "category": label},
    )


def test_registry_matches_frozen_manifest(registry):
    result = audit(registry)
    assert result["matches_manifest"]
    assert result["total"] == load_manifest()["total"]
    # every task-relevant signal with prompts defines at least one template
    # in each family it appears with
    counts = registry.counts()
    assert set(counts) == {t.signal_type for t in registry.by_id.values()}
    for signal, fams in counts.items():
        for fam, n in fams.items():
            assert n >= 1


def test_catalog_sources_are_verbatim(registry):
    for template_id, source in VERBATIM_SOURCES.items():
        assert registry.by_id[template_id].source_pattern == source, template_id


def test_worked_sentiment_example(registry, fixture_pools):
    _, pools = fixture_pools
    template = registry.by_id["rotten_tomatoes_sentiment.mc.001"]
    ex = render(rt_tuple(), template, pools, derive_rng(0, "t"))
    assert ex.source == (
        "TEXT: A wonderful and moving film about friendship QUERY: "
        'What\'s the sentiment of this text? "Positive", "Negative" or "Neutral"?'
    )
    assert ex.target == "Positive"


def test_negated_polarity_template(registry, fixture_pools):
    _, pools = fixture_pools
    # "disliked the movie?" with a positive label answers No
    template = registry.by_id["rotten_tomatoes_sentiment.mc.004"]
    ex = render(rt_tuple("positive"), template, pools, derive_rng(0, "t"))
    assert ex.target == "No"
    ex = render(rt_tuple("negative"), template, pools, derive_rng(0, "t"))
    assert ex.target == "Yes"


def test_cloze_render_matches_worked_example():
    tup = SignalTuple(
        "plain_text_cloze",
        (CLOZE_WORKED_SOURCE, "<X> | <Y>", "for inviting | last"),
        "plain_text/p1",
    )
    ex = render_cloze(tup)
    assert ex.source == CLOZE_WORKED_SOURCE
    assert ex.target == CLOZE_WORKED_TARGET
    assert ex.family == "cloze"
    # substituting the spans back reproduces the original
    rebuilt = ex.source.replace("<X>", "for inviting").replace("<Y>", "last")
    assert rebuilt == CLOZE_WORKED_ORIGINAL


def test_select_template_is_deterministic(registry, fixture_pools):
    _, pools = fixture_pools
    tup = rt_tuple()
    picks = {select_template(registry, tup.signal_type, "multiple_choice", tup, 42, None, tuple_key(tup)).template_id
             for _ in range(10)}
    assert len(picks) == 1
    other = select_template(registry, tup.signal_type, "multiple_choice", tup, 43, None, tuple_key(tup))
    assert isinstance(other.template_id, str)


# a synthetic catalog: group "gN" of qa_triviaqa generation holds N templates
CHOICE_LENGTHS = (2, 3, 5, 7)
CHOICE_REGISTRY = PromptRegistry([
    PromptTemplate(f"qa_triviaqa.g{n}.{i}", "qa_triviaqa", "generation", f"g{n}",
                   "TEXT: {context} QUERY: {question}", "{answer}")
    for n in CHOICE_LENGTHS for i in range(n)
])
CHOICE_KEYS = [f"{i:016x}" for i in range(7000)]  # fixed, tuple_key-shaped
CHOICE_TUPLE = SignalTuple("qa_triviaqa", ("c", "q?", "a"), "qa/1")
# chi-square critical values at p = 0.001 for n - 1 degrees of freedom: a
# uniform choice exceeds them once in a thousand key sets
CHI2_999 = {2: 10.83, 3: 13.82, 5: 18.47, 7: 22.46}


def _choices(seed: int, n: int) -> list[str]:
    return [select_template(CHOICE_REGISTRY, "qa_triviaqa", "generation", CHOICE_TUPLE, seed, f"g{n}", key).template_id
            for key in CHOICE_KEYS]


@pytest.mark.parametrize("n", CHOICE_LENGTHS)
def test_template_choice_is_uniform_over_the_eligible_list(n):
    counts = {tpl.template_id: 0 for tpl in CHOICE_REGISTRY.get("qa_triviaqa", "generation", f"g{n}")}
    for template_id in _choices(11, n):
        counts[template_id] += 1
    expected = len(CHOICE_KEYS) / n
    chi2 = sum((count - expected) ** 2 / expected for count in counts.values())
    assert chi2 < CHI2_999[n], counts


@pytest.mark.parametrize("n", CHOICE_LENGTHS)
def test_template_choice_is_the_derived_seed_modulo_the_list(monkeypatch, n):
    eligible = CHOICE_REGISTRY.get("qa_triviaqa", "generation", f"g{n}")
    expected = [eligible[derive_seed(11, "select", "qa_triviaqa", "generation", f"g{n}", key) % n].template_id
                for key in CHOICE_KEYS]

    def no_rng(*args):
        raise AssertionError("template choice built a random.Random")

    monkeypatch.setattr(render_module, "derive_rng", no_rng)
    assert _choices(11, n) == expected
    assert _choices(11, n) == expected  # deterministic
    # another seed chooses independently: it agrees about 1 time in n
    same = sum(a == b for a, b in zip(expected, _choices(12, n)))
    assert abs(same / len(CHOICE_KEYS) - 1 / n) < 0.03


def test_render_replay_is_byte_identical(registry, fixture_pools):
    tuples, pools = fixture_pools
    rendered = 0
    for tup in tuples[:100]:
        for fam in ("multiple_choice", "generation"):
            templates = registry.get(tup.signal_type, fam)
            if not any(t.applies_to(tup) for t in templates):
                continue
            a = render_with_selected(registry, tup, fam, pools, 5, None, tuple_key(tup))
            b = render_with_selected(registry, tup, fam, pools, 5, None, tuple_key(tup))
            assert a == b
            rendered += 1
    assert rendered > 100


def test_mc_option_invariants_on_fixture_corpus(registry, fixture_pools):
    tuples, pools = fixture_pools
    checked = 0
    for seed in range(4):
        for tup in tuples:
            templates = registry.get(tup.signal_type, "multiple_choice")
            if not any(t.applies_to(tup) for t in templates):
                continue
            ex = render_with_selected(registry, tup, "multiple_choice", pools, seed, None, tuple_key(tup))
            options = parse_options(ex.source)
            assert len(options) == len(set(options)), ex.template_id
            assert 2 <= len(options) <= 10, ex.template_id
            assert options.count(ex.target) == 1, (ex.template_id, options, ex.target)
            checked += 1
    assert checked > 400


def test_format_and_parse_options_inverse():
    opts = ["alpha", "beta gamma", "delta"]
    with_or = format_options(opts, with_or=True)
    without = format_options(opts, with_or=False)
    assert with_or == '"alpha", "beta gamma", or "delta"'
    assert without == '"alpha", "beta gamma", "delta"'
    assert parse_options(f"QUERY: pick one? {with_or}?") == opts
    assert parse_options(f"QUERY: pick one from {without}.") == opts
    assert format_options(["a", "b"], with_or=True) == '"a" or "b"'


def test_parse_options_ignores_embedded_quoted_bindings():
    source = ('TEXT: x QUERY: Given the subject "Mozart" and relation "place of birth", '
              'what\'s the correct object? "Vienna", "Salzburg", or "Bonn"?')
    assert parse_options(source) == ["Vienna", "Salzburg", "Bonn"]


def test_article_resolution():
    assert resolve_article('Is "run" a/an "verb" in the text?') == 'Is "run" a "verb" in the text?'
    assert resolve_article('Is "calm" a/an "adjective"?') == 'Is "calm" an "adjective"?'
    assert resolve_article('Is "apple" a fruit? An "owl"?') == 'Is "apple" a fruit? An "owl"?'


def test_length_placeholder_is_target_word_count(registry, fixture_pools):
    _, pools = fixture_pools
    tup = SignalTuple(
        "paperswithcode_summary",
        (" ".join(f"intro{i}" for i in range(30)), "short abstract of five words"),
        "paperswithcode/p9",
    )
    template = registry.by_id["paperswithcode_summary.gen.003"]
    assert "{length}" in template.source_pattern
    ex = render(tup, template, pools, derive_rng(0, "len"))
    assert "5-word summary" in ex.source


def test_distractors_differ_from_truth(registry, fixture_pools):
    tuples, pools = fixture_pools
    template = registry.by_id["daily_mail_category.mc.004"]  # asks about other_category
    tup = [t for t in tuples if t.signal_type == "daily_mail_category"][0]
    for seed in range(20):
        ex = render(tup, template, pools, derive_rng(seed, "other"))
        quoted = parse_options(ex.source)
        assert tup.fields[1] not in quoted
        assert ex.target == "No"


def test_unknown_group_is_config_error(registry, fixture_pools):
    with pytest.raises(ConfigError):
        select_template(registry, "qa_triviaqa", "multiple_choice", rt_tuple(), 0, None, tuple_key(rt_tuple()))


def test_small_pool_is_render_error(registry):
    tup = rt_tuple()
    lonely = DistractorPools.build([tup])
    template = load_registry().by_id["daily_mail_summary.mc.001"]
    dm = SignalTuple("daily_mail_summary", ("a title", "some body text", "a summary here"),
                     "daily_mail/d1")
    with pytest.raises(RenderError):
        render(dm, template, lonely, derive_rng(0, "x"))


def test_requires_filters_templates(registry, fixture_pools):
    tuples, pools = fixture_pools
    empties = [t for t in tuples if t.signal_type == "wikipedia_entities"
               and t.extraction_meta["has_entities"] == "no"]
    assert empties
    for seed in range(6):
        ex = render_with_selected(registry, empties[0], "multiple_choice", pools, seed, None, tuple_key(empties[0]))
        # templates that need a concrete entity are never selected
        assert "{entity}" not in ex.source


# -------------------------------------------------------------------- gaokao
def test_gaokao_cloze_hint_prompt():
    record = {"context": "She has _ working here since May.", "cloze_position": "first blank",
              "hint": "be", "answer": "been"}
    ex = render_gaokao(record, "cloze_hint")
    assert ex.source == (
        "TEXT: She has _ working here since May. QUERY: What should be filled in at the "
        'first blank position given the hint "be"?'
    )
    assert ex.target == "been"


def test_gaokao_cloze_hint_without_hint():
    record = {"context": "ctx", "cloze_position": "41", "answer": "been"}
    ex = render_gaokao(record, "cloze_hint")
    assert ex.source == "TEXT: ctx QUERY: What should be filled in at the 41 position?"


def test_gaokao_essay_has_no_text_marker():
    record = {"question": "Write a letter to apply for volunteering.",
              "requirement": "About 100 words.", "article": "Dear Sir ..."}
    ex = render_gaokao(record, "essay")
    assert "TEXT:" not in ex.source
    assert ex.source.startswith("QUERY: ")


def test_gaokao_grammar_prompt():
    record = {"original_text": "I become interesting in football.",
              "corrected_text": "I became interested in football.", "answer": ""}
    ex = render_gaokao(record, "grammar")
    assert ex.source.endswith("QUERY: Please fix the grammatical errors in the above paragraph.")
    assert ex.target == "I became interested in football."


def test_gaokao_reading_mc_prompt():
    record = {"context": "Need a job this summer?", "question": "What is the age range?",
              "options": ["15-18", "15-24", "15-29"], "answer": "15-24"}
    ex = render_gaokao(record, "reading_mc")
    assert ex.source == (
        "TEXT: Need a job this summer? QUERY: What is the age range? "
        '"15-18", "15-24", or "15-29"?'
    )
    assert ex.target == "15-24"


def test_gaokao_unknown_kind():
    with pytest.raises(ConfigError):
        render_gaokao({}, "interpretive_dance")


def test_every_template_renders_on_fixture_corpus(registry, fixture_pools):
    """Coverage net: each catalog template renders for some fixture tuple and
    multiple-choice renders always satisfy the option invariants."""
    from signalmine.rng import derive_rng
    from signalmine.restructurer.render import render

    tuples, pools = fixture_pools
    by_signal = {}
    for t in tuples:
        by_signal.setdefault(t.signal_type, []).append(t)
    for tpl in registry.by_id.values():
        candidates = [t for t in by_signal.get(tpl.signal_type, []) if tpl.applies_to(t)]
        assert candidates, f"{tpl.template_id}: no fixture tuple matches"
        ex = None
        for tup in candidates[:8]:
            try:
                ex = render(tup, tpl, pools, derive_rng(1, "cov", tpl.template_id))
                break
            except RenderError:
                continue
        assert ex is not None, f"{tpl.template_id}: unrenderable on fixtures"
        if tpl.family == "multiple_choice":
            options = parse_options(ex.source)
            assert 2 <= len(options) <= 10 and options.count(ex.target) == 1


def test_duplicate_pool_values_never_duplicate_options(registry):
    from signalmine.rng import derive_rng
    from signalmine.restructurer.render import render
    from signalmine.signal_model import LIST_SEP

    tup = SignalTuple(
        "wikihow_procedure",
        ("Bake Bread", "Mix the dough", "Knead it well"),
        "wikihow/x1",
        {"other_step_headlines": LIST_SEP.join(["Knead it well", "Knead it well", "Let it rise"])},
    )
    template = registry.by_id["wikihow_procedure.mc.021"]
    for seed in range(20):
        ex = render(tup, template, DistractorPools(), derive_rng(seed, "dup"))
        options = parse_options(ex.source)
        assert len(options) == len(set(options))
        assert options.count("Knead it well") == 1


def test_registry_rejects_malformed_templates(tmp_path):
    import json

    from signalmine.signal_model import SchemaError

    def load_one(rec):
        path = tmp_path / "cat.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        return load_registry(str(path))

    base = {"id": "x.mc.1", "signal_type": "rotten_tomatoes_sentiment",
            "family": "multiple_choice", "group": "g",
            "source": 'TEXT: {review} QUERY: Good? "Yes" or "No"?', "target": "{sentiment}"}
    assert len(load_one(base)) == 1
    with pytest.raises(SchemaError):  # unresolvable placeholder
        load_one(dict(base, source="TEXT: {nonsense} QUERY: ok? \"Yes\" or \"No\"?"))
    with pytest.raises(SchemaError):  # mc prompt without options
        load_one(dict(base, source="TEXT: {review} QUERY: thoughts?"))
    with pytest.raises(SchemaError):  # generation prompt with an option slot
        load_one(dict(base, family="generation",
                      source="TEXT: {review} QUERY: pick {choices_with_or}?"))
    with pytest.raises(SchemaError):  # unknown signal
        load_one(dict(base, signal_type="nope"))
    with pytest.raises(SchemaError, match="malformed placeholder at offset 28"):
        load_one(dict(base, source='TEXT: {review} QUERY: Good? {not valid} "Yes" or "No"?'))
    with pytest.raises(SchemaError, match="stray '}' at offset 14"):
        load_one(dict(base, source='TEXT: {review}} QUERY: Good? "Yes" or "No"?'))
    with pytest.raises(SchemaError, match="malformed placeholder at offset 0"):
        load_one(dict(base, target="{sentiment"))
    def refusal(rec) -> str:
        with pytest.raises(SchemaError) as caught:
            load_one(rec)
        return str(caught.value)

    path = tmp_path / "cat.jsonl"
    assert refusal({k: v for k, v in base.items() if k != "target"}) == \
        f"{path}:1: 'target' must be a string, got nothing"
    for key in ("id", "signal_type", "family", "group", "source", "target"):
        assert refusal(dict(base, **{key: 5})) == f"{path}:1: '{key}' must be a string, got 5"
    assert refusal(dict(base, family="multiple-choice")) == \
        "template x.mc.1: family must be multiple_choice or generation, got 'multiple-choice'"
    answer = {"kind": "cond", "field": "sentiment", "cases": [{"literal": "positive", "value": "Yes"}]}
    # read, a case's `negate` is false when the line leaves it out
    assert load_one(dict(base, answer=answer)).by_id["x.mc.1"].answer == \
        dict(answer, cases=[{"literal": "positive", "value": "Yes", "negate": False}])
    assert refusal(dict(base, answer={k: v for k, v in answer.items() if k != "field"})) == \
        f"{path}:1: 'answer.field' must be a string, got nothing"
    assert refusal(dict(base, answer=dict(answer, cases=[{"literal": "positive"}]))) == \
        f"{path}:1: 'answer.cases[].value' must be a string, got nothing"
    assert refusal(dict(base, answer={"kind": "const", "value": 5})) == \
        f"{path}:1: 'answer.value' must be a string, got 5"
    requires = {"meta_equals": {"variant": "a"}, "meta_nonempty": ["b"],
                "field_list_min": {"review": 1}, "meta_list_min": {"c": 2}}
    assert load_one(dict(base, requires=requires, slots={"x": "y"})).by_id["x.mc.1"].requires == requires
    for bad, message in [
        ({"requires": 5}, "'requires' must be an object, got 5"),
        ({"requires": ["meta_equals"]}, "'requires' must be an object, got ['meta_equals']"),
        ({"requires": {"meta_equals": 5}}, "'requires.meta_equals' must be an object, got 5"),
        ({"requires": {"meta_equals": {"variant": 1}}}, "'requires.meta_equals.variant' must be a string, got 1"),
        ({"requires": {"meta_nonempty": "b"}}, "'requires.meta_nonempty' must be a list, got 'b'"),
        ({"requires": {"meta_nonempty": [1]}}, "'requires.meta_nonempty[]' must be a string, got 1"),
        ({"requires": {"field_list_min": {"review": "1"}}},
         "'requires.field_list_min.review' must be an integer, got '1'"),
        ({"requires": {"meta_list_min": {"c": True}}}, "'requires.meta_list_min.c' must be an integer, got True"),
        ({"requires": {"meta_list_min": [2]}}, "'requires.meta_list_min' must be an object, got [2]"),
        ({"requires": {"bogus": 1}}, "'requires.bogus' is not a declared key"),
        # an unhashable kind once escaped as a TypeError
        ({"answer": {"kind": ["const"], "value": "x"}},
         "'answer.kind' must be one of 'const', 'presence', 'cond', got ['const']"),
        ({"slots": 5}, "'slots' must be an object, got 5"),
        ({"slots": {"x": 5}}, "'slots.x' must be a string, got 5"),
        ({"extra": 1}, "'extra' is not a declared key"),
    ]:
        assert refusal(dict(base, **bad)) == f"{path}:1: {message}"


def test_what_read_returns_reads_back_unchanged():
    """The values `read` returns are the only copy the program keeps of a
    catalog line or a prompt document: read again, also after a JSON dump,
    through the same closed shape, they are equal to what was read."""
    import json
    from importlib import resources

    from signalmine.restructurer.templates import (EVAL_PROMPTS, GAOKAO_PROMPTS, TEMPLATE, load_eval_prompts,
                                                   load_gaokao_prompts)
    from signalmine.signal_model import read

    def reads_back(values, shape):
        assert read(values, shape, closed=True) == values
        assert read(json.loads(json.dumps(values)), shape, closed=True) == values

    reads_back(load_eval_prompts(), EVAL_PROMPTS)
    reads_back(load_gaokao_prompts(), GAOKAO_PROMPTS)
    catalog = resources.files("signalmine.restructurer").joinpath("data", "templates.jsonl")
    for line in catalog.read_text(encoding="utf-8").splitlines():
        reads_back(read(json.loads(line), TEMPLATE, closed=True), TEMPLATE)

    base = {"id": "x.mc.1", "signal_type": "rotten_tomatoes_sentiment", "family": "multiple_choice",
            "source": "s", "target": "t"}
    requires = {"meta_equals": {"variant": "a"}, "meta_nonempty": ["b"], "field_list_min": {"review": 1},
                "meta_list_min": {"c": 2}}
    for answer, as_read in [
        ({"kind": "const", "value": "v"}, {"kind": "const", "value": "v"}),
        ({"kind": "presence", "present": "Yes", "absent": "No"},
         {"kind": "presence", "present": "Yes", "absent": "No", "field": "entities"}),
        ({"kind": "cond", "field": "f", "cases": [{"literal": "a", "value": "v"},
                                                  {"literal": "b", "value": "w", "negate": True}]},
         {"kind": "cond", "field": "f", "cases": [{"literal": "a", "value": "v", "negate": False},
                                                  {"literal": "b", "value": "w", "negate": True}]}),
    ]:
        values = read({**base, "answer": answer, "requires": requires}, TEMPLATE, closed=True)
        assert (values["answer"], values["requires"]) == (as_read, requires)
        reads_back(values, TEMPLATE)
    # an absent or null rule or requirement reads as None, and builds nothing
    for line in (base, {**base, "answer": None, "requires": None}):
        values = read(line, TEMPLATE, closed=True)
        assert (values["answer"], values["requires"]) == (None, None)
        reads_back(values, TEMPLATE)


@pytest.mark.parametrize("pattern, expected", [
    ("plain text", "plain text"),
    ("", ""),
    ("{a} and {b}", "1 and 2"),
    ("{{a}} is {a}", "{a} is 1"),
    ("set {{{a}}}", "set {1}"),
    ("{a}{b}{a}", "121"),
    ("}}{{", "}{"),
])
def test_substitute_binds_placeholders_and_unescapes_braces(pattern, expected):
    from signalmine.restructurer.templates import substitute

    assert substitute(pattern, {"a": "1", "b": "2"}) == expected


@pytest.mark.parametrize("pattern, message", [
    ("QUERY: {a} {not valid}", "malformed placeholder at offset 11"),
    ("QUERY: {a", "malformed placeholder at offset 7"),
    ("QUERY: {}", "malformed placeholder at offset 7"),
    ("QUERY: {a} }", "stray '}' at offset 11"),
    ("QUERY: } {missing}", "stray '}' at offset 7"),
    ("QUERY: {missing}", "unbound placeholder 'missing'"),
    # the first problem in reading order wins
    ("QUERY: {missing} {bad", "unbound placeholder 'missing'"),
    ("QUERY: {bad {missing}", "malformed placeholder at offset 7"),
    ("{a}}}{missing} }", "unbound placeholder 'missing'"),
])
def test_substitute_errors_name_the_first_problem(pattern, message):
    from signalmine.restructurer.templates import substitute

    with pytest.raises(RenderError) as exc:
        substitute(pattern, {"a": "1"})
    assert str(exc.value) == message


def test_placeholders_exclude_escaped_names():
    from signalmine.restructurer.templates import PromptTemplate

    tpl = PromptTemplate("x.gen.1", "rotten_tomatoes_sentiment", "generation", "g",
                         "TEXT: {review} QUERY: fill in {{slot}} and {{{sentiment}}}.", "{{label}}")
    assert tpl.placeholders() == {"review", "sentiment"}


def test_binding_tables_agree():
    """Every corpus pool a slot reads is fed by some signal, and every pool
    a signal feeds is read by some slot."""
    from signalmine.restructurer.pools import OPTION_SLOTS, OTHER_SLOTS, POOL_FEEDS

    specs = [spec for _, spec, _ in OPTION_SLOTS.values()] + [spec for spec, _ in OTHER_SLOTS.values()]
    read = {ref for kind, ref in specs if kind == "context"}
    fed = {pool for feeds in POOL_FEEDS.values() for pool, _ in feeds}
    assert read == fed


def test_unknown_other_placeholder_is_illegal_and_unbound():
    from signalmine.restructurer.pools import legal_placeholder
    from signalmine.restructurer.templates import PromptTemplate

    assert legal_placeholder("daily_mail_summary", "other_title")
    assert not legal_placeholder("daily_mail_summary", "other_nothing")
    tup = SignalTuple("daily_mail_summary", ("A title", "Some text here", "A summary"), "daily_mail/x")
    tpl = PromptTemplate("x.gen.1", "daily_mail_summary", "generation", "g",
                         "TEXT: {text} QUERY: not {other_nothing}?", "{title}")
    with pytest.raises(RenderError, match="unbound placeholder 'other_nothing'"):
        render(tup, tpl, DistractorPools(), derive_rng(1, "x"))
