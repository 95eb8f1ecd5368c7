from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from signalmine.extractors import ExtractContext
from signalmine.extractors import (
    arxiv,
    daily_mail,
    plain_text,
    pwc,
    qa,
    rotten_tomatoes,
    wikidata,
    wikihow,
    wikipedia,
    wordnet,
)
from signalmine.extractors.pwc import EntityDb
from signalmine.report import ExtractionReport
from signalmine.signal_model import LIST_SEP, SchemaError, dump_tuples, validate_tuple

from conftest import always_english, extract_fixture, extract_lines, fixture_docs, run_adapter


def ctx(seed: int = 7, **options) -> ExtractContext:
    return ExtractContext(seed=seed, report=ExtractionReport(), options=options)


def words(n: int, prefix: str = "w") -> str:
    return " ".join(f"{prefix}{i}" for i in range(n))


# ------------------------------------------------------------- rotten tomatoes
@pytest.mark.parametrize(
    "rating,expected",
    [(4.0, "positive"), (3.6, "positive"), (3.5, None), (3.0, None), (2.5, None),
     (2.4, "negative"), (1.0, "negative")],
)
def test_review_polarity_thresholds(rating, expected):
    c = ctx()
    out = run_adapter(rotten_tomatoes, {"doc_id": "d", "review": words(8), "rating": rating}, c)
    if expected is None:
        assert out == []
    else:
        assert out[0].fields[1] == expected


def test_review_word_gate_boundary():
    c = ctx()
    assert run_adapter(rotten_tomatoes, {"doc_id": "d", "review": words(4), "rating": 5.0}, c) == []
    assert len(run_adapter(rotten_tomatoes, {"doc_id": "d", "review": words(5), "rating": 5.0}, c)) == 1


def test_review_missing_rating_reported():
    c = ctx()
    assert run_adapter(rotten_tomatoes, {"doc_id": "d", "review": words(8)}, c) == []
    assert c.report.rejected[("rotten_tomatoes_sentiment", "missing_rating")] == 1


# ------------------------------------------------------------------ daily mail
def dm_doc(**over):
    doc = {
        "doc_id": "d1",
        "url": "https://example.co.uk/sport/article-1.html",
        "title": words(6, "t"),
        "bullets": [words(8, "b1x"), words(8, "b2x"), words(8, "b3x")],
        "body": words(60, "body"),
    }
    doc.update(over)
    return doc


def test_dm_category_from_url_path():
    out = run_adapter(daily_mail, dm_doc(), ctx())
    cat = [t for t in out if t.signal_type == "daily_mail_category"]
    assert cat and cat[0].fields[1] == "Sport"


def test_dm_category_list_is_closed():
    out = run_adapter(daily_mail, dm_doc(url="https://example.co.uk/showbiz/a.html"), ctx())
    assert not [t for t in out if t.signal_type == "daily_mail_category"]


def test_dm_blocklist_whole_word_case_insensitive():
    blocked = dm_doc(bullets=["Click Here for more on this great story"])
    assert run_adapter(daily_mail, blocked, ctx()) == []
    # "there" contains "here" but is a different word
    fine = dm_doc(bullets=[words(5) + " there it goes again", words(8, "b2")])
    assert run_adapter(daily_mail, fine, ctx()) != []
    for term in ("Update", "FIND"):
        assert run_adapter(daily_mail, dm_doc(bullets=[f"{term} " + words(7)]), ctx()) == []


def test_dm_category_summary_word_gate():
    out = run_adapter(daily_mail, dm_doc(bullets=[words(4)]), ctx())
    assert not [t for t in out if t.signal_type == "daily_mail_category"]
    out = run_adapter(daily_mail, dm_doc(bullets=[words(5)]), ctx())
    assert [t for t in out if t.signal_type == "daily_mail_category"]


def test_dm_summary_gates():
    def summary_tuples(**over):
        return [t for t in run_adapter(daily_mail, dm_doc(**over), ctx())
                if t.signal_type == "daily_mail_summary"]

    assert not summary_tuples(body=words(19))  # body < 20 words
    assert summary_tuples(body=words(20, "bdy"), bullets=[words(10, "bb")])
    assert not summary_tuples(bullets=[words(9, "bb")])  # summary < 10 words
    assert not summary_tuples(body=words(21, "s"), bullets=[words(25, "bb")])  # body < summary
    assert not summary_tuples(body=words(20, "s"), title=words(30, "t"))  # body < title


def test_dm_truncation_to_400_words():
    out = run_adapter(daily_mail, dm_doc(body=words(450)), ctx())
    summary = [t for t in out if t.signal_type == "daily_mail_summary"][0]
    assert len(summary.named_fields()["text"].split()) == 400


def test_dm_temporal_pairs():
    out = run_adapter(daily_mail, dm_doc(), ctx())
    temporal = [t for t in out if t.signal_type == "daily_mail_temporal"]
    order = [t for t in temporal if t.extraction_meta["variant"] == "order"]
    nxt = [t for t in temporal if t.extraction_meta["variant"] == "next"]
    # 3 bullets: C(3,2)=3 ordered pairs and 2 adjacent pairs
    assert len(order) == 3 and len(nxt) == 2
    adjacent = [(t.extraction_meta["first_bullet_point"], t.extraction_meta["second_bullet_point"])
                for t in nxt]
    bullets = dm_doc()["bullets"]
    assert adjacent == [(bullets[0], bullets[1]), (bullets[1], bullets[2])]
    for t in order:
        # the ordered pair knows which bullet came first regardless of display order
        meta = t.extraction_meta
        assert {meta["one_bullet_point"], meta["another_bullet_point"]} == {meta["first_bp"], meta["last_bp"]}
        assert bullets.index(meta["first_bp"]) < bullets.index(meta["last_bp"])


def test_dm_temporal_needs_two_bullets():
    out = run_adapter(daily_mail, dm_doc(bullets=[words(12, "only")]), ctx())
    assert not [t for t in out if t.signal_type == "daily_mail_temporal"]


# -------------------------------------------------------------------- wikidata
def test_wikidata_blocklist_predicates():
    assert wikidata.property_blocked("IMDb ID")
    assert wikidata.property_blocked("Freebase identifier")
    assert wikidata.property_blocked("place of origin (Switzerland)")
    assert wikidata.property_blocked("image")
    assert wikidata.property_blocked("official website URL")
    assert not wikidata.property_blocked("place of birth")
    assert wikidata.property_blocked("anything", extra_blocklist=("anything",))


def test_wikidata_requires_comention_paragraph():
    doc = {
        "doc_id": "q1",
        "label": "Alpha",
        "properties": [{"pid": "P1", "property": "part of", "object": "Beta"}],
        "paragraphs": ["Alpha appears alone in this paragraph of text"],
    }
    assert run_adapter(wikidata, doc, ctx()) == []
    doc["paragraphs"].append("Alpha and Beta appear together right here")
    out = run_adapter(wikidata, doc, ctx())
    assert out and out[0].fields == (
        "Alpha and Beta appear together right here", "Alpha", "part of", "Beta")


def test_wikidata_instance_of_becomes_entity_typing():
    doc = {
        "doc_id": "q2",
        "label": "Alpha",
        "properties": [{"pid": "P31", "property": "instance of", "object": "Widget"}],
        "paragraphs": ["Alpha is mentioned in this long enough paragraph"],
    }
    out = run_adapter(wikidata, doc, ctx())
    assert [t.signal_type for t in out] == ["wikidata_entity"]
    assert out[0].fields[1:] == ("Alpha", "Widget")


def test_wikidata_id_only_item_yields_nothing():
    doc = {
        "doc_id": "q3",
        "label": "Alpha",
        "properties": [{"pid": "P345", "property": "IMDb ID", "object": "tt01"}],
        "paragraphs": ["Alpha and tt01 sit together in this paragraph"],
    }
    assert run_adapter(wikidata, doc, ctx()) == []


# --------------------------------------------------------------------- wikihow
def wh_doc(**over):
    doc = {
        "doc_id": "h1",
        "title": "How to Clean a Window",
        "title_description": words(15, "d"),
        "steps": [
            {"headline": words(5, "h1x"), "description": words(20, "x1")},
            {"headline": words(6, "h2x"), "description": words(20, "x2")},
            {"headline": words(7, "h3x"), "description": words(20, "x3")},
        ],
        "related_questions": ["How to Wash Curtains"],
        "category_path": ["Window Care", "Housekeeping", "Home and Garden"],
    }
    doc.update(over)
    return doc


def test_wikihow_excluded_categories():
    out = run_adapter(wikihow, wh_doc(category_path=["Scenes", "Screenplays"]), ctx())
    assert not [t for t in out if t.signal_type == "wikihow_text_category"]


def test_wikihow_headline_word_gate_boundary():
    c = ctx()
    doc = wh_doc(steps=[
        {"headline": words(20, "ok"), "description": words(30, "d1")},
        {"headline": words(21, "no"), "description": words(30, "d2")},
        {"headline": words(5, "yes"), "description": words(30, "d3")},
    ])
    out = run_adapter(wikihow, doc, c)
    proc = [t for t in out if t.signal_type == "wikihow_procedure"]
    used = {h for t in proc for h in (t.fields[1], t.fields[2])}
    assert all(len(h.split()) <= 20 for h in used)
    goal_step = [t for t in out if t.signal_type == "wikihow_goal_step"]
    assert goal_step and len(goal_step[0].fields[1].split()) <= 20


def test_wikihow_hierarchy_adjacent_pairs():
    out = run_adapter(wikihow, wh_doc(category_path=["A", "B", "C"]), ctx())
    pairs = [t.fields for t in out if t.signal_type == "wikihow_category_hierarchy"]
    assert pairs == [("A", "B"), ("B", "C")]


def test_wikihow_summary_headline_not_longer_than_description():
    doc = wh_doc(steps=[{"headline": words(10, "h"), "description": words(9, "d")}])
    out = run_adapter(wikihow, doc, ctx())
    assert not [t for t in out if t.signal_type == "wikihow_summary"]


def test_wikihow_procedure_needs_two_steps():
    doc = wh_doc(steps=[{"headline": words(4), "description": words(20)}])
    out = run_adapter(wikihow, doc, ctx())
    assert not [t for t in out if t.signal_type == "wikihow_procedure"]


def test_wikihow_question_needs_related():
    out = run_adapter(wikihow, wh_doc(related_questions=[]), ctx())
    assert not [t for t in out if t.signal_type == "wikihow_question"]
    out = run_adapter(wikihow, wh_doc(), ctx())
    q = [t for t in out if t.signal_type == "wikihow_question"]
    assert q and q[0].named_fields()["answer"].startswith("h1x0")


def test_wikihow_goal_strips_how_to():
    out = run_adapter(wikihow, wh_doc(), ctx())
    goal = [t for t in out if t.signal_type == "wikihow_goal_step"][0]
    assert goal.fields[0] == "Clean a Window"


# ------------------------------------------------------------------- wikipedia
def wp_doc(**over):
    doc = {
        "doc_id": "p1",
        "sections": [
            {"title": "One", "text": words(12, "s1")},
            {"title": "Two", "text": words(12, "s2")},
        ],
        "paragraphs": [
            {"text": "Alpha Beta helps Gamma in " + words(6, "f"), "links": ["Alpha Beta", "Gamma", "[3]"]},
        ],
    }
    doc.update(over)
    return doc


def test_wikipedia_needs_two_sections():
    out = run_adapter(wikipedia, wp_doc(sections=[{"title": "One", "text": words(12)}]), ctx())
    assert not [t for t in out if t.signal_type == "wikipedia_sections"]


def test_wikipedia_section_text_gate():
    doc = wp_doc(sections=[
        {"title": "One", "text": words(9)},
        {"title": "Two", "text": words(10, "b")},
        {"title": "Three", "text": words(10, "c")},
    ])
    out = run_adapter(wikipedia, doc, ctx())
    titles = {t.fields[1] for t in out if t.signal_type == "wikipedia_sections"}
    assert titles == {"Two", "Three"}


def test_wikipedia_noise_words_drop_paragraph():
    for noise in ("Please", "click", "WIKI", "copyright", "IP address"):
        doc = wp_doc(paragraphs=[{"text": f"{noise} " + words(12), "links": []}])
        out = run_adapter(wikipedia, doc, ctx())
        assert not [t for t in out if t.signal_type == "wikipedia_entities"], noise


def test_wikipedia_reference_links_are_not_entities():
    out = run_adapter(wikipedia, wp_doc(), ctx())
    ents = [t for t in out if t.signal_type == "wikipedia_entities"][0]
    assert "[3]" not in ents.fields[1]
    assert ents.fields[1] == "Alpha Beta, Gamma"


def test_wikipedia_entity_longest_match_and_order():
    found = wikipedia.mark_entities("x Alpha Beta then Gamma then Alpha Beta", {"Alpha", "Alpha Beta", "Gamma"})
    assert found == ["Alpha Beta", "Gamma"]


def test_wikipedia_paragraph_word_gate():
    doc = wp_doc(paragraphs=[{"text": words(9), "links": []}])
    out = run_adapter(wikipedia, doc, ctx())
    assert not [t for t in out if t.signal_type == "wikipedia_entities"]


def test_wikipedia_sentiment_is_neutral_and_truncated():
    doc = wp_doc(paragraphs=[{"text": words(300), "links": []}])
    out = run_adapter(wikipedia, doc, ctx())
    senti = [t for t in out if t.signal_type == "wikipedia_sentiment"][0]
    assert senti.fields[1] == "neutral"
    assert len(senti.fields[0].split()) == 256


def test_wikipedia_section_truncation():
    doc = wp_doc(sections=[
        {"title": "One", "text": words(257)},
        {"title": "Two", "text": words(30, "b")},
    ])
    out = run_adapter(wikipedia, doc, ctx())
    one = [t for t in out if t.signal_type == "wikipedia_sections" and t.fields[1] == "One"][0]
    assert len(one.fields[0].split()) == 256


# --------------------------------------------------------------------- wordnet
def test_wordnet_fixture_rules():
    tuples, report = extract_fixture("wordnet")
    pos = [t for t in tuples if t.signal_type == "wordnet_pos"]
    # "loves" lemmatizes onto "love", which the dump already carries
    assert not any(t.fields[0] == "loves" for t in pos)
    assert any(t.fields[0] == "love" and t.fields[2] == "verb" for t in pos)
    assert report.rejected[("wordnet_pos", "lemmatized_away")] == 1
    # stop words and short words are pruned
    assert report.skipped_docs[("wordnet", "stop_word")] == 2
    assert not any(t.fields[0] == "an" for t in tuples)
    # senses without examples yield nothing
    assert not any(t.fields[0] == "gap" for t in tuples)
    # one synonym tuple per listed synonym
    bright_syn = [t for t in tuples
                  if t.signal_type == "wordnet_synonym" and t.fields[0] == "bright"]
    assert sorted(t.fields[2] for t in bright_syn) == ["clever", "luminous", "smart"]


def test_wordnet_word_length_gate():
    c = ctx()
    doc = {"doc_id": "ab", "word": "ab",
           "senses": [{"pos": "noun", "meaning": "m", "examples": ["ab is short"]}]}
    assert run_adapter(wordnet, doc, c) == []
    doc = {"doc_id": "abc", "word": "abc",
           "senses": [{"pos": "noun", "meaning": "m", "examples": ["abc has three letters"]}]}
    assert run_adapter(wordnet, doc, c) != []


def test_wordnet_lemmatizer():
    vocab = {"love", "loves", "study", "studies", "leaf", "leaves", "big", "bigger"}
    assert wordnet.lemmatize("loves", "verb", vocab) == "love"
    assert wordnet.lemmatize("studies", "verb", vocab) == "study"
    assert wordnet.lemmatize("leaves", "noun", vocab) == "leaf"
    assert wordnet.lemmatize("bigger", "adjective", vocab) == "big"
    assert wordnet.lemmatize("love", "verb", vocab) == "love"


# -------------------------------------------------------------------------- qa
def qa_doc(**over):
    doc = {"doc_id": "q1", "kind": "race", "context": words(50),
           "question": "What is it?", "options": ["a", "b", "c"], "answer": "a"}
    doc.update(over)
    return doc


def test_qa_context_length_gate_boundary():
    assert run_adapter(qa, qa_doc(context=words(401)), ctx()) == []
    assert run_adapter(qa, qa_doc(context=words(400)), ctx()) != []


def test_qa_question_terminal_mark():
    assert run_adapter(qa, qa_doc(question="What happened"), ctx()) == []
    assert run_adapter(qa, qa_doc(question="Complete the following:"), ctx()) != []
    out = run_adapter(qa, qa_doc(question="He felt ___ .", options=["tired", "sad"], answer="sad"),
                     ctx())
    assert out and out[0].extraction_meta["is_cloze"] == "yes"


def test_qa_triviaqa_web_only():
    doc = qa_doc(kind="triviaqa", options=[], source="wiki")
    assert run_adapter(qa, doc, ctx()) == []
    doc = qa_doc(kind="triviaqa", options=[], source="web")
    out = run_adapter(qa, doc, ctx())
    assert out and out[0].signal_type == "qa_triviaqa"


def test_qa_control_maps_to_nli_fields():
    doc = qa_doc(kind="control", question="All of them passed", options=[], answer="entailment")
    out = run_adapter(qa, doc, ctx())
    assert out[0].signal_type == "qa_control"
    assert out[0].named_fields()["label"] == "entailment"


def test_qa_missing_answer_reported():
    c = ctx()
    assert run_adapter(qa, qa_doc(answer=""), c) == []
    assert c.report.rejected[("qa_race", "missing_answer")] == 1


# ----------------------------------------------------------------------- arxiv
def ax_doc(**over):
    doc = {"doc_id": "a1", "title": words(5, "t"), "abstract": words(30, "a"),
           "categories": ["Physics"]}
    doc.update(over)
    return doc


def test_arxiv_single_category_rule():
    out = run_adapter(arxiv, ax_doc(categories=["Physics", "Statistics"]), ctx())
    assert not [t for t in out if t.signal_type == "arxiv_category"]
    out = run_adapter(arxiv, ax_doc(), ctx())
    assert [t for t in out if t.signal_type == "arxiv_category"]


def test_arxiv_summary_gates_boundaries():
    def summary(**over):
        return [t for t in run_adapter(arxiv, ax_doc(**over), ctx())
                if t.signal_type == "arxiv_summary"]

    assert not summary(title=words(2))
    assert summary(title=words(3))
    assert not summary(abstract=words(19))
    assert summary(abstract=words(20))
    assert not summary(title=words(25, "t"), abstract=words(22, "a"))
    long = summary(abstract=words(401))
    assert long and len(long[0].fields[0].split()) == 400


# ------------------------------------------------------------------------- pwc
def make_db(*entries):
    return EntityDb([{"surface": s, "type": t} for s, t in entries])


def test_pwc_db_filters():
    db = make_db(("AI", "method"), ("ok term", "task"),
                 ("one two three four five six seven", "task"),
                 ("deep nets", "other"), ("gradient descent method", "other"))
    assert db.lookup("AI") is None  # fewer than three characters
    assert db.lookup("one two three four five six seven") is None  # longer than six words
    assert db.lookup("deep nets") is None  # "other" must exceed two words
    assert db.lookup("gradient descent method") == "other"
    assert db.lookup("ok term") == "task"


def test_pwc_normalized_matching():
    db = make_db(("bertbase", "method"))
    assert pwc.match_entities("We fine tune BERT-base on data", db) == [("BERT-base", "method")]


def _match_entities_by_span(sentence, db):
    """`pwc.match_entities` as it was: every candidate span rebuilt and
    normalized through `EntityDb.lookup`."""
    tokens = sentence.split()
    found = []
    i = 0
    while i < len(tokens):
        matched = 0
        for span_len in range(min(pwc.MAX_SPAN_WORDS, len(tokens) - i), 0, -1):
            span = " ".join(tokens[i : i + span_len])
            etype = db.lookup(span)
            if etype is not None:
                found.append((span, etype))
                matched = span_len
                break
        i += matched if matched else 1
    return found


_pwc_tokens = st.sampled_from(["BERT", "bert-", "base", "Base", "-", "(", "net", "Net.", "a1", "A1", "x", "é", "--"])
_pwc_phrases = st.lists(_pwc_tokens, min_size=1, max_size=5).map(" ".join)


@given(sentence=st.lists(_pwc_tokens, max_size=30).map(" ".join),
       entries=st.lists(st.tuples(_pwc_phrases, st.sampled_from(pwc.ENTITY_TYPES)), max_size=12))
@settings(max_examples=300, deadline=None)
def test_pwc_token_keys_match_what_span_lookup_matched(sentence, entries):
    db = make_db(*entries)
    assert pwc.match_entities(sentence, db) == _match_entities_by_span(sentence, db)


def test_pwc_longest_span_wins_no_overlap():
    db = make_db(("machine translation", "task"), ("neural machine translation", "task"))
    found = pwc.match_entities("progress in neural machine translation systems", db)
    assert found == [("neural machine translation", "task")]
    spans = [s for s, _ in found]
    assert len(spans) == len(set(spans))


def test_pwc_empty_db_is_structural_error():
    with pytest.raises(SchemaError):
        run_adapter(pwc, {"doc_id": "p", "sentences": ["x"]}, ctx(entity_db=EntityDb([])))


def test_pwc_summary_gate():
    db = make_db(("ok term", "task"))
    doc = {"doc_id": "p", "sentences": [], "abstract": words(30), "introduction": words(29)}
    out = run_adapter(pwc, doc, ctx(entity_db=db))
    assert not [t for t in out if t.signal_type == "paperswithcode_summary"]
    doc["introduction"] = words(30, "i")
    out = run_adapter(pwc, doc, ctx(entity_db=db))
    assert [t for t in out if t.signal_type == "paperswithcode_summary"]


def test_pwc_typing_tuples_carry_variant():
    db = make_db(("ImageNet", "dataset"))
    doc = {"doc_id": "p", "sentences": ["We evaluate on ImageNet today"],
           "abstract": words(10), "introduction": words(20)}
    out = run_adapter(pwc, doc, ctx(entity_db=db))
    typed = [t for t in out if t.extraction_meta.get("variant") == "typing"]
    assert typed and typed[0].extraction_meta["entity_type"] == "dataset"
    listed = [t for t in out if t.extraction_meta.get("variant") == "entities"]
    assert listed and listed[0].fields[1] == "ImageNet"


# ------------------------------------------------------------------ plain text
def test_cloze_spec_shape():
    tuples, _ = extract_fixture("plain_text")
    party = [t for t in tuples if "party" in t.fields[0]][0]
    named = party.named_fields()
    sentinels = named["corrupted_positions"].split(LIST_SEP)
    spans = named["target_spans"].split(LIST_SEP)
    assert len(sentinels) == len(spans) >= 1
    assert sentinels[0] == "<X>"
    rebuilt = plain_text.reconstruct(named["corrupted_text"], sentinels, spans)
    assert rebuilt == "Thank you for inviting me to your party last week."


def test_cloze_short_text_dropped():
    c = ctx()
    assert run_adapter(plain_text, {"doc_id": "d", "text": "word"}, c) == []
    assert c.report.rejected[("plain_text_cloze", "too_short")] == 1


def test_cloze_rate_validation():
    import random

    with pytest.raises(SchemaError):
        plain_text.corrupt("a b c", 0.0, random.Random(0))
    with pytest.raises(SchemaError):
        plain_text.corrupt("a b c", 1.0, random.Random(0))


def test_cloze_non_adjacent_spans():
    import random

    rng = random.Random(5)
    for _ in range(200):
        text = words(rng.randint(4, 40))
        res = plain_text.corrupt(text, 0.4, rng)
        assert res is not None
        corrupted, sentinels, spans = res
        tokens = corrupted.split()
        positions = [i for i, t in enumerate(tokens) if t in set(sentinels)]
        # sentinels never abut: a masked span is always followed by a real word
        assert all(b - a >= 2 for a, b in zip(positions, positions[1:]))


# ------------------------------------------------------------------ the runner
def test_every_emitted_tuple_validates(all_fixture_tuples):
    assert all_fixture_tuples
    for tup in all_fixture_tuples:
        assert validate_tuple(tup)


def test_extraction_determinism():
    a = dump_tuples(extract_fixture("daily_mail", seed=11)[0])
    b = dump_tuples(extract_fixture("daily_mail", seed=11)[0])
    assert a == b
    c = dump_tuples(extract_fixture("wikidata", seed=12)[0])
    d = dump_tuples(extract_fixture("wikidata", seed=13)[0])
    assert c != d  # seeded context-paragraph sampling differs


def test_accepted_counts_only_tuples_that_pass_validation(monkeypatch):
    from signalmine import extractors

    real_extract, fields = extractors._ADAPTERS["rotten_tomatoes"]

    def with_one_invalid(doc, ctx):
        # the real adapter's tuple for "a", minus a field: it fails validation
        out = real_extract(doc, ctx)
        if doc["doc_id"] == "a":
            out = [dataclasses.replace(tup, fields=tup.fields[:1]) for tup in out]
        return out

    monkeypatch.setitem(extractors._ADAPTERS, "rotten_tomatoes", (with_one_invalid, fields))
    docs = [{"doc_id": "a", "review": words(8), "rating": 5.0},
            {"doc_id": "b", "review": words(9), "rating": 1.0}]
    report = ExtractionReport()
    out = extract_lines("rotten_tomatoes", docs, seed=1, report=report, detector=always_english)
    assert len(out) == 1
    assert sum(report.accepted.values()) == len(out)
    assert report.rejected == {("rotten_tomatoes_sentiment", "invalid:arity"): 1}


def test_language_gate_and_detector_errors_counted():
    docs = [{"doc_id": "a", "review": words(8), "rating": 5.0},
            {"doc_id": "b", "review": words(8), "rating": 5.0}]
    report = ExtractionReport()
    out = extract_lines("rotten_tomatoes", docs, seed=1, report=report,
                        detector=lambda t: ("fr", 1.0))
    assert out == [] and report.skipped_docs[("rotten_tomatoes", "language")] == 2

    def flaky(_):
        raise RuntimeError("oracle down")

    report = ExtractionReport()
    out = extract_lines("rotten_tomatoes", docs, seed=1, report=report, detector=flaky)
    assert out == [] and report.skipped_docs[("rotten_tomatoes", "detector_error")] == 2


def test_duplicate_doc_ids_skipped():
    docs = [{"doc_id": "a", "review": words(8), "rating": 5.0},
            {"doc_id": "a", "review": words(9), "rating": 5.0}]
    report = ExtractionReport()
    out = extract_lines("rotten_tomatoes", docs, seed=1, report=report,
                        detector=always_english)
    assert len(out) == 1 and report.skipped_docs[("rotten_tomatoes", "duplicate_doc_id")] == 1


def test_unknown_mine_is_structural():
    with pytest.raises(SchemaError):
        extract_lines("no_such_mine", [], seed=0, report=ExtractionReport())


def test_extraction_is_input_order_independent():
    docs = fixture_docs("daily_mail")
    report_a, report_b = ExtractionReport(), ExtractionReport()
    forward = extract_lines("daily_mail", docs, seed=5, report=report_a,
                            detector=always_english)
    backward = extract_lines("daily_mail", list(reversed(docs)), seed=5,
                             report=report_b, detector=always_english)
    assert "".join(forward) == "".join(backward)
    assert report_a.accepted == report_b.accepted


def test_cloze_coverage_tracks_rate():
    import random

    rng = random.Random(2)
    for rate in (0.1, 0.3, 0.5):
        deviations = []
        for _ in range(200):
            n = rng.randint(10, 120)
            text = words(n)
            corrupted, sentinels, spans = plain_text.corrupt(text, rate, rng)
            masked = sum(len(s.split()) for s in spans)
            deviations.append(masked / n - rate)
        assert abs(sum(deviations) / len(deviations)) < 0.01
        assert max(abs(d) for d in deviations) < 0.08


_words_strategy = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=7), min_size=2, max_size=60
).map(" ".join)


@given(text=_words_strategy, rate=st.floats(min_value=0.05, max_value=0.8),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_cloze_round_trip_property(text, rate, seed):
    import random

    result = plain_text.corrupt(text, rate, random.Random(seed))
    if result is None:
        return
    corrupted, sentinels, spans = result
    assert plain_text.reconstruct(corrupted, sentinels, spans) == text


def test_wordnet_null_word_adds_nothing_to_the_vocabulary():
    # read as "None", it made "nones" the inflection of a word no record has
    sense = {"pos": "noun", "meaning": "m", "examples": ["nones are here today"]}
    report = ExtractionReport()
    lines = extract_lines("wordnet", [{"doc_id": "a", "word": None}, {"doc_id": "b", "word": "nones", "senses": [sense]}],
                          seed=1, report=report, detector=always_english)
    assert report.skipped_docs == {("wordnet", "missing_word"): 1}
    assert report.accepted["wordnet_pos"] == 1 and len(lines) == 2


def test_wordnet_lemmas_do_not_depend_on_document_order():
    """"run " purifies to "run", so "running" lemmatizes away whichever
    record comes first."""
    sense = {"pos": "verb", "meaning": "move fast on foot", "examples": ["They run every day"]}
    docs = [{"doc_id": "a", "word": "running", "senses": [sense]},
            {"doc_id": "b", "word": "run ", "senses": [sense]}]
    runs = []
    for order in (docs, docs[::-1]):
        report = ExtractionReport()
        lines = extract_lines("wordnet", order, seed=1, report=report, detector=always_english)
        runs.append(("".join(lines), report.to_json()))
    assert runs[0] == runs[1]
    assert "wordnet_pos:lemmatized_away" in runs[0][1]
