from __future__ import annotations

import random

import pytest

from signalmine.eval_harness.gaokao import (
    FULL_MARKS,
    SECTIONS,
    GaokaoPaper,
    grade_gaokao,
    load_paper,
)
from signalmine.signal_model import SchemaError

from conftest import FIXTURES, gaokao_fixture


def test_point_table():
    by_name = {s.name: (s.questions, s.points_per_question, s.max_points) for s in SECTIONS}
    assert by_name == {
        "listening": (20, 1.5, 30.0),
        "cloze_mc": (20, 1.5, 30.0),
        "cloze_hint": (10, 1.5, 15.0),
        "reading_mc": (15, 2.0, 30.0),
        "reading_cloze": (5, 2.0, 10.0),
        "grammar": (1, 10.0, 10.0),
        "essay": (1, 25.0, 25.0),
    }
    assert sum(v[2] for v in by_name.values()) == FULL_MARKS == 150.0


def _section_total(section_scores, essay_score=0.0):
    """`grade_gaokao`'s total for raw section scores alone."""
    return grade_gaokao(GaokaoPaper(paper_id="p"), {}, section_scores=section_scores,
                        essay_score=essay_score)[1]


def test_published_totals():
    # the three spec-pinned columns
    assert _section_total(
        {"listening": 28.5, "cloze_mc": 27.0, "cloze_hint": 7.5,
         "reading_mc": 28.0, "reading_cloze": 10.0, "grammar": 8.0},
        essay_score=19.0,
    ) == 128.0
    assert _section_total(
        {"listening": 28.5, "cloze_mc": 30.0, "cloze_hint": 12.0,
         "reading_mc": 28.0, "reading_cloze": 10.0, "grammar": 8.0},
        essay_score=22.0,
    ) == 138.5
    assert _section_total(
        {"listening": 30.0, "cloze_mc": 30.0, "cloze_hint": 15.0,
         "reading_mc": 30.0, "reading_cloze": 10.0, "grammar": 10.0},
        essay_score=25.0,
    ) == 150.0


def test_all_published_columns_reproduce():
    rows = gaokao_fixture("results_columns.jsonl")
    assert len(rows) == 31  # 30 model x paper columns + the full-marks ceiling
    for row in rows:
        total = _section_total(row["sections"], essay_score=row["essay"])
        assert total == row["total"], (row["paper"], row["model"])
        asr_sections = dict(row["sections"], listening=row["listening_asr"])
        assert _section_total(asr_sections, essay_score=row["essay"]) == row["total_asr"]


def test_grading_from_answer_key():
    paper = load_paper(str(FIXTURES / "gaokao" / "paper_2019_np2.json"))
    answers = gaokao_fixture("answers_2019_np2_rst.json")
    sections, total = grade_gaokao(
        paper, answers["sections"], section_scores=answers["section_scores"],
        essay_score=answers["essay_score"],
    )
    by_name = {s.name: s.score for s in sections}
    assert by_name == {
        "listening": 28.5, "cloze_mc": 30.0, "cloze_hint": 12.0,
        "reading_mc": 28.0, "reading_cloze": 10.0, "grammar": 8.0, "essay": 22.0,
    }
    assert total == 138.5


def test_grading_answer_count_mismatch_is_structural():
    paper = load_paper(str(FIXTURES / "gaokao" / "paper_2019_np2.json"))
    with pytest.raises(SchemaError):
        grade_gaokao(paper, {"listening": ["A"] * 19})


def test_section_score_bounds_validated():
    with pytest.raises(SchemaError):
        _section_total({"listening": 31.0})
    with pytest.raises(SchemaError):
        _section_total({"listening": 30.0}, essay_score=26.0)
    with pytest.raises(SchemaError):
        _section_total({"not_a_section": 1.0})


@pytest.mark.parametrize("scores", [{"gramar": 10.0}, {"essay": 20.0}, {"grammar": 8.0, "Listening": 30.0}])
def test_unknown_or_essay_section_score_is_structural(scores):
    paper = load_paper(str(FIXTURES / "gaokao" / "paper_2019_np2.json"))
    with pytest.raises(SchemaError):
        grade_gaokao(paper, {}, section_scores=scores)


def test_weighted_sum_identity_property():
    # random correct-count vectors against the point table
    rng = random.Random(12)
    paper = GaokaoPaper(paper_id="synthetic", gold={
        "listening": ["A"] * 20, "cloze_mc": ["B"] * 20, "cloze_hint": ["w"] * 10,
        "reading_mc": ["C"] * 15, "reading_cloze": ["D"] * 5, "grammar": ["fix"],
    })
    for _ in range(300):
        expected = 0.0
        answers = {}
        for spec in SECTIONS:
            if spec.name in ("grammar", "essay"):
                continue
            correct = rng.randint(0, spec.questions)
            key = paper.gold[spec.name]
            given = list(key[:correct]) + ["zzz"] * (spec.questions - correct)
            answers[spec.name] = given
            expected += correct * spec.points_per_question
        grammar = rng.choice([0.0, 4.0, 7.0, 10.0])
        essay = rng.choice([0.0, 19.0, 21.0, 25.0])
        _, total = grade_gaokao(paper, answers, section_scores={"grammar": grammar},
                                essay_score=essay)
        assert total == expected + grammar + essay


def test_answers_are_case_insensitive():
    paper = GaokaoPaper(paper_id="p", gold={"reading_cloze": ["A", "B", "C", "D", "A"]})
    _, total = grade_gaokao(paper, {"reading_cloze": ["a", "b", "c", "d", "a"]})
    assert total == 10.0
