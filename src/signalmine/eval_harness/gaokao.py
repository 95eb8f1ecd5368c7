"""Exam grading: seven subcategories, fixed per-question points, 150 total.

Objective sections are graded as correct-count times per-question points.
Grammar admits partial credit (the single question is worth ten points, one
per corrected error) and, like any other section, can be supplied as a raw
section score; the essay score always comes from outside, as its own
argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..signal_model import SchemaError, default, read, read_json


@dataclass(frozen=True)
class SectionSpec:
    name: str
    questions: int
    points_per_question: float
    auto: bool = True

    @property
    def max_points(self) -> float:
        return self.questions * self.points_per_question


SECTIONS: tuple[SectionSpec, ...] = (
    SectionSpec("listening", 20, 1.5),
    SectionSpec("cloze_mc", 20, 1.5),
    SectionSpec("cloze_hint", 10, 1.5),
    SectionSpec("reading_mc", 15, 2.0),
    SectionSpec("reading_cloze", 5, 2.0),
    SectionSpec("grammar", 1, 10.0),
    SectionSpec("essay", 1, 25.0, auto=False),
)
SECTION_BY_NAME = {s.name: s for s in SECTIONS}
FULL_MARKS = 150.0

assert sum(s.max_points for s in SECTIONS) == FULL_MARKS


@dataclass(frozen=True)
class SectionScore:
    name: str
    score: float
    max_points: float


@dataclass
class GaokaoPaper:
    paper_id: str
    gold: dict[str, list[str]] = field(default_factory=dict)  # section -> answer key

    def __post_init__(self) -> None:
        for name, answers in self.gold.items():
            spec = SECTION_BY_NAME.get(name)
            if spec is None:
                raise SchemaError(f"unknown exam section: {name}")
            if spec.auto and name not in ("grammar",) and len(answers) != spec.questions:
                raise SchemaError(
                    f"{self.paper_id}/{name}: answer key has {len(answers)} entries, "
                    f"expected {spec.questions}"
                )


# an exam paper: its id and, per section, the answer key
PAPER = {"paper_id": default(str, "paper"), "gold": {str: [str]}}
# an answers document: per section, the answer list or a raw score, and the essay score
ANSWERS = {"sections": {str: [str]}, "section_scores": {str: float}, "essay_score": default(float, 0.0)}


def load_paper(path: str) -> GaokaoPaper:
    """The paper document in `path`, read through PAPER (closed)."""
    return read_json(path, build=lambda doc: GaokaoPaper(**read(doc, PAPER, closed=True)))


def load_answers(path: str) -> dict:
    """The answers document in `path`, read through ANSWERS (closed), as
    `grade_gaokao`'s keyword arguments."""
    values = read_json(path, build=lambda doc: read(doc, ANSWERS, closed=True))
    values["answers"] = values.pop("sections")
    return values


def grade_gaokao(
    paper: GaokaoPaper,
    answers: Mapping[str, list[str]],
    section_scores: Mapping[str, float] | None = None,
    essay_score: float = 0.0,
) -> tuple[list[SectionScore], float]:
    """Grade answer lists against the key; raw `section_scores` override
    per-question grading for sections judged externally (grammar partial
    credit). Answer-count mismatches, unknown section names and an essay
    score given as a section score are structural errors."""
    section_scores = dict(section_scores or {})
    for name in [*answers, *section_scores]:
        if name not in SECTION_BY_NAME:
            raise SchemaError(f"unknown exam section: {name}")
    if "essay" in section_scores:
        raise SchemaError("essay score is a separate argument")
    results: list[SectionScore] = []
    total = 0.0
    for spec in SECTIONS:
        if spec.name == "essay":
            score = essay_score
            if not (0 <= score <= spec.max_points):
                raise SchemaError(f"essay: score {score} outside [0, {spec.max_points}]")
        elif spec.name in section_scores:
            score = float(section_scores[spec.name])
            if not (0 <= score <= spec.max_points):
                raise SchemaError(f"{spec.name}: score {score} outside [0, {spec.max_points}]")
        elif spec.name in answers:
            key = paper.gold.get(spec.name)
            if key is None:
                raise SchemaError(f"paper has no answer key for section {spec.name}")
            given = answers[spec.name]
            if len(given) != len(key):
                raise SchemaError(
                    f"{spec.name}: {len(given)} answers for {len(key)} questions"
                )
            correct = sum(1 for g, k in zip(given, key) if _norm(g) == _norm(k))
            score = correct * spec.points_per_question
        else:
            score = 0.0
        results.append(SectionScore(spec.name, score, spec.max_points))
        total += score
    return results, total


def _norm(answer: str) -> str:
    return str(answer).strip().upper()
