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

from ..signal_model import SchemaError, read_json


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


def _load_object(path: str, by_section: str) -> dict:
    """The JSON object in `path`, whose `by_section` entry maps sections to lists."""
    doc = read_json(path)
    lists = doc.get(by_section, {})
    if not isinstance(lists, dict) or not all(isinstance(v, list) for v in lists.values()):
        raise SchemaError(f"{path}: '{by_section}' is not an object of lists by section")
    return doc


def load_paper(path: str) -> GaokaoPaper:
    """A paper document: `paper_id` and `gold`, a section -> answer key list."""
    doc = _load_object(path, "gold")
    return GaokaoPaper(paper_id=doc.get("paper_id", "paper"), gold=dict(doc.get("gold", {})))


def load_answers(path: str) -> dict:
    """An answers document as `grade_gaokao`'s keyword arguments. Every key
    is optional: `sections` maps a section to its answer list,
    `section_scores` a section to a raw score, and `essay_score` is a number."""
    doc = _load_object(path, "sections")
    scores = doc.get("section_scores", {})
    if not isinstance(scores, dict):
        raise SchemaError(f"{path}: 'section_scores' is not a JSON object")
    try:
        return {"answers": doc.get("sections", {}),
                "section_scores": {name: float(v) for name, v in scores.items()},
                "essay_score": float(doc.get("essay_score", 0.0))}
    except (TypeError, ValueError) as exc:  # a score that is not a number
        raise SchemaError(str(exc)) from exc


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
