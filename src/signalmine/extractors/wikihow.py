"""How-to articles -> category, hierarchy, goal-step, summary, procedure, and
question tuples.

Step headlines stand in for steps everywhere; headlines longer than twenty
words are ignored. The category path is ordered specific -> general, so the
top-level category is its last element.
"""

from __future__ import annotations

from typing import Mapping

from ..normalizer import purify, word_count
from ..rng import derive_rng
from ..signal_model import GATE, LIST_SEP, TEXT, SignalTuple

CATEGORY_SIGNAL = "wikihow_text_category"
HIERARCHY_SIGNAL = "wikihow_category_hierarchy"
GOAL_STEP_SIGNAL = "wikihow_goal_step"
SUMMARY_SIGNAL = "wikihow_summary"
PROCEDURE_SIGNAL = "wikihow_procedure"
QUESTION_SIGNAL = "wikihow_question"

TOP_CATEGORIES = (
    "Finance and Business",
    "Health",
    "Computers and Electronics",
    "Cars & Other Vehicles",
    "Family Life",
    "Youth",
    "Hobbies and Crafts",
    "Arts and Entertainment",
    "Relationships",
    "Food and Entertaining",
    "Pets and Animals",
    "Education and Communications",
    "Sports and Fitness",
    "Home and Garden",
    "Personal Care and Style",
    "Travel",
    "Holidays and Traditions",
    "Philosophy and Religion",
    "Work World",
    "Screenplays",
    "Outdoor Shelters",
    "Cleaning Heater Appliances",
)
EXCLUDED_CATEGORIES = frozenset({"Screenplays", "Outdoor Shelters", "Cleaning Heater Appliances"})
ACCEPTED_CATEGORIES = tuple(c for c in TOP_CATEGORIES if c not in EXCLUDED_CATEGORIES)

MAX_HEADLINE_WORDS = 20
MIN_PROCEDURE_STEPS = 2


FIELDS = {
    "title_description": GATE,
    "title": GATE,
    "category_path": [TEXT],
    "steps": [{"headline": TEXT, "description": TEXT}],
    "related_questions": [TEXT],
}


def goal_from_title(title: str) -> str:
    if title.lower().startswith("how to "):
        return title[len("how to ") :]
    return title


def extract(doc: Mapping, ctx) -> list[SignalTuple]:
    doc_id = doc["doc_id"]
    provenance = f"wikihow/{doc_id}"
    title, description = doc["title"], doc["title_description"]
    goal = purify(goal_from_title(title))
    path, related = doc["category_path"], doc["related_questions"]
    steps = [(s["headline"], s["description"]) for s in doc["steps"] if s["headline"]]
    rng = derive_rng(ctx.seed, "wikihow", doc_id)

    out: list[SignalTuple] = []

    if not path:
        ctx.report.skip_doc("wikihow", "missing_category_path")
    else:
        top = path[-1]
        if top in EXCLUDED_CATEGORIES or top not in TOP_CATEGORIES:
            ctx.report.reject(CATEGORY_SIGNAL, "category_excluded")
        elif not description:
            ctx.report.reject(CATEGORY_SIGNAL, "missing_description")
        else:
            out.append(
                SignalTuple(CATEGORY_SIGNAL, (description, top), provenance, {"category": top})
            )
        for low, high in zip(path, path[1:]):
            out.append(SignalTuple(HIERARCHY_SIGNAL, (low, high), provenance))

    eligible = [(h, d) for h, d in steps if word_count(h) <= MAX_HEADLINE_WORDS]

    if goal and eligible:
        headline = rng.choice([h for h, _ in eligible])
        out.append(SignalTuple(GOAL_STEP_SIGNAL, (goal, headline), provenance))
    elif goal:
        ctx.report.reject(GOAL_STEP_SIGNAL, "no_eligible_step")

    for headline, desc in steps:
        if not desc:
            ctx.report.reject(SUMMARY_SIGNAL, "missing_description")
            continue
        if word_count(headline) > word_count(desc):
            ctx.report.reject(SUMMARY_SIGNAL, "headline_longer_than_description")
            continue
        out.append(SignalTuple(SUMMARY_SIGNAL, (headline, desc), provenance))

    if goal:
        if len(eligible) < MIN_PROCEDURE_STEPS:
            ctx.report.reject(PROCEDURE_SIGNAL, "too_few_steps")
        else:
            headlines = [h for h, _ in eligible]
            for first, second in zip(headlines, headlines[1:]):
                others = [h for h in headlines if h != first]
                out.append(
                    SignalTuple(
                        PROCEDURE_SIGNAL,
                        (goal, first, second),
                        provenance,
                        {"other_step_headlines": LIST_SEP.join(others)},
                    )
                )

    if not related:
        ctx.report.reject(QUESTION_SIGNAL, "no_related_questions")
    elif not (title and steps):
        ctx.report.reject(QUESTION_SIGNAL, "missing_elements")
    else:
        answer = " ".join(h for h, _ in steps)
        if description and answer:
            out.append(
                SignalTuple(
                    QUESTION_SIGNAL,
                    (title, description, related[0], answer),
                    provenance,
                    {"related_questions": LIST_SEP.join(related)},
                )
            )
        else:
            ctx.report.reject(QUESTION_SIGNAL, "missing_elements")
    return out
