"""Two-step entity recognition: generate the entity list, then classify each
entity with an option-scored type prompt. Scoring is exact-match micro-F1
over (surface, type) pairs."""

from __future__ import annotations

from ..restructurer.render import format_options
from ..restructurer.templates import substitute
from .mc import best_mean
from .scorers import ModelScorer, ask


def parse_entity_list(text: str) -> list[str]:
    """Comma-separated entities, deduplicated preserving first occurrence."""
    return list(dict.fromkeys(ent for part in text.split(",") if (ent := part.strip())))


def eval_two_step_ner(
    text: str,
    scorer: ModelScorer,
    type_labels: list[str],
    find_prompt: str,
    type_prompt: str,
) -> list[tuple[str, str]]:
    """Prompts carry {text} / {entity} / {choices_*} placeholders."""
    bindings = {"text": text}
    [found] = ask(scorer, [[("generate", substitute(find_prompt, bindings))]])
    if found is None:
        return []
    entities = parse_entity_list(found[0])
    if entities and len(type_labels) < 2:
        raise ValueError("entity typing needs at least two type labels")
    bindings["choices_with_or"] = format_options(type_labels, with_or=True)
    bindings["choices_without_or"] = format_options(type_labels, with_or=False)
    sources = []
    for entity in entities:
        bindings["entity"] = entity
        sources.append(substitute(type_prompt, bindings))
    replies = ask(scorer, [[("score", source, label) for label in type_labels] for source in sources])
    # an entity whose typing failed is dropped
    return [(entity, type_labels[best_mean(r)]) for entity, r in zip(entities, replies) if r is not None]


def micro_f1(pairs: list[tuple[list[tuple[str, str]], list[tuple[str, str]]]]) -> float:
    """Micro-averaged exact-match F1 over (predicted, gold) pair lists."""
    tp = pred_n = gold_n = 0
    for predicted, gold in pairs:
        pset, gset = set(predicted), set(gold)
        tp += len(pset & gset)
        pred_n += len(pset)
        gold_n += len(gset)
    if pred_n == 0 or gold_n == 0:
        return 0.0
    precision = tp / pred_n
    recall = tp / gold_n
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
