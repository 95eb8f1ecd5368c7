"""Five-prompt dataset evaluation: per-prompt scores plus mean, max, and
population standard deviation.

Classification sets are subsampled to 5,000 and generation sets to 2,000
with the global seed before scoring. The metric follows the prompt family:
exact-match micro-F1 (two-step entity recognition), unigram-overlap ROUGE-1
for summaries, and accuracy (option scoring) for every other family.
"""

from __future__ import annotations

import math
import re
import reprlib
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..restructurer.render import format_options
from ..restructurer.templates import PROMPT, RenderError, answer_value, load_eval_prompts, rule_options, substitute
from ..rng import derive_rng
from ..signal_model import FieldError, SchemaError, read, read_json, required
from .mc import score_mc
from .ner import eval_two_step_ner, micro_f1
from .scorers import ModelScorer, ask

CLASSIFICATION_SAMPLE_CAP = 5000
GENERATION_SAMPLE_CAP = 2000

FAMILY_METRICS = {"ner": "micro_f1", "summarization": "rouge1"}

_WORD_RE = re.compile(r"[a-z0-9']+")


def rouge1(prediction: str, reference: str) -> float:
    """Unigram overlap F1 after lowercasing and punctuation stripping."""
    pred = _WORD_RE.findall(prediction.lower())
    ref = _WORD_RE.findall(reference.lower())
    if not pred or not ref:
        return 0.0
    ref_counts: dict[str, int] = {}
    for t in ref:
        ref_counts[t] = ref_counts.get(t, 0) + 1
    overlap = 0
    for t in pred:
        if ref_counts.get(t, 0) > 0:
            ref_counts[t] -= 1
            overlap += 1
    precision = overlap / len(pred)
    recall = overlap / len(ref)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def population_std(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


@dataclass(frozen=True)
class EvalReport:
    dataset: str
    metric: str
    per_prompt: tuple[float, ...]
    avg: float
    max: float
    std: float  # population standard deviation

    def to_record(self) -> dict:
        return {
            "dataset": self.dataset,
            "metric": self.metric,
            "per_prompt": list(self.per_prompt),
            "avg": self.avg,
            "max": self.max,
            "std": self.std,
            "std_kind": "population",
        }


def summarize(dataset: str, metric: str, per_prompt: Sequence[float]) -> EvalReport:
    return EvalReport(
        dataset=dataset,
        metric=metric,
        per_prompt=tuple(per_prompt),
        avg=sum(per_prompt) / len(per_prompt),
        max=max(per_prompt),
        std=population_std(per_prompt),
    )


def subsample(records: list, cap: int, seed: int) -> list:
    if len(records) <= cap:
        return list(records)
    rng = derive_rng(seed, "eval_subsample", cap)
    picked = sorted(rng.sample(range(len(records)), cap))
    return [records[i] for i in picked]


def load_prompts(path: str, dataset: str) -> list:
    """The prompts of the JSON list in `path`, which replace `dataset`'s
    set, read through PROMPT (closed). A refused one is named from the set:
    '<dataset>[].answer.kind'."""
    shape = {dataset: required([PROMPT])}
    return read_json(path, object_only=False, build=lambda doc: read({dataset: doc}, shape, closed=True)[dataset])


# an entity-recognition record: its text and its [surface, type] pairs
NER_RECORD = {"text": required(str), "entities": [[str]]}


def read_ner_record(rec: Mapping) -> dict:
    """`rec`'s text and entities, read through NER_RECORD."""
    values = read(rec, NER_RECORD)
    for pair in values["entities"]:
        if len(pair) != 2:
            raise FieldError(f"'entities[]' must be a [surface, type] pair, got {reprlib.repr(pair)}")
    return values


# a record of an option-scored set: the candidate answers it lists, if any
OPTION_RECORD = {"options": [str]}


def read_option_record(rec: Mapping) -> Mapping:
    """`rec`, its `options` read through OPTION_RECORD if it has the key."""
    return {**rec, **read(rec, OPTION_RECORD)} if "options" in rec else rec


def record_reader(dataset: str) -> Callable[[Mapping], Mapping] | None:
    """How `eval_dataset` needs each record of `dataset` read, if at all."""
    key = load_eval_prompts()["datasets"].get(dataset, dataset)
    return {"micro_f1": read_ner_record, "accuracy": read_option_record}.get(FAMILY_METRICS.get(key, "accuracy"))


def _at(origin: str | None, render: Callable, *args):
    """`render(*args)`, where a RenderError names `origin`, where the record
    rendered was read, when that is known."""
    try:
        return render(*args)
    except RenderError as exc:
        if origin is None:
            raise
        raise RenderError(f"{origin}: {exc}") from exc


def eval_dataset(
    dataset: str,
    records: list[Mapping],
    scorer: ModelScorer,
    seed: int = 0,
    prompts: list[Mapping] | None = None,
    origins: Sequence[str] | None = None,
) -> EvalReport:
    """Score `records`, read by `record_reader(dataset)`, with the dataset's
    bundled 5-prompt set, or with `prompts` (`load_prompts`) in its place,
    by the metric of the dataset's prompt family. A record a prompt cannot
    render is a RenderError that names its origin, such as 'data.jsonl:4',
    if `origins` lists one per record."""
    doc = load_eval_prompts()
    key = doc["datasets"].get(dataset, dataset)
    metric = FAMILY_METRICS.get(key, "accuracy")
    if prompts is None:
        if key not in doc["sets"]:
            raise SchemaError(f"no evaluation prompt set for dataset '{dataset}'")
        prompts = doc["sets"][key]
    if len(prompts) != 5:
        raise SchemaError(f"prompt set '{dataset}' must have 5 prompts, has {len(prompts)}")
    cap = GENERATION_SAMPLE_CAP if metric in ("rouge1", "micro_f1") else CLASSIFICATION_SAMPLE_CAP
    picked = subsample(range(len(records)), cap, seed)
    records, origins = [records[i] for i in picked], [origins[i] if origins else None for i in picked]
    if not records:
        raise SchemaError(f"no records for dataset '{dataset}'")

    if metric == "micro_f1":
        type_prompts = doc["sets"].get("ner_type")
        if not type_prompts or len(type_prompts) != len(prompts):
            raise SchemaError("entity-typing prompt set missing or mismatched")
        type_labels = sorted({t for rec in records for _, t in rec["entities"]})
        if not type_labels:
            raise SchemaError("entity records carry no type labels")
        if len(type_labels) < 2:
            raise SchemaError(
                f"entity records carry one type label ({type_labels[0]!r}); "
                "entity typing needs at least two type labels"
            )
        per_prompt: list[float] = []
        for i, prompt in enumerate(prompts):
            find, typing = prompt["source"], type_prompts[i]["source"]
            pairs = []
            for rec, origin in zip(records, origins):
                predicted = _at(origin, eval_two_step_ner, rec["text"], scorer, type_labels, find, typing)
                pairs.append((predicted, [(s, t) for s, t in rec["entities"]]))
            per_prompt.append(micro_f1(pairs))
        return summarize(dataset, metric, per_prompt)

    # each record's fields as prompt bindings; a null one is absent
    views = [{k: str(v) for k, v in rec.items() if v is not None} for rec in records]

    if metric == "rouge1":
        # the length hint is the dataset-level average summary length
        lengths = [len(view.get("summary", "").split()) for view in views]
        avg_length = str(max(1, round(sum(lengths) / len(lengths))))
        for view in views:
            view["avg_length"] = avg_length

    per_prompt = []
    for prompt in prompts:
        if metric == "rouge1":
            sources = [_at(origin, substitute, prompt["source"], view) for view, origin in zip(views, origins)]
            # a record whose request failed scores its summary against ""
            replies = ask(scorer, [[("generate", source)] for source in sources])
            total = 0.0
            for view, reply in zip(views, replies):
                total += rouge1(reply[0] if reply is not None else "", view.get("summary", ""))
            per_prompt.append(total / len(records))
            continue

        rule = prompt["answer"]
        if not rule:  # a record's gold is its rendered target; their distinct values, the label space
            golds = [_at(origin, substitute, prompt["target"], view) for view, origin in zip(views, origins)]
            space = list(dict.fromkeys(filter(None, golds)))
        correct = 0
        for number, (rec, view, origin) in enumerate(zip(records, views, origins)):
            if rule:
                options, gold = rule_options(rule), _at(origin, answer_value, rule, view)
            else:
                options, gold = rec.get("options") or space, golds[number]
            if len(options) < 2 or gold not in options:
                message = f"dataset '{dataset}': record options unusable (gold={gold!r}, options={options})"
                raise SchemaError(f"{origin}: {message}" if origin else message)
            source = _at(origin, substitute, prompt["source"], {
                **view,
                "choices_with_or": format_options(options, with_or=True),
                "choices_without_or": format_options(options, with_or=False),
            })
            index = score_mc(source, options, scorer)
            if index is not None and options[index] == gold:
                correct += 1
        per_prompt.append(correct / len(records))
    return summarize(dataset, metric, per_prompt)
