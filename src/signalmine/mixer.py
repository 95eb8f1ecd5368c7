"""Mixing: caps, composition constraints, curriculum stages, splits.

An entry's weight only switches it on or off: weight 0 renders nothing, and
any positive weight renders the entry's whole capped pool. Weights are not
sampling proportions; caps set each entry's size. Splits are assigned
per tuple, never per example, so no tuple's renderings leak across train and
validation. Each stream is shuffled by one Fisher-Yates pass with the global
seed over job order: entry by entry, each entry's capped tuples in order. That
order is fixed by the spec and the tuple files, so bundles are byte-identical
across runs and across any number of render processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .dataset_io import Record, encode_record
from .restructurer.pools import DistractorPools
from .restructurer.render import ConfigError, RenderError, render_with_selected, tuple_key
from .restructurer.templates import PromptRegistry
from .rng import derive_rng
from .shards import run_shards, shard_plan, worker_count
from .signal_model import MixEntry, MixSpec, SignalTuple


@dataclass
class MixResult:
    # per (stage, split), the (signal type, record line) of each example in
    # file order
    examples: dict[tuple[int, str], list[Record]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _entry_id(entry: MixEntry, index: int) -> str:
    group = f":{entry.template_group}" if entry.template_group else ""
    return f"{index}:{entry.signal_type}:{entry.family}{group}"


def _sample_keep_order(items: Sequence, k: int, rng: random.Random) -> list:
    if k >= len(items):
        return list(items)
    picked = sorted(rng.sample(range(len(items)), k))
    return [items[i] for i in picked]


def _category_of(tup: SignalTuple, key: str) -> str:
    return tup.extraction_meta.get(key, "")


def apply_caps(
    tuples_by_signal: Mapping[str, Sequence[SignalTuple]],
    spec: MixSpec,
    eligible=None,
) -> tuple[dict[int, list[SignalTuple]], list[str]]:
    """Per-entry pools after per-category caps, composition constraints, and
    the global cap. Shortfalls warn, they never fail. `eligible(entry, tuple)`
    optionally restricts an entry's population (e.g. to renderable tuples)."""
    out: dict[int, list[SignalTuple]] = {}
    warnings: list[str] = []
    covered = {e.signal_type for e in spec.entries}
    uncovered = sorted(set(tuples_by_signal) - covered)
    if uncovered:
        warnings.append(f"signals present but not covered by any entry: {', '.join(uncovered)}")
    for index, entry in enumerate(spec.entries):
        eid = _entry_id(entry, index)
        if entry.weight == 0:
            out[index] = []
            continue
        pool = list(tuples_by_signal.get(entry.signal_type, ()))
        if eligible is not None:
            pool = [t for t in pool if eligible(entry, t)]
        rng = derive_rng(spec.global_seed, "cap", spec.name, eid)

        if entry.composition:
            key = entry.composition_key or "category"
            chosen: list[SignalTuple] = []
            for value, want in sorted(entry.composition.items()):
                bucket = [t for t in pool if _category_of(t, key) == value]
                if len(bucket) < want:
                    warnings.append(
                        f"{eid}: composition shortfall for {key}={value}: {len(bucket)} < {want}"
                    )
                chosen.extend(_sample_keep_order(bucket, want, rng))
            pool = chosen

        if entry.per_category_cap is not None:
            buckets: dict[str, list[SignalTuple]] = {}
            for tup in pool:
                buckets.setdefault(_category_of(tup, "category"), []).append(tup)
            capped: list[SignalTuple] = []
            for value in sorted(buckets):
                capped.extend(_sample_keep_order(buckets[value], entry.per_category_cap, rng))
            pool = capped

        if entry.cap is not None:
            if len(pool) < entry.cap:
                warnings.append(f"{eid}: cap shortfall: {len(pool)} available < cap {entry.cap}")
            pool = _sample_keep_order(pool, entry.cap, rng)
        out[index] = pool
    return out, warnings


def stage_plan(spec: MixSpec) -> list[tuple[int, list[int]]]:
    """Ordered (stage, entry indexes); multi-stage curricula start with the
    multiple-choice entries and widen to the union."""
    stages = spec.stages
    if len(stages) == 1:
        return [(1, list(range(len(spec.entries))))]
    first = [i for i, e in enumerate(spec.entries) if e.stage == 1]
    if any(spec.entries[i].family == "generation" for i in first):
        raise ConfigError("stage 1 of a multi-stage curriculum cannot contain generation entries")
    if not any(e.family == "multiple_choice" for e in spec.entries):
        raise ConfigError("multi-stage curriculum declared but no multiple-choice entries exist")
    plan = []
    for stage in stages:
        members = [i for i, e in enumerate(spec.entries) if e.stage <= stage]
        plan.append((stage, members))
    return plan


def split_assignments(
    tuples: Sequence[SignalTuple], spec: MixSpec, tuple_keys: Sequence[str] | None = None
) -> dict[str, str]:
    """Tuple-level split map: a seeded shuffle of the distinct tuples with the
    first floor(ratio * n) going to validation. Exact quota, and a tuple's
    split never depends on which entry renders it. `tuple_keys`, when given,
    holds the `tuple_key` of each tuple, in order."""
    if tuple_keys is None:
        tuple_keys = [tuple_key(tup) for tup in tuples]
    keys = list(dict.fromkeys(tuple_keys))
    if spec.split_ratio <= 0:
        return {key: "train" for key in keys}
    keys.sort()
    rng = derive_rng(spec.global_seed, "split", spec.name)
    rng.shuffle(keys)
    n_validation = int(len(keys) * spec.split_ratio)
    return {key: ("validation" if i < n_validation else "train") for i, key in enumerate(keys)}


Job = tuple[int, MixEntry, SignalTuple, str]  # (entry index, entry, tuple, tuple key)
# per job, its record line (None where it rendered nothing); and per entry the
# position of its first failing job and the error message
ShardResult = tuple[list[bytes | None], dict[int, tuple[int, str]]]


def _render_shard(jobs: Sequence[Job], registry, pools, seed: int, splits) -> ShardResult:
    """Render `jobs` in order and encode each example as it renders. An
    entry renders nothing more after its first render or config error."""
    lines: list[bytes | None] = []
    errors: dict[int, tuple[int, str]] = {}
    for position, (index, entry, tup, key) in enumerate(jobs):
        line = None
        if index not in errors:
            try:
                line = encode_record(render_with_selected(
                    registry, tup, entry.family, pools, seed, entry.template_group, key, splits[key]
                ))
            except (RenderError, ConfigError) as exc:
                errors[index] = (position, f"{_entry_id(entry, index)}: {exc}")
        lines.append(line)
    return lines, errors


def _render_sharded(
    jobs: list[Job], plan: list[list[int]], *context
) -> tuple[list[bytes | None], dict[int, str]]:
    """`_render_shard` over `jobs`, one shard of `plan` per process
    (`run_shards`): each child inherits the pools and the split map. Returns
    each job's record line (None where it rendered nothing), and each failed
    entry's earliest error, which is the one a single process rendering
    every job would report."""
    results = run_shards(lambda shard: _render_shard([jobs[i] for i in shard], *context), plan, "render")
    lines: list[bytes | None] = [None] * len(jobs)
    first_errors: dict[int, tuple[int, str]] = {}
    for shard, (shard_lines, shard_errors) in zip(plan, results):
        for position, line in zip(shard, shard_lines):
            lines[position] = line
        for index, (position, message) in shard_errors.items():
            position = shard[position]
            if index not in first_errors or position < first_errors[index][0]:
                first_errors[index] = (position, message)
    errors = {index: message for index, (_, message) in first_errors.items()}
    return lines, errors


def _check_renderable(entry: MixEntry, index: int, registry: PromptRegistry) -> None:
    """Raise `ConfigError` if no tuple of `entry` could ever render, rather
    than let the eligibility filter drop the whole entry without a word."""
    eid = _entry_id(entry, index)
    if entry.family == "cloze":
        if entry.signal_type != "plain_text_cloze":
            raise ConfigError(f"{eid}: the cloze family renders only plain_text_cloze tuples")
    elif not registry.get(entry.signal_type, entry.family, entry.template_group):
        raise ConfigError(
            f"{eid}: no templates for ({entry.signal_type}, {entry.family}, group={entry.template_group})"
        )


def mix(
    tuples: Iterable[SignalTuple],
    spec: MixSpec,
    registry: PromptRegistry,
) -> MixResult:
    """Render capped, staged, split example streams for every spec entry."""
    for index, entry in enumerate(spec.entries):
        if entry.weight > 0:
            _check_renderable(entry, index, registry)
    all_tuples = list(tuples)
    by_signal: dict[str, list[SignalTuple]] = {}
    for tup in all_tuples:
        by_signal.setdefault(tup.signal_type, []).append(tup)
    pools = DistractorPools.build(all_tuples)

    def renderable(entry: MixEntry, tup: SignalTuple) -> bool:
        if entry.family == "cloze":
            return tup.signal_type == "plain_text_cloze"
        return bool(registry.eligible(entry.signal_type, entry.family, entry.template_group, tup))

    capped, warnings = apply_caps(by_signal, spec, eligible=renderable)
    plan = stage_plan(spec)
    result = MixResult(warnings=warnings)
    seed = spec.global_seed
    keys = [tuple_key(tup) for tup in all_tuples]
    splits = split_assignments(all_tuples, spec, keys)
    # by identity: tuples hold a dict and do not hash, and all_tuples keeps
    # every one alive while this map is in use
    key_of = {id(tup): key for tup, key in zip(all_tuples, keys)}

    jobs = [(index, entry, tup, key_of[id(tup)])
            for index, entry in enumerate(spec.entries) for tup in capped.get(index, [])]
    lines, errors = _render_sharded(jobs, shard_plan(len(jobs), worker_count()), registry, pools, seed, splits)
    result.errors.extend(errors[index] for index in sorted(errors))

    merged = [(index, splits[key], (tup.signal_type, line))
              for (index, _, tup, key), line in zip(jobs, lines) if index not in errors]
    for stage, members in plan:
        members = set(members)
        buckets: dict[str, list[Record]] = {"train": [], "validation": []}
        for index, split, record in merged:
            if index in members:
                buckets[split].append(record)
        for split, stream in buckets.items():
            rng = derive_rng(seed, "shuffle", spec.name, stage, split)
            rng.shuffle(stream)
            if stream or spec.split_ratio > 0 or split == "train":
                result.examples[(stage, split)] = stream
    return result
