"""Mixing: caps, composition constraints, curriculum stages, splits.

An entry's weight only switches it on or off: weight 0 renders nothing, and
any positive weight renders the entry's whole capped pool. Weights are not
sampling proportions; caps set each entry's size. Splits are assigned
per tuple, never per example, so no tuple's renderings leak across train and
validation. Each stream is shuffled by one Fisher-Yates pass with the global
seed over job order: entry by entry, each entry's capped tuples in order. That
order is fixed by the spec and the tuple files, so bundles are byte-identical
across runs and across any number of render processes.

Record lines never gather in the parent. Each render shard appends its lines
to its own spill file, an unlinked temporary file, and returns only where
each line ends; a stream lists job numbers, and `Spill.line_of` reads a
job's line back when the bundle is written. The parent's memory thus does
not grow with the bundle, and no spill file outlives the process, however
it ends. The command that renders owns the `Spill` (`shards.py`) and closes
it by leaving its `with` block. `restructure` renders through `render_jobs` too.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Mapping, Sequence

from .dataset_io import Record, encode_record
from .restructurer.pools import DistractorPools
from .restructurer.render import ConfigError, RenderError, render_with_selected, tuple_key
from .restructurer.templates import PromptRegistry
from .rng import derive_rng
from .shards import Spill
from .signal_model import MixEntry, MixSpec, SignalTuple


@dataclass
class MixResult:
    """What `mix` rendered into its caller's `Spill`."""

    # per (stage, split), the (signal type, job number) of each example in
    # file order; `Spill.line_of` reads a job's record line
    examples: dict[tuple[int, str], list[Record]]
    warnings: list[str]
    errors: list[str]


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
    tuples: Sequence[SignalTuple], spec: MixSpec, tuple_keys: Sequence[str]
) -> dict[str, str]:
    """Tuple-level split map: a seeded shuffle of the distinct tuples with the
    first floor(ratio * n) going to validation. Exact quota, and a tuple's
    split never depends on which entry renders it. `tuple_keys` holds the
    `tuple_key` of each tuple, in order."""
    keys = list(dict.fromkeys(tuple_keys))
    if spec.split_ratio <= 0:
        return {key: "train" for key in keys}
    keys.sort()
    rng = derive_rng(spec.global_seed, "split", spec.name)
    rng.shuffle(keys)
    n_validation = int(len(keys) * spec.split_ratio)
    return {key: ("validation" if i < n_validation else "train") for i, key in enumerate(keys)}


Job = tuple[int, MixEntry, SignalTuple, str, str]  # (entry index, entry, tuple, tuple key, split)
# per job, the end of its record line in the shard's spill file (a job that
# rendered nothing ends where the one before it did); and per entry the
# position of its first failing job and the error it raised
ShardResult = tuple[array, dict[int, tuple[int, Exception]]]


def _render_shard(jobs: Sequence[Job], positions, spill: BinaryIO, registry, pools, seed: int) -> ShardResult:
    """Render the jobs at `positions` in order, encode each example as it
    renders and append its line to `spill`. An entry renders nothing more
    after its first render or config error."""
    ends = array("Q")
    errors: dict[int, tuple[int, Exception]] = {}
    end = 0
    for position in positions:
        index, entry, tup, key, split = jobs[position]
        if index not in errors:
            try:
                end += spill.write(encode_record(render_with_selected(
                    registry, tup, entry.family, pools, seed, entry.template_group, key, split
                )))
            except (RenderError, ConfigError) as exc:
                errors[index] = (position, exc)
        ends.append(end)
    return ends, errors


def render_jobs(jobs: Sequence[Job], spill: Spill, registry, pools, seed: int) -> dict[int, Exception]:
    """Render `jobs` into `spill` (`Spill.run`), whose shards inherit the
    pools. Returns each failed entry's earliest error: the one a single
    process rendering every job meets."""
    results = spill.run(len(jobs), lambda positions, file: _render_shard(
        jobs, positions, file, registry, pools, seed), "render")
    first_errors: dict[int, tuple[int, Exception]] = {}
    for shard_errors in results:
        for index, (position, exc) in shard_errors.items():
            if index not in first_errors or position < first_errors[index][0]:
                first_errors[index] = (position, exc)
    return {index: exc for index, (_, exc) in first_errors.items()}


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


def mix(tuples: Iterable[SignalTuple], spec: MixSpec, registry: PromptRegistry, spill: Spill) -> MixResult:
    """Render capped, staged, split example streams for every spec entry.
    The record lines go to `spill`, which the caller owns and closes."""
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
    seed = spec.global_seed
    keys = [tuple_key(tup) for tup in all_tuples]
    splits = split_assignments(all_tuples, spec, keys)
    # by identity: tuples hold a dict and do not hash, and all_tuples keeps
    # every one alive while this map is in use
    key_of = {id(tup): key for tup, key in zip(all_tuples, keys)}

    jobs = [(index, entry, tup, key := key_of[id(tup)], splits[key])
            for index, entry in enumerate(spec.entries) for tup in capped.get(index, [])]
    errors = render_jobs(jobs, spill, registry, pools, seed)
    # one record per job, listed again by each stage that holds its entry
    records = [(tup.signal_type, job) for job, (_, _, tup, _, _) in enumerate(jobs)]
    examples: dict[tuple[int, str], list[Record]] = {}
    for stage, members in plan:
        members = set(members) - errors.keys()
        buckets: dict[str, list[Record]] = {"train": [], "validation": []}
        for (index, _, _, _, split), record in zip(jobs, records):
            if index in members:
                buckets[split].append(record)
        for split, stream in buckets.items():
            rng = derive_rng(seed, "shuffle", spec.name, stage, split)
            rng.shuffle(stream)
            if stream or spec.split_ratio > 0 or split == "train":
                examples[(stage, split)] = stream
    messages = [f"{_entry_id(spec.entries[index], index)}: {errors[index]}" for index in sorted(errors)]
    return MixResult(examples, warnings, messages)
