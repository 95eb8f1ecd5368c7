"""Mixing: caps, composition constraints, curriculum stages, splits.

Every entry renders its whole capped pool: caps, per-category caps and
compositions set each entry's size, and an entry is left out of a mix by
leaving it out of the spec. Splits are assigned per tuple, never per
example, so no tuple's renderings leak across train and validation. Each
stream is shuffled by one Fisher-Yates pass with the run's seed over job
order: entry by entry, each entry's capped tuples in order. That order is
fixed by the spec and the tuple files, so bundles are byte-identical across
runs and across any number of render processes.

Neither tuples nor record lines gather in the parent. It scans the tuple
files once and keeps per tuple its line's place, signal type, key and
capped-on values (`store.TupleStore`), per entry the numbers of the tuples it
can render, and per job 6 bytes: its entry and tuple number. A render shard
reads and decodes its jobs' lines and puts their record lines into its spill
file (`shards.Spill`); `Spill.line_of` reads a job's line back when the bundle
is written. `restructure` renders through `render_jobs` too.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

from .dataset_io import Record, encode_record
from .restructurer.pools import DistractorPools
from .restructurer.render import ConfigError, RenderError, render_with_selected
from .restructurer.templates import PromptRegistry
from .rng import derive_rng
from .shards import Spill, earliest_failures
from .signal_model import MixEntry, MixSpec, SignalTuple
from .store import SIGNALS, TupleStore


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


def apply_caps(
    store: TupleStore, eligible: Mapping[int, Sequence[int]], spec: MixSpec, seed: int
) -> tuple[dict[int, array], list[str]]:
    """Per-entry pools after per-category caps, composition constraints, and
    the global cap: numbers of the tuples in `store` that `eligible` lists for
    each entry, keyed by its index. Shortfalls warn, they never fail."""
    out: dict[int, array] = {}
    warnings: list[str] = []
    covered = {e.signal_type for e in spec.entries}
    uncovered = sorted({SIGNALS[code] for code in set(store.signal)} - covered)
    if uncovered:
        warnings.append(f"signals present but not covered by any entry: {', '.join(uncovered)}")
    for index, entry in enumerate(spec.entries):
        eid = _entry_id(entry, index)
        pool = eligible[index]
        rng = derive_rng(seed, "cap", spec.name, eid)

        if entry.composition:
            key = entry.composition_key or "category"
            chosen: list[int] = []
            for value, want in sorted(entry.composition.items()):
                bucket = [t for t in pool if store.meta(key, t) == value]
                if len(bucket) < want:
                    warnings.append(
                        f"{eid}: composition shortfall for {key}={value}: {len(bucket)} < {want}"
                    )
                chosen.extend(_sample_keep_order(bucket, want, rng))
            pool = chosen

        if entry.per_category_cap is not None:
            buckets: dict[str, list[int]] = {}
            for t in pool:
                buckets.setdefault(store.meta("category", t), []).append(t)
            capped: list[int] = []
            for value in sorted(buckets):
                capped.extend(_sample_keep_order(buckets[value], entry.per_category_cap, rng))
            pool = capped

        if entry.cap is not None:
            if len(pool) < entry.cap:
                warnings.append(f"{eid}: cap shortfall: {len(pool)} available < cap {entry.cap}")
            pool = _sample_keep_order(pool, entry.cap, rng)
        out[index] = array("I", pool)
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


def split_assignments(keys: Sequence[int], spec: MixSpec, seed: int) -> bytes:
    """Per tuple, 1 if it goes to validation: a seeded shuffle of the distinct
    tuples sends the first floor(ratio * n) there. Exact quota, and a tuple's
    split never depends on which entry renders it. `keys` holds each tuple's
    `tuple_key` as an integer, which sorts as its fixed-width hex form does."""
    if spec.split_ratio <= 0:
        return bytes(len(keys))
    distinct = sorted(set(keys))
    rng = derive_rng(seed, "split", spec.name)
    rng.shuffle(distinct)
    validation = set(distinct[:int(len(distinct) * spec.split_ratio)])
    return bytes(key in validation for key in keys)


# (entries, per job its entry's index, per job its tuple's number, per tuple 1 if in validation)
Jobs = tuple[Sequence[MixEntry], Sequence[int], Sequence[int], bytes]


def _render_shard(jobs: Jobs, store: TupleStore, positions, put, registry, pools, seed) -> dict:
    """Render the jobs at `positions` in order, each from its tuple's line read
    here, and `put` each one's record line, or `b""` for a job not rendered.
    An entry renders nothing more after its first render or config error;
    per failed entry, its job's position and that error (`earliest_failures`)."""
    errors: dict[int, tuple[int, Exception]] = {}
    entries, entry_of, number_of, validation = jobs
    for position in positions:
        index, line = entry_of[position], b""
        if index not in errors:
            entry, number = entries[index], number_of[position]
            try:
                line = encode_record(render_with_selected(
                    registry, store.tuple(number), entry.family, pools, seed, entry.template_group,
                    store.key_of(number), "validation" if validation[number] else "train"
                ))
            except (RenderError, ConfigError) as exc:
                errors[index] = (position, exc)
        put(line)
    return errors


def render_jobs(jobs: Jobs, store: TupleStore, spill: Spill, registry, pools, seed: int) -> dict[int, Exception]:
    """Render `jobs` into `spill` (`Spill.run`), whose shards inherit the
    pools and `store`. Returns each failed entry's earliest error, the one a
    single process rendering every job meets, in the order of their jobs."""
    return earliest_failures(spill.run(len(jobs[1]), lambda positions, put: _render_shard(
        jobs, store, positions, put, registry, pools, seed), "render"))


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


def mix(store: TupleStore, spec: MixSpec, registry: PromptRegistry, spill: Spill, seed: int) -> MixResult:
    """Render capped, staged, split example streams for every spec entry from
    the tuples `store` scans, every draw derived from `seed`. The lines go to
    `spill`; the caller closes both."""
    for index, entry in enumerate(spec.entries):
        _check_renderable(entry, index, registry)
    # per entry, the numbers of the tuples it can render
    eligible = {index: array("I") for index in range(len(spec.entries))}
    entries_of: dict[str, list[int]] = {}
    for index in eligible:
        entries_of.setdefault(spec.entries[index].signal_type, []).append(index)

    def renderable(entry: MixEntry, tup: SignalTuple) -> bool:
        if entry.family == "cloze":
            return tup.signal_type == "plain_text_cloze"
        return bool(registry.eligible(entry.signal_type, entry.family, entry.template_group, tup))

    meta_keys = {e.composition_key or "category" for e in spec.entries if e.composition}
    meta_keys |= {"category" for e in spec.entries if e.per_category_cap}
    pools = DistractorPools()
    for number, tup in enumerate(store.scan(meta_keys)):
        pools.observe(tup)
        for index in entries_of.get(tup.signal_type, ()):
            if renderable(spec.entries[index], tup):
                eligible[index].append(number)
    tup = None  # render_jobs holds no tuple but the one it renders
    capped, warnings = apply_caps(store, eligible, spec, seed)
    plan = stage_plan(spec)
    entry_of = array("H", [index for index, pool in capped.items() for _ in pool])
    number_of = array("I", [t for pool in capped.values() for t in pool])
    validation = split_assignments(store.key, spec, seed)
    errors = render_jobs((spec.entries, entry_of, number_of, validation), store, spill, registry, pools, seed)
    # one record per job, listed again by each stage that holds its entry
    records = [(store.signal_of(t), job) for job, t in enumerate(number_of)]
    examples: dict[tuple[int, str], list[Record]] = {}
    for stage, members in plan:
        members = set(members) - errors.keys()
        buckets: dict[str, list[Record]] = {"train": [], "validation": []}
        for record, index, t in zip(records, entry_of, number_of):
            if index in members:
                buckets["validation" if validation[t] else "train"].append(record)
        for split, stream in buckets.items():
            rng = derive_rng(seed, "shuffle", spec.name, stage, split)
            rng.shuffle(stream)
            if stream or spec.split_ratio > 0 or split == "train":
                examples[(stage, split)] = stream
    messages = [f"{_entry_id(spec.entries[index], index)}: {errors[index]}" for index in sorted(errors)]
    return MixResult(examples, warnings, messages)
