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
each line lies; a stream lists job numbers, and `Spill.line_of` reads a
job's line back when the bundle is written. The parent's memory thus does
not grow with the bundle, and no spill file outlives the process, however
it ends. `restructure` renders through `render_jobs` too.
"""

from __future__ import annotations

import os
import random
import tempfile
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Mapping, Sequence

from .dataset_io import Record, encode_record
from .restructurer.pools import DistractorPools
from .restructurer.render import ConfigError, RenderError, render_with_selected, tuple_key
from .restructurer.templates import PromptRegistry
from .rng import derive_rng
from .shards import run_shards, shard_plan, worker_count
from .signal_model import MixEntry, MixSpec, SignalTuple


# bytes a render shard buffers before it writes to its spill file
_SPILL_BUFFER = 1 << 16


class Spill:
    """The record lines of one `mix`: one unlinked file per render shard in
    `directory` (the system's temporary directory if None), and where in
    them each job's line lies. The files have no name from the start, so
    none is left on disk on any exit path; `close` frees their space and
    descriptors."""

    def __init__(self, directory: str | os.PathLike | None, shards: int, jobs: int):
        self.files: list[BinaryIO] = []
        try:
            for _ in range(shards):
                self.files.append(tempfile.TemporaryFile(buffering=_SPILL_BUFFER, dir=directory))
        except BaseException:
            self.close()
            raise
        # per job, the descriptor of its file and its line's offset and length
        self._fds = array("i", bytes(4 * jobs))
        self._offsets = array("Q", bytes(8 * jobs))
        self._lengths = array("Q", bytes(8 * jobs))

    def place(self, shard: int, positions: Sequence[int], spans: array) -> None:
        """Record that the jobs at `positions` wrote the lines at `spans`
        (offset, length pairs, in order) to the file of `shard`."""
        fd = self.files[shard].fileno()
        for position, offset, length in zip(positions, spans[0::2], spans[1::2]):
            self._fds[position] = fd
            self._offsets[position] = offset
            self._lengths[position] = length

    def line_of(self, job: int) -> bytes:
        """The record line job number `job` rendered."""
        return os.pread(self._fds[job], self._lengths[job], self._offsets[job])

    def close(self) -> None:
        for file in self.files:
            file.close()


@dataclass
class MixResult:
    """What `mix` rendered. Its spill files stay open until the end of the
    `with` block it is used in, or `spill.close()`."""

    # per (stage, split), the (signal type, job number) of each example in
    # file order; `spill.line_of` reads a job's record line
    examples: dict[tuple[int, str], list[Record]]
    warnings: list[str]
    errors: list[str]
    spill: Spill

    def __enter__(self) -> "MixResult":
        return self

    def __exit__(self, *exc_info) -> None:
        self.spill.close()


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
# per job, the offset and length of its record line in the shard's spill file
# (length 0 where it rendered nothing); and per entry the position of its
# first failing job and the error it raised
ShardResult = tuple[array, dict[int, tuple[int, Exception]]]


def _render_shard(jobs: Sequence[Job], positions, spill: BinaryIO, registry, pools, seed: int, splits) -> ShardResult:
    """Render the jobs at `positions` in order, encode each example as it
    renders and append its line to `spill`. An entry renders nothing more
    after its first render or config error. `spill` is flushed before this
    returns: a forked shard leaves through `os._exit`, which flushes nothing."""
    spans = array("Q")
    errors: dict[int, tuple[int, Exception]] = {}
    offset = 0
    for position in positions:
        index, entry, tup, key = jobs[position]
        length = 0
        if index not in errors:
            try:
                length = spill.write(encode_record(render_with_selected(
                    registry, tup, entry.family, pools, seed, entry.template_group, key, splits[key]
                )))
            except (RenderError, ConfigError) as exc:
                errors[index] = (position, exc)
        spans.append(offset)
        spans.append(length)
        offset += length
    spill.flush()
    return spans, errors


def render_jobs(jobs: Sequence[Job], spill_dir, registry, pools, seed: int,
                splits) -> tuple[Spill, dict[int, Exception]]:
    """Render `jobs` into a new `Spill` in `spill_dir`, which the caller
    closes: one shard per CPU (`run_shards`), each into its own spill file,
    which a child inherits with the pools and splits. Also returns each failed
    entry's earliest error: the one a single process rendering every job meets."""
    plan = shard_plan(len(jobs), worker_count())
    spill = Spill(spill_dir, len(plan), len(jobs))
    try:
        results = run_shards(
            lambda shard: _render_shard(jobs, plan[shard], spill.files[shard], registry, pools, seed, splits),
            range(len(plan)), "render",
        )
        first_errors: dict[int, tuple[int, Exception]] = {}
        for shard, (spans, shard_errors) in enumerate(results):
            spill.place(shard, plan[shard], spans)
            for index, (position, exc) in shard_errors.items():
                if index not in first_errors or position < first_errors[index][0]:
                    first_errors[index] = (position, exc)
    except BaseException:
        spill.close()
        raise
    return spill, {index: exc for index, (_, exc) in first_errors.items()}


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
    spill_dir: str | os.PathLike | None = None,
) -> MixResult:
    """Render capped, staged, split example streams for every spec entry.
    The record lines go to spill files in `spill_dir` (the system's
    temporary directory if None); the caller closes the result."""
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

    jobs = [(index, entry, tup, key_of[id(tup)])
            for index, entry in enumerate(spec.entries) for tup in capped.get(index, [])]
    spill, errors = render_jobs(jobs, spill_dir, registry, pools, seed, splits)
    try:
        # one record per job, listed again by each stage that holds its entry
        records = [(tup.signal_type, job) for job, (_, _, tup, _) in enumerate(jobs)]
        examples: dict[tuple[int, str], list[Record]] = {}
        for stage, members in plan:
            members = set(members) - errors.keys()
            buckets: dict[str, list[Record]] = {"train": [], "validation": []}
            for (index, _, _, key), record in zip(jobs, records):
                if index in members:
                    buckets[splits[key]].append(record)
            for split, stream in buckets.items():
                rng = derive_rng(seed, "shuffle", spec.name, stage, split)
                rng.shuffle(stream)
                if stream or spec.split_ratio > 0 or split == "train":
                    examples[(stage, split)] = stream
    except BaseException:
        spill.close()
        raise
    messages = [f"{_entry_id(spec.entries[index], index)}: {errors[index]}" for index in sorted(errors)]
    return MixResult(examples, warnings, messages, spill)
