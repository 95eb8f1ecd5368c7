"""Mixing: caps, composition constraints, curriculum stages, splits.

An entry's weight only switches it on or off: weight 0 renders nothing, and
any positive weight renders the entry's whole capped pool. Weights are not
sampling proportions; caps set each entry's size. Splits are assigned
per tuple, never per example, so no tuple's renderings leak across train and
validation. The final shuffle is one Fisher-Yates pass with the global seed
over a canonical pre-order, which keeps bundles byte-identical across runs.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
from dataclasses import dataclass, field
from typing import BinaryIO, Hashable, Iterable, Mapping, Sequence

from .dataset_io import Record, encode_record
from .restructurer.pools import DistractorPools
from .restructurer.render import ConfigError, RenderError, render_with_selected, tuple_key
from .restructurer.templates import PromptRegistry
from .rng import derive_rng
from .signal_model import MixEntry, MixSpec, PromptedExample, SignalTuple


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
    keys = []
    seen: set[str] = set()
    for key in tuple_keys:
        if key not in seen:
            seen.add(key)
            keys.append(key)
    if spec.split_ratio <= 0:
        return {key: "train" for key in keys}
    keys.sort()
    rng = derive_rng(spec.global_seed, "split", spec.name)
    rng.shuffle(keys)
    n_validation = int(len(keys) * spec.split_ratio)
    return {key: ("validation" if i < n_validation else "train") for i, key in enumerate(keys)}


def _canonical_order(ex: PromptedExample) -> tuple:
    return (ex.signal_type, ex.source_doc, ex.template_id, ex.target, ex.source)


def worker_count() -> int:
    """How many render workers `mix` uses: one per CPU this process may run
    on, or 1 where the platform cannot report that set or fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def shard_plan(groups: Sequence[Hashable], workers: int) -> list[list[int]]:
    """The job positions of each shard, given the group of each job: one
    shard per worker, but no more shards than groups, and at least one.
    Whole groups are dealt round-robin in the order of their first jobs, so
    each shard gets its share of every entry (entries differ in cost per
    render, and equal runs of the job list do not), and the jobs of one
    group all render in one shard."""
    first_seen = dict.fromkeys(groups)
    shards = max(1, min(workers, len(first_seen)))
    shard_of = {group: i % shards for i, group in enumerate(first_seen)}
    plan: list[list[int]] = [[] for _ in range(shards)]
    for position, group in enumerate(groups):
        plan[shard_of[group]].append(position)
    return plan


Job = tuple[int, MixEntry, SignalTuple]  # (entry index, entry, tuple)
# per job, its example's rank in the shard's canonical order and its record
# line (None where it rendered nothing); and per entry the position of its
# first failing job and the error message
ShardResult = tuple[list[tuple[int, bytes] | None], dict[int, tuple[int, str]]]


def _render_shard(jobs: Sequence[Job], registry, pools, seed: int, key_of, splits) -> ShardResult:
    """Render `jobs` in order, then rank the examples by `_canonical_order`
    and encode each one. An entry renders nothing more after its first
    render or config error."""
    examples: list[PromptedExample | None] = []
    errors: dict[int, tuple[int, str]] = {}
    for position, (index, entry, tup) in enumerate(jobs):
        example = None
        if index not in errors:
            key = key_of[id(tup)]
            try:
                example = render_with_selected(
                    registry, tup, entry.family, pools, seed, entry.template_group, key, splits[key]
                )
            except (RenderError, ConfigError) as exc:
                errors[index] = (position, f"{_entry_id(entry, index)}: {exc}")
        examples.append(example)
    order = sorted((i for i, ex in enumerate(examples) if ex is not None),
                   key=lambda i: _canonical_order(examples[i]))
    ranked: list[tuple[int, bytes] | None] = [None] * len(jobs)
    for rank, i in enumerate(order):
        ranked[i] = (rank, encode_record(examples[i]))
        examples[i] = None  # its line replaces it: the shard holds one or the other
    return ranked, errors


def _fork(work) -> tuple[int, BinaryIO]:
    """Run `work()` in a forked child: its pid, and a pipe on which the
    child pickles `("ok", result)`, or `("raised", exception)`."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = ("ok", work())
            except Exception as exc:  # noqa: BLE001 - re-raised in the parent
                outcome = ("raised", exc)
            with open(write_fd, "wb") as fh:
                pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            # no atexit handlers, no flush of buffers copied from the parent
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _render_sharded(
    jobs: list[Job], plan: list[list[int]], *context
) -> tuple[list[tuple[int, bytes] | None], dict[int, str]]:
    """`_render_shard` over `jobs`, one shard of `plan` per process: the
    first shard renders here, each other one in a forked child that inherits
    the pools and the split map. Returns each job's rank in its shard and
    record line (None where it rendered nothing), and each failed entry's
    earliest error, which is the one a single process rendering every job
    would report.

    A child that ends without a complete result raises `ChildProcessError`;
    any other exception in a child is raised here. However this function
    ends, no child is left running or unreaped.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for shard in plan[1:]:
            children.append(_fork(lambda shard=shard: _render_shard([jobs[i] for i in shard], *context)))
        results = [_render_shard([jobs[i] for i in plan[0]], *context)]
        while children:
            pid, pipe = children[0]
            try:
                outcome = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                outcome = None
            pipe.close()
            children.pop(0)
            _, status = os.waitpid(pid, 0)
            if outcome is None:
                raise ChildProcessError(
                    f"render worker {pid} exited without a complete result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
            kind, value = outcome
            if kind == "raised":
                raise value
            results.append(value)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    ranked: list[tuple[int, bytes] | None] = [None] * len(jobs)
    first_errors: dict[int, tuple[int, str]] = {}
    for shard, (shard_ranked, shard_errors) in zip(plan, results):
        for position, item in zip(shard, shard_ranked):
            ranked[position] = item
        for index, (position, message) in shard_errors.items():
            position = shard[position]
            if index not in first_errors or position < first_errors[index][0]:
                first_errors[index] = (position, message)
    errors = {index: message for index, (_, message) in first_errors.items()}
    return ranked, errors


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

    jobs = [(index, entry, tup) for index, entry in enumerate(spec.entries) for tup in capped.get(index, [])]
    groups = [(tup.signal_type, tup.source_doc) for _, _, tup in jobs]
    ranked, errors = _render_sharded(jobs, shard_plan(groups, worker_count()),
                                     registry, pools, seed, key_of, splits)
    result.errors.extend(errors[index] for index in sorted(errors))

    # Examples that tie on (signal type, source doc), the head of
    # `_canonical_order`, rendered in one shard, whose rank orders them; so
    # this is `_canonical_order` over the jobs, and each bucket keeps it.
    order = sorted((i for i, (index, _, _) in enumerate(jobs) if index not in errors),
                   key=lambda i: (*groups[i], ranked[i][0]))
    merged = [(jobs[i][0], splits[key_of[id(jobs[i][2])]], (groups[i][0], ranked[i][1])) for i in order]
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
