"""`mix` renders its jobs in shards, one per CPU, forked, each spilling its
record lines to an unlinked file; and a render builds its RNG only when it
draws. None of it may change a byte of output."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import signal
import tempfile
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from signalmine import cli, mixer, shards
from signalmine.cli import main
from signalmine.dataset_io import write_bundle
from signalmine.restructurer import render as render_module
from signalmine.restructurer.pools import DistractorPools
from signalmine.restructurer.render import (
    RenderError,
    _LazyRng,
    render,
    render_with_selected,
    select_template,
    tuple_key,
)
from signalmine.restructurer.templates import load_registry
from signalmine.rng import derive_rng
from signalmine.shards import Spill, shard_of
from signalmine.signal_model import MixEntry, MixSpec, dump_tuples
from signalmine.store import TupleStore

from conftest import FIXTURES
from test_golden import (  # noqa: F401 - fixture_tuple_files is a fixture
    FIXTURE_BUNDLE_HASH,
    SYNTHETIC_BUNDLE_HASH,
    fixture_tuple_files,
    synthetic_tuples,
)


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def _workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(shards, "worker_count", lambda: n)


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")


def _lines(result, spill) -> dict:
    """A mix result's streams with each job number read from its spill as
    its record line."""
    return {key: [(signal_type, spill.line_of(job)) for signal_type, job in records]
            for key, records in result.examples.items()}


# -- the shard plan -------------------------------------------------------------


def test_shard_plan_covers_every_job_once():
    for jobs in (0, 1, 2, 5, 17, 1000):
        for workers in (1, 2, 3, 8, 64):
            plan = shards.shard_plan(jobs, workers)
            assert len(plan) == max(1, min(workers, jobs))
            assert sorted(p for shard in plan for p in shard) == list(range(jobs))
            assert all(list(shard) == sorted(shard) for shard in plan)
            sizes = [len(shard) for shard in plan]
            assert max(sizes) - min(sizes) <= 1


def test_shard_of_inverts_the_shard_plan():
    for items in range(51):
        for workers in (1, 2, 3, 4):
            plan = shards.shard_plan(items, workers)
            for shard, positions in enumerate(plan):
                for slot, item in enumerate(positions):
                    assert shard_of(item, len(plan)) == (shard, slot)


def _item(position: int) -> bytes:
    return f"item {position}\n".encode() * (position % 3 + 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_spill_line_of_reads_back_what_each_position_put(monkeypatch, tmp_path, workers):
    _workers(monkeypatch, workers)
    plan = shards.shard_plan(13, workers)
    # nothing at each shard's first and last slot
    empty = {p for positions in plan for p in (positions[0], positions[-1])}

    def work(positions, put):
        for position in positions:
            put(b"" if position in empty else _item(position))
        return list(positions)

    with Spill(tmp_path) as spill:
        assert spill.run(13, work, "test") == [list(positions) for positions in plan]
        for position in reversed(range(13)):
            assert spill.line_of(position) == (b"" if position in empty else _item(position))
    assert _no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_shard_that_stops_early_keeps_what_it_put_and_the_earliest_failure_wins(monkeypatch, tmp_path,
                                                                                 workers):
    # a shard stops at the first of these it meets, as `extract` does; at 2
    # and 3 workers the earliest, 5, comes from a later shard than another
    bad = {5: KeyError(5), 8: KeyError(8), 10: KeyError(10)}
    _workers(monkeypatch, workers)

    def work(positions, put):
        for position in positions:
            if position in bad:
                return {"run": (position, bad[position])}
            put(_item(position))
        return {}

    with Spill(tmp_path) as spill:
        failures = spill.run(13, work, "test")
        # a child's exception is pickled back: equal in type and arguments
        assert [(group, type(exc), exc.args) for group, exc in shards.earliest_failures(failures).items()] == [
            ("run", KeyError, (5,))]
        for position in range(13):
            shard, slot = shard_of(position, len(failures))
            stop = failures[shard].get("run", (13,))[0]
            if position < stop:
                assert spill.line_of(position) == _item(position)
    assert _no_child_left()


def test_earliest_failures_per_group_in_position_order():
    a5, a9, b2, b7, c4 = (RenderError(name) for name in ("a5", "a9", "b2", "b7", "c4"))
    per_shard = [{"a": (9, a9), "b": (7, b7)}, {"a": (5, a5)}, {}, {"c": (4, c4), "b": (2, b2)}]
    for order in itertools.permutations(per_shard):
        assert list(shards.earliest_failures(order).items()) == [("b", b2), ("c", c4), ("a", a5)]
    assert shards.earliest_failures([{}, {}]) == {}


def test_shard_plan_with_64_cpus_and_fewer_jobs(monkeypatch):
    def no_fork():
        raise AssertionError("the shard plan forks nothing")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert shards.worker_count() == 64
    plan = shards.shard_plan(10, shards.worker_count())
    assert [list(shard) for shard in plan] == [[i] for i in range(10)]
    assert [list(shard) for shard in shards.shard_plan(0, shards.worker_count())] == [[]]


def test_one_worker_where_fork_or_affinity_is_missing(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert shards.worker_count() == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert shards.worker_count() == 1


def test_one_cpu_renders_in_process(monkeypatch, tmp_path, registry, all_fixture_tuples, tuple_file):
    def no_fork():
        raise AssertionError("one worker forks nothing")

    _workers(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    spec = MixSpec(entries=(MixEntry("daily_mail_summary", "generation"),), name="t")
    with TupleStore([tuple_file(all_fixture_tuples)]) as store, Spill(tmp_path) as spill:
        result = mixer.mix(store, spec, registry, spill, 3)
        assert result.examples and not result.errors


# -- byte identity -----------------------------------------------------------------


def _mix_hash(tmp_path, spec: str, tuple_files: list) -> str:
    args = ["mix", "--spec", spec, "--out", str(tmp_path / "bundle"), "--seed", "7"]
    for path in tuple_files:
        args += ["--tuples", str(path)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output.split()[-1]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fixture_pipeline_bundle_hash_at_any_worker_count(monkeypatch, tmp_path, fixture_tuple_files, workers):
    _workers(monkeypatch, workers)
    assert _mix_hash(tmp_path, "all_tasks", fixture_tuple_files) == FIXTURE_BUNDLE_HASH
    assert _no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_synthetic_bundle_hash_at_any_worker_count(monkeypatch, tmp_path, workers):
    # the corpus and spec of test_golden.py::test_synthetic_corpus_bundle_hash
    tuples = tmp_path / "synthetic.tuples"
    tuples.write_text(dump_tuples(synthetic_tuples()), encoding="utf-8")
    entries = [
        {"signal_type": signal, "family": family, "stage": 1 if family == "multiple_choice" else 2}
        for signal in ("daily_mail_summary", "wikidata_relation")
        for family in ("multiple_choice", "generation")
    ]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "synthetic", "split_ratio": 0.1, "entries": entries}), encoding="utf-8")
    _workers(monkeypatch, workers)
    assert _mix_hash(tmp_path, str(spec), [tuples]) == SYNTHETIC_BUNDLE_HASH
    assert _no_child_left()


def test_examples_that_tie_up_to_target_or_source_merge_as_in_one_process(monkeypatch, tmp_path, registry,
                                                                           tuple_file):
    # most tuples share one document, so their examples tie on signal type,
    # document and template, and only target or source orders them
    tuples = [t for t in synthetic_tuples(60) if t.signal_type == "daily_mail_summary"]
    tuples = [dataclasses.replace(t, source_doc="daily_mail/one") if i % 6 else t for i, t in enumerate(tuples)]
    spec = MixSpec(entries=(MixEntry("daily_mail_summary", "multiple_choice", stage=1),
                            MixEntry("daily_mail_summary", "generation", stage=2)),
                   split_ratio=0.25, name="tie")
    path = tuple_file(tuples)

    def run(workers: int):
        _workers(monkeypatch, workers)
        with TupleStore([path]) as store, Spill(tmp_path) as spill:
            result = mixer.mix(store, spec, registry, spill, 5)
            assert not result.errors
            streams = {f"tie.stage{stage}.{split}": records for (stage, split), records in result.examples.items()}
            out = tmp_path / f"bundle{workers}"
            bundle_hash = write_bundle(out, streams, spill.line_of)
            return _lines(result, spill), bundle_hash, (out / "stats.tsv").read_bytes()

    reference = run(1)
    examples = [json.loads(line) for _, line in reference[0][(2, "train")]]
    keys = [(ex["signal_type"], ex["source_doc"], ex["template_id"]) for ex in examples]
    assert len(keys) - len(set(keys)) > 10
    for workers in (2, 3):
        assert run(workers) == reference
    assert _no_child_left()


# -- errors and failures in shards ------------------------------------------------


def _failing_render(monkeypatch, bad_docs: set[str]) -> None:
    """`render_with_selected` raising a RenderError naming the tuple's
    document for every multiple-choice render of a tuple of `bad_docs`."""
    real = mixer.render_with_selected

    def fake(registry, tup, family, *args, **kwargs):
        if family == "multiple_choice" and tup.source_doc in bad_docs:
            raise RenderError(f"bad {tup.source_doc}")
        return real(registry, tup, family, *args, **kwargs)

    monkeypatch.setattr(mixer, "render_with_selected", fake)


def _two_entry_mix(registry, path, spill_dir):
    """The errors and the streams, with their record lines, of a mix of two
    entries of the tuples at `path`, whose store and spill are closed again."""
    spec = MixSpec(entries=(MixEntry("daily_mail_summary", "generation"),
                            MixEntry("daily_mail_summary", "multiple_choice")), name="t")
    with TupleStore([path]) as store, Spill(spill_dir) as spill:
        result = mixer.mix(store, spec, registry, spill, 3)
        return SimpleNamespace(errors=result.errors, examples=_lines(result, spill))


def test_earliest_error_of_an_entry_comes_from_a_later_shard(monkeypatch, tmp_path, registry, tuple_file):
    tuples = [t for t in synthetic_tuples(12) if t.signal_type == "daily_mail_summary"]
    path = tuple_file(tuples)
    # entry 1's jobs are positions 12..23: its first failing job (position 17)
    # lies in a later shard than its second (position 18) at 2 and 3 workers
    first, second = tuples[5], tuples[6]
    _failing_render(monkeypatch, {first.source_doc, second.source_doc})
    _workers(monkeypatch, 1)
    reference = _two_entry_mix(registry, path, tmp_path)
    assert reference.errors == [f"1:daily_mail_summary:multiple_choice: bad {first.source_doc}"]
    for workers in (2, 3):
        plan = shards.shard_plan(len(tuples) * 2, workers)
        shard_of = {p: i for i, shard in enumerate(plan) for p in shard}
        assert shard_of[17] > shard_of[18]
        _workers(monkeypatch, workers)
        got = _two_entry_mix(registry, path, tmp_path)
        assert got.errors == reference.errors
        assert got.examples == reference.examples
    assert _no_child_left()


@needs_proc
def test_other_exception_in_a_child_is_raised_with_its_type_and_message(monkeypatch, tmp_path, registry,
                                                                       tuple_file):
    parent = os.getpid()
    real = mixer.render_with_selected

    def fake(*args, **kwargs):
        if os.getpid() != parent:
            raise KeyError("child went wrong")
        return real(*args, **kwargs)

    monkeypatch.setattr(mixer, "render_with_selected", fake)
    _workers(monkeypatch, 2)
    path = tuple_file([t for t in synthetic_tuples(10) if t.signal_type == "daily_mail_summary"])
    fds = _open_fds()
    with pytest.raises(KeyError) as caught:
        _two_entry_mix(registry, path, tmp_path)
    assert caught.value.args == ("child went wrong",)
    assert _no_child_left()
    assert list(tmp_path.iterdir()) == []
    assert _open_fds() == fds


@needs_proc
def test_interrupt_in_the_parent_kills_and_reaps_every_child(monkeypatch, tmp_path, registry, tuple_file):
    parent = os.getpid()

    def fake(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)  # a child still rendering
        raise KeyboardInterrupt

    monkeypatch.setattr(mixer, "render_with_selected", fake)
    _workers(monkeypatch, 3)
    path = tuple_file([t for t in synthetic_tuples(10) if t.signal_type == "daily_mail_summary"])
    started = time.monotonic()
    fds = _open_fds()
    with pytest.raises(KeyboardInterrupt):
        _two_entry_mix(registry, path, tmp_path)
    assert time.monotonic() - started < 30
    assert _no_child_left()
    assert list(tmp_path.iterdir()) == []
    assert _open_fds() == fds


@needs_proc
def test_child_killed_mid_shard_keeps_the_old_bundle(monkeypatch, tmp_path):
    tuples = tmp_path / "in.tuples"
    tuples.write_text(dump_tuples(synthetic_tuples(200)), encoding="utf-8")
    out = tmp_path / "bundle"
    args = ["mix", "--spec", "all_tasks", "--tuples", str(tuples), "--out", str(out), "--seed", "7"]
    runner = CliRunner()
    assert runner.invoke(main, args).exit_code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    parent = os.getpid()
    real = mixer.render_with_selected
    rendered = []

    def fake(*args, **kwargs):
        rendered.append(1)
        if os.getpid() != parent and len(rendered) == 50:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(mixer, "render_with_selected", fake)
    _workers(monkeypatch, 2)
    fds = _open_fds()
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output.startswith("io-error: render worker ")
    assert result.output.count("\n") == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "in.tuples"]
    assert _no_child_left()
    assert _open_fds() == fds


@needs_proc
@pytest.mark.parametrize("command", ["mix", "restructure", "extract"])
def test_second_spill_file_that_cannot_open_is_one_io_error_and_closes_the_first(monkeypatch, tmp_path,
                                                                                 command):
    tuples = tmp_path / "in.tuples"
    tuples.write_text(dump_tuples(synthetic_tuples(40)), encoding="utf-8")
    dump = FIXTURES / "mines" / "rotten_tomatoes.jsonl"
    argv = {"mix": ["mix", "--spec", "all_tasks", "--tuples", str(tuples), "--out", str(tmp_path / "bundle")],
            "restructure": ["restructure", "--tuples", str(tuples), "--out", str(tmp_path / "out.jsonl")],
            "extract": ["extract", "--mine", "rotten_tomatoes", "--in", str(dump), "--out", str(tmp_path / "rt.tuples")],
            }[command]
    real = tempfile.TemporaryFile
    opened = []

    def second_fails(*args, **kwargs):
        opened.append(1)
        if len(opened) == 2:
            raise OSError("no room for a second spill file")
        return real(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", second_fails)
    _workers(monkeypatch, 2)
    fds = _open_fds()
    result = CliRunner().invoke(main, [*argv, "--seed", "7"])
    assert (result.exit_code, result.output) == (1, "io-error: no room for a second spill file\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.tuples"]
    assert _open_fds() == fds
    assert _no_child_left()


# -- spill files and the parent's memory ------------------------------------------


@needs_proc
@pytest.mark.parametrize("workers", [1, 2])
def test_spill_files_leave_no_file_and_no_descriptor_over_ten_runs(monkeypatch, tmp_path, workers):
    tuples = tmp_path / "in.tuples"
    tuples.write_text(dump_tuples(synthetic_tuples(40)), encoding="utf-8")
    out = tmp_path / "bundle"
    args = ["mix", "--spec", "all_tasks", "--tuples", str(tuples), "--out", str(out), "--seed", "7"]
    _workers(monkeypatch, workers)
    if workers == 1:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("one worker forks nothing"))
    runner = CliRunner()
    fds = _open_fds()
    hashes = set()
    for _ in range(10):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        hashes.add(result.output)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "in.tuples"]
        assert _open_fds() == fds
    assert len(hashes) == 1
    assert _no_child_left()


def test_spill_files_are_unlinked_and_closed_with_the_result(registry, tmp_path, tuple_file):
    path = tuple_file([t for t in synthetic_tuples(10) if t.signal_type == "daily_mail_summary"])
    spec = MixSpec(entries=(MixEntry("daily_mail_summary", "generation"),), name="t")
    with TupleStore([path]) as store, Spill(tmp_path) as spill:
        mixer.mix(store, spec, registry, spill, 3)
        assert list(tmp_path.iterdir()) == []
        files = spill.files
        assert files and not any(f.closed for f in files)
        assert spill.line_of(0).endswith(b"}\n")
    assert all(f.closed for f in files)


def test_mix_and_write_hold_less_than_the_bundle(monkeypatch, tmp_path, registry, tuple_file):
    # the record lines are on disk, not in memory; one worker, so the traced
    # process renders every job itself
    _workers(monkeypatch, 1)
    path = tuple_file(synthetic_tuples())
    spec = MixSpec(entries=tuple(MixEntry(signal, family, stage=1 if family == "multiple_choice" else 2)
                                 for signal in ("daily_mail_summary", "wikidata_relation")
                                 for family in ("multiple_choice", "generation")),
                   split_ratio=0.1, name="synthetic")
    out = tmp_path / "bundle"
    tracemalloc.start()
    try:
        with TupleStore([path]) as store, Spill(tmp_path) as spill:
            result = mixer.mix(store, spec, registry, spill, 7)
            streams = {f"synthetic.stage{stage}.{split}": records
                       for (stage, split), records in result.examples.items()}
            assert write_bundle(out, streams, spill.line_of) == SYNTHETIC_BUNDLE_HASH
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bundle_bytes = sum((out / name).stat().st_size for name in streams)
    assert peak < bundle_bytes


def test_restructure_writes_its_output_without_holding_it(monkeypatch, tmp_path):
    # the lines go from the spill to the output file one at a time; one
    # worker, so the traced process renders every job itself
    _workers(monkeypatch, 1)
    real = cli.write_files_atomic
    peaks = []

    def traced(files):
        tracemalloc.start()
        try:
            real(files)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "write_files_atomic", traced)
    result, out = _restructure(tmp_path, synthetic_tuples())
    assert result.exit_code == 0, result.output
    assert len(peaks) == 1 and peaks[0] < len(out)


# -- the render RNG is built at its first draw --------------------------------------


def _count_render_rngs(monkeypatch) -> list:
    built = []

    def counting(seed, *key):
        if key[0] == "render":
            built.append(key)
        return derive_rng(seed, *key)

    monkeypatch.setattr(render_module, "derive_rng", counting)
    return built


def test_template_that_draws_nothing_seeds_no_rng(monkeypatch, registry, all_fixture_tuples):
    pools = DistractorPools.build(all_fixture_tuples)
    tup = next(t for t in all_fixture_tuples if t.signal_type == "daily_mail_summary")
    built = _count_render_rngs(monkeypatch)
    # a plain generation template: no options, no distractor, no entity
    plain = registry.by_id["daily_mail_summary.gen.001"]
    assert plain.placeholders() == {"summary", "text"}
    with monkeypatch.context() as patch:
        patch.setattr(render_module, "select_template", lambda *args: plain)
        example = render_with_selected(registry, tup, "generation", pools, 7, None, tuple_key(tup))
    assert example.template_id == plain.template_id
    assert built == []
    # a multiple-choice render draws its options: one RNG
    render_with_selected(registry, tup, "multiple_choice", pools, 7, None, tuple_key(tup))
    assert len(built) == 1


def _eager(registry, tup, family, pools, seed, group=None):
    """`render_with_selected` as it was: the render RNG built up front."""
    key = tuple_key(tup)
    template = select_template(registry, tup.signal_type, family, tup, seed, group, key)
    return render(tup, template, pools, derive_rng(seed, "render", template.template_id, key), seed=seed)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RenderError as exc:
        return f"RenderError: {exc}"


def test_lazy_rng_renders_what_the_eager_one_did(registry, all_fixture_tuples):
    pools = DistractorPools.build(all_fixture_tuples)
    by_signal: dict[str, list] = {}
    for tup in all_fixture_tuples:
        by_signal.setdefault(tup.signal_type, []).append(tup)
    renders = 0
    for template in registry.by_id.values():
        applicable = [t for t in by_signal.get(template.signal_type, []) if template.applies_to(t)]
        for tup in applicable[:5]:
            key = ("render", template.template_id, tuple_key(tup))
            lazy = _outcome(render, tup, template, pools, _LazyRng(7, *key), 7)
            assert lazy == _outcome(render, tup, template, pools, derive_rng(7, *key), 7)
            renders += 1
    assert renders > 3000
    families = {(t.signal_type, t.family) for t in registry.by_id.values()}
    for signal_type, family in sorted(families):
        for tup in by_signal.get(signal_type, []):
            if registry.eligible(signal_type, family, None, tup):
                assert (_outcome(render_with_selected, registry, tup, family, pools, 7, None, tuple_key(tup))
                        == _outcome(_eager, registry, tup, family, pools, 7))


def test_restructure_output_is_unchanged_by_the_lazy_rng(monkeypatch, tmp_path, fixture_tuple_files):
    def restructure(out):
        args = ["restructure", "--out", str(out), "--seed", "3"]
        for path in fixture_tuple_files:
            args += ["--tuples", str(path)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        return out.read_bytes()

    lazy = restructure(tmp_path / "lazy.jsonl")
    # every fixture mine's tuples render, not only the last file's
    examples = [json.loads(line) for line in lazy.splitlines()]
    tuples = sum(path.read_bytes().count(b"\n") for path in fixture_tuple_files)
    assert len(examples) == tuples
    assert {"multiple_choice", "generation", "cloze"} <= {ex["family"] for ex in examples}
    monkeypatch.setattr(render_module, "_LazyRng", derive_rng)
    assert lazy == restructure(tmp_path / "eager.jsonl")


# -- restructure renders through the same shards ------------------------------------


def _restructure(tmp_path, tuples: list, *extra: str):
    """`restructure` of `tuples`, written to a tuple file in `tmp_path`: the
    CLI result, and the output's bytes (None if it was not written)."""
    path = tmp_path / "in.tuples"
    path.write_text(dump_tuples(tuples), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    result = CliRunner().invoke(main, ["restructure", "--tuples", str(path), "--out", str(out),
                                       "--seed", "3", *extra])
    return result, out.read_bytes() if out.exists() else None


def test_restructure_raises_the_earliest_failing_tuple_from_a_later_shard(monkeypatch, tmp_path):
    tuples = [t for t in synthetic_tuples(12) if t.signal_type == "daily_mail_summary"]
    # at 2 workers tuple 3 lies in the second shard, tuple 4 in the first
    plan = shards.shard_plan(len(tuples), 2)
    assert 3 in plan[1] and 4 in plan[0]
    _failing_render(monkeypatch, {tuples[3].source_doc, tuples[4].source_doc})
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        result, out = _restructure(tmp_path, tuples, "--family", "multiple_choice")
        assert (result.exit_code, result.output) == (1, f"render-error: bad {tuples[3].source_doc}\n")
        assert out is None
    assert _no_child_left()


@needs_proc
@pytest.mark.parametrize("workers", [1, 2])
def test_restructure_leaves_no_spill_file_and_no_descriptor(monkeypatch, tmp_path, workers):
    tuples = synthetic_tuples(40)
    _workers(monkeypatch, workers)
    if workers == 1:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("one worker forks nothing"))
    fds = _open_fds()
    outputs = set()
    for _ in range(10):
        result, out = _restructure(tmp_path, tuples)
        assert result.exit_code == 0, result.output
        outputs.add(out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.tuples", "out.jsonl"]
        assert _open_fds() == fds
    assert len(outputs) == 1
    # and none after a failed render either
    (tmp_path / "out.jsonl").unlink()
    _failing_render(monkeypatch, {tuples[-1].source_doc})
    result, out = _restructure(tmp_path, tuples, "--family", "multiple_choice")
    assert result.output.startswith("render-error: ") and out is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.tuples"]
    assert _open_fds() == fds
    assert _no_child_left()
