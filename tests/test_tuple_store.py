"""`mix` and `restructure` read their tuple files once, through a
`TupleStore`, and keep line offsets and keys, not tuples; each render shard
reads and decodes the lines of its own jobs."""

from __future__ import annotations

import gc
import json
import os

import pytest
from click.testing import CliRunner

from signalmine import mixer, shards
from signalmine.cli import main
from signalmine.dataset_io import IntegrityError
from signalmine.restructurer.render import tuple_key
from signalmine.signal_model import SchemaError, SignalTuple, dump_tuples, load_tuples
from signalmine.store import TupleStore

from test_golden import fixture_tuple_files, synthetic_tuples  # noqa: F401 - fixture_tuple_files is a fixture
from test_sharded_mix import _no_child_left, _open_fds, needs_proc

# `mix --spec <DUP_SPEC> --tuples F --tuples F --seed 7`, F the daily_mail
# fixture tuples (`extract --seed 7`), as the parent commit of the tuple
# store wrote it: every tuple twice, and each copy in the same split
DUP_BUNDLE_HASH = "2515ae1ec9656dda4ba4f6e0039fae3e650a280f9929e6d781b6c7cf9d49ed38"
DUP_SPEC = {"name": "dup", "split_ratio": 0.25, "entries": [
    {"signal_type": "daily_mail_category", "family": "multiple_choice", "per_category_cap": 3, "stage": 1},
    {"signal_type": "daily_mail_summary", "family": "multiple_choice", "stage": 1},
    {"signal_type": "daily_mail_summary", "family": "generation", "stage": 2},
    {"signal_type": "daily_mail_temporal", "family": "generation", "cap": 9, "stage": 2},
]}


def _scanned(path, keys=()) -> TupleStore:
    """A store of the file at `path`, scanned, with its file still open."""
    store = TupleStore([path])
    for _ in store.scan(keys):
        pass
    return store


def test_store_keeps_keys_and_values_and_reads_each_tuple_back(tmp_path):
    tuples = synthetic_tuples(30)
    tuples[3] = SignalTuple("daily_mail_category", ("A summary of the day.", "Sport"), "daily_mail/c",
                            {"category": "Sport"})
    path = tmp_path / "in.tuples"
    # blank lines are skipped, as `load_tuples` skips them
    path.write_text("\n" + dump_tuples(tuples[:10]) + "\n \n" + dump_tuples(tuples[10:]), encoding="utf-8")
    with _scanned(path, {"category"}) as store:
        assert len(store) == len(tuples)
        assert [store.tuple(n) for n in range(len(store))] == tuples
        assert [store.key_of(n) for n in range(len(store))] == [tuple_key(t) for t in tuples]
        assert [store.signal_of(n) for n in range(len(store))] == [t.signal_type for t in tuples]
        assert [store.meta("category", n) for n in range(len(store))] == [
            t.extraction_meta.get("category", "") for t in tuples]


@pytest.mark.parametrize("text", [
    '{"v": "1"\n',
    '\n\n[1, 2]\n',
    b'\xff\n',
    '{"signal_type": "no_such_signal", "fields": {}, "source_doc": "x"}',
    '{"signal_type": "rotten_tomatoes_sentiment", "fields": {"review": "r"}, "source_doc": "x"}\n',
    '"\\ud800"\n',
], ids=["truncated-json", "not-an-object", "not-utf8", "unknown-signal", "missing-field", "lone-surrogate"])
def test_store_scan_raises_what_load_tuples_raises(tmp_path, text):
    path = tmp_path / "bad.tuples"
    data = text if isinstance(text, bytes) else text.encode()
    path.write_bytes(dump_tuples(synthetic_tuples(2)).encode() + data)
    with pytest.raises(SchemaError) as expected:
        load_tuples(path.read_bytes(), str(path))
    with pytest.raises(SchemaError) as got, TupleStore([path]) as store:
        for _ in store.scan():
            pass
    assert str(got.value) == str(expected.value)


def test_a_line_rewritten_after_the_scan_is_an_integrity_error(tmp_path):
    tuples = [t for t in synthetic_tuples(4) if t.signal_type == "daily_mail_summary"]
    path = tmp_path / "in.tuples"
    path.write_text(dump_tuples(tuples), encoding="utf-8")
    with _scanned(path) as store:
        # the second line, as long as it was, now holds a tuple of another signal type
        start, size = store.offset[1], store.size[1]
        other = json.dumps({"v": "1", "signal_type": "rotten_tomatoes_sentiment", "source_doc": "rotten_tomatoes/a",
                            "fields": {"review": "A fine film.", "sentiment": "positive"}}).encode()
        data = path.read_bytes()
        path.write_bytes(data[:start] + other.ljust(size - 1) + data[start + size - 1:])
        assert load_tuples(path.read_bytes())[1].signal_type == "rotten_tomatoes_sentiment"
        assert store.tuple(0) == tuples[0]
        with pytest.raises(IntegrityError, match=f"^{path}: changed since it was read"):
            store.tuple(1)


def test_render_jobs_holds_no_tuple_but_the_one_it_renders(monkeypatch, tmp_path, fixture_tuple_files):
    monkeypatch.setattr(shards, "worker_count", lambda: 1)
    before = [obj for obj in gc.get_objects() if isinstance(obj, SignalTuple)]
    known = {id(obj) for obj in before}
    real = mixer.render_with_selected
    checked = []

    def counting(registry, tup, *args, **kwargs):
        if len(checked) < 10:
            # `before` keeps every older tuple alive, so no new one reuses an id in `known`
            found = [obj for obj in gc.get_objects() if isinstance(obj, SignalTuple) and id(obj) not in known]
            checked.append(len(found) == 1 and found[0] is tup)
        return real(registry, tup, *args, **kwargs)

    monkeypatch.setattr(mixer, "render_with_selected", counting)
    args = ["mix", "--spec", "all_tasks", "--out", str(tmp_path / "bundle"), "--seed", "7"]
    for path in fixture_tuple_files:
        args += ["--tuples", str(path)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert checked == [True] * 10


@pytest.mark.parametrize("workers", [1, 2])
def test_one_tuple_file_given_twice_gives_the_bundle_it_gave_before(monkeypatch, tmp_path, fixture_tuple_files,
                                                                    workers):
    monkeypatch.setattr(shards, "worker_count", lambda: workers)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(DUP_SPEC), encoding="utf-8")
    daily_mail = next(p for p in fixture_tuple_files if p.stem == "daily_mail")
    result = CliRunner().invoke(main, ["mix", "--spec", str(spec), "--tuples", str(daily_mail),
                                       "--tuples", str(daily_mail), "--out", str(tmp_path / "b"), "--seed", "7"])
    assert result.exit_code == 0, result.output
    assert result.output == f"bundle {DUP_BUNDLE_HASH}\n"


@needs_proc
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", ["mix", "restructure"])
def test_tuple_file_cut_short_before_the_shards_read_it(monkeypatch, tmp_path, command, workers):
    from signalmine import cli

    tuples = tmp_path / "in.tuples"
    tuples.write_text(dump_tuples(synthetic_tuples(100)), encoding="utf-8")
    out = tmp_path / ("bundle" if command == "mix" else "out.jsonl")
    args = {"mix": ["mix", "--spec", "all_tasks"], "restructure": ["restructure"]}[command]
    args = [*args, "--tuples", str(tuples), "--out", str(out), "--seed", "7"]
    runner = CliRunner()
    assert runner.invoke(main, args).exit_code == 0
    before = sorted(p.name for p in tmp_path.iterdir())
    old = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else out.read_bytes()

    owner = mixer if command == "mix" else cli
    real = owner.render_jobs

    def cut_short(*args, **kwargs):
        os.truncate(tuples, tuples.stat().st_size // 2)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, "render_jobs", cut_short)
    monkeypatch.setattr(shards, "worker_count", lambda: workers)
    fds = _open_fds()
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output.startswith(f"integrity-error: {tuples}: changed since it was read")
    assert result.output.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert ({p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else out.read_bytes()) == old
    assert _open_fds() == fds
    assert _no_child_left()
