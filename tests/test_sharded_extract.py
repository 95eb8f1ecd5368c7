"""`extract` deals its documents into shards, one per CPU, forked, each
spilling its tuple lines to an unlinked file. No worker count may change a
byte of output, an error line, or leave a child, a file or a descriptor
behind."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import signal
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from signalmine import extractors, shards
from signalmine.cli import main
from signalmine.dataset_io import write_files_atomic
from signalmine.extractors import extract_documents, read_jsonl
from signalmine.report import ExtractionReport
from signalmine.signal_model import TEXT, SchemaError
from signalmine.shards import Spill, shard_plan

from conftest import FIXTURES, always_english, extract_lines
from test_golden import EXTRACT_DIGESTS, _extract
from test_sharded_mix import _no_child_left, _open_fds, needs_proc

RT_DUMP = FIXTURES / "mines" / "rotten_tomatoes.jsonl"


def _workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(shards, "worker_count", lambda: n)


def _rt_docs() -> list[dict]:
    return list(read_jsonl(str(RT_DUMP)))


def _adapter(monkeypatch, fake) -> None:
    """Replace the rotten_tomatoes adapter with `fake(real, doc, ctx)`, and
    declare its review plain text, not gate text, so every document reaches
    the adapter."""
    real, _ = extractors._ADAPTERS["rotten_tomatoes"]
    monkeypatch.setitem(extractors._ADAPTERS, "rotten_tomatoes",
                        (lambda doc, ctx: fake(real, doc, ctx), {"review": TEXT, "rating": float}))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("key", sorted(EXTRACT_DIGESTS))
def test_extract_output_digest_at_any_worker_count(monkeypatch, tmp_path, key, workers):
    # the inputs and digests of test_golden.py::test_extract_output_digest
    _workers(monkeypatch, workers)
    mine = key.rpartition(":")[2]
    dump = FIXTURES / "golden" / "unicode.jsonl" if ":" in key else FIXTURES / "mines" / f"{mine}.jsonl"
    out = _extract(tmp_path, mine, dump)
    report = out.with_name(out.name + ".report.json")
    assert hashlib.sha256(out.read_bytes() + report.read_bytes()).hexdigest() == EXTRACT_DIGESTS[key]
    assert _no_child_left()


def _extract_bad_second(tmp_path, mine, bad_fields) -> tuple[str, str]:
    """`extract`'s output, and the doc_id of the second document, after
    `bad_fields` replace fields of that document; at 2 workers a child
    extracts it. Checks that the run exits 1, writes no file and leaves no
    child."""
    good, bad = list(read_jsonl(str(FIXTURES / "mines" / f"{mine}.jsonl")))[:2]
    bad.update(bad_fields)
    dump = tmp_path / "in.jsonl"
    dump.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n", encoding="utf-8")
    db = ["--db", str(FIXTURES / "mines" / "pwc_entity_db.jsonl")] if mine == "paperswithcode" else []
    result = CliRunner().invoke(main, ["extract", "--mine", mine, "--in", str(dump),
                                       "--out", str(tmp_path / "out.tuples"), *db])
    assert result.exit_code == 1, result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]
    assert _no_child_left()
    return result.output, bad["doc_id"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mine,field,value", [
    ("rotten_tomatoes", "rating", "abc"),
    ("rotten_tomatoes", "rating", [1]),
    ("wikidata", "properties", [1, 2]),  # its items are objects
    ("wikihow", "steps", "abc"),
    # a string where a list belongs used to be iterated character by character
    ("daily_mail", "bullets", "Officials said the road would reopen on Monday."),
    ("qa_corpus", "options", "abc"),
])
def test_field_of_the_wrong_json_type_is_one_schema_error_line(monkeypatch, tmp_path, mine, field, value,
                                                                 workers):
    _workers(monkeypatch, workers)
    output, doc_id = _extract_bad_second(tmp_path, mine, {field: value})
    assert re.fullmatch(rf"schema-error: {mine} document {doc_id}: '{field}(\[\])?' must be an? \w+, got .*\n",
                        output)


def _declared(fields: dict, prefix: str = ""):
    """(path, kind) of every field `fields` declares, nested ones and the
    items of lists included, in the path syntax of `FieldError`."""
    for key, kind in fields.items():
        path = prefix + key
        yield path, kind
        while isinstance(kind, list):
            kind = kind[0]
            path += "[]"
            yield path, kind
        if isinstance(kind, dict):
            yield from _declared(kind, path + ".")


def _holding(path: str, value) -> dict:
    """The top-level field of a document whose value at `path` is `value`."""
    steps = re.findall(r"\[\]|[^.\[\]]+", path)
    for step in reversed(steps[1:]):
        value = [value] if step == "[]" else {step: value}
    return {steps[0]: value}


def _json_type(kind) -> str:
    """The JSON type a field of `kind` holds."""
    if isinstance(kind, (list, dict)):
        return "list" if isinstance(kind, list) else "object"
    return "number" if kind is float else "string"


_OF_JSON_TYPE = {
    "string": st.text(max_size=20),
    "number": st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
    "list": st.lists(st.integers() | st.text(max_size=5), max_size=3),
    "object": st.dictionaries(st.text(max_size=5), st.integers(), max_size=3),
}
_WRONGLY_TYPED = [
    (mine, path, json_type) for mine, (_, fields) in extractors._ADAPTERS.items()
    for path, kind in _declared(fields) for json_type in _OF_JSON_TYPE if json_type != _json_type(kind)
]


@pytest.mark.parametrize("workers", [1, 2])
@given(data=st.data())
@settings(max_examples=2, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_declared_field_of_every_wrong_json_type_is_one_schema_error_line(monkeypatch, data, workers):
    _workers(monkeypatch, workers)
    for mine, path, json_type in _WRONGLY_TYPED:
        value = data.draw(_OF_JSON_TYPE[json_type], label=f"{mine} {path} {json_type}")
        with tempfile.TemporaryDirectory() as tmp:
            output, doc_id = _extract_bad_second(Path(tmp), mine, _holding(path, value))
        assert output.startswith(f"schema-error: {mine} document {doc_id}: '{path}' must be "), output
        assert output.count("\n") == 1


def test_one_cpu_extracts_in_process(monkeypatch):
    def no_fork():
        raise AssertionError("one worker forks nothing")

    _workers(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    lines = extract_lines("rotten_tomatoes", _rt_docs(), seed=1, report=ExtractionReport(),
                          detector=always_english)
    assert lines


def test_earliest_failing_document_comes_from_a_later_shard(monkeypatch, tmp_path):
    ids = [doc["doc_id"] for doc in _rt_docs()]
    # positions 5 and 6 fail; at 2 and 3 workers position 5 lies in a later
    # shard than position 6, so that shard's error must win
    first, second = ids[5], ids[6]

    def fake(real, doc, ctx):
        if doc["doc_id"] in (first, second):
            raise SchemaError(f"bad {doc['doc_id']}")
        return real(doc, ctx)

    _adapter(monkeypatch, fake)
    out = tmp_path / "rt.tuples"
    args = ["extract", "--mine", "rotten_tomatoes", "--in", str(RT_DUMP), "--out", str(out)]
    _workers(monkeypatch, 1)
    reference = CliRunner().invoke(main, args)
    assert (reference.exit_code, reference.output) == (1, f"schema-error: bad {first}\n")
    for workers in (2, 3):
        plan = shard_plan(len(ids), workers)
        shard_of = {p: i for i, shard in enumerate(plan) for p in shard}
        assert shard_of[5] > shard_of[6]
        _workers(monkeypatch, workers)
        result = CliRunner().invoke(main, args)
        assert (result.exit_code, result.output) == (reference.exit_code, reference.output)
    assert not out.exists()
    assert _no_child_left()


def test_other_exception_in_a_child_is_raised_with_its_type_and_message(monkeypatch):
    parent = os.getpid()

    def fake(real, doc, ctx):
        if os.getpid() != parent:
            raise KeyError("child went wrong")
        return real(doc, ctx)

    _adapter(monkeypatch, fake)
    _workers(monkeypatch, 2)
    with pytest.raises(KeyError) as caught:
        extract_lines("rotten_tomatoes", _rt_docs(), seed=1, report=ExtractionReport())
    assert caught.value.args == ("child went wrong",)
    assert _no_child_left()


def test_interrupt_in_the_parent_kills_and_reaps_every_child(monkeypatch):
    parent = os.getpid()

    def fake(real, doc, ctx):
        if os.getpid() != parent:
            time.sleep(60)  # a child still extracting
        raise KeyboardInterrupt

    _adapter(monkeypatch, fake)
    _workers(monkeypatch, 3)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        extract_lines("rotten_tomatoes", _rt_docs(), seed=1, report=ExtractionReport())
    assert time.monotonic() - started < 30
    assert _no_child_left()


def test_child_killed_mid_shard_keeps_the_old_tuples_and_report(monkeypatch, tmp_path):
    out = tmp_path / "rt.tuples"
    args = ["extract", "--mine", "rotten_tomatoes", "--in", str(RT_DUMP), "--out", str(out), "--seed", "7"]
    runner = CliRunner()
    assert runner.invoke(main, args).exit_code == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["rt.tuples", "rt.tuples.report.json"]

    parent = os.getpid()
    extracted = []

    def fake(real, doc, ctx):
        extracted.append(1)
        if os.getpid() != parent and len(extracted) == 4:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(doc, ctx)

    _adapter(monkeypatch, fake)
    _workers(monkeypatch, 2)
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output.startswith("io-error: extract worker ")
    assert result.output.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert _no_child_left()


def _daily_mail_copies(tmp_path, copies: int) -> Path:
    """The daily_mail fixture dump repeated `copies` times, each copy's
    documents with ids of their own."""
    fixture = list(read_jsonl(str(FIXTURES / "mines" / "daily_mail.jsonl")))
    dump = tmp_path / "dm.jsonl"
    dump.write_text("".join(json.dumps({**doc, "doc_id": f"{doc['doc_id']}.{copy}"}) + "\n"
                            for copy in range(copies) for doc in fixture), encoding="utf-8")
    return dump


def test_extract_and_write_hold_less_than_the_tuple_file(monkeypatch, tmp_path):
    # the tuple lines are on disk, not in memory; one worker, so the traced
    # process extracts every document itself
    _workers(monkeypatch, 1)
    dump = _daily_mail_copies(tmp_path, 40)
    docs = dump.read_bytes().count(b"\n")
    out = tmp_path / "dm.tuples"
    report = ExtractionReport()
    tracemalloc.start()
    try:
        with Spill(tmp_path) as spill:
            write_files_atomic({out: extract_documents("daily_mail", dump, 1, report, spill, always_english)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.read_bytes().count(b"\n") == sum(report.accepted.values()) > docs
    assert peak < out.stat().st_size


def test_extract_holds_no_document_after_the_read(monkeypatch, tmp_path):
    # one worker, so the traced process reads the dump and extracts every
    # document itself; the documents hold lists, so the collector tracks them
    _workers(monkeypatch, 1)
    dump = _daily_mail_copies(tmp_path, 40)
    ids = {json.loads(line)["doc_id"] for line in dump.read_text(encoding="utf-8").splitlines()}
    held, peaks = [], []
    real = Spill.run

    def run(self, *args, **kwargs):
        # the peak of the read, then the documents alive once it is done;
        # the collector's list of every object is left out of the peak
        peaks.append(tracemalloc.get_traced_memory()[1])
        held.extend(obj for obj in gc.get_objects()
                    if type(obj) is dict and isinstance(obj.get("doc_id"), str) and obj["doc_id"] in ids)
        tracemalloc.reset_peak()
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Spill, "run", run)
    report = ExtractionReport()
    tracemalloc.start()
    try:
        with Spill(tmp_path) as spill:
            for _ in extract_documents("daily_mail", dump, 1, report, spill, always_english):
                pass
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert report.docs_processed == len(ids) == 600
    assert held == []
    assert max(peaks) < dump.stat().st_size


@needs_proc
@pytest.mark.parametrize("workers", [1, 2])
def test_extract_leaves_no_spill_file_and_no_descriptor(monkeypatch, tmp_path, workers):
    out = tmp_path / "rt.tuples"
    args = ["extract", "--mine", "rotten_tomatoes", "--in", str(RT_DUMP), "--out", str(out), "--seed", "7"]
    _workers(monkeypatch, workers)
    if workers == 1:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("one worker forks nothing"))
    runner = CliRunner()
    fds = _open_fds()
    outputs = set()
    for _ in range(10):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        outputs.add(out.read_bytes())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rt.tuples", "rt.tuples.report.json"]
        assert _open_fds() == fds
    assert len(outputs) == 1
    # and none after a failed extraction either
    for path in tmp_path.iterdir():
        path.unlink()
    last = _rt_docs()[-1]["doc_id"]

    def fake(real, doc, ctx):
        if doc["doc_id"] == last:
            raise SchemaError(f"bad {last}")
        return real(doc, ctx)

    _adapter(monkeypatch, fake)
    result = runner.invoke(main, args)
    assert (result.exit_code, result.output) == (1, f"schema-error: bad {last}\n")
    assert list(tmp_path.iterdir()) == []
    assert _open_fds() == fds
    assert _no_child_left()


def _cut_short(dump: Path, lines: list[bytes]) -> tuple[int, bytes]:
    """Cut `dump` off halfway: the offset of its first line no longer whole,
    and that line."""
    cut = dump.stat().st_size // 2
    os.truncate(dump, cut)
    offset = 0
    for line in lines:
        if offset + len(line) > cut:
            return offset, line
        offset += len(line)
    raise AssertionError("no line was cut")


def _second_id_changed(dump: Path, lines: list[bytes]) -> tuple[int, bytes]:
    """Give the second line another doc_id of the same length, in place:
    its offset, and the line it was."""
    with open(dump, "r+b") as fh:
        fh.seek(len(lines[0]))
        fh.write(lines[1].replace(b'"rt002"', b'"rt999"'))
    return len(lines[0]), lines[1]


@needs_proc
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("edit", [_cut_short, _second_id_changed], ids=["cut-short", "doc-id-changed"])
def test_dump_edited_before_the_shards_read_it(monkeypatch, tmp_path, edit, workers):
    dump = tmp_path / "rt.jsonl"
    dump.write_bytes(RT_DUMP.read_bytes())
    lines = dump.read_bytes().splitlines(keepends=True)
    out = tmp_path / "rt.tuples"
    args = ["extract", "--mine", "rotten_tomatoes", "--in", str(dump), "--out", str(out), "--seed", "7"]
    runner = CliRunner()
    assert runner.invoke(main, args).exit_code == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != dump}
    assert sorted(before) == ["rt.tuples", "rt.tuples.report.json"]

    real = Spill.run
    edited = []

    def run(self, *args, **kwargs):
        edited.append(edit(dump, lines))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Spill, "run", run)
    _workers(monkeypatch, workers)
    fds = _open_fds()
    result = runner.invoke(main, args)
    [(offset, line)] = edited
    assert (result.exit_code, result.output) == (1, f"integrity-error: {dump}: changed since it was read: "
                                                    f"the {len(line)} bytes at offset {offset} no longer hold "
                                                    f"document {json.loads(line)['doc_id']}\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != dump} == before
    assert _open_fds() == fds
    assert _no_child_left()
