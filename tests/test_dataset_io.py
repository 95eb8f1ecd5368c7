from __future__ import annotations

import hashlib
import json
import os
import tracemalloc

import pytest
from click.testing import CliRunner

from signalmine import dataset_io
from signalmine.cli import main
from signalmine.dataset_io import (
    IntegrityError,
    StrandedBundleError,
    encode_record,
    read_examples,
    read_manifest,
    stats_report,
    verify_bundle,
    write_bundle,
)
from signalmine.signal_model import PromptedExample


def example(i: int, signal="qa_triviaqa", split="train") -> PromptedExample:
    return PromptedExample(
        source=f"TEXT: context {i} QUERY: question {i}?",
        target=f"answer {i}",
        signal_type=signal,
        template_id="qa_triviaqa.gen.001",
        family="generation",
        seed=1,
        split=split,
        source_doc=f"qa_corpus/d{i}",
    )


def streams(n=10):
    return {"t.stage1.train": [example(i) for i in range(n)],
            "t.stage1.validation": [example(100 + i, split="validation") for i in range(3)]}


def records(streams: dict) -> tuple[dict, object]:
    """`streams` of examples as `write_bundle` takes them: records that
    number their lines, and the reader of the lines, held in memory."""
    lines = []
    numbered = {}
    for name, examples in streams.items():
        numbered[name] = [(ex.signal_type, len(lines) + i) for i, ex in enumerate(examples)]
        lines.extend(map(encode_record, examples))
    return numbered, lines.__getitem__


def test_round_trip_byte_exact(tmp_path):
    path = tmp_path / "bundle"
    write_bundle(path, *records(streams()))
    back = read_examples(path, "t.stage1.train")
    assert back == streams()["t.stage1.train"]


def test_bundle_directory_keeps_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        write_bundle(tmp_path / "b", *records(streams()))
    finally:
        os.umask(old)
    assert (tmp_path / "b").stat().st_mode & 0o777 == 0o755


def test_same_inputs_same_hash(tmp_path):
    h1 = write_bundle(tmp_path / "b1", *records(streams()))
    h2 = write_bundle(tmp_path / "b2", *records(streams()))
    assert h1 == h2


def test_hash_changes_with_any_byte(tmp_path):
    h1 = write_bundle(tmp_path / "b1", *records(streams()))
    altered = streams()
    ex = altered["t.stage1.train"][0]
    altered["t.stage1.train"][0] = PromptedExample(
        source=ex.source + " ", target=ex.target, signal_type=ex.signal_type,
        template_id=ex.template_id, family=ex.family, seed=ex.seed,
        split=ex.split, source_doc=ex.source_doc,
    )
    h2 = write_bundle(tmp_path / "b2", *records(altered))
    assert h1 != h2


def test_manifest_line_counts(tmp_path):
    path = tmp_path / "b"
    write_bundle(path, *records(streams()))
    manifest = read_manifest(path)
    assert manifest["files"]["t.stage1.train"]["lines"] == 10
    assert manifest["files"]["t.stage1.validation"]["lines"] == 3
    assert manifest["per_signal"] == {"qa_triviaqa": 13}
    verify_bundle(path)


def test_empty_bundle_is_valid(tmp_path):
    path = tmp_path / "b"
    h = write_bundle(path, *records({"t.stage1.train": []}))
    assert h
    manifest = verify_bundle(path)
    assert manifest["per_signal"] == {}


def test_corruption_detected(tmp_path):
    path = tmp_path / "b"
    write_bundle(path, *records(streams()))
    target = path / "t.stage1.train"
    target.write_bytes(target.read_bytes().replace(b"question 3", b"question X"))
    with pytest.raises(IntegrityError):
        verify_bundle(path)


def test_partial_write_leaves_nothing(tmp_path):
    path = tmp_path / "exists"
    path.mkdir()  # a non-bundle directory is never clobbered
    with pytest.raises(Exception):
        write_bundle(path, *records(streams()))
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".exists")]
    assert not leftovers


def test_rewriting_a_bundle_is_idempotent(tmp_path):
    path = tmp_path / "b"
    h1 = write_bundle(path, *records(streams()))
    h2 = write_bundle(path, *records(streams()))
    assert h1 == h2
    verify_bundle(path)


def test_stats_report_rows(tmp_path):
    path = tmp_path / "b"
    write_bundle(path, *records(streams()))
    table = stats_report(path)
    lines = table.strip().split("\n")
    assert lines[0] == "mine\tsignal\ttuple\tsamples"
    assert lines[1] == "qa_corpus\tqa_triviaqa\t(context,question,answer)\t13"
    # recomputed on an identical rewrite -> identical report
    write_bundle(tmp_path / "b2", *records(streams()))
    assert stats_report(tmp_path / "b2") == table


def test_round_trip_file_bytes_are_identical(tmp_path):
    write_bundle(tmp_path / "b1", *records(streams()))
    back = {name: read_examples(tmp_path / "b1", name) for name in streams()}
    write_bundle(tmp_path / "b2", *records(back))
    for name in streams():
        assert (tmp_path / "b1" / name).read_bytes() == (tmp_path / "b2" / name).read_bytes()


# -- replacing a bundle: rename the old one aside, rename the new one in, delete
# the old one; a refused rename at either step keeps the old bundle --------------


def _tree(parent):
    """Every entry under `parent` with its bytes (None for a directory)."""
    return {str(p.relative_to(parent)): (None if p.is_dir() else p.read_bytes())
            for p in sorted(parent.rglob("*"))}


def _replace_with_refused_rename(tmp_path, monkeypatch, refuse_when):
    path = tmp_path / "b"
    write_bundle(path, *records(streams()))
    before = _tree(tmp_path)
    real_rename = os.rename

    def rename(src, dst):
        if refuse_when(os.fspath(src), os.fspath(dst), path):
            raise OSError("injected rename failure")
        real_rename(src, dst)

    monkeypatch.setattr("os.rename", rename)
    with pytest.raises(OSError, match="injected rename failure"):
        write_bundle(path, *records(streams(n=4)))
    monkeypatch.undo()
    assert _tree(tmp_path) == before  # old bytes intact, no temp or aside dir left
    verify_bundle(path)


def test_refused_rename_of_the_old_bundle_aside_keeps_it(tmp_path, monkeypatch):
    _replace_with_refused_rename(tmp_path, monkeypatch, lambda src, dst, path: src == str(path))


def test_refused_rename_of_the_new_bundle_in_restores_the_old_one(tmp_path, monkeypatch):
    _replace_with_refused_rename(
        tmp_path, monkeypatch, lambda src, dst, path: dst == str(path) and ".b.tmp" in src
    )


def test_refused_rename_back_names_where_both_bundles_are(tmp_path, monkeypatch):
    path = tmp_path / "b"
    write_bundle(path, *records(streams()))
    old = _tree(path)
    real_rename = os.rename

    def rename(src, dst):
        # refuse moving the new bundle in, then moving the old one back
        if os.fspath(dst) == str(path):
            raise OSError("injected rename failure")
        real_rename(src, dst)

    monkeypatch.setattr("os.rename", rename)
    with pytest.raises(StrandedBundleError) as info:
        write_bundle(path, *records(streams(n=4)))
    monkeypatch.undo()
    assert not path.exists()
    (aside,) = tmp_path.glob(".b.old*")
    (new,) = tmp_path.glob(".b.tmp*")
    assert str(aside) in str(info.value) and str(new) in str(info.value)
    assert _tree(aside) == old  # the old bundle, byte for byte
    verify_bundle(new)
    assert read_manifest(new)["files"]["t.stage1.train"]["lines"] == 4


def test_replacing_a_bundle_leaves_only_the_new_one(tmp_path):
    path = tmp_path / "b"
    write_bundle(path, *records(streams()))
    write_bundle(path, *records(streams(n=4)))
    assert [p.name for p in tmp_path.iterdir()] == ["b"]
    assert read_manifest(path)["files"]["t.stage1.train"]["lines"] == 4


def test_write_failing_halfway_keeps_the_old_bundle(tmp_path, monkeypatch):
    path = tmp_path / "b"
    write_bundle(path, *records(streams()))
    before = _tree(tmp_path)
    real_open = open
    opened = []

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            opened.append(file)
            if len(opened) == 2:
                fh.close()
                raise OSError("injected write failure")
        return fh

    monkeypatch.setattr("builtins.open", failing_open)
    with pytest.raises(OSError, match="injected write failure"):
        write_bundle(path, *records(streams(n=4)))
    monkeypatch.undo()
    assert _tree(tmp_path) == before


# -- verify_bundle reads each file in chunks -----------------------------------


def _rehash(path):
    """Record in the manifest the digest of the files as they now are (the
    format the module docstring gives), so only the other checks can fail."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name != "manifest.json":
            digest.update(name.encode() + b"\x00" + (path / name).read_bytes() + b"\x00")
    manifest = read_manifest(path)
    manifest["bundle_hash"] = digest.hexdigest()
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def test_verify_mismatch_messages(tmp_path):
    path = tmp_path / "b"
    recorded = write_bundle(path, *records(streams()))
    target = path / "t.stage1.train"
    original = target.read_bytes()

    target.write_bytes(original.replace(b"question 3", b"question X"))
    with pytest.raises(IntegrityError, match=rf"^bundle hash mismatch: [0-9a-f]{{64}} != {recorded}$"):
        verify_bundle(path)

    target.write_bytes(original)
    manifest = read_manifest(path)
    manifest["files"]["t.stage1.train"]["lines"] = 11
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(IntegrityError, match=r"^t\.stage1\.train: 10 lines, manifest says 11$"):
        verify_bundle(path)

    target.unlink()
    _rehash(path)
    with pytest.raises(IntegrityError, match=r"^missing bundle file: t\.stage1\.train$"):
        verify_bundle(path)


@pytest.mark.parametrize("damage", [
    lambda body: body[:5] + b"\xff" + body[6:],  # a byte no UTF-8 text holds
    lambda body: body + "é".encode()[:1],  # a sequence cut off at the end
])
def test_file_that_is_not_utf8_is_an_integrity_error(tmp_path, damage):
    path = tmp_path / "b"
    write_bundle(path, *records(streams()))
    target = path / "t.stage1.train"
    target.write_bytes(damage(target.read_bytes()))
    _rehash(path)
    with pytest.raises(IntegrityError, match=r"^t\.stage1\.train: not valid UTF-8$"):
        verify_bundle(path)
    result = CliRunner().invoke(main, ["validate", "--bundle", str(path)])
    assert result.exit_code == 1
    assert result.output == "integrity-error: t.stage1.train: not valid UTF-8\n"


def test_character_split_across_chunks_verifies(tmp_path, monkeypatch):
    path = tmp_path / "b"
    ex = example(1)
    write_bundle(path, *records({"t.stage1.train": [
        PromptedExample(**{**ex.__dict__, "target": "réponse ünïcödé 答え " * (i + 1)}) for i in range(20)
    ]}))
    for size in (1, 2, 3, 7):
        monkeypatch.setattr(dataset_io, "_VERIFY_CHUNK", size)
        verify_bundle(path)


def test_verify_holds_one_chunk_not_a_file(tmp_path):
    filler = "ｗｏｒｄ " * 200  # wide characters: a decoded chunk is bigger than its bytes
    big = [PromptedExample(**{**example(i).__dict__, "source": f"TEXT: {filler}{i} QUERY: q {i}?"})
           for i in range(2500)]
    path = tmp_path / "b"
    write_bundle(path, *records({"t.stage1.train": big, "t.stage1.validation": big[:500]}))
    largest = max(p.stat().st_size for p in path.iterdir())
    assert largest > 3_000_000
    tracemalloc.start()
    try:
        verify_bundle(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < largest / 2
