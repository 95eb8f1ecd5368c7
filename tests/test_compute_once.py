"""The compute-once paths of `mix` and `write_bundle`, held to the code they
replaced.

Each replaced piece of code is copied here as the reference: the per-template
`applies_to` filter that template eligibility memoizes, the byte-by-byte seed
material of `derive_seed`, the dict that `json.dumps` sort-encoded into a
record line, and the writer that encoded every stream's records, held the
whole bundle in memory and hashed it afterwards.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalmine import __version__
from signalmine import mixer
from signalmine.dataset_io import encode_record, read_manifest, render_stats_table, verify_bundle, write_bundle
from signalmine.restructurer.templates import load_registry
from signalmine.rng import derive_seed
from signalmine.signal_model import CATALOG, FORMAT_VERSION, MixEntry, MixSpec, PromptedExample, SignalTuple

REGISTRY = load_registry()
GROUP_KEYS = sorted(
    {(t.signal_type, t.family, t.group) for t in REGISTRY.by_id.values()}
    | {(t.signal_type, t.family, None) for t in REGISTRY.by_id.values()},
    key=repr,
)
REQUIRING_SIGNALS = sorted({t.signal_type for t in REGISTRY.by_id.values() if t.requires})


# -- the code the compute-once paths replaced, kept as the reference ------------


def reference_eligible(signal_type: str, family: str, group: str | None, tup: SignalTuple) -> list:
    templates = REGISTRY.get(signal_type, family, group)
    return [t for t in templates if not t.requires or t.applies_to(tup)]


def reference_derive_seed(seed: int, *key: object) -> int:
    material = str(int(seed)).encode() + b"\x1f" + b"\x1f".join(str(k).encode() for k in key)
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def reference_record(ex: PromptedExample) -> dict:
    # every field of the example, so a field added later must reach the line
    rec = {f.name: getattr(ex, f.name) for f in dataclasses.fields(PromptedExample)}
    rec["v"] = FORMAT_VERSION
    return rec


def reference_line(ex: PromptedExample) -> bytes:
    return (json.dumps(reference_record(ex), ensure_ascii=False, sort_keys=True) + "\n").encode()


def reference_write_bundle(path: Path, streams: dict, manifest_extra: dict | None = None) -> str:
    files: dict[str, bytes] = {}
    per_signal: dict[str, int] = {}
    per_file_counts: dict[str, int] = {}
    for name, examples in streams.items():
        files[name] = b"".join(map(reference_line, examples))
        per_file_counts[name] = len(examples)
        for ex in examples:
            per_signal[ex.signal_type] = per_signal.get(ex.signal_type, 0) + 1
    files["stats.tsv"] = render_stats_table(per_signal).encode("utf-8")
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode())
        digest.update(b"\x00")
        digest.update(files[name])
        digest.update(b"\x00")
    bundle_hash = digest.hexdigest()
    manifest = {
        "digest_algorithm": "sha256",
        "bundle_hash": bundle_hash,
        "tool_version": __version__,
        "files": {name: {"lines": per_file_counts.get(name, None), "bytes": len(body)}
                  for name, body in files.items() if name != "stats.tsv"},
        "per_signal": dict(sorted(per_signal.items())),
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    path.mkdir()
    for name, body in files.items():
        (path / name).write_bytes(body)
    with open(path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return bundle_hash


# -- template eligibility --------------------------------------------------------


def _assert_eligibility_matches(tup: SignalTuple) -> None:
    for signal_type, family, group in GROUP_KEYS:
        if signal_type != tup.signal_type:
            continue
        expected = reference_eligible(signal_type, family, group, tup)
        got = REGISTRY.eligible(signal_type, family, group, tup)
        assert [t.template_id for t in got] == [t.template_id for t in expected], (family, group)


def test_eligible_equals_applies_to_filter_on_fixture_tuples(all_fixture_tuples):
    for tup in all_fixture_tuples:
        _assert_eligibility_matches(tup)


# the values the catalog's `requires` predicates test, and near misses
_META_VALUES = st.sampled_from(["", "yes", "no", "order", "next", "entities", "typing", "a",
                                "a | b", "a | b | c", " | a", "a | ", "None"])
_META_KEYS = st.sampled_from(["variant", "has_entities", "is_cloze", "sibling_titles",
                              "other_step_headlines", "category"])
_FIELD_VALUES = st.sampled_from(["x", "a | b", "a | b | c", "a |  | b", "None"])


@st.composite
def requiring_tuples(draw) -> SignalTuple:
    signal_type = draw(st.sampled_from(REQUIRING_SIGNALS))
    arity = CATALOG[signal_type].arity
    fields = tuple(draw(st.lists(_FIELD_VALUES, min_size=arity, max_size=arity)))
    meta = draw(st.dictionaries(_META_KEYS, _META_VALUES, max_size=4))
    return SignalTuple(signal_type, fields, "gen/1", meta)


@settings(max_examples=300, deadline=None)
@given(requiring_tuples())
def test_eligible_equals_applies_to_filter_on_generated_tuples(tup):
    _assert_eligibility_matches(tup)


def test_eligible_lists_are_memoized_per_predicate_outcome():
    a = SignalTuple("daily_mail_temporal", ("t", "e"), "d/1", {"variant": "order"})
    b = SignalTuple("daily_mail_temporal", ("u", "f"), "d/2", {"variant": "order", "x": "y"})
    first = REGISTRY.eligible("daily_mail_temporal", "multiple_choice", None, a)
    assert first and first is REGISTRY.eligible("daily_mail_temporal", "multiple_choice", None, b)
    # a group without requirements hands out its own list
    tup = SignalTuple("rotten_tomatoes_sentiment", ("fine", "positive"), "r/1")
    assert REGISTRY.eligible("rotten_tomatoes_sentiment", "multiple_choice", None, tup) is REGISTRY.get(
        "rotten_tomatoes_sentiment", "multiple_choice"
    )


# -- seed material ---------------------------------------------------------------

_KEY_PARTS = st.one_of(st.integers(), st.text(), st.sampled_from(["", "é", "日本", "\x1f", "emoji \U0001f600"]))


@settings(max_examples=500, deadline=None)
@given(st.integers(), st.lists(_KEY_PARTS, max_size=6))
def test_derive_seed_equals_the_byte_by_byte_formula(seed, key):
    assert derive_seed(seed, *key) == reference_derive_seed(seed, *key)


def test_derive_seed_with_an_empty_key():
    assert derive_seed(7) == reference_derive_seed(7)
    assert derive_seed(7, "") == reference_derive_seed(7, "")
    # both are the material "7\x1f", as they were
    assert derive_seed(7) == derive_seed(7, "")


# -- record lines ------------------------------------------------------------------

# what json.dumps escapes (quotes, backslashes, controls) and what it passes
# through under ensure_ascii=False (U+2028, U+2029, DEL, non-BMP)
_TEXT = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\u2029", "é", "\U0001f600"]),
    st.characters(),
))
_FIELDS = dataclasses.fields(PromptedExample)


@st.composite
def _examples(draw) -> PromptedExample:
    values = {f.name: draw(st.integers() if f.type == "int" else _TEXT) for f in _FIELDS}
    if draw(st.integers(0, 3)) == 0:
        # a lone surrogate, which no UTF-8 line can hold, in one text field
        name = draw(st.sampled_from([f.name for f in _FIELDS if f.type == "str"]))
        values[name] += draw(st.characters(categories=["Cs"]))
    return PromptedExample(**values)


@settings(max_examples=1000, deadline=None)
@given(_examples())
def test_encode_record_equals_json_dumps_of_the_record(ex):
    try:
        expected = reference_line(ex)
    except UnicodeEncodeError:
        with pytest.raises(UnicodeEncodeError):
            encode_record(ex)
    else:
        assert encode_record(ex) == expected


def test_a_lone_surrogate_is_refused_both_ways():
    for text in ("\ud800", "a\udfffb"):
        ex = _example(1, text=text)
        with pytest.raises(UnicodeEncodeError):
            reference_line(ex)
        with pytest.raises(UnicodeEncodeError):
            encode_record(ex)


# -- the streaming bundle writer --------------------------------------------------


def _example(i: int, signal: str = "qa_triviaqa", split: str = "train", text: str = "") -> PromptedExample:
    return PromptedExample(
        source=f"TEXT: context {i} {text} QUERY: question {i}?",
        target=f"answer {i} {text}".strip(),
        signal_type=signal,
        template_id=f"{signal}.gen.001",
        family="generation",
        seed=3,
        split=split,
        source_doc=f"doc/{i}",
    )


def _bundle_bytes(path: Path) -> dict[str, bytes]:
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def _assert_writers_agree(tmp_path: Path, streams: dict, extra: dict | None = None) -> None:
    expected = reference_write_bundle(tmp_path / "reference", streams, extra)
    lines: dict[int, bytes] = {}  # an example object listed twice shares its line
    for examples in streams.values():
        for ex in examples:
            if id(ex) not in lines:
                lines[id(ex)] = encode_record(ex)
    records = {name: [(ex.signal_type, id(ex)) for ex in examples] for name, examples in streams.items()}
    got = write_bundle(tmp_path / "streamed", records, lines.__getitem__, extra)
    assert got == expected
    assert _bundle_bytes(tmp_path / "streamed") == _bundle_bytes(tmp_path / "reference")
    assert read_manifest(tmp_path / "streamed") == read_manifest(tmp_path / "reference")
    verify_bundle(tmp_path / "streamed")


def test_streaming_writer_matches_when_stages_share_examples(tmp_path):
    stage1 = [_example(i, text="ünïcode ✓" if i % 3 == 0 else "") for i in range(40)]
    validation = [_example(100 + i, split="validation") for i in range(5)]
    stage2 = stage1[::2] + [_example(200 + i, signal="arxiv_summary") for i in range(30)] + stage1[1::2]
    # an equal example built separately, and an object listed twice in one stream
    stage2.append(_example(0, text="ünïcode ✓"))
    stage2.append(stage2[3])
    streams = {
        "mix.stage1.train": stage1,
        "mix.stage1.validation": validation,
        "mix.stage2.train": stage2,
        "mix.stage2.validation": list(validation),
    }
    _assert_writers_agree(tmp_path, streams, {"spec_name": "mix", "warnings": ["w"]})


def test_streaming_writer_matches_with_an_empty_stream(tmp_path):
    streams = {"mix.stage1.train": [_example(i) for i in range(5)], "mix.stage1.validation": []}
    _assert_writers_agree(tmp_path, streams)


def test_streaming_writer_matches_when_a_stream_sorts_after_stats(tmp_path):
    shared = [_example(i) for i in range(12)]
    streams = {"zz.stage1.train": shared, "aa.stage1.train": shared[:4], "stats.tsw": shared[5:]}
    assert sorted([*streams, "stats.tsv"])[-2:] == ["stats.tsw", "zz.stage1.train"]
    _assert_writers_agree(tmp_path, streams)


def test_streaming_writer_matches_over_many_write_chunks(tmp_path):
    examples = [_example(i, signal="wikihow_summary" if i % 2 else "qa_triviaqa") for i in range(2500)]
    streams = {"big.stage1.train": examples[:1800], "big.stage2.train": examples}
    _assert_writers_agree(tmp_path, streams)


def test_streaming_writer_encodes_each_listed_example_once(tmp_path, monkeypatch, all_fixture_tuples):
    # mix encodes each rendered example once, in its shard; a later stage
    # that lists the example again lists the same line
    monkeypatch.setattr(mixer, "worker_count", lambda: 1)
    spec = MixSpec(entries=(MixEntry("daily_mail_summary", "multiple_choice", stage=1),
                            MixEntry("daily_mail_summary", "generation", stage=2)), global_seed=3, name="s")
    encoded = []
    monkeypatch.setattr(mixer, "encode_record", lambda ex: encoded.append(ex) or encode_record(ex))
    with mixer.Spill(tmp_path) as spill:
        result = mixer.mix(all_fixture_tuples, spec, REGISTRY, spill)
        streams = {f"s.stage{stage}.{split}": records for (stage, split), records in result.examples.items()}
        write_bundle(tmp_path / "b", streams, spill.line_of)
    lines = [line for records in streams.values() for _, line in records]  # job numbers of spilled lines
    assert len(lines) > len({id(line) for line in lines})
    assert len(encoded) == len({id(ex) for ex in encoded}) == len({id(line) for line in lines})
