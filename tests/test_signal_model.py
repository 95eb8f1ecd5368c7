from __future__ import annotations

import dataclasses
import json
import reprlib

import pytest
from hypothesis import given, reject, settings, strategies as st

from signalmine.signal_model import (
    CATALOG,
    FAMILIES,
    TASK_SIGNAL_IDS,
    FieldError,
    MixEntry,
    MixSpec,
    OneOf,
    SchemaError,
    TUPLE,
    SignalTuple,
    default,
    dump_tuples,
    load_tuples,
    mixspec_from_record,
    read,
    required,
    tuple_from_record,
    validate_tuple,
)


def test_catalog_shape():
    # 30 task-relevant signal types plus the generic cloze signal
    assert len(TASK_SIGNAL_IDS) == 30
    assert len(CATALOG) == 31
    assert "plain_text_cloze" in CATALOG
    assert "wikipedia_sentiment" in TASK_SIGNAL_IDS
    for st_ in CATALOG.values():
        assert st_.arity == len(st_.field_names)
    assert len({st_.id for st_ in CATALOG.values()}) == len(CATALOG)


def test_validate_accepts_matching_arity():
    tup = SignalTuple("rotten_tomatoes_sentiment", ("great film", "positive"), "rotten_tomatoes/x")
    assert validate_tuple(tup)


def test_validate_rejects_arity_mismatch():
    tup = SignalTuple("rotten_tomatoes_sentiment", ("great film",), "rotten_tomatoes/x")
    verdict = validate_tuple(tup)
    assert not verdict and verdict.reason.startswith("arity")


def test_validate_relation_quad():
    tup = SignalTuple(
        "wikidata_relation",
        ("Mozart was born in Salzburg", "Mozart", "place of birth", "Salzburg"),
        "wikidata/q1",
    )
    assert validate_tuple(tup)
    assert CATALOG["wikidata_relation"].field_names == ("text", "subject", "property", "object")


def test_unknown_signal_is_structural():
    tup = SignalTuple("no_such_signal", ("a",), "x/y")
    with pytest.raises(SchemaError):
        validate_tuple(tup)


def test_empty_and_unnormalized_fields_rejected():
    bad = SignalTuple("rotten_tomatoes_sentiment", ("", "positive"), "rotten_tomatoes/x")
    assert "empty_field" in validate_tuple(bad).reason
    bad = SignalTuple("rotten_tomatoes_sentiment", ("two  spaces", "positive"), "rotten_tomatoes/x")
    assert "unnormalized_field" in validate_tuple(bad).reason


_word = st.text(alphabet="abcdefg", min_size=1, max_size=8)
_clean_text = st.lists(_word, min_size=1, max_size=6).map(" ".join)


@given(review=_clean_text, label=st.sampled_from(["positive", "negative"]),
       meta_val=_clean_text)
def test_serialization_round_trip(review, label, meta_val):
    tup = SignalTuple(
        "rotten_tomatoes_sentiment", (review, label), "rotten_tomatoes/d1", {"rating": meta_val}
    )
    assert validate_tuple(tup)
    rehydrated = load_tuples(dump_tuples([tup]))
    assert rehydrated == [tup]
    # stability: a second round trip is byte-identical
    assert dump_tuples(rehydrated) == dump_tuples([tup])


def test_round_trip_keeps_line_separators_inside_a_field():
    """Records end at "\\n" only; dump_tuples writes U+2028 and U+0085 raw."""
    tup = SignalTuple("rotten_tomatoes_sentiment", ("a\u2028b\x85c", "positive"), "rotten_tomatoes/d1")
    assert load_tuples(dump_tuples([tup])) == [tup]
    assert load_tuples(dump_tuples([tup]).encode()) == [tup]


_json_value = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=3),
                        st.lists(st.text(max_size=2), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.text(max_size=2), max_size=2))
_name = st.text(alphabet="abcdefg_", max_size=8)


def _mutations(draw, rec: dict) -> None:
    """Up to two edits of `rec`: an undeclared key, a declared key given a
    value of any JSON type or removed, an unknown signal type, a field or a
    meta value of any JSON type, a field removed."""
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        edit = draw(st.sampled_from(["key", "value", "remove", "signal", "fields", "meta", "drop-field"]))
        if edit == "key":
            rec[draw(_name)] = draw(_json_value)
        elif edit == "value":
            rec[draw(st.sampled_from(sorted(TUPLE)))] = draw(_json_value)
        elif edit == "remove":
            rec.pop(draw(st.sampled_from(sorted(TUPLE))), None)
        elif edit == "signal":
            rec["signal_type"] = draw(_name)
        else:
            named = rec.setdefault("meta", {}) if edit == "meta" else rec.get("fields")
            if type(named) is dict:
                key = draw(_name | st.sampled_from(sorted(named) or [""]))
                if edit == "drop-field":
                    named.pop(key, None)
                else:
                    named[key] = draw(_json_value)


@st.composite
def _tuple_records(draw):
    """Tuple records as a tuple file holds them, edited (`_mutations`)."""
    signal_type = draw(st.sampled_from(sorted(CATALOG)))
    rec = {"signal_type": signal_type, "fields": {name: draw(_clean_text) for name in CATALOG[signal_type].field_names},
           "source_doc": draw(_clean_text)}
    if draw(st.booleans()):
        rec["v"] = draw(st.sampled_from(["1", ""]))
    if draw(st.booleans()):
        rec["meta"] = draw(st.dictionaries(_name, _clean_text, max_size=2))
    _mutations(draw, rec)
    return rec


def _declared_tuple(rec) -> SignalTuple:
    """The tuple `rec` holds, read through TUPLE (closed) and checked against
    the catalog, or the `FieldError` that refuses it."""
    values = read(rec, TUPLE, closed=True)
    st_ = CATALOG.get(values["signal_type"])
    if st_ is None:
        raise FieldError(f"'signal_type' must be a catalog signal type, got {reprlib.repr(values['signal_type'])}")
    for name in st_.field_names:
        if name not in values["fields"]:
            raise FieldError(f"'fields.{name}' must be a string, got nothing")
    fields = tuple(values["fields"][name] for name in st_.field_names)
    return SignalTuple(values["signal_type"], fields, values["source_doc"], values["meta"])


@settings(max_examples=1000, deadline=None)
@given(_tuple_records())
def test_tuple_from_record_accepts_exactly_what_its_declaration_accepts(rec):
    """The hand-written checks of `tuple_from_record` accept a record if and
    only if TUPLE and the catalog do, and a refused record is refused with
    their message."""
    try:
        expected = _declared_tuple(rec)
    except FieldError as exc:
        with pytest.raises(FieldError) as caught:
            tuple_from_record(rec)
        assert str(caught.value) == str(exc)
    else:
        assert tuple_from_record(rec) == expected


def test_mixspec_invariants():
    with pytest.raises(SchemaError, match="'entries' must hold an entry"):
        MixSpec(entries=())
    with pytest.raises(SchemaError):  # stages must be contiguous from 1
        MixSpec(entries=(
            MixEntry("qa_race", "multiple_choice", stage=1),
            MixEntry("qa_race", "generation", stage=3),
        ))
    spec = MixSpec(entries=(
        MixEntry("qa_race", "multiple_choice", stage=1),
        MixEntry("qa_race", "generation", stage=2),
    ))
    assert spec.stages == [1, 2]


def test_mixentry_validation():
    with pytest.raises(SchemaError):
        MixEntry("no_such_signal", "multiple_choice")
    with pytest.raises(SchemaError):
        MixEntry("qa_race", "nope")
    with pytest.raises(SchemaError):
        MixEntry("qa_race", "multiple_choice", cap=0)


def test_serialized_field_order_is_declared_order():
    tup = SignalTuple(
        "wikidata_relation",
        ("Mozart was born in Salzburg", "Mozart", "place of birth", "Salzburg"),
        "wikidata/q1",
    )
    line = dump_tuples([tup]).strip()
    fields_blob = line.split('"fields": ')[1]
    positions = [fields_blob.index(f'"{name}"') for name in CATALOG["wikidata_relation"].field_names]
    assert positions == sorted(positions)


_spec_text = st.text(max_size=6)
_count = st.integers(min_value=1, max_value=10 ** 6)
_ENTRY_KEYS = {
    "cap": st.none() | _count,
    "per_category_cap": st.none() | _count,
    "stage": st.integers(min_value=1, max_value=2),
    "template_group": st.none() | _spec_text,
    "composition": st.none() | st.dictionaries(_spec_text, st.integers(min_value=0, max_value=50), max_size=3),
    "composition_key": st.none() | _spec_text,
}


@st.composite
def _mixspec_records(draw):
    """Mix spec records as a JSON file holds them: every optional key of an
    entry or the spec present or absent."""
    entries = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        entry = {"signal_type": draw(st.sampled_from(sorted(CATALOG))), "family": draw(st.sampled_from(FAMILIES))}
        for key, values in _ENTRY_KEYS.items():
            if draw(st.booleans()):
                entry[key] = draw(values)
        entries.append(entry)
    rec = {"entries": entries}
    for key, values in (("split_ratio", st.floats(min_value=0, max_value=1, exclude_max=True)), ("name", _spec_text)):
        if draw(st.booleans()):
            rec[key] = draw(values)
    return rec


@given(_mixspec_records())
def test_mixspec_round_trips_through_its_dataclass_fields(rec):
    try:
        spec = mixspec_from_record(rec)
    except SchemaError:
        reject()  # not a spec: stages with a gap
    fields = dataclasses.asdict(spec)
    assert mixspec_from_record(fields) == spec
    # and through the JSON a spec file or a spec hash holds
    assert mixspec_from_record(json.loads(json.dumps(fields, sort_keys=True))) == spec


def test_every_preset_round_trips_through_its_dataclass_fields():
    from importlib import resources

    presets = [p for p in resources.files("signalmine").joinpath("presets").iterdir() if p.name.endswith(".json")]
    assert len(presets) == 10
    for preset in presets:
        spec = mixspec_from_record(json.loads(preset.read_text("utf-8")))
        assert mixspec_from_record(dataclasses.asdict(spec)) == spec


_RULE = OneOf(a={"kind": str, "x": required(int)}, b={"kind": str, "y": bool})
_SHAPE = {"i": int, "b": bool, "m": {str: int}, "r": required(str), "d": default(float, 1.0),
          "n": default(str, None), "s": [str], "u": _RULE}


def test_read_kinds_for_declared_inputs():
    doc = {"i": 3, "b": False, "m": {"p": 1, "q": 2}, "r": "x", "d": 2, "n": "", "s": ("", "t"),
           "u": {"kind": "a", "x": 4}}
    assert read(doc, _SHAPE, closed=True) == {"i": 3, "b": False, "m": {"p": 1, "q": 2}, "r": "x", "d": 2.0,
                                              "n": "", "s": ["", "t"], "u": {"kind": "a", "x": 4}}
    # absent keys read as their kind's or their declared default; null, in an open shape, as absent
    empty = {"i": None, "b": False, "m": {}, "r": "x", "d": 1.0, "n": None, "s": [], "u": None}
    assert read({"r": "x"}, _SHAPE, closed=True) == read({"r": "x", "i": None, "d": None, "u": None}, _SHAPE) == empty
    assert read({"r": "x", "n": None}, _SHAPE, closed=True)["n"] is None
    assert read({"r": "x", "u": {"kind": "b"}}, _SHAPE)["u"] == {"kind": "b", "y": False}
    for doc, closed, message in [
        ({}, False, "'r' must be a string, got nothing"),
        ({"r": None}, False, "'r' must be a string, got None"),
        ({"r": "x", "i": True}, False, "'i' must be an integer, got True"),
        ({"r": "x", "i": 1.0}, False, "'i' must be an integer, got 1.0"),
        ({"r": "x", "b": 0}, False, "'b' must be true or false, got 0"),
        ({"r": "x", "m": {"p": "1"}}, False, "'m.p' must be an integer, got '1'"),
        ({"r": "x", "u": {"kind": "c"}}, False, "'u.kind' must be one of 'a', 'b', got 'c'"),
        ({"r": "x", "u": {"x": 1}}, False, "'u.kind' must be one of 'a', 'b', got None"),
        ({"r": "x", "u": {"kind": "a"}}, False, "'u.x' must be an integer, got nothing"),
        ({"r": "x", "u": {"kind": "b", "x": 1}}, True, "'u.x' is not a declared key"),
        ({"r": "x", "extra": 1}, True, "'extra' is not a declared key"),
        # in a closed shape, null is a value, read only where the declared default is None
        ({"r": "x", "i": None}, True, "'i' must be an integer, got None"),
        ({"r": "x", "d": None}, True, "'d' must be a number, got None"),
        ({"r": "x", "u": None}, True, "'u' must be an object, got None"),
        ({"r": "x", "m": {"p": None}}, True, "'m.p' must be an integer, got None"),
        ({"r": "x", "s": ["t", None]}, True, "'s[]' must be a string, got None"),
        # a null item of a list of strings is no string in an open shape either
        ({"r": "x", "s": ["t", None]}, False, "'s[]' must be a string, got None"),
    ]:
        with pytest.raises(FieldError) as caught:
            read(doc, _SHAPE, closed=closed)
        assert str(caught.value) == message
