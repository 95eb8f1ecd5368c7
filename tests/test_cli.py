from __future__ import annotations

import dataclasses
import json
import os
import shlex
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from signalmine.cli import main
from signalmine.dataset_io import MANIFEST, write_bundle
from signalmine.eval_harness import datasets
from signalmine.eval_harness.datasets import OPTION_RECORD
from signalmine.eval_harness.gaokao import ANSWERS, PAPER
from signalmine.restructurer.templates import PROMPT, TEMPLATE, load_eval_prompts
from signalmine.signal_model import MIX_SPEC, TUPLE, MixEntry, MixSpec, OneOf, required

from conftest import FIXTURES


@pytest.fixture()
def runner():
    return CliRunner()


def run_extract(runner, tmp_path, mine, **extra):
    out = tmp_path / f"{mine}.tuples"
    args = ["extract", "--mine", mine, "--in", str(FIXTURES / "mines" / f"{mine}.jsonl"),
            "--out", str(out), "--seed", "7"]
    for flag, value in extra.items():
        args += [f"--{flag}", str(value)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return out


def test_extract_smoke(runner, tmp_path):
    out = run_extract(runner, tmp_path, "wordnet")
    lines = out.read_text().strip().split("\n")
    assert lines and all(json.loads(l)["signal_type"].startswith("wordnet") for l in lines)


def test_extract_report(runner, tmp_path):
    report = tmp_path / "report.json"
    out = tmp_path / "rt.tuples"
    result = runner.invoke(main, [
        "extract", "--mine", "rotten_tomatoes",
        "--in", str(FIXTURES / "mines" / "rotten_tomatoes.jsonl"),
        "--out", str(out), "--seed", "7", "--report", str(report),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(report.read_text())
    assert doc["accepted"]["rotten_tomatoes_sentiment"] > 0


@pytest.mark.parametrize("spelling", ["rt.tuples", "./rt.tuples"])
def test_extract_report_naming_the_out_file_is_a_usage_error(runner, tmp_path, spelling):
    result = runner.invoke(main, [
        "extract", "--mine", "rotten_tomatoes",
        "--in", str(FIXTURES / "mines" / "rotten_tomatoes.jsonl"),
        "--out", str(tmp_path / "rt.tuples"), "--report", f"{tmp_path}/{spelling}",
    ])
    assert result.exit_code == 2
    assert "names the --out file" in result.output
    assert list(tmp_path.iterdir()) == []


def test_extract_out_naming_the_in_file_is_a_usage_error(runner, tmp_path):
    dump = tmp_path / "rt.jsonl"
    dump.write_bytes((FIXTURES / "mines" / "rotten_tomatoes.jsonl").read_bytes())
    before = dump.read_bytes()
    result = runner.invoke(main, ["extract", "--mine", "rotten_tomatoes", "--in", str(dump),
                                  "--out", f"{tmp_path}/./rt.jsonl"])
    assert result.exit_code == 2
    assert "names the --in file" in result.output
    assert [p.name for p in tmp_path.iterdir()] == ["rt.jsonl"] and dump.read_bytes() == before


def _extract_rt_ids(runner, tmp_path, ids: list) -> tuple:
    """`extract` of rotten_tomatoes documents with these doc_id values, each
    `...` leaving the key out: the result, and the report if one is written."""
    review = {"review": "A wonderful and generous film with a huge heart and real wit", "rating": 5.0}
    docs = [review if doc_id is ... else {"doc_id": doc_id, **review} for doc_id in ids]
    dump, out = tmp_path / "rt.jsonl", tmp_path / "rt.tuples"
    dump.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    result = runner.invoke(main, ["extract", "--mine", "rotten_tomatoes", "--in", str(dump), "--out", str(out)])
    report = out.with_name(out.name + ".report.json")
    return result, json.loads(report.read_text()) if report.exists() else None


def test_extract_null_or_absent_doc_id_is_a_missing_one(runner, tmp_path):
    # a null id was kept as "None", and a second null one counted a duplicate
    result, report = _extract_rt_ids(runner, tmp_path, [None, None, ..., "a"])
    assert result.exit_code == 0, result.output
    assert report["skipped_docs"] == {"rotten_tomatoes:missing_doc_id": 3}
    assert [json.loads(line)["source_doc"] for line in (tmp_path / "rt.tuples").read_text().splitlines()] == [
        "rotten_tomatoes/a"]


@pytest.mark.parametrize("doc_id", [["x"], True, 5, {"id": "a"}])
def test_extract_doc_id_of_another_json_type_is_one_schema_error_line(runner, tmp_path, doc_id):
    # these were kept as their Python text, such as "rotten_tomatoes/['x']"
    # or "rotten_tomatoes/True"; an integer as its decimal text
    result, report = _extract_rt_ids(runner, tmp_path, ["a", doc_id])
    assert (result.exit_code, report) == (1, None)
    assert result.output == (f"schema-error: {tmp_path / 'rt.jsonl'}:2: "
                             f"'doc_id' must be a string, got {doc_id!r}\n")


def test_restructure_out_naming_a_tuples_file_is_a_usage_error(runner, tmp_path):
    rt = run_extract(runner, tmp_path, "rotten_tomatoes")
    wn = run_extract(runner, tmp_path, "wordnet")
    before = _outputs(tmp_path)
    result = runner.invoke(main, ["restructure", "--tuples", str(rt), "--tuples", str(wn),
                                  "--out", f"{tmp_path}/./wordnet.tuples"])
    assert result.exit_code == 2
    assert "names a --tuples file" in result.output
    assert _outputs(tmp_path) == before


def _outputs(tmp_path):
    return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}


_PWC = ["extract", "--mine", "paperswithcode", "--in", "{in}", "--db", "{db}"]
_WIKIDATA = ["extract", "--mine", "wikidata", "--in", "{in}", "--blocklist", "{blocklist}"]
_RT_PROMPT = {"source": "TEXT: {premise} QUERY: does \"{hypothesis}\" follow?", "target": "{label}"}


# per case, a command whose inputs are copies named after their flags, and
# the output flag given the path of the input flag's file; --out naming --in
# or a --tuples file, and --report naming --out, have tests of their own
@pytest.mark.parametrize("args,out_flag,in_flag", [
    ([*_PWC, "--out", "{db}"], "--out", "--db"),
    ([*_WIKIDATA, "--out", "{blocklist}"], "--out", "--blocklist"),
    ([*_PWC, "--out", "{out}", "--report", "{in}"], "--report", "--in"),
    ([*_PWC, "--out", "{out}", "--report", "{db}"], "--report", "--db"),
    ([*_WIKIDATA, "--out", "{out}", "--report", "{blocklist}"], "--report", "--blocklist"),
    (["restructure", "--tuples", "{tuples}", "--templates", "{templates}", "--out", "{templates}"],
     "--out", "--templates"),
    (["evaluate", "--dataset", "rte", "--data", "{data}", "--out", "{data}"], "--out", "--data"),
    (["evaluate", "--dataset", "rte", "--data", "{data}", "--prompts", "{prompts}", "--out", "{prompts}"],
     "--out", "--prompts"),
    (["grade", "--paper", "{paper}", "--answers", "{answers}", "--out", "{paper}"], "--out", "--paper"),
    (["grade", "--paper", "{paper}", "--answers", "{answers}", "--out", "{answers}"], "--out", "--answers"),
], ids=["extract-out-db", "extract-out-blocklist", "extract-report-in", "extract-report-db",
        "extract-report-blocklist", "restructure-out-templates", "evaluate-out-data", "evaluate-out-prompts",
        "grade-out-paper", "grade-out-answers"])
def test_an_output_naming_an_input_file_is_a_usage_error(runner, tmp_path, args, out_flag, in_flag):
    """Exit 2 and nothing written: every input is left as it was."""
    mines, mine = FIXTURES / "mines", args[2] if args[0] == "extract" else None
    sources = {
        "in": (mines / f"{mine}.jsonl").read_bytes() if mine else b"",
        "db": (mines / "pwc_entity_db.jsonl").read_bytes(),
        "blocklist": b"P31\n",
        "tuples": (json.dumps(_RT_TUPLE) + "\n").encode(),
        "templates": resources.files("signalmine").joinpath("restructurer", "data", "templates.jsonl").read_bytes(),
        "data": (FIXTURES / "eval" / "rte.jsonl").read_bytes(),
        "prompts": json.dumps([_RT_PROMPT] * 5).encode(),
        "paper": (FIXTURES / "gaokao" / "paper_2019_np2.json").read_bytes(),
        "answers": (FIXTURES / "gaokao" / "answers_2019_np2_rst.json").read_bytes(),
    }
    for name, body in sources.items():
        (tmp_path / name).write_bytes(body)
    before = _outputs(tmp_path)
    paths = {name: f"{tmp_path}/./{name}" for name in [*sources, "out"]}
    args = [arg.format(**paths) for arg in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    path = args[args.index(out_flag) + 1]
    assert f"Error: {out_flag} {path} names the {in_flag} file\n" in result.output
    assert _outputs(tmp_path) == before


# per command: a run whose output, given as {dir}/..., is written there, and
# the same run with a usage error
@pytest.mark.parametrize("args,output,usage_error", [
    (["extract", "--mine", "rotten_tomatoes", "--in", str(FIXTURES / "mines" / "rotten_tomatoes.jsonl"),
      "--out", "{dir}/x.tuples"], "x.tuples", ["--blocklist", "{tuples}"]),
    (["restructure", "--tuples", "{tuples}", "--out", "{dir}/x.jsonl"], "x.jsonl", ["--family", "cloze"]),
    (["mix", "--spec", "{spec}", "--tuples", "{tuples}", "--out", "{dir}/b"], "b/manifest.json",
     ["--spec", "no_such_spec"]),
    (["evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"), "--out", "{dir}/r.json"],
     "r.json", ["--scorer", "no-such-scorer"]),
    (["grade", "--paper", str(FIXTURES / "gaokao" / "paper_2019_np2.json"),
      "--answers", str(FIXTURES / "gaokao" / "answers_2019_np2_rst.json"), "--out", "{dir}/g.json"],
     "g.json", ["--essay-score", "many"]),
], ids=["extract", "restructure", "mix", "evaluate", "grade"])
def test_an_output_in_a_missing_directory_is_written_there_and_a_usage_error_makes_none(
        runner, tmp_path, args, output, usage_error):
    tuples, spec = tmp_path / "rt.tuples", tmp_path / "spec.json"
    tuples.write_text(json.dumps(_RT_TUPLE) + "\n")
    spec.write_text(json.dumps({"entries": [{"signal_type": "rotten_tomatoes_sentiment", "family": "generation"}]}))
    names = {"dir": tmp_path / "new" / "dir", "tuples": tuples, "spec": spec}
    result = runner.invoke(main, [arg.format(**names) for arg in [*args, *usage_error]])
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "new").exists()
    result = runner.invoke(main, [arg.format(**names) for arg in args])
    assert result.exit_code == 0, result.output
    assert (names["dir"] / output).is_file()


def test_extract_failed_rename_keeps_previous_output(runner, tmp_path, monkeypatch):
    run_extract(runner, tmp_path, "daily_mail")
    before = _outputs(tmp_path)
    assert set(before) == {"daily_mail.tuples", "daily_mail.tuples.report.json"}

    def refuse(src, dst):
        raise OSError("injected rename failure")

    monkeypatch.setattr("os.replace", refuse)
    result = runner.invoke(main, ["extract", "--mine", "daily_mail",
                                  "--in", str(FIXTURES / "mines" / "daily_mail.jsonl"),
                                  "--out", str(tmp_path / "daily_mail.tuples"), "--seed", "8"])
    assert result.exit_code == 1 and "injected rename failure" in result.output
    assert _outputs(tmp_path) == before  # no temp file left, old bytes intact


def test_extract_killed_halfway_through_write_keeps_previous_output(runner, tmp_path):
    """A file-size limit makes the tuple write fail after part of the bytes
    reached the disk, as a full disk would."""
    resource = pytest.importorskip("resource")
    import signal
    import subprocess
    import sys

    import signalmine

    out = run_extract(runner, tmp_path, "daily_mail")
    before = _outputs(tmp_path)
    limit = len(before["daily_mail.tuples"]) // 2

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # fail the write with EFBIG instead
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    src = str(Path(signalmine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "signalmine.cli", "extract", "--mine", "daily_mail",
         "--in", str(FIXTURES / "mines" / "daily_mail.jsonl"), "--out", str(out), "--seed", "8"],
        env=env, capture_output=True, text=True, preexec_fn=limit_file_size, timeout=120,
    )
    assert proc.returncode == 1 and proc.stderr.startswith("io-error:"), proc.stderr
    assert _outputs(tmp_path) == before


def test_unknown_mine_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, [
        "extract", "--mine", "gold_mine",
        "--in", str(FIXTURES / "mines" / "wordnet.jsonl"),
        "--out", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2


def test_pwc_requires_db(runner, tmp_path):
    result = runner.invoke(main, [
        "extract", "--mine", "paperswithcode",
        "--in", str(FIXTURES / "mines" / "paperswithcode.jsonl"),
        "--out", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("mine,flag,owner", [
    ("rotten_tomatoes", "--db", "paperswithcode"),
    ("wikidata", "--db", "paperswithcode"),
    ("rotten_tomatoes", "--blocklist", "wikidata"),
    ("paperswithcode", "--blocklist", "wikidata"),
])
def test_flag_of_another_mine_is_usage_error(runner, tmp_path, mine, flag, owner):
    out = tmp_path / "x.tuples"
    args = ["extract", "--mine", mine, "--in", str(FIXTURES / "mines" / f"{mine}.jsonl"), "--out", str(out)]
    if mine == "paperswithcode":
        args += ["--db", str(FIXTURES / "mines" / "pwc_entity_db.jsonl")]
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text("P31\n")
    result = runner.invoke(main, [*args, flag, str(flag_file)])
    assert result.exit_code == 2
    assert f"{flag} is for the {owner} mine only, not {mine}" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flag.txt"]


def _write_spec(tmp_path):
    spec = {
        "name": "clismoke",
        "split_ratio": 0.2,
        "entries": [
            {"signal_type": "rotten_tomatoes_sentiment", "family": "multiple_choice", "cap": 10},
            {"signal_type": "plain_text_cloze", "family": "cloze"},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_full_pipeline_and_determinism(runner, tmp_path):
    rt = run_extract(runner, tmp_path, "rotten_tomatoes")
    pt = run_extract(runner, tmp_path, "plain_text")
    spec = _write_spec(tmp_path)

    hashes = []
    for name in ("b1", "b2"):
        result = runner.invoke(main, [
            "mix", "--spec", str(spec), "--tuples", str(rt), "--tuples", str(pt),
            "--out", str(tmp_path / name), "--seed", "7",
        ])
        assert result.exit_code == 0, result.output
        hashes.append(result.output.strip().split()[-1])
    assert hashes[0] == hashes[1]

    result = runner.invoke(main, ["mix", "--spec", str(spec), "--tuples", str(rt),
                                  "--tuples", str(pt), "--out", str(tmp_path / "b3"),
                                  "--seed", "8"])
    assert result.output.strip().split()[-1] != hashes[0]

    result = runner.invoke(main, ["validate", "--bundle", str(tmp_path / "b1")])
    assert result.exit_code == 0 and result.output.startswith("ok ")

    result = runner.invoke(main, ["stats", "--bundle", str(tmp_path / "b1")])
    assert result.exit_code == 0
    assert "rotten_tomatoes_sentiment" in result.output
    assert "(review,rating)" in result.output


def test_validate_detects_corruption(runner, tmp_path):
    rt = run_extract(runner, tmp_path, "rotten_tomatoes")
    spec = _write_spec(tmp_path)
    runner.invoke(main, ["mix", "--spec", str(spec), "--tuples", str(rt),
                         "--out", str(tmp_path / "b"), "--seed", "7"])
    victim = tmp_path / "b" / "clismoke.stage1.train"
    victim.write_text(victim.read_text().replace("film", "flim"))
    result = runner.invoke(main, ["validate", "--bundle", str(tmp_path / "b")])
    assert result.exit_code == 1
    assert result.output.startswith("integrity-error:") or "integrity-error:" in result.output


def _clismoke_bundle(runner, tmp_path):
    """A bundle `mix` wrote from the rotten_tomatoes fixture: its train and
    validation streams."""
    rt = run_extract(runner, tmp_path, "rotten_tomatoes")
    bundle = tmp_path / "b"
    result = runner.invoke(main, ["mix", "--spec", str(_write_spec(tmp_path)), "--tuples", str(rt),
                                  "--out", str(bundle), "--seed", "7"])
    assert result.exit_code == 0, result.output
    return bundle


def _edit_manifest(bundle, edit) -> None:
    manifest = json.loads((bundle / "manifest.json").read_text())
    edit(manifest)
    (bundle / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("files,message", [
    (5, "'files' must be an object, got 5"),
    (["clismoke.stage1.train"], "'files' must be an object, got ['clismoke.stage1.train']"),
    ({"clismoke.stage1.train": 5}, "'files.clismoke.stage1.train' must be an object, got 5"),
], ids=["number", "list", "entry-not-object"])
@pytest.mark.parametrize("command", ["validate", "stats"])
def test_manifest_files_of_the_wrong_shape_is_one_schema_error_line(runner, tmp_path, files, message, command):
    bundle = _clismoke_bundle(runner, tmp_path)
    _edit_manifest(bundle, lambda manifest: manifest.update(files=files))
    result = runner.invoke(main, [command, "--bundle", str(bundle)])
    assert result.exit_code == 1
    assert result.output == f"schema-error: {bundle / 'manifest.json'}: {message}\n"


@pytest.mark.parametrize("edit,line", [
    (lambda manifest: manifest.update(files={}), "integrity-error: unlisted bundle file: clismoke.stage1.train"),
    (lambda manifest: manifest["files"].pop("clismoke.stage1.validation"),
     "integrity-error: unlisted bundle file: clismoke.stage1.validation"),
    (lambda manifest: manifest.pop("bundle_hash"),
     "schema-error: {manifest}: 'bundle_hash' must be a string, got nothing"),
    (lambda manifest: manifest["files"]["clismoke.stage1.train"].update(lines="50"),
     "schema-error: {manifest}: 'files.clismoke.stage1.train.lines' must be an integer, got '50'"),
], ids=["files-empty", "files-omit-a-stream", "bundle-hash-absent", "lines-a-string"])
@pytest.mark.parametrize("command", ["validate", "stats"])
def test_manifest_that_omits_a_stream_or_a_required_key_is_one_error_line(runner, tmp_path, edit, line, command):
    """`files` lists exactly the bundle's streams: every file but
    manifest.json and stats.tsv."""
    bundle = _clismoke_bundle(runner, tmp_path)
    _edit_manifest(bundle, edit)
    result = runner.invoke(main, [command, "--bundle", str(bundle)])
    assert (result.exit_code, result.output) == (1, line.format(manifest=bundle / "manifest.json") + "\n")


_EXAMPLE_RECORD = {"v": "1", "source": "TEXT: t QUERY: q?", "target": "a", "signal_type": "qa_triviaqa",
                   "template_id": "qa_triviaqa.gen.001", "family": "generation", "seed": 3, "split": "train",
                   "source_doc": "qa_corpus/1"}


@pytest.mark.parametrize("key,value,message", [
    ("seed", None, "'seed' must be an integer, got None"),
    ("seed", 3.0, "'seed' must be an integer, got 3.0"),
    ("seed", True, "'seed' must be an integer, got True"),
    ("seed", "3", "'seed' must be an integer, got '3'"),
    ("target", 5, "'target' must be a string, got 5"),
    ("signal_type", ["qa_triviaqa"], "'signal_type' must be a string, got ['qa_triviaqa']"),
    ("source_doc", None, "'source_doc' must be a string, got None"),
], ids=["seed-null", "seed-float", "seed-bool", "seed-string", "target-number", "signal-type-list",
        "source-doc-null"])
def test_stats_on_an_example_record_of_the_wrong_type_is_one_schema_error_line(runner, tmp_path, key, value,
                                                                               message):
    def bundle_of(record, path):
        lines = [(json.dumps(record) + "\n").encode()]
        write_bundle(path, {"m.stage1.train": [("qa_triviaqa", 0)]}, lines.__getitem__)
        return path

    good = bundle_of(_EXAMPLE_RECORD, tmp_path / "good")
    assert runner.invoke(main, ["stats", "--bundle", str(good)]).exit_code == 0
    bad = bundle_of({**_EXAMPLE_RECORD, key: value}, tmp_path / "bad")
    result = runner.invoke(main, ["stats", "--bundle", str(bad)])
    assert result.exit_code == 1
    assert result.output == f"schema-error: {bad / 'm.stage1.train'}:1: {message}\n"


def test_restructure_command(runner, tmp_path):
    wn = run_extract(runner, tmp_path, "wordnet")
    out = tmp_path / "examples.jsonl"
    result = runner.invoke(main, ["restructure", "--tuples", str(wn), "--out", str(out),
                                  "--seed", "3"])
    assert result.exit_code == 0, result.output
    lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
    assert all("QUERY:" in rec["source"] for rec in lines)


def test_grade_prints_published_total(runner):
    result = runner.invoke(main, [
        "grade", "--paper", str(FIXTURES / "gaokao" / "paper_2019_np2.json"),
        "--answers", str(FIXTURES / "gaokao" / "answers_2019_np2_rst.json"),
    ])
    assert result.exit_code == 0, result.output
    assert "total: 138.5" in result.output


def test_grade_essay_override(runner):
    result = runner.invoke(main, [
        "grade", "--paper", str(FIXTURES / "gaokao" / "paper_2019_np2.json"),
        "--answers", str(FIXTURES / "gaokao" / "answers_2019_np2_rst.json"),
        "--essay-score", "0",
    ])
    assert "total: 116.5" in result.output


@pytest.mark.parametrize("file,doc", [
    ("answers", {"sections": 5}),
    ("answers", [1]),
    ("answers", {"section_scores": [1]}),
    ("answers", {"sections": {"listening": 5}}),
    ("paper", [1]),
], ids=["sections-not-object", "answers-not-object", "section-scores-not-object",
        "section-answers-not-list", "paper-not-object"])
def test_grade_wrongly_shaped_file_is_one_schema_error_line(runner, tmp_path, file, doc):
    paths = {"paper": str(FIXTURES / "gaokao" / "paper_2019_np2.json"),
             "answers": str(FIXTURES / "gaokao" / "answers_2019_np2_rst.json")}
    paths[file] = str(tmp_path / f"{file}.json")
    Path(paths[file]).write_text(json.dumps(doc))
    result = runner.invoke(main, ["grade", "--paper", paths["paper"], "--answers", paths["answers"]])
    assert result.exit_code == 1
    assert result.output.startswith(f"schema-error: {paths[file]}: ")
    assert result.output.count("\n") == 1


def test_grade_answers_for_an_unknown_section_is_one_schema_error_line(runner, tmp_path):
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps({"sections": {"nosuch": ["A"]}}))
    result = runner.invoke(main, ["grade", "--paper", str(FIXTURES / "gaokao" / "paper_2019_np2.json"),
                                  "--answers", str(answers)])
    assert result.exit_code == 1
    assert result.output == "schema-error: unknown exam section: nosuch\n"


def test_evaluate_reference_scorer(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
        "--scorer", "reference", "--seed", "5", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["metric"] == "accuracy" and len(doc["per_prompt"]) == 5
    assert doc["std_kind"] == "population"


def test_evaluate_unknown_dataset(runner):
    result = runner.invoke(main, [
        "evaluate", "--dataset", "nope", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
    ])
    assert result.exit_code == 1
    assert "schema-error:" in result.output


def test_seed_env_var(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("SIGNALMINE_SEED", "99")
    rt = run_extract(runner, tmp_path, "rotten_tomatoes")
    assert rt.exists()


def test_mix_preset_name(runner, tmp_path):
    wn = run_extract(runner, tmp_path, "wordnet")
    result = runner.invoke(main, [
        "mix", "--spec", "word_sense_disambiguation", "--tuples", str(wn),
        "--out", str(tmp_path / "wsd"), "--seed", "1",
    ])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "wsd" / "manifest.json").read_text())
    assert manifest["spec_name"] == "word_sense_disambiguation"
    # caps far exceed the fixtures: shortfalls are warnings, not errors
    assert manifest["warnings"]


def _readme_commands() -> list[list[str]]:
    """The arguments of each `signalmine ...` line of README's `## CLI` code
    block, a line ending in a backslash joined to the next."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("signalmine "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_cli_examples_run(runner, tmp_path, monkeypatch):
    """Every command of README's CLI block runs, in order, from a directory
    where `tests/` is this checkout's tests, and exits 0; together they show
    every command."""
    (tmp_path / "tests").symlink_to(Path(__file__).resolve().parent, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert {args[0] for args in commands} == set(main.commands)
    for args in commands:
        result = runner.invoke(main, args, env={"SIGNALMINE_SEED": None})
        assert result.exit_code == 0, (args, result.output)
        if args[0] == "grade":
            assert "total: 138.5\n" in result.output


def test_audit_templates_command(runner):
    result = runner.invoke(main, ["audit-templates"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["matches_manifest"] is True


def test_restructure_with_custom_catalog(runner, tmp_path):
    wn = run_extract(runner, tmp_path, "wordnet")
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text(json.dumps({
        "id": "wordnet_pos.gen.900", "signal_type": "wordnet_pos",
        "family": "generation", "group": "pos",
        "source": "TEXT: {sentence} QUERY: Part of speech of \"{word}\"?",
        "target": "{pos}",
    }) + "\n")
    out = tmp_path / "ex.jsonl"
    result = runner.invoke(main, [
        "restructure", "--tuples", str(wn), "--templates", str(catalog),
        "--out", str(out), "--seed", "1", "--family", "generation",
    ])
    # tuples of other wordnet signals have no templates in this tiny catalog
    if result.exit_code != 0:
        assert "config-error" in result.output
    else:
        assert out.exists()


def test_restructure_refuses_a_signal_without_templates_before_any_render(runner, tmp_path, monkeypatch):
    from signalmine import mixer

    wn = run_extract(runner, tmp_path, "wordnet")
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text(json.dumps({
        "id": "wordnet_pos.gen.900", "signal_type": "wordnet_pos", "family": "generation", "group": "pos",
        "source": "TEXT: {sentence} QUERY: Part of speech of \"{word}\"?", "target": "{pos}",
    }) + "\n")
    first_without = next(json.loads(line)["signal_type"] for line in wn.read_text().splitlines()
                         if json.loads(line)["signal_type"] != "wordnet_pos")
    monkeypatch.setattr(mixer, "render_with_selected", lambda *args: pytest.fail("rendered"))
    result = runner.invoke(main, ["restructure", "--tuples", str(wn), "--templates", str(catalog),
                                  "--out", str(tmp_path / "ex.jsonl")])
    assert (result.exit_code, result.output) == (1, f"config-error: no templates at all for {first_without}\n")


@pytest.mark.parametrize("extra, message", [
    ({"requires": 5}, "'requires' must be an object, got 5"),
    ({"requires": {"meta_equals": 5}}, "'requires.meta_equals' must be an object, got 5"),
    ({"slots": 5}, "'slots' must be an object, got 5"),
], ids=["requires-not-object", "meta-equals-not-object", "slots-not-object"])
def test_restructure_template_of_the_wrong_shape_is_one_schema_error_line(runner, tmp_path, extra, message):
    tuples = run_extract(runner, tmp_path, "rotten_tomatoes")
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text(json.dumps({
        "id": "rt.gen.900", "signal_type": "rotten_tomatoes_sentiment", "family": "generation",
        "group": "g", "source": "TEXT: {review} QUERY: Sentiment?", "target": "{sentiment}", **extra,
    }) + "\n")
    result = runner.invoke(main, [
        "restructure", "--tuples", str(tuples), "--templates", str(catalog),
        "--out", str(tmp_path / "ex.jsonl"), "--family", "generation",
    ])
    assert result.exit_code == 1
    assert result.output == f"schema-error: {catalog}:1: {message}\n"


def test_evaluate_with_external_scorer(runner, tmp_path):
    import sys
    import textwrap

    program = tmp_path / "scorer.py"
    program.write_text(textwrap.dedent("""
        import json, sys
        for line in sys.stdin:
            req = json.loads(line)
            if req["op"] == "score":
                n = max(1, len(req["candidate"].split()))
                print(json.dumps({"logprobs": [-1.0] * n}), flush=True)
            else:
                print(json.dumps({"text": ""}), flush=True)
    """))
    result = runner.invoke(main, [
        "evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
        "--scorer", f"external-cmd:{sys.executable} {program}", "--seed", "2",
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert len(doc["per_prompt"]) == 5


def test_unknown_spec_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["mix", "--spec", "no_such_preset",
                                  "--tuples", str(FIXTURES / "mines" / "wordnet.jsonl"),
                                  "--out", str(tmp_path / "b")])
    assert result.exit_code == 2


def test_malformed_spec_is_data_error(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["mix", "--spec", str(bad),
                                  "--tuples", str(FIXTURES / "mines" / "wordnet.jsonl"),
                                  "--out", str(tmp_path / "b")])
    assert result.exit_code == 1
    assert "schema-error:" in result.output


def test_mix_rerun_to_same_path_is_idempotent(runner, tmp_path):
    rt = run_extract(runner, tmp_path, "rotten_tomatoes")
    spec = _write_spec(tmp_path)
    hashes = set()
    for _ in range(2):
        result = runner.invoke(main, ["mix", "--spec", str(spec), "--tuples", str(rt),
                                      "--out", str(tmp_path / "same"), "--seed", "4"])
        assert result.exit_code == 0, result.output
        hashes.add(result.output.strip().split()[-1])
    assert len(hashes) == 1


def test_mix_killed_halfway_through_rewrite_keeps_previous_bundle(runner, tmp_path):
    """A file-size limit makes the bundle write fail after part of a stream
    file reached the disk; the bundle already at --out stays as it was."""
    resource = pytest.importorskip("resource")
    import signal
    import subprocess
    import sys

    import signalmine

    rt = run_extract(runner, tmp_path, "rotten_tomatoes")
    spec = _write_spec(tmp_path)
    bundle = tmp_path / "bundle"
    args = ["mix", "--spec", str(spec), "--tuples", str(rt), "--out", str(bundle)]
    result = runner.invoke(main, args + ["--seed", "4"])
    assert result.exit_code == 0, result.output
    before = {p.relative_to(tmp_path): p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    limit = max(len(body) for p, body in before.items() if p.parent.name == "bundle") // 2

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # fail the write with EFBIG instead
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    src = str(Path(signalmine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "signalmine.cli", *args, "--seed", "5"],
        env=env, capture_output=True, text=True, preexec_fn=limit_file_size, timeout=120,
    )
    assert proc.returncode == 1 and proc.stderr.startswith("io-error:"), proc.stderr
    after = {p.relative_to(tmp_path): p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert after == before
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]  # no temp dir left


def test_evaluate_ner_set_with_one_entity_type_is_one_schema_error_line(runner, tmp_path):
    records = [json.loads(line) for line in (FIXTURES / "eval" / "conll03.jsonl").read_text().splitlines()
               if line.strip()]
    for rec in records:
        rec["entities"] = [[surface, "PER"] for surface, _ in rec["entities"]]
    data = tmp_path / "one_type.jsonl"
    data.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    result = runner.invoke(main, ["evaluate", "--dataset", "conll03", "--data", str(data), "--seed", "5"])
    assert result.exit_code == 1
    assert result.output.startswith("schema-error: ") and "two type labels" in result.output
    assert result.output.count("\n") == 1


@pytest.mark.parametrize("change,message", [
    ({"entities": 5}, "'entities' must be a list, got 5"),
    ({"entities": [["Mozart"]]}, "'entities[]' must be a [surface, type] pair, got ['Mozart']"),
    ({"entities": [["Mozart", 5]]}, "'entities[][]' must be a string, got 5"),
    ({"entities": [[None, "PER"]]}, "'entities[][]' must be a string, got None"),
    ({"entities": ["Mozart"]}, "'entities[]' must be a list, got 'Mozart'"),
    ({"entities": [None]}, "'entities[]' must be a list, got None"),
    ({"text": 5}, "'text' must be a string, got 5"),
    ({"text": None}, "'text' must be a string, got None"),
], ids=["entities-number", "pair-of-one", "type-not-string", "surface-null", "pair-not-list", "entities-null-item",
        "text-number", "text-null"])
def test_evaluate_malformed_ner_record_is_one_schema_error_line(runner, tmp_path, change, message):
    records = [json.loads(line) for line in (FIXTURES / "eval" / "conll03.jsonl").read_text().splitlines()
               if line.strip()]
    records[2].update(change)
    data = tmp_path / "bad.jsonl"
    data.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    result = runner.invoke(main, ["evaluate", "--dataset", "conll03", "--data", str(data), "--seed", "5"])
    assert result.exit_code == 1
    assert result.output == f"schema-error: {data}:3: {message}\n"


def test_evaluate_record_whose_options_are_unusable_names_its_data_line(runner, tmp_path):
    records = [json.loads(line) for line in (FIXTURES / "eval" / "snips.jsonl").read_text().splitlines()]
    records[3]["options"] = ["only one"]
    data = tmp_path / "snips.jsonl"
    data.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    result = runner.invoke(main, ["evaluate", "--dataset", "snips", "--data", str(data), "--scorer", "reference"])
    assert (result.exit_code, result.output) == (
        1, f"schema-error: {data}:4: dataset 'snips': record options unusable "
           f"(gold='set alarm', options=['only one'])\n")


def _report_command(command, out):
    if command == "grade":
        return ["grade", "--paper", str(FIXTURES / "gaokao" / "paper_2019_np2.json"),
                "--answers", str(FIXTURES / "gaokao" / "answers_2019_np2_rst.json"), "--out", str(out)]
    return ["evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
            "--seed", "5", "--out", str(out)]


@pytest.mark.parametrize("command", ["grade", "evaluate"])
def test_report_write_failing_halfway_keeps_the_old_report(runner, tmp_path, command):
    """A file-size limit below the report's size makes its write fail after
    part of the bytes reached the disk, as a full disk would."""
    resource = pytest.importorskip("resource")
    import signal
    import subprocess
    import sys

    import signalmine

    out = tmp_path / "report.json"
    result = runner.invoke(main, _report_command(command, out))
    assert result.exit_code == 0, result.output
    limit = out.stat().st_size // 2
    out.write_text("old report\n")

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # fail the write with EFBIG instead
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    src = str(Path(signalmine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "signalmine.cli", *_report_command(command, out)],
                          env=env, capture_output=True, text=True, preexec_fn=limit_file_size, timeout=120)
    assert proc.returncode == 1 and proc.stderr.startswith("io-error:"), proc.stderr
    assert _outputs(tmp_path) == {"report.json": b"old report\n"}  # no temp file left


def test_grade_report_file(runner, tmp_path):
    out = tmp_path / "grade.json"
    result = runner.invoke(main, [
        "grade", "--paper", str(FIXTURES / "gaokao" / "paper_2019_np2.json"),
        "--answers", str(FIXTURES / "gaokao" / "answers_2019_np2_rst.json"),
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["total"] == 138.5
    assert doc["sections"]["cloze_hint"] == {"score": 12.0, "max": 15.0}


def test_evaluate_with_custom_prompt_set(runner, tmp_path):
    prompts = [
        {"source": f"TEXT: {{premise}} QUERY: variant {i}: does it follow that \"{{hypothesis}}\"? \"Yes\" or \"No\"?",
         "target": "{answer}",
         "answer": {"kind": "cond", "field": "label", "cases": [
             {"value": "Yes", "literal": "entailment", "negate": False},
             {"value": "No", "literal": "contradiction", "negate": False}]}}
        for i in range(5)
    ]
    path = tmp_path / "prompts.json"
    path.write_text(json.dumps(prompts))
    result = runner.invoke(main, [
        "evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
        "--prompts", str(path), "--scorer", "reference", "--seed", "1",
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert len(doc["per_prompt"]) == 5


def test_wikidata_blocklist_flag(runner, tmp_path):
    blocklist = tmp_path / "blocked.txt"
    blocklist.write_text("place of birth\n")
    out = tmp_path / "wd.tuples"
    result = runner.invoke(main, [
        "extract", "--mine", "wikidata", "--in", str(FIXTURES / "mines" / "wikidata.jsonl"),
        "--out", str(out), "--seed", "7", "--blocklist", str(blocklist),
    ])
    assert result.exit_code == 0, result.output
    lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
    assert not any(rec["fields"].get("property") == "place of birth" for rec in lines)


def test_evaluate_unbound_prompt_placeholder_is_render_error(runner, tmp_path):
    prompts = [{"source": "TEXT: {premise} QUERY: {nope}? \"Yes\" or \"No\"?", "target": "{label}"}] * 5
    path = tmp_path / "prompts.json"
    path.write_text(json.dumps(prompts))
    data = FIXTURES / "eval" / "rte.jsonl"
    result = runner.invoke(main, [
        "evaluate", "--dataset", "rte", "--data", str(data), "--prompts", str(path), "--seed", "1",
    ])
    assert result.exit_code == 1
    # the first record the prompt cannot render is named
    assert result.output == f"render-error: {data}:1: unbound placeholder 'nope'\n"


# `seed` subsamples 3 records that hold the fourth
@pytest.mark.parametrize("dataset,field,message,seed", [
    ("snips", "label", "unbound placeholder 'label'", 0),
    ("mr", "label", "answer rule needs field 'label'", 0),
    ("scitldr", "text", "unbound placeholder 'text'", 4),
], ids=["accuracy-target", "accuracy-cond-rule", "rouge1-source"])
def test_evaluate_render_error_names_the_data_line(runner, tmp_path, monkeypatch, dataset, field, message, seed):
    records = [json.loads(line) for line in (FIXTURES / "eval" / f"{dataset}.jsonl").read_text().splitlines()]
    records[3][field] = None
    data = tmp_path / f"{dataset}.jsonl"
    data.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    result = runner.invoke(main, ["evaluate", "--dataset", dataset, "--data", str(data)])
    assert (result.exit_code, result.output) == (1, f"render-error: {data}:4: {message}\n")
    # subsampled to 3 records, the fourth line is named still
    monkeypatch.setattr(datasets, "CLASSIFICATION_SAMPLE_CAP", 3)
    monkeypatch.setattr(datasets, "GENERATION_SAMPLE_CAP", 3)
    result = runner.invoke(main, ["evaluate", "--dataset", dataset, "--data", str(data), "--seed", str(seed)])
    assert (result.exit_code, result.output) == (1, f"render-error: {data}:4: {message}\n")


def test_evaluate_ner_prompt_render_error_names_the_first_sampled_line(runner, tmp_path, monkeypatch):
    # the seed-2 subsample of 2 of conll03's 6 records starts at the third,
    # which a blank first line puts on line 4
    data = tmp_path / "conll03.jsonl"
    data.write_text("\n" + (FIXTURES / "eval" / "conll03.jsonl").read_text())
    prompts = tmp_path / "prompts.json"
    prompts.write_text(json.dumps([{"source": "TEXT: {text} QUERY: {nope}?", "target": "{entities}"}] * 5))
    monkeypatch.setattr(datasets, "GENERATION_SAMPLE_CAP", 2)
    result = runner.invoke(main, ["evaluate", "--dataset", "conll03", "--data", str(data),
                                  "--prompts", str(prompts), "--seed", "2"])
    assert (result.exit_code, result.output) == (1, f"render-error: {data}:4: unbound placeholder 'nope'\n")


@pytest.mark.parametrize("answer", [5, "Yes", [1], None])
def test_evaluate_prompt_whose_answer_rule_is_not_an_object_is_one_schema_error_line(runner, tmp_path, answer):
    # absent or null, a prompt has no rule
    prompt = {"source": "TEXT: {premise} QUERY: {hypothesis}?", "target": "{label}"}
    path = tmp_path / "prompts.json"
    path.write_text(json.dumps([{**prompt, "answer": answer}] * 5))
    args = ["evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
            "--prompts", str(path), "--seed", "1"]
    result = runner.invoke(main, args)
    if answer is None:
        path.write_text(json.dumps([prompt] * 5))
        without = runner.invoke(main, args)
        assert without.exit_code == 0, without.output
        assert (result.exit_code, result.output) == (0, without.output)
        return
    assert result.exit_code == 1
    assert result.output == f"schema-error: {path}: 'rte[].answer' must be an object, got {answer!r}\n"


_FAULTS = {"not-utf8": b"\xff\xfe not UTF-8", "not-json": b"{bad", "not-an-object": b"[1]",
           # JSON, but its string cannot be encoded as UTF-8
           "lone-surrogate": b'{"doc_id": "\\ud800", "x": "\\ud800"}'}
_LINE_FILE_OPTIONS = ["extract --in", "extract --db", "restructure --tuples", "restructure --templates",
                      "mix --tuples", "evaluate --data"]
_DOCUMENT_OPTIONS = ["mix --spec", "evaluate --prompts", "grade --paper", "grade --answers", "validate", "stats"]


def _file_option_run(runner, tmp_path, option):
    """The arguments that run `option` on a file, and that file."""
    needs_tuples = option in ("restructure --templates", "mix --spec", "validate", "stats")
    tuples = str(run_extract(runner, tmp_path, "rotten_tomatoes")) if needs_tuples else None
    if option in ("validate", "stats"):
        bundle = tmp_path / "b"
        result = runner.invoke(main, ["mix", "--spec", str(_write_spec(tmp_path)), "--tuples", tuples,
                                      "--out", str(bundle)])
        assert result.exit_code == 0, result.output
        return [option, "--bundle", str(bundle)], bundle / "manifest.json"
    path = tmp_path / "input"
    bad, out = str(path), str(tmp_path / "out")
    mines, gaokao = FIXTURES / "mines", FIXTURES / "gaokao"
    return {
        "extract --in": ["extract", "--mine", "rotten_tomatoes", "--in", bad, "--out", out],
        "extract --db": ["extract", "--mine", "paperswithcode", "--in", str(mines / "paperswithcode.jsonl"),
                         "--db", bad, "--out", out],
        "extract --blocklist": ["extract", "--mine", "wikidata", "--in", str(mines / "wikidata.jsonl"),
                                "--blocklist", bad, "--out", out],
        "restructure --tuples": ["restructure", "--tuples", bad, "--out", out],
        "restructure --templates": ["restructure", "--tuples", tuples, "--templates", bad, "--out", out],
        "mix --spec": ["mix", "--spec", bad, "--tuples", tuples, "--out", out],
        "mix --tuples": ["mix", "--spec", "all_tasks", "--tuples", bad, "--out", out],
        "evaluate --data": ["evaluate", "--dataset", "rte", "--data", bad],
        "evaluate --prompts": ["evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
                               "--prompts", bad],
        "grade --paper": ["grade", "--paper", bad, "--answers", str(gaokao / "answers_2019_np2_rst.json")],
        "grade --answers": ["grade", "--paper", str(gaokao / "paper_2019_np2.json"), "--answers", bad],
    }[option], path


@pytest.mark.parametrize("option,fault", [
    *[(option, fault) for option in _LINE_FILE_OPTIONS + _DOCUMENT_OPTIONS for fault in _FAULTS
      # a prompt list is an array; its shape is checked, and named, by prompt set
      if (option, fault) != ("evaluate --prompts", "not-an-object")],
    ("extract --blocklist", "not-utf8"),
], ids=lambda value: value.replace(" ", ""))
def test_bad_input_file_is_one_schema_error_line(runner, tmp_path, option, fault):
    """Every file-reading option against bytes that are not UTF-8, text that
    is not JSON, JSON that is not an object and JSON holding a lone
    surrogate; a line file's fault is on its line 2."""
    args, path = _file_option_run(runner, tmp_path, option)
    path.write_bytes(b"\n" + _FAULTS[fault])
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    if option in _LINE_FILE_OPTIONS:
        assert result.output.startswith(f"schema-error: {path}:2: not a JSON record: ")
    elif option == "extract --blocklist":
        assert result.output.startswith(f"schema-error: {path}: not UTF-8 text: ")
    else:
        assert result.output.startswith(f"schema-error: {path}: not a JSON document: ")
    assert result.output.count("\n") == 1


@pytest.mark.parametrize("option", ["extract --in", "evaluate --data", "mix --tuples"])
def test_a_decoder_position_lies_within_the_line(runner, tmp_path, option):
    """Every line reader drops the newline before it decodes, so the JSON
    decoder's line, column and character count within the line."""
    args, path = _file_option_run(runner, tmp_path, option)
    path.write_bytes(b'{"doc_id": "a", "review": "x"\n')
    result = runner.invoke(main, args)
    assert (result.exit_code, result.output) == (1, f"schema-error: {path}:1: not a JSON record: "
                                                    "Expecting ',' delimiter: line 1 column 30 (char 29)\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("option", ["extract --in", "mix --tuples", "restructure --tuples"])
def test_a_pipe_is_refused_at_once_for_an_input_read_twice(runner, tmp_path, option):
    """A FIFO with no writer is refused before it is opened, not waited on;
    the subprocess's timeout fails a command that opens it."""
    import subprocess
    import sys

    import signalmine

    args, path = _file_option_run(runner, tmp_path, option)
    os.mkfifo(path)
    src = str(Path(signalmine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "signalmine.cli", *args], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, f"io-error: {path}: this input is read twice, "
                                                 "so it must be a regular file\n")
    assert [p.name for p in tmp_path.iterdir()] == ["input"]


# one value of each JSON type
_OF_JSON_TYPE = {"string": "x", "integer": 7, "number": 1.5, "bool": True, "list": [], "object": {}, "null": None}
_EXPECTED = {float: "a number", int: "an integer", bool: "true or false"}


def _takes(kind) -> set[str]:
    """The JSON types a value of `kind` may have."""
    if isinstance(kind, (list, dict)):
        return {"list" if isinstance(kind, list) else "object"}
    return {float: {"number", "integer"}, int: {"integer"}, bool: {"bool"}}.get(kind, {"string"})


def _expected(kind) -> str:
    if isinstance(kind, (list, dict)):
        return "a list" if isinstance(kind, list) else "an object"
    return _EXPECTED.get(kind, "a string")


def _skeleton(kind):
    """A value of `kind` that its declaration accepts, every key given."""
    kind = kind[0] if type(kind) is tuple else kind
    if isinstance(kind, list):
        return [_skeleton(kind[0])]
    if type(kind) is OneOf:
        name = next(iter(kind))
        return {**_skeleton(kind[name]), "kind": name}
    if isinstance(kind, dict):
        return {"k": _skeleton(kind[str])} if str in kind else {key: _skeleton(sub) for key, sub in kind.items()}
    return {float: 1.0, int: 1, bool: True}.get(kind, "x")


def _refused(kind, path: str, place, closed: bool = True):
    """(document, message) for every JSON type that `kind`, declared at
    `path`, refuses in a closed shape (or an open one, where null reads as
    absent but as an item of a list of strings), and for everything declared
    under it, where `place(value)` is the document holding `value` at `path`;
    and, if closed, an undeclared key of each object shape."""
    # null reads as absent in an open shape, and where the declared default is None
    nullable = not closed or type(kind) is tuple and kind[1] is None
    kind = kind[0] if type(kind) is tuple else kind
    for json_type, value in _OF_JSON_TYPE.items():
        if json_type not in _takes(kind) and not (value is None and nullable):
            yield place(value), f"'{path}' must be {_expected(kind)}, got {value!r}"
    if isinstance(kind, list):
        yield from _refused(kind[0], path + "[]", lambda v: place([v]), closed or kind[0] is str)
    elif type(kind) is OneOf:
        for name, shape in kind.items():
            # the rule's kind picks its shape
            yield from _refused_keys(shape, path + ".", lambda d, name=name: place({**d, "kind": name}), "kind",
                                     closed)
    elif isinstance(kind, dict):
        yield from _refused_keys(kind, path + "." if path else "", place, closed=closed)


def _refused_keys(shape, prefix: str, place, skip: str = "", closed: bool = True):
    if str in shape:
        yield from _refused(shape[str], prefix + "k", lambda v: place({"k": v}), closed)
        return
    base = _skeleton(shape)
    if closed:
        yield place({**base, "undeclared": 1}), f"'{prefix}undeclared' is not a declared key"
    for key, kind in shape.items():
        if key != skip:
            yield from _refused(kind, prefix + key, lambda v, key=key: place({**base, key: v}), closed)


def _identity(doc):
    return doc


# per declaration: the command that reads a file of it, where the file's
# errors are located, and the refused documents with their messages
_DECLARED = {
    "mix --spec": (["mix", "--spec", "{file}", "--tuples", "{empty}", "--out", "{out}"], "{file}",
                   lambda: _refused_keys(MIX_SPEC, "", _identity)),
    "restructure --templates": (["restructure", "--tuples", "{empty}", "--templates", "{file}", "--out", "{out}"],
                                "{file}:1", lambda: _refused_keys(TEMPLATE, "", _identity)),
    # the file is a list of prompts, named by its prompt set
    "evaluate --prompts": (["evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
                            "--prompts", "{file}", "--out", "{out}"], "{file}",
                           lambda: _refused(required([PROMPT]), "rte", _identity)),
    "grade --paper": (["grade", "--paper", "{file}", "--answers", str(FIXTURES / "gaokao" / "answers_2019_np2_rst.json"),
                       "--out", "{out}"], "{file}", lambda: _refused_keys(PAPER, "", _identity)),
    "grade --answers": (["grade", "--paper", str(FIXTURES / "gaokao" / "paper_2019_np2.json"), "--answers", "{file}",
                         "--out", "{out}"], "{file}", lambda: _refused_keys(ANSWERS, "", _identity)),
    "mix --tuples": (["mix", "--spec", "all_tasks", "--tuples", "{file}", "--out", "{out}"], "{file}:1",
                     lambda: _refused_keys(TUPLE, "", _identity)),
    # the file is the manifest of the bundle directory that holds it
    "validate --bundle": (["validate", "--bundle", "{dir}"], "{file}", lambda: _refused_keys(MANIFEST, "", _identity)),
}
_LINE_FILES = {"restructure --templates", "mix --tuples"}


@pytest.mark.parametrize("option", sorted(_DECLARED))
def test_every_declared_path_of_every_wrong_json_type_is_one_schema_error_line(runner, tmp_path, option):
    """Each value of a JSON type its declaration refuses, at every declared
    path, and an undeclared key in each object: one line naming the file and
    the path, exit 1, and no output."""
    args, where, refused = _DECLARED[option]
    file, empty, out = tmp_path / "in" / "manifest.json", tmp_path / "empty.tuples", tmp_path / "out"
    file.parent.mkdir()
    empty.write_text("")
    names = {"file": file, "dir": file.parent, "empty": empty, "out": out}
    args = [arg.format(**names) for arg in args]
    where = where.format(**names)
    cases = list(refused())
    assert len(cases) > 10
    for doc, message in cases:
        text = json.dumps(doc)
        file.write_text(text + "\n" if option in _LINE_FILES else text)
        result = runner.invoke(main, args)
        assert (result.exit_code, result.output) == (1, f"schema-error: {where}: {message}\n"), text
        assert not out.exists()


# per open declaration: the command that reads a file of it, its exit code
# and the line that ends its output when the file holds a refused value
_OPEN = {
    # a record of an option-scored set
    "evaluate --data": (["evaluate", "--dataset", "wiki80", "--data", "{file}", "--out", "{out}"],
                        1, "schema-error: {file}:1: {message}", OPTION_RECORD),
}


@pytest.mark.parametrize("option", sorted(_OPEN))
def test_every_declared_path_of_an_open_input_refuses_each_wrong_json_type(runner, tmp_path, option):
    """An open shape reads null as absent and ignores undeclared keys; each
    other value of a JSON type its declaration refuses, at every declared
    path, ends the run naming the file and the path, with no output: a
    usage error for --config, one schema-error line for a data file."""
    args, code, last_line, shape = _OPEN[option]
    file, out = tmp_path / "input", tmp_path / "out"
    args = [arg.format(file=file, out=out) for arg in args]
    cases = list(_refused_keys(shape, "", _identity, closed=False))
    assert len(cases) >= 5
    for doc, message in cases:
        text = json.dumps(doc)
        file.write_text(text + "\n")
        result = runner.invoke(main, args)
        expected = last_line.format(file=file, message=message)
        assert result.exit_code == code, text
        assert result.output == f"{expected}\n" if code == 1 else result.output.endswith(f"\n{expected}\n"), text
        assert not out.exists()


def test_evaluate_records_whose_options_are_null_score_against_the_label_space(runner, tmp_path):
    """A null `options` reads as absent: the record is scored against the
    dataset's label space, not a list of its own."""
    lines = (FIXTURES / "eval" / "semeval2007.jsonl").read_text().splitlines()
    given = [json.loads(line) for line in lines]
    absent = [{k: v for k, v in rec.items() if k != "options"} for rec in given]
    data = tmp_path / "semeval2007.jsonl"
    reports = []
    for records in (given, absent, [{**rec, "options": None} for rec in absent]):
        data.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        result = runner.invoke(main, ["evaluate", "--dataset", "semeval2007", "--data", str(data), "--seed", "3"])
        assert result.exit_code == 0, result.output
        reports.append(result.output)
    assert reports[0] != reports[1] == reports[2]


def test_wrongly_typed_db_entry_is_one_schema_error_line(runner, tmp_path):
    db = tmp_path / "db.jsonl"
    db.write_text('{"surface": "ImageNet", "type": "dataset"}\n{"surface": 5, "type": "task"}\n')
    out = tmp_path / "out"
    result = runner.invoke(main, ["extract", "--mine", "paperswithcode", "--in",
                                  str(FIXTURES / "mines" / "paperswithcode.jsonl"), "--db", str(db), "--out", str(out)])
    assert (result.exit_code, result.output) == (1, f"schema-error: {db}:2: 'surface' must be a string, got 5\n")
    assert not out.exists()


@pytest.mark.parametrize("dataset,family", [("conll03", "ner"), ("scitldr", "summarization")])
def test_evaluate_with_the_bundled_family_prompts_reproduces_the_default_report(runner, tmp_path,
                                                                               dataset, family):
    """A custom list replaces the family's set; the metric and NER's typing
    prompts still follow the family."""
    path = tmp_path / "prompts.json"
    path.write_text(json.dumps(load_eval_prompts()["sets"][family]))
    args = ["evaluate", "--dataset", dataset, "--data", str(FIXTURES / "eval" / f"{dataset}.jsonl"),
            "--seed", "5"]
    default = runner.invoke(main, args)
    custom = runner.invoke(main, [*args, "--prompts", str(path)])
    assert default.exit_code == 0, default.output
    assert custom.exit_code == 0, custom.output
    assert custom.output == default.output


_RTE_PROMPT = {"source": "TEXT: {premise} QUERY: {hypothesis}?", "target": "{label}"}


@pytest.mark.parametrize("prompts,message", [
    ([1, 2, 3, 4, 5], "'rte[]' must be an object, got 1"),
    ([{"source": "x"}] * 5, "'rte[].target' must be a string, got nothing"),
    ({"sets": {}, "datasets": {}}, "'rte' must be a list, got {'datasets': {}, 'sets': {}}"),
    ([{**_RTE_PROMPT, "answer": {"kind": "cond", "field": "label", "cases": [5]}}] * 5,
     "'rte[].answer.cases[]' must be an object, got 5"),
    ([{**_RTE_PROMPT, "answer": {"kind": "cond", "field": "label", "cases": [{"negate": False}]}}] * 5,
     "'rte[].answer.cases[].literal' must be a string, got nothing"),
    ([{**_RTE_PROMPT, "answer": {"kind": "cond", "cases": [{"literal": "yes", "value": "Yes"}]}}] * 5,
     "'rte[].answer.field' must be a string, got nothing"),
    ([{**_RTE_PROMPT, "answer": {"kind": "cond", "field": "label"}}] * 5,
     "'rte[].answer.cases' must be a list, got nothing"),
    ([{**_RTE_PROMPT, "answer": {"kind": "cond", "field": "label",
                                 "cases": [{"literal": "yes", "value": "Yes", "negate": "no"}]}}] * 5,
     "'rte[].answer.cases[].negate' must be true or false, got 'no'"),
    ([{**_RTE_PROMPT, "answer": {"kind": "const"}}] * 5, "'rte[].answer.value' must be a string, got nothing"),
    ([{**_RTE_PROMPT, "answer": {"kind": "presence", "present": "Yes"}}] * 5,
     "'rte[].answer.absent' must be a string, got nothing"),
    ([{**_RTE_PROMPT, "answer": {"kind": "presence", "present": "Yes", "absent": "No", "field": 5}}] * 5,
     "'rte[].answer.field' must be a string, got 5"),
    ([{**_RTE_PROMPT, "answer": {"kind": "lookup"}}] * 5,
     "'rte[].answer.kind' must be one of 'const', 'presence', 'cond', got 'lookup'"),
    ([{**_RTE_PROMPT, "answer": [1]}] * 5, "'rte[].answer' must be an object, got [1]"),
], ids=["not-objects", "no-target", "prompt-document", "case-not-object", "case-without-value",
        "cond-without-field", "cond-without-cases", "negate-not-boolean", "const-without-value",
        "presence-without-absent", "presence-field-not-string", "unknown-kind", "rule-not-object"])
def test_evaluate_wrongly_shaped_prompts_file_is_one_schema_error_line(runner, tmp_path, prompts, message):
    path = tmp_path / "prompts.json"
    path.write_text(json.dumps(prompts))
    result = runner.invoke(main, [
        "evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
        "--prompts", str(path),
    ])
    assert result.exit_code == 1
    assert result.output == f"schema-error: {path}: {message}\n"


@pytest.mark.parametrize("command,option", [
    ("evaluate", ["--metric", "rouge1"]),
    ("extract", ["--cloze-rate", "0.3"]),
    ("extract", ["--no-language-gate"]),
], ids=["metric", "cloze-rate", "no-language-gate"])
def test_removed_options_are_usage_errors(runner, tmp_path, command, option):
    args = {"evaluate": ["--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl")],
            "extract": ["--mine", "plain_text", "--in", str(FIXTURES / "mines" / "plain_text.jsonl"),
                        "--out", str(tmp_path / "pt.tuples")]}[command]
    result = runner.invoke(main, [command, *args, *option])
    assert result.exit_code == 2
    assert "No such option" in result.output and option[0] in result.output
    assert not (tmp_path / "pt.tuples").exists()


@pytest.mark.parametrize("command", ["", "   "])
def test_evaluate_empty_external_command_is_one_scorer_error_line(runner, command):
    result = runner.invoke(main, [
        "evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
        "--scorer", f"external-cmd:{command}",
    ])
    assert result.exit_code == 1
    assert result.output == "scorer-error: external scorer needs a command\n"


def test_evaluate_unparsable_external_command_is_scorer_error(runner):
    result = runner.invoke(main, [
        "evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
        "--scorer", "external-cmd:python 'unclosed",
    ])
    assert result.exit_code == 1
    assert result.output.startswith("scorer-error: cannot parse scorer command")


def test_evaluate_external_command_keeps_quoted_paths_with_spaces(runner, tmp_path):
    import sys
    import textwrap

    folder = tmp_path / "my scorer"
    folder.mkdir()
    program = folder / "scorer.py"
    log = folder / "requests log.txt"
    program.write_text(textwrap.dedent("""
        import json, sys
        with open(sys.argv[1], "a") as log:
            for line in sys.stdin:
                log.write(line)
                log.flush()
                print(json.dumps({"logprobs": [-1.0]}), flush=True)
    """))
    command = " ".join(shlex.quote(str(p)) for p in (sys.executable, program, log))
    result = runner.invoke(main, [
        "evaluate", "--dataset", "rte", "--data", str(FIXTURES / "eval" / "rte.jsonl"),
        "--scorer", f"external-cmd:{command}", "--seed", "2",
    ])
    assert result.exit_code == 0, result.output
    requests = [json.loads(line) for line in log.read_text().splitlines()]
    assert requests and all(r["op"] == "score" for r in requests)


def _mix_seed(runner, tmp_path, seed_args=(), env=None):
    """The seed a `mix` of the spec in `_write_spec` records in its manifest;
    rotten_tomatoes draws no randomness, so only the manifest shows which
    seed was used."""
    rt = run_extract(runner, tmp_path, "rotten_tomatoes")
    spec = _write_spec(tmp_path)
    out = tmp_path / "seeded"
    result = runner.invoke(main, ["mix", "--spec", str(spec), "--tuples", str(rt),
                                  "--out", str(out), *seed_args], env=env)
    assert result.exit_code == 0, result.output
    return json.loads((out / "manifest.json").read_text())["seed"]


def test_mix_uses_the_environment_seed(runner, tmp_path):
    assert _mix_seed(runner, tmp_path, env={"SIGNALMINE_SEED": "99"}) == 99


def test_seed_flag_beats_the_environment(runner, tmp_path):
    assert _mix_seed(runner, tmp_path, seed_args=("--seed", "5"), env={"SIGNALMINE_SEED": "99"}) == 5


def test_mix_preset_with_no_seed_given_is_mixed_with_seed_0(runner, tmp_path):
    """With neither --seed nor $SIGNALMINE_SEED, `mix` draws as with
    --seed 0, as every other command does: the spec holds no seed."""
    wn = run_extract(runner, tmp_path, "wordnet")
    bundles = []
    for name, seed_args in (("unset", ()), ("zero", ("--seed", "0"))):
        out = tmp_path / name
        result = runner.invoke(main, ["mix", "--spec", "word_sense_disambiguation", "--tuples", str(wn),
                                      "--out", str(out), *seed_args], env={"SIGNALMINE_SEED": None})
        assert result.exit_code == 0, result.output
        bundles.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert bundles[0] == bundles[1]
    assert json.loads(bundles[0]["manifest.json"])["seed"] == 0


def test_extract_uses_the_environment_seed(runner, tmp_path):
    """plain_text draws its cloze masks from the seed."""
    def extract(seed_args=(), env=None):
        out = tmp_path / "pt.tuples"
        result = runner.invoke(main, ["extract", "--mine", "plain_text",
                                      "--in", str(FIXTURES / "mines" / "plain_text.jsonl"),
                                      "--out", str(out), *seed_args], env=env)
        assert result.exit_code == 0, result.output
        return out.read_bytes()

    unset = {"SIGNALMINE_SEED": None}
    assert extract(seed_args=("--seed", "0"), env=unset) != extract(seed_args=("--seed", "31"), env=unset)
    assert extract(env={"SIGNALMINE_SEED": "31"}) == extract(seed_args=("--seed", "31"), env=unset)
    assert extract(env=unset) == extract(seed_args=("--seed", "0"), env=unset)


def test_config_option_is_a_usage_error(runner, tmp_path):
    """A seed comes from --seed or $SIGNALMINE_SEED: no file supplies one."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 123}))
    out = tmp_path / "rt.tuples"
    result = runner.invoke(main, ["--config", str(config), "extract", "--mine", "rotten_tomatoes",
                                  "--in", str(FIXTURES / "mines" / "rotten_tomatoes.jsonl"), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output and "--config" in result.output
    assert not out.exists()


@pytest.mark.parametrize("env", ["-5", "abc"], ids=["env-negative", "env-not-int"])
def test_invalid_seed_is_usage_error(runner, tmp_path, env):
    out = tmp_path / "rt.tuples"
    result = runner.invoke(main, ["extract", "--mine", "rotten_tomatoes",
                                  "--in", str(FIXTURES / "mines" / "rotten_tomatoes.jsonl"),
                                  "--out", str(out)], env={"SIGNALMINE_SEED": env})
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # click's usage error, not a crash
    assert "Traceback" not in result.output and "Error" in result.output
    assert not out.exists()


@pytest.mark.parametrize("entry,message", [
    ({"signal_type": "wikidata_relation", "family": "multiple_choice", "template_group": "no_such_group"},
     "config-error: 1:wikidata_relation:multiple_choice:no_such_group: no templates for "
     "(wikidata_relation, multiple_choice, group=no_such_group)"),
    ({"signal_type": "rotten_tomatoes_sentiment", "family": "cloze"},
     "config-error: 1:rotten_tomatoes_sentiment:cloze: the cloze family renders only "
     "plain_text_cloze tuples"),
], ids=["unknown-group", "cloze-on-other-signal"])
def test_mix_entry_nothing_can_render_is_config_error(runner, tmp_path, entry, message):
    rt = run_extract(runner, tmp_path, "rotten_tomatoes")
    bundle = tmp_path / "bundle"
    good = _write_spec(tmp_path)
    result = runner.invoke(main, ["mix", "--spec", str(good), "--tuples", str(rt), "--out", str(bundle)])
    assert result.exit_code == 0, result.output
    before = {p.name: p.read_bytes() for p in bundle.iterdir()}

    spec = json.loads(good.read_text())
    spec["entries"] = [spec["entries"][0], entry]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    result = runner.invoke(main, ["mix", "--spec", str(bad), "--tuples", str(rt), "--out", str(bundle)])
    assert result.exit_code == 1
    assert result.output == message + "\n"
    assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before


_RT_TUPLE = {"v": "1", "signal_type": "rotten_tomatoes_sentiment", "source_doc": "rotten_tomatoes/a",
             "fields": {"review": "A fine film.", "sentiment": "positive"}}


_RT_ENTRY = {"signal_type": "rotten_tomatoes_sentiment", "family": "generation"}


# <spec> and <tuples> stand for the paths of the spec file and the tuple file
@pytest.mark.parametrize("spec,tuple_record,message", [
    ({"entries": [{"signal_type": "rotten_tomatoes_sentiment"}]}, _RT_TUPLE,
     "<spec>: 'entries[].family' must be a string, got nothing"),
    ({"entries": [{**_RT_ENTRY, "stage": "x"}]}, _RT_TUPLE, "<spec>: 'entries[].stage' must be an integer, got 'x'"),
    ({"entries": [{**_RT_ENTRY, "stage": 1.7}]}, _RT_TUPLE, "<spec>: 'entries[].stage' must be an integer, got 1.7"),
    ({"entries": [{**_RT_ENTRY, "cap": 2.5}]}, _RT_TUPLE, "<spec>: 'entries[].cap' must be an integer, got 2.5"),
    ({"entries": [{**_RT_ENTRY, "cap": True}]}, _RT_TUPLE, "<spec>: 'entries[].cap' must be an integer, got True"),
    ({"entries": [{**_RT_ENTRY, "per_category_cap": 1.0}]},
     _RT_TUPLE, "<spec>: 'entries[].per_category_cap' must be an integer, got 1.0"),
    ({"entries": [{**_RT_ENTRY, "composition": {"positive": 1.5}}]},
     _RT_TUPLE, "<spec>: 'entries[].composition.positive' must be an integer, got 1.5"),
    ({"entries": [{**_RT_ENTRY, "weight": 1.0}]}, _RT_TUPLE, "<spec>: 'entries[].weight' is not a declared key"),
    ({"entries": [_RT_ENTRY], "split_ratio": "0.5"}, _RT_TUPLE, "<spec>: 'split_ratio' must be a number, got '0.5'"),
    ({"entries": [_RT_ENTRY], "split_ratio": False}, _RT_TUPLE, "<spec>: 'split_ratio' must be a number, got False"),
    ({"entries": [_RT_ENTRY], "split_ratio": float("nan")},
     _RT_TUPLE, "<spec>: 'split_ratio' must be in [0, 1), got nan"),
    ({"entries": [_RT_ENTRY], "split_ratio": float("-inf")},
     _RT_TUPLE, "<spec>: 'split_ratio' must be in [0, 1), got -inf"),
    ({"entries": [{**_RT_ENTRY, "signal_type": 5}]},
     _RT_TUPLE, "<spec>: 'entries[].signal_type' must be a string, got 5"),
    ({"entries": [{**_RT_ENTRY, "family": ["generation"]}]},
     _RT_TUPLE, "<spec>: 'entries[].family' must be a string, got ['generation']"),
    ({"entries": [_RT_ENTRY], "name": 5}, _RT_TUPLE, "<spec>: 'name' must be a string, got 5"),
    ({"entries": [{**_RT_ENTRY, "template_group": 5}]},
     _RT_TUPLE, "<spec>: 'entries[].template_group' must be a string, got 5"),
    ({"entries": [{**_RT_ENTRY, "composition": {"positive": 1}, "composition_key": 5}]},
     _RT_TUPLE, "<spec>: 'entries[].composition_key' must be a string, got 5"),
    ({"entries": 5}, _RT_TUPLE, "<spec>: 'entries' must be a list, got 5"),
    ({"entries": [{**_RT_ENTRY, "composition": [1, 2]}]},
     _RT_TUPLE, "<spec>: 'entries[].composition' must be an object, got [1, 2]"),
    ({"entries": [{**_RT_ENTRY, "per_categroy_cap": 5}]},
     _RT_TUPLE, "<spec>: 'entries[].per_categroy_cap' is not a declared key"),
    ({"entries": [_RT_ENTRY], "split_ratoi": 0.5}, _RT_TUPLE, "<spec>: 'split_ratoi' is not a declared key"),
    # the seed is a run argument (--seed or $SIGNALMINE_SEED), not part of the spec
    ({"entries": [_RT_ENTRY], "global_seed": 0}, _RT_TUPLE, "<spec>: 'global_seed' is not a declared key"),
    (None, {**_RT_TUPLE, "fields": ["A fine film.", "positive"]},
     "<tuples>:1: 'fields' must be an object, got ['A fine film.', 'positive']"),
    (None, {**_RT_TUPLE, "meta": "x"}, "<tuples>:1: 'meta' must be an object, got 'x'"),
    (None, {**_RT_TUPLE, "fields": {"review": 5, "sentiment": "positive"}},
     "<tuples>:1: 'fields.review' must be a string, got 5"),
], ids=["entry-without-family", "stage-not-a-number", "stage-a-float", "cap-a-float", "cap-a-bool",
        "per-category-cap-a-float", "composition-count-a-float", "weight-undeclared",
        "split-ratio-a-string", "split-ratio-a-bool", "split-ratio-nan", "split-ratio-minus-infinity",
        "signal-type-a-number", "family-a-list", "name-a-number", "template-group-a-number",
        "composition-key-a-number", "entries-a-number", "composition-a-list", "misspelt-entry-key",
        "misspelt-spec-key", "global-seed-undeclared", "fields-not-object", "meta-not-object",
        "field-not-a-string"])
def test_mix_malformed_spec_entry_or_tuple_record_is_one_schema_error_line(runner, tmp_path, spec,
                                                                         tuple_record, message):
    spec_path, tuples = tmp_path / "spec.json", tmp_path / "rt.tuples"
    spec_path.write_text(json.dumps(spec or {"entries": [{"signal_type": "rotten_tomatoes_sentiment",
                                                          "family": "generation"}]}))
    tuples.write_text(json.dumps(tuple_record) + "\n")
    result = runner.invoke(main, ["mix", "--spec", str(spec_path), "--tuples", str(tuples),
                                  "--out", str(tmp_path / "b")])
    assert result.exit_code == 1
    message = message.replace("<spec>", str(spec_path)).replace("<tuples>", str(tuples))
    assert result.output == f"schema-error: {message}\n"
    assert not (tmp_path / "b").exists()


def test_spec_hash_ignores_the_seed(runner, tmp_path):
    tuples = run_extract(runner, tmp_path, "rotten_tomatoes")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"entries": [{"signal_type": "rotten_tomatoes_sentiment", "family": "generation"}]}))
    manifests = []
    for seed in ("7", "8"):
        out = tmp_path / f"bundle{seed}"
        result = runner.invoke(main, ["mix", "--spec", str(spec), "--tuples", str(tuples), "--out", str(out),
                                      "--seed", seed])
        assert result.exit_code == 0, result.output
        manifests.append(json.loads((out / "manifest.json").read_text(encoding="utf-8")))
    assert [m["seed"] for m in manifests] == [7, 8]
    assert manifests[0]["spec_hash"] == manifests[1]["spec_hash"]


def test_spec_hash_changes_with_every_field_but_the_seed():
    from signalmine.cli import _spec_hash

    spec = MixSpec(entries=(MixEntry("rotten_tomatoes_sentiment", "multiple_choice", stage=1),
                            MixEntry("daily_mail_summary", "generation", stage=2)),
                   split_ratio=0.1, name="t")
    changed = {"signal_type": "wikidata_relation", "family": "multiple_choice", "cap": 3,
               "per_category_cap": 2, "stage": 1, "template_group": "g", "composition": {"positive": 1},
               "composition_key": "rating"}
    assert set(changed) == {field.name for field in dataclasses.fields(MixEntry)}
    hashes = {_spec_hash(spec)}
    for name, value in changed.items():
        entries = (spec.entries[0], dataclasses.replace(spec.entries[1], **{name: value}))
        hashes.add(_spec_hash(dataclasses.replace(spec, entries=entries)))
    hashes.add(_spec_hash(dataclasses.replace(spec, name="u")))
    hashes.add(_spec_hash(dataclasses.replace(spec, split_ratio=0.2)))
    assert len(hashes) == 1 + len(changed) + 2
    # a composition is a mapping: the order of its keys is not part of the spec

    def composed(composition):
        entry = dataclasses.replace(spec.entries[0], composition=composition)
        return _spec_hash(dataclasses.replace(spec, entries=(entry,)))

    assert composed({"a": 1, "b": 2}) == composed({"b": 2, "a": 1})


def test_mix_composition_key_may_name_a_field(runner, tmp_path):
    # `sentiment` is a field of rotten_tomatoes_sentiment tuples, not a meta key
    rt = run_extract(runner, tmp_path, "rotten_tomatoes")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "bysentiment", "split_ratio": 0.0, "entries": [{
        "signal_type": "rotten_tomatoes_sentiment", "family": "multiple_choice",
        "composition": {"positive": 2}, "composition_key": "sentiment"}]}))
    bundle = tmp_path / "b"
    result = runner.invoke(main, ["mix", "--spec", str(spec), "--tuples", str(rt), "--out", str(bundle)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert (manifest["per_signal"], manifest["warnings"]) == ({"rotten_tomatoes_sentiment": 2}, [])
    positive = {t["source_doc"] for t in map(json.loads, rt.read_text().splitlines())
                if t["fields"]["sentiment"] == "positive"}
    examples = [json.loads(line) for line in (bundle / "bysentiment.stage1.train").read_text().splitlines()]
    assert len(examples) == 2 and {ex["source_doc"] for ex in examples} <= positive
