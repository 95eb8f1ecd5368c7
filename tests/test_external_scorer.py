from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from signalmine.eval_harness import (
    ExternalCommandScorer,
    ScorerError,
    eval_dataset,
    eval_two_step_ner,
    score_mc,
    scorers,
)

from conftest import load_eval_fixture

ECHO_SCORER = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "score":
            toks = req["candidate"].split()
            val = 0.0 if req["candidate"] in req["source"] else -3.0
            print(json.dumps({"logprobs": [val] * max(1, len(toks))}), flush=True)
        else:
            print(json.dumps({"text": "generated " + req["source"][:10]}), flush=True)
    """
)


@pytest.fixture()
def scorer(tmp_path):
    program = tmp_path / "scorer.py"
    program.write_text(ECHO_SCORER)
    scorer = ExternalCommandScorer([sys.executable, str(program)])
    yield scorer
    scorer.close()


def test_external_score_roundtrip(scorer):
    assert scorer.score("the cat sat", "cat") == [0.0]
    assert scorer.score("the cat sat", "dog") == [-3.0]
    assert scorer.score("x", "two words") == [-3.0, -3.0]


def test_external_generate_roundtrip(scorer):
    assert scorer.generate("hello world source").startswith("generated ")


def test_external_scorer_drives_mc(scorer):
    assert score_mc("the cat sat on the mat", ["dog", "cat"], scorer) == 1


def test_external_scorer_requests_are_single_line_json(tmp_path):
    # sources with newlines must not break the line protocol
    program = tmp_path / "scorer.py"
    program.write_text(ECHO_SCORER)
    scorer = ExternalCommandScorer([sys.executable, str(program)])
    try:
        assert scorer.score("line one\nline two", "line") == [0.0]
    finally:
        scorer.close()


def test_external_scorer_failure_is_scorer_error(tmp_path):
    program = tmp_path / "broken.py"
    program.write_text("import sys; sys.exit(3)\n")
    scorer = ExternalCommandScorer([sys.executable, str(program)])
    with pytest.raises(ScorerError):
        scorer.score("a", "b")
    # score_mc turns the failure into an unanswered question
    scorer2 = ExternalCommandScorer([sys.executable, str(program)])
    assert score_mc("a", ["x", "y"], scorer2) is None


def test_scorer_that_cannot_start_leaves_questions_unanswered(tmp_path):
    # a batch that cannot be sent raises from the request, not the prefetch
    scorer = ExternalCommandScorer([str(tmp_path / "missing")])
    assert score_mc("a", ["x", "y"], scorer) is None
    report = eval_dataset("scitldr", load_eval_fixture("scitldr"), scorer)
    assert report.per_prompt == (0.0,) * 5


# Logs "start" when it starts and each request line it reads. A request
# whose line holds argv[2] fails: the program exits without replying. A type
# or summary request is answered "PER" or with the source after its "P<n>: ".
FAILING_SCORER = """
    import json, sys
    log = open(sys.argv[1], "a")
    log.write("start\\n")
    log.flush()
    for line in sys.stdin:
        log.write(line)
        log.flush()
        if sys.argv[2] in line:
            sys.exit(1)
        request = json.loads(line)
        if request["op"] == "score":
            reply = {"logprobs": [0.0 if request["candidate"] == "PER" else -1.0]}
        elif request["source"].startswith("TEXT:"):
            reply = {"text": "Mozart, Salzburg, Vienna"}
        else:
            reply = {"text": request["source"].split(": ", 1)[1]}
        print(json.dumps(reply), flush=True)
"""


def _score(source, candidate):
    return json.dumps({"op": "score", "source": source, "candidate": candidate})


def _generate(source):
    return json.dumps({"op": "generate", "source": source})


def test_failed_request_costs_its_question_entity_or_record(tmp_path):
    log = tmp_path / "requests.log"

    def run(fail, ask):
        log.write_text("")
        scorer = ExternalCommandScorer(_program(tmp_path, FAILING_SCORER) + [str(log), fail])
        try:
            return ask(scorer), log.read_text().splitlines()
        finally:
            scorer.close()

    # a multiple-choice question is unanswered, and its last option not asked
    got, lines = run('"FAIL"', lambda scorer: score_mc("q", ["a", "FAIL", "c"], scorer))
    assert (got, lines) == (None, ["start", _score("q", "a"), _score("q", "FAIL")])

    # the entity whose typing failed is dropped; the next is typed by a new start
    got, lines = run("<Salzburg>", lambda scorer: eval_two_step_ner(
        "Mozart left Salzburg for Vienna.", scorer, ["LOC", "PER"], "TEXT: {text}", "type of <{entity}>"))
    assert got == [("Mozart", "PER"), ("Vienna", "PER")]
    assert lines == [
        "start", _generate("TEXT: Mozart left Salzburg for Vienna."),
        _score("type of <Mozart>", "LOC"), _score("type of <Mozart>", "PER"), _score("type of <Salzburg>", "LOC"),
        "start", _score("type of <Vienna>", "LOC"), _score("type of <Vienna>", "PER"),
    ]

    # the failed record scores its summary against "", and later records are asked
    records = [{"text": text, "summary": text} for text in ("one", "two FAIL", "three")]
    prompts = [{"source": f"P{i}: {{text}}", "target": "{summary}"} for i in range(5)]
    got, lines = run("FAIL", lambda scorer: eval_dataset("scitldr", records, scorer, prompts=prompts))
    assert got.per_prompt == (2 / 3,) * 5
    assert lines == [line for i in range(5) for line in (
        *(["start"] if i == 0 else []), _generate(f"P{i}: one"), _generate(f"P{i}: two FAIL"),
        "start", _generate(f"P{i}: three"))]


def test_external_scorer_bad_json_is_scorer_error(tmp_path):
    program = tmp_path / "garbage.py"
    program.write_text("import sys\nfor line in sys.stdin:\n    print('not json', flush=True)\n")
    scorer = ExternalCommandScorer([sys.executable, str(program)])
    try:
        with pytest.raises(ScorerError):
            scorer.score("a", "b")
    finally:
        scorer.close()


def _program(tmp_path, source: str) -> list[str]:
    program = tmp_path / "scorer.py"
    program.write_text(textwrap.dedent(source))
    return [sys.executable, str(program)]


# Answers score requests only in batches of argv[1], so it can only make
# progress when the harness writes a batch's requests before reading any
# reply; if no request arrives for 2 s, it exits.
BATCH_SCORER = """
    import json, os, select, sys

    batch = int(sys.argv[1])
    held, buffer = [], b""
    while True:
        if b"\\n" not in buffer:
            if not select.select([0], [], [], 2.0)[0]:
                sys.exit(1)
            chunk = os.read(0, 65536)
            if not chunk:
                break
            buffer += chunk
            continue
        line, buffer = buffer.split(b"\\n", 1)
        request = json.loads(line)
        if request["op"] == "generate":
            print(json.dumps({"text": "Alpha, Beta"}), flush=True)
            continue
        held.append(request)
        if len(held) == batch:
            for r in held:
                print(json.dumps({"logprobs": [0.0 if r["candidate"] == "ORG" else -1.0]}), flush=True)
            held = []
"""


def test_score_mc_writes_every_option_before_reading_a_reply(tmp_path):
    scorer = ExternalCommandScorer(_program(tmp_path, BATCH_SCORER) + ["3"])
    try:
        assert score_mc("source", ["PER", "ORG", "LOC"], scorer) == 1
        assert score_mc("other source", ["ORG", "PER", "LOC"], scorer) == 0
    finally:
        scorer.close()


def test_two_step_ner_writes_every_typing_request_of_a_record_at_once(tmp_path):
    scorer = ExternalCommandScorer(_program(tmp_path, BATCH_SCORER) + ["6"])
    try:
        typed = eval_two_step_ner("Alpha met Beta.", scorer, ["LOC", "ORG", "PER"],
                                  "TEXT: {text} QUERY: entities?", "{text} {entity}? {choices_with_or}")
    finally:
        scorer.close()
    assert typed == [("Alpha", "ORG"), ("Beta", "ORG")]


# Prints a stray line before its reply to candidate "a".
STRAY_LINE_SCORER = """
    import json, sys
    for line in sys.stdin:
        request = json.loads(line)
        if request["candidate"] == "a":
            print("loading weights...", flush=True)
        print(json.dumps({"logprobs": [-float(len(request["candidate"]))]}), flush=True)
"""


@pytest.mark.parametrize("prefetched", [False, True])
def test_stray_output_line_fails_one_request_without_shifting_later_replies(tmp_path, prefetched):
    scorer = ExternalCommandScorer(_program(tmp_path, STRAY_LINE_SCORER))
    candidates = ["a", "bbbb", "cccccccc"]
    try:
        if prefetched:
            scorer.prefetch([("score", "source", c) for c in candidates])
        with pytest.raises(ScorerError, match="not JSON"):
            scorer.score("source", "a")
        assert scorer.score("source", "bbbb") == [-4.0]
        assert scorer.score("source", "cccccccc") == [-8.0]
    finally:
        scorer.close()


def test_call_out_of_prefetch_order_is_scorer_error_and_resets(tmp_path):
    scorer = ExternalCommandScorer(_program(tmp_path, STRAY_LINE_SCORER))
    try:
        scorer.prefetch([("score", "source", "x"), ("score", "source", "yy")])
        with pytest.raises(ScorerError, match="does not match"):
            scorer.score("source", "yy")
        assert scorer.score("source", "x") == [-1.0]
        assert scorer.score("source", "yy") == [-2.0]
    finally:
        scorer.close()


def test_reply_of_wrong_shape_is_scorer_error(tmp_path):
    scorer = ExternalCommandScorer(_program(tmp_path, """
        import sys
        for line in sys.stdin:
            print("[1, 2]", flush=True)
    """))
    try:
        with pytest.raises(ScorerError, match="missing 'text'"):
            scorer.generate("a")
        with pytest.raises(ScorerError, match="missing 'logprobs'"):
            scorer.score("a", "b")
    finally:
        scorer.close()


# Replies with its pid and keeps running after end of input.
EOF_IGNORING_SCORER = """
    import json, os, sys, time
    for line in sys.stdin:
        print(json.dumps({"text": str(os.getpid())}), flush=True)
    while True:
        time.sleep(60)
"""


def _assert_reaped(pid: int) -> None:
    # a child that exited but was not waited for would still accept signal 0
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_close_kills_and_reaps_a_scorer_that_ignores_end_of_input(tmp_path, monkeypatch):
    monkeypatch.setattr(scorers, "_CLOSE_TIMEOUT_S", 0.3)
    scorer = ExternalCommandScorer(_program(tmp_path, EOF_IGNORING_SCORER))
    pid = int(scorer.generate("x"))
    scorer.close()
    _assert_reaped(pid)


def test_close_with_unread_replies_does_not_wait(tmp_path):
    scorer = ExternalCommandScorer(_program(tmp_path, EOF_IGNORING_SCORER))
    pid = int(scorer.generate("x"))
    scorer.prefetch([("generate", str(i)) for i in range(3)])
    started = time.monotonic()
    scorer.close()
    assert time.monotonic() - started < scorers._CLOSE_TIMEOUT_S / 2
    _assert_reaped(pid)


# Each reply carries 1 MiB of padding, so a reply never fits in a pipe.
BIG_REPLY_SCORER = """
    import json, sys
    pad = "x" * (1 << 20)
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "score":
            reply = {"logprobs": [-float(len(request["candidate"]))], "pad": pad}
        else:
            reply = {"text": "Alpha, Beta, Gamma", "pad": pad}
        sys.stdout.write(json.dumps(reply) + "\\n")
        sys.stdout.flush()
"""

# Request bytes (10 KB sources) exceed a pipe's capacity as well, so a
# harness that blocks writing a batch while the scorer blocks writing a
# reply deadlocks; the subprocess timeout turns that into a failure.
BIG_BATCH_DRIVER = """
import sys
from signalmine.eval_harness import ExternalCommandScorer, eval_two_step_ner, score_mc

scorer = ExternalCommandScorer([sys.executable, sys.argv[1]])
print(score_mc("word " * 2000, ["o" * (i + 1) for i in range(40)], scorer))
text = "Alpha met Beta and Gamma. " + "filler " * 1500
print(eval_two_step_ner(text, scorer, ["LOC", "ORG", "PERSON", "MISC"],
                        "TEXT: {text} QUERY: entities?", "{text} {entity}? {choices_with_or}"))
scorer.close()
"""


def test_megabyte_replies_to_large_batches_do_not_deadlock(tmp_path):
    command = _program(tmp_path, BIG_REPLY_SCORER)
    src = str(Path(scorers.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", BIG_BATCH_DRIVER, command[1]], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["0", "[('Alpha', 'LOC'), ('Beta', 'LOC'), ('Gamma', 'LOC')]"]
