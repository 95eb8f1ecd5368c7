"""Model oracles.

The harness only needs two capabilities: per-token log-likelihoods of a
candidate continuation given a source, and free-form generation.
Tokenization is the scorer's own business. The bundled reference scorer is a
deterministic unigram-overlap model so the whole suite runs with no neural
model anywhere near it.
"""

from __future__ import annotations

import json
import math
import os
import re
import select
import subprocess
from collections import deque
from typing import NoReturn, Protocol, Sequence


class ScorerError(Exception):
    """The oracle failed; the affected question counts as unanswered."""


class ModelScorer(Protocol):
    def score(self, source: str, candidate: str) -> list[float]:
        """One log-likelihood per candidate token (scorer's tokenization)."""
        ...

    def generate(self, source: str) -> str:
        ...


_TOKEN_RE = re.compile(r"[a-z0-9']+")
_CAP_RUN_RE = re.compile(r"\b([A-Z][\w'-]*(?:\s+[A-Z][\w'-]*)*)")


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class ReferenceScorer:
    """Unigram-frequency oracle: a candidate token is likely when it occurs in
    the source; smoothing keeps everything finite and deterministic."""

    vocabulary_size = 1000.0
    alpha = 0.5

    # Option scoring asks about one source once per candidate, so score()
    # keeps the last source with its token counts and denominator.
    _source: str | None = None

    def score(self, source: str, candidate: str) -> list[float]:
        if source != self._source:
            source_tokens = _tokens(source)
            counts: dict[str, int] = {}
            for t in source_tokens:
                counts[t] = counts.get(t, 0) + 1
            self._source, self._counts = source, counts
            self._denom = len(source_tokens) + self.alpha * self.vocabulary_size
        counts, denom, alpha = self._counts, self._denom, self.alpha
        return [math.log((counts.get(t, 0) + alpha) / denom) for t in _tokens(candidate)]

    def generate(self, source: str) -> str:
        body = source.split("QUERY:")[0]
        body = body.split("TEXT:", 1)[-1].strip()
        query = source.split("QUERY:")[-1].lower()
        if "entit" in query:
            runs = []
            for m in _CAP_RUN_RE.finditer(body):
                run = m.group(1)
                if m.start() == 0 or body[max(0, m.start() - 2) : m.start()] in (". ", "! ", "? "):
                    words = run.split()
                    if len(words) > 1:
                        run = " ".join(words[1:])
                    else:
                        continue
                if run and run not in runs:
                    runs.append(run)
            return ", ".join(runs)
        return " ".join(body.split()[:12])


# A request as the harness makes it: ("score", source, candidate) or
# ("generate", source).
Request = tuple

# How long a scorer may take to exit after end of input before it is killed.
_CLOSE_TIMEOUT_S = 5.0
_READ_SIZE = 1 << 16


def ask(scorer: ModelScorer, groups: Sequence[Sequence[Request]]) -> list[list | None]:
    """Per group of requests, its replies in order, or None at its first
    ScorerError, after which the rest of the group is not requested. More
    than one request in all is first announced to a scorer's `prefetch`, if
    it has one, which sends them all before it reads a reply; a lone one is
    not, so a scorer that cannot start is tried once for it."""
    send = getattr(scorer, "prefetch", None)
    if send is not None and sum(map(len, groups)) > 1:
        send([request for group in groups for request in group])
    replies: list[list | None] = []
    for group in groups:
        try:
            replies.append([scorer.score(*r[1:]) if r[0] == "score" else scorer.generate(r[1]) for r in group])
        except ScorerError:
            replies.append(None)
    return replies


def _encode(requests: Sequence[Request]) -> bytes:
    """The request lines, each byte for byte `json.dumps(request) + "\\n"` of
    its dict. A source shared by consecutive score requests is encoded once."""
    lines = []
    source = head = None
    for request in requests:
        if request[0] == "score":
            if request[1] != source:
                source = request[1]
                head = '{"op": "score", "source": ' + json.dumps(source) + ', "candidate": '
            lines.append(head + json.dumps(request[2]) + "}\n")
        else:
            lines.append('{"op": "generate", "source": ' + json.dumps(request[1]) + "}\n")
    return "".join(lines).encode("ascii")


class ExternalCommandScorer:
    """Bridges to a user-supplied program over a line protocol: one JSON
    request per line on stdin, one JSON response per line on stdout.

    Requests: {"op": "score", "source": ..., "candidate": ...} ->
              {"logprobs": [...]}
              {"op": "generate", "source": ...} -> {"text": ...}

    Requests announced with `prefetch` are written before their replies are
    read, and `score`/`generate` then take the replies in request order.
    Writes never block: while request bytes wait for room in the pipe, the
    replies that are ready are read, so neither pipe stays full whatever
    their capacity and the reply sizes.

    A protocol fault (a reply that is not a JSON line with the expected key,
    end of output, a pipe error, or a call that is not the next prefetched
    request) kills the program and drops every request in flight before the
    ScorerError is raised; the next request starts the program afresh. So a
    fault never shifts later replies onto the wrong requests, and after a
    ScorerError nothing is pending.
    """

    def __init__(self, command: list[str]):
        if not command:
            raise ScorerError("external scorer needs a command")
        self.command = command
        self._proc: subprocess.Popen | None = None
        self._pending: deque[Request] = deque()  # sent, reply not yet read
        self._unsent = memoryview(b"")  # request bytes not yet written
        self._received = bytearray()  # reply bytes not yet read

    def prefetch(self, requests: Sequence[Request]) -> None:
        """Send `requests`; the next calls must make them, in this order. A
        fault while sending drops the batch without raising: each call then
        sends its own request, and the call that fails raises."""
        try:
            self._send(requests)
        except ScorerError:
            pass

    def _send(self, requests: Sequence[Request]) -> None:
        if not self._pending:
            self._ensure()
        data = _encode(requests)
        self._unsent = memoryview(bytes(self._unsent) + data if self._unsent else data)
        self._pending.extend(requests)
        self._write()

    def score(self, source: str, candidate: str) -> list[float]:
        reply = self._reply(("score", source, candidate))
        try:
            return [float(x) for x in reply["logprobs"]]
        except (KeyError, TypeError, ValueError) as exc:
            self._fault("scorer response missing 'logprobs'", exc)

    def generate(self, source: str) -> str:
        reply = self._reply(("generate", source))
        try:
            return str(reply["text"])
        except (KeyError, TypeError) as exc:
            self._fault("scorer response missing 'text'", exc)

    def close(self) -> None:
        """End the program. With no reply outstanding it gets end of input and
        a few seconds to exit; otherwise, or after that, it is killed. It is
        always reaped."""
        self._stop(kill=bool(self._pending))

    def _ensure(self) -> None:
        if self._proc is not None:
            if self._proc.poll() is None:
                return
            self._stop(kill=False)
        try:
            proc = subprocess.Popen(self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        except OSError as exc:
            raise ScorerError(f"cannot start scorer command: {exc}") from exc
        os.set_blocking(proc.stdin.fileno(), False)
        self._proc = proc

    def _reply(self, request: Request):
        if not self._pending:
            self._send((request,))
        elif self._pending[0] != request:
            self._fault("scorer call does not match the next prefetched request")
        self._pending.popleft()
        line = self._readline()
        try:
            return json.loads(line)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            self._fault(f"scorer response is not JSON: {line[:80].decode(errors='replace')}", exc)

    def _readline(self) -> bytearray:
        received = self._received
        start = 0
        while (end := received.find(b"\n", start)) < 0:
            start = len(received)
            if not self._unsent:
                self._read()
                continue
            # write what the pipe takes or read what is there, whichever is ready
            stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
            poller = select.poll()
            poller.register(stdin, select.POLLOUT)
            poller.register(stdout, select.POLLIN)
            for fd, _ in poller.poll():
                if fd == stdin:
                    self._write()
                else:
                    self._read()
        line = received[: end + 1]
        del received[: end + 1]
        return line

    def _read(self) -> None:
        try:
            chunk = os.read(self._proc.stdout.fileno(), _READ_SIZE)
        except OSError as exc:
            self._fault(f"scorer pipe failure: {exc}", exc)
        if not chunk:
            self._fault("scorer produced no response")
        self._received += chunk

    def _write(self) -> None:
        try:
            written = os.write(self._proc.stdin.fileno(), self._unsent)
        except BlockingIOError:
            return
        except OSError as exc:
            self._fault(f"scorer pipe failure: {exc}", exc)
        self._unsent = self._unsent[written:]

    def _fault(self, message: str, cause: Exception | None = None) -> NoReturn:
        self._stop(kill=True)
        raise ScorerError(message) from cause

    def _stop(self, kill: bool) -> None:
        proc, self._proc = self._proc, None
        self._pending.clear()
        self._unsent = memoryview(b"")
        self._received.clear()
        if proc is None:
            return
        try:
            if kill:
                proc.kill()
            proc.stdin.close()
            try:
                proc.wait(timeout=_CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        finally:
            proc.stdout.close()
