"""Spans and call counts recorded around the program's public functions.

The program has no tracing of its own, so the benchmark wraps functions
through the module attributes the pipeline looks up at call time (for
example `signalmine.cli.mix` or `signalmine.restructurer.render.render`)
and puts the originals back afterwards. Spans live in flat arrays while the
run goes on and are written out once, at the end.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        # vars() keeps a classmethod's descriptor, so restore() puts it back as it was
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            setattr(*self._undo.pop())

    def wrap_span(self, fn: Callable, name: str | Callable[..., str]) -> Callable:
        """`fn` with every call recorded as a span; `name` may be computed
        from the call's arguments."""
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        return wrapper

    def span(self, owner, attr: str, name) -> None:
        self._replace(owner, attr, self.wrap_span(getattr(owner, attr), name))

    def span_iter(self, owner, attr: str, name: str) -> None:
        """For generator functions: one span per item pulled, closed before
        the item is handed to the consumer."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                i = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(i)
                yield item

        self._replace(owner, attr, wrapper)

    def count_everywhere(self, package: str, original: Callable, name: str) -> None:
        """Count calls to `original` through every module of `package` that
        imported it by name."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != package or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds, self seconds (busy minus the
        time covered by child spans) and the individual durations."""
        n = len(self.name)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.name[i]], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["busy_s"] += dur[i]
            entry["self_s"] += dur[i] - child[i]
            entry["durations"].append(dur[i])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "counts": self.counts,
                },
                fh,
            )
