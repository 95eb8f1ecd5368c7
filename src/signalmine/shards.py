"""Work dealt into shards, one per CPU, each past the first in a forked child.

`extract`, `mix` and `restructure` all run through a `Spill`. The caller
builds its inputs once, and a child inherits them with the rest of the
parent's memory. A shard `put`s each item's bytes into its own spill file
and pickles back only where they end, and a small result of its own, such
as its failures (`earliest_failures`); `Spill.line_of` reads an item's
bytes back in any order.
"""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
from array import array
from typing import BinaryIO, Callable, Hashable, Iterable, Mapping, TypeVar

Result = TypeVar("Result")
_SPILL_BUFFER = 1 << 16  # bytes a shard buffers before it writes to its spill file


def worker_count() -> int:
    """How many shards to run: one per CPU this process may run on, or 1
    where the platform cannot report that set or fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def shard_plan(items: int, workers: int) -> list[range]:
    """The item positions of each shard: one shard per worker, but no more
    shards than items, and at least one. Positions are dealt round-robin,
    so each shard gets its share of every stretch of the list (jobs of one
    `mix` entry, documents of one size), and costs differ less between
    shards than between equal runs of the list. Each shard is a `range`,
    so a plan holds no list of positions."""
    shards = max(1, min(workers, items))
    return [range(shard, items, shards) for shard in range(shards)]


def shard_of(item: int, shards: int) -> tuple[int, int]:
    """Where a `shard_plan` of `shards` shards puts position `item`: its
    shard, and its place among that shard's positions."""
    return item % shards, item // shards


class Spill:
    """The output of one command's shards: one unlinked file per shard in
    `directory`, and per shard where each item's bytes end in its file. No
    file has a name, so none is left on disk on any exit path; leaving the
    `with` block closes every file opened, freeing its space and descriptor."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = directory
        self.files: list[BinaryIO] = []
        # per shard, an array('Q') of 0 and the cumulative end of each item's bytes
        self.ends: list[array] = []

    def __enter__(self) -> "Spill":
        return self

    def __exit__(self, *exc_info) -> None:
        for file in self.files:
            file.close()

    def run(self, items: int, work: Callable[[range, Callable[[bytes], None]], Result],
            name: str) -> list[Result]:
        """`work(positions, put)` for each shard of a `shard_plan` of `items`
        (`run_shards`); the results return in shard order. `work` calls
        `put(data)` once for each of its positions, in order, with the bytes
        that position makes (`b""` if none). A shard that stops early puts
        nothing more; its later positions must not be read."""
        plan = shard_plan(items, worker_count())
        for _ in plan:  # each in `files` at once, so the `with` block closes it
            self.files.append(tempfile.TemporaryFile(buffering=_SPILL_BUFFER, dir=self.directory))

        def shard(number: int) -> tuple[array, Result]:
            file, ends = self.files[number], array("Q", [0])

            def put(data: bytes) -> None:
                ends.append(ends[-1] + file.write(data))

            result = work(plan[number], put)
            file.flush()  # a forked shard leaves by `os._exit`, which flushes nothing
            return ends, result

        results = run_shards(shard, len(plan), name)
        self.ends = [ends for ends, _ in results]
        return [result for _, result in results]

    def line_of(self, item: int) -> bytes:
        """The bytes position `item` put."""
        shard, slot = shard_of(item, len(self.files))
        ends = self.ends[shard]
        return os.pread(self.files[shard].fileno(), ends[slot + 1] - ends[slot], ends[slot])


def earliest_failures(failures: Iterable[Mapping[Hashable, tuple[int, Exception]]]) -> dict:
    """Per group, the exception of its earliest `(position, exception)` in
    the shards' `failures`, the one a single process meets first; the groups
    in the order of those positions."""
    first: dict = {}
    for _, group, exc in sorted(((position, group, exc) for shard in failures
                                 for group, (position, exc) in shard.items()), key=lambda failure: failure[0]):
        first.setdefault(group, exc)
    return first


def _fork(work: Callable[[], object]) -> tuple[int, BinaryIO]:
    """Run `work()` in a forked child: its pid, and a pipe on which the
    child pickles `("ok", result)`, or `("raised", exception)`."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = ("ok", work())
            except Exception as exc:  # noqa: BLE001 - re-raised in the parent
                outcome = ("raised", exc)
            with open(write_fd, "wb") as fh:
                pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            # no atexit handlers, no flush of buffers copied from the parent
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def run_shards(work: Callable[[int], Result], shards: int, name: str) -> list[Result]:
    """`work(shard)` for each shard number `0..shards-1`, in order: the
    first shard runs here, each other one in a forked child.

    A child that ends without a complete result raises `ChildProcessError`
    ("<name> worker <pid> exited without a complete result"); any other
    exception in a child is raised here with its type and message. However
    this function ends, no child is left running or unreaped.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for shard in range(1, shards):
            children.append(_fork(lambda shard=shard: work(shard)))
        results = [work(0)]
        while children:
            pid, pipe = children[0]
            try:
                outcome = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                outcome = None
            pipe.close()
            children.pop(0)
            _, status = os.waitpid(pid, 0)
            if outcome is None:
                raise ChildProcessError(
                    f"{name} worker {pid} exited without a complete result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
            kind, value = outcome
            if kind == "raised":
                raise value
            results.append(value)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
