"""Work dealt into shards, one per CPU, each past the first in a forked child.

`mix` renders and `extract` extracts this way. The caller builds its inputs
once; a child inherits them with the rest of the parent's memory and sends
its result back pickled through a pipe, so the inputs are never pickled.
What a shard makes in bulk should not travel that way: a `mix` shard writes
its record lines to a file it inherits, and pickles back only where they
end.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import BinaryIO, Callable, Sequence, TypeVar

Result = TypeVar("Result")
Shard = TypeVar("Shard")


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


def run_shards(work: Callable[[Shard], Result], plan: Sequence[Shard], name: str) -> list[Result]:
    """`work(shard)` for each shard of `plan`, in plan order: the first
    shard runs here, each other one in a forked child. A shard is whatever
    `work` takes: its positions (`extract`) or its number (`mix`).

    A child that ends without a complete result raises `ChildProcessError`
    ("<name> worker <pid> exited without a complete result"); any other
    exception in a child is raised here with its type and message. However
    this function ends, no child is left running or unreaped.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for shard in plan[1:]:
            children.append(_fork(lambda shard=shard: work(shard)))
        results = [work(plan[0])]
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
