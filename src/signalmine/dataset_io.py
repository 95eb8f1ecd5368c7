"""Bundle persistence: atomic writes, content hashing, statistics report.

A bundle is a directory holding `manifest.json`, `stats.tsv`, and one
`{spec}.stage{n}.{split}` file per emitted stream (line-delimited UTF-8 JSON
records). The bundle hash is a sha256 digest over every non-manifest file's
name and bytes in sorted order, so it changes iff any content byte changes.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import os
import shutil
import tempfile
from collections import Counter
from json.encoder import encode_basestring as _quote  # json.dumps' escaper under ensure_ascii=False
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from . import __version__
from .signal_model import (CATALOG, FORMAT_VERSION, PromptedExample, SchemaError, example_from_record,
                           json_lines, read_json)

DIGEST_ALGORITHM = "sha256"
MANIFEST_NAME = "manifest.json"
STATS_NAME = "stats.tsv"


class StrandedBundleError(OSError):
    """Neither the new bundle nor the old one could be moved to the bundle
    path; the message names the directories that hold them."""


class IntegrityError(Exception):
    """Bundle contents do not match their recorded digest."""


def render_stats_table(per_signal_counts: Mapping[str, int]) -> str:
    lines = ["mine\tsignal\ttuple\tsamples"]
    for signal in sorted(per_signal_counts):
        st = CATALOG.get(signal)
        mine = st.mine if st else "?"
        label = st.schema_label if st else "?"
        lines.append(f"{mine}\t{signal}\t{label}\t{per_signal_counts[signal]}")
    return "\n".join(lines) + "\n"


# "v", the last key in sorted order, holds the format version
_RECORD_END = f', "v": {_quote(FORMAT_VERSION)}}}\n'


def encode_record(example: PromptedExample) -> bytes:
    """The record line of `example`: its JSON record in UTF-8, keys sorted,
    ending in a newline. Every record line is made here.

    The line is written key by key, in sorted order, with the escaper and
    separators `json.dumps(record, ensure_ascii=False, sort_keys=True)`
    uses, so it holds the same bytes without building or sorting a dict.
    """
    return (
        f'{{"family": {_quote(example.family)}, "seed": {int.__repr__(example.seed)}, '
        f'"signal_type": {_quote(example.signal_type)}, "source": {_quote(example.source)}, '
        f'"source_doc": {_quote(example.source_doc)}, "split": {_quote(example.split)}, '
        f'"target": {_quote(example.target)}, "template_id": {_quote(example.template_id)}{_RECORD_END}'
    ).encode("utf-8")


# (signal type, reference to a record line from encode_record), which the
# writer's `line_of` turns into the line
Record = tuple[str, Any]

_RECORDS_PER_WRITE = 1024


def write_bundle(
    path: str | os.PathLike,
    streams: Mapping[str, Sequence[Record]],
    line_of: Callable[[Any], bytes],
    manifest_extra: Mapping | None = None,
) -> str:
    """Write dataset streams + manifest + stats atomically; returns the hash.

    `streams` maps file names (e.g. "mix.stage1.train") to their records in
    file order, and `line_of` reads a record's line from its reference:
    the `mix` command passes `Spill.line_of`, which reads a job's line from
    the spill file its shard wrote, and a caller holding lines in memory
    passes, say, `lines.__getitem__`. Files
    are written one at a time in sorted-name order, a batch of lines at a
    time, while the digest is updated, so neither the bundle nor a whole
    stream is held in memory. A failed write leaves no visible bundle, and
    a bundle already at `path` stays there until the new one replaces it.
    """
    path = Path(path)
    if path.exists() and not (path / MANIFEST_NAME).exists():
        # replace only something that is itself a bundle; never clobber
        # arbitrary directories
        raise SchemaError(f"bundle path already exists and is not a bundle: {path}")

    per_signal = Counter(signal for records in streams.values() for signal, _ in records)
    stats = render_stats_table(per_signal).encode("utf-8")

    # each file's name, a 0 byte, its bytes and a 0 byte, in sorted-name
    # order; fed as each file is written
    digest = hashlib.sha256()
    files: dict[str, dict] = {}
    parent = path.parent
    parent.mkdir(parents=True, exist_ok=True)
    # not mkdtemp: its directories are mode 0700, and a bundle keeps the umask's mode
    tmpdir = str(parent / f".{path.name}.tmp{os.urandom(4).hex()}")
    os.mkdir(tmpdir)
    try:
        for name in sorted([*streams, STATS_NAME]):
            digest.update(name.encode() + b"\x00")
            with open(os.path.join(tmpdir, name), "wb") as fh:
                if name == STATS_NAME:
                    fh.write(stats)
                    digest.update(stats)
                else:
                    records = streams[name]
                    size = 0
                    for start in range(0, len(records), _RECORDS_PER_WRITE):
                        body = b"".join([line_of(ref) for _, ref in records[start:start + _RECORDS_PER_WRITE]])
                        fh.write(body)
                        digest.update(body)
                        size += len(body)
                    files[name] = {"lines": len(records), "bytes": size}
            digest.update(b"\x00")
        bundle_hash = digest.hexdigest()
        manifest = {
            "digest_algorithm": DIGEST_ALGORITHM,
            "bundle_hash": bundle_hash,
            "tool_version": __version__,
            "files": files,
            "per_signal": dict(sorted(per_signal.items())),
        }
        if manifest_extra:
            manifest.update(manifest_extra)
        with open(os.path.join(tmpdir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _swap_in(tmpdir, path)
    except StrandedBundleError:
        raise  # both bundles stay where the message says
    except BaseException:
        shutil.rmtree(tmpdir, ignore_errors=True)
        raise
    return bundle_hash


def _swap_in(tmpdir: str, path: Path) -> None:
    """Move the finished bundle `tmpdir` to `path`.

    A bundle already at `path` is renamed aside first, and renamed back if
    the new one cannot be moved in; it is deleted only once the new one is
    in place. A failed step thus leaves the old bundle or the new one at
    `path`. If renaming the old one back fails as well, `path` holds
    neither, and the `StrandedBundleError` names the directories that hold
    both. (Durability across a power loss is not covered: nothing is
    fsynced.)
    """
    if not path.exists():
        os.rename(tmpdir, path)
        return
    # an empty directory with a fresh name: renaming a directory onto an
    # empty one replaces it
    aside = tempfile.mkdtemp(prefix=f".{path.name}.old", dir=path.parent)
    try:
        os.rename(path, aside)
    except BaseException:
        os.rmdir(aside)
        raise
    try:
        os.rename(tmpdir, path)
    except BaseException as exc:
        try:
            os.rename(aside, path)
        except OSError as undo:
            raise StrandedBundleError(
                f"could not move the new bundle to {path} ({exc}) nor the old one back ({undo}); "
                f"the old bundle is in {aside} and the new one in {tmpdir}"
            ) from exc
        raise
    shutil.rmtree(aside, ignore_errors=True)


def write_files_atomic(files: Mapping[str | os.PathLike, Iterable[bytes]]) -> None:
    """Write each target's UTF-8 chunks, in order, to a temp file beside it,
    then rename the temps into place, so a failed or killed write never
    leaves a truncated target. Chunks are written as they are drawn, so a
    lazy iterable is never held whole. On an exception the temps are
    removed and every target not yet renamed keeps its previous bytes."""
    temps: dict[str, Path] = {}  # temp path -> target, until renamed
    try:
        for target, chunks in files.items():
            target = Path(target)
            # not mkstemp: its files are mode 0600, and outputs keep the umask's mode
            tmp = str(target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp"))
            with open(tmp, "xb") as fh:
                temps[tmp] = target
                fh.writelines(chunks)
        for tmp, target in list(temps.items()):
            os.replace(tmp, target)
            del temps[tmp]
    finally:
        for tmp in temps:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def read_manifest(path: str | os.PathLike) -> dict:
    return read_json(Path(path) / MANIFEST_NAME)


_VERIFY_CHUNK = 1 << 18


def _scan_file(file: Path, digest) -> tuple[int, bool]:
    """Feed `file`'s bytes to `digest` chunk by chunk: its line count, and
    whether it is valid UTF-8."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    lines, utf8 = 0, True
    with open(file, "rb") as fh:
        while chunk := fh.read(_VERIFY_CHUNK):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            if utf8:
                try:
                    decoder.decode(chunk)
                except UnicodeDecodeError:
                    utf8 = False
    if utf8:
        try:
            decoder.decode(b"", final=True)
        except UnicodeDecodeError:
            utf8 = False
    return lines, utf8


def verify_bundle(path: str | os.PathLike) -> dict:
    """Recompute the digest and line counts; IntegrityError on any mismatch
    or a listed file that is not UTF-8. Files are read in fixed chunks, so
    no file is held whole in memory."""
    path = Path(path)
    manifest = read_manifest(path)
    files = manifest.get("files", {})
    if not (isinstance(files, dict) and all(isinstance(info, dict) for info in files.values())):
        raise IntegrityError(f"{path / MANIFEST_NAME}: 'files' is not an object of objects")
    digest = hashlib.sha256()
    scanned: dict[str, tuple[int, bool]] = {}
    for name in sorted(os.listdir(path)):
        if name == MANIFEST_NAME:
            continue
        digest.update(name.encode() + b"\x00")
        scanned[name] = _scan_file(path / name, digest)
        digest.update(b"\x00")
    actual_hash = digest.hexdigest()
    if actual_hash != manifest.get("bundle_hash"):
        raise IntegrityError(f"bundle hash mismatch: {actual_hash} != {manifest.get('bundle_hash')}")
    for name, info in files.items():
        if name not in scanned:
            raise IntegrityError(f"missing bundle file: {name}")
        lines, utf8 = scanned[name]
        if not utf8:
            raise IntegrityError(f"{name}: not valid UTF-8")
        if info.get("lines") is not None and lines != info["lines"]:
            raise IntegrityError(f"{name}: {lines} lines, manifest says {info['lines']}")
    return manifest


def read_examples(path: str | os.PathLike, name: str) -> list[PromptedExample]:
    file = Path(path) / name
    examples = []
    with open(file, "rb") as fh:
        for rec in json_lines(fh, str(file)):
            try:
                examples.append(example_from_record(rec))
            except SchemaError as exc:
                raise SchemaError(f"{file}: {exc}") from exc
    return examples


def stats_report(path: str | os.PathLike) -> str:
    """Statistics rows recomputed from the bundle's actual files."""
    manifest = verify_bundle(path)
    per_signal: dict[str, int] = {}
    for name in manifest.get("files", {}):
        for ex in read_examples(path, name):
            per_signal[ex.signal_type] = per_signal.get(ex.signal_type, 0) + 1
    return render_stats_table(per_signal)
