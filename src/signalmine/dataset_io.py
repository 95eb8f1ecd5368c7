"""Bundle persistence: atomic writes, content hashing, statistics report.

A bundle is a directory holding `manifest.json`, `stats.tsv`, and one
`{spec}.stage{n}.{split}` file per emitted stream (line-delimited UTF-8 JSON
records). The bundle hash is a sha256 digest over every non-manifest file's
name and bytes in sorted order, so it changes iff any content byte changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Mapping

from . import __version__
from .signal_model import CATALOG, PromptedExample, SchemaError, example_from_record, example_to_record

DIGEST_ALGORITHM = "sha256"
MANIFEST_NAME = "manifest.json"
STATS_NAME = "stats.tsv"

# one encoder for every record; json.dumps would build one per call
_RECORD_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


class IntegrityError(Exception):
    """Bundle contents do not match their recorded digest."""


def _digest_files(files: Mapping[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode())
        digest.update(b"\x00")
        digest.update(files[name])
        digest.update(b"\x00")
    return digest.hexdigest()


def render_stats_table(per_signal_counts: Mapping[str, int]) -> str:
    lines = ["mine\tsignal\ttuple\tsamples"]
    for signal in sorted(per_signal_counts):
        st = CATALOG.get(signal)
        mine = st.mine if st else "?"
        label = st.schema_label if st else "?"
        lines.append(f"{mine}\t{signal}\t{label}\t{per_signal_counts[signal]}")
    return "\n".join(lines) + "\n"


def write_bundle(
    path: str | os.PathLike,
    streams: Mapping[str, list[PromptedExample]],
    manifest_extra: Mapping | None = None,
) -> str:
    """Write dataset streams + manifest + stats atomically; returns the hash.

    `streams` maps file names (e.g. "mix.stage1.train") to example lists.
    A failed write leaves no visible bundle.
    """
    path = Path(path)
    files: dict[str, bytes] = {}
    per_signal: dict[str, int] = {}
    per_file_counts: dict[str, int] = {}
    for name, examples in streams.items():
        body = "".join(_RECORD_ENCODER.encode(example_to_record(ex)) + "\n" for ex in examples)
        files[name] = body.encode("utf-8")
        per_file_counts[name] = len(examples)
        for ex in examples:
            per_signal[ex.signal_type] = per_signal.get(ex.signal_type, 0) + 1

    files[STATS_NAME] = render_stats_table(per_signal).encode("utf-8")
    bundle_hash = _digest_files(files)

    manifest = {
        "digest_algorithm": DIGEST_ALGORITHM,
        "bundle_hash": bundle_hash,
        "tool_version": __version__,
        "files": {name: {"lines": per_file_counts.get(name, None), "bytes": len(body)}
                  for name, body in files.items() if name != STATS_NAME},
        "per_signal": dict(sorted(per_signal.items())),
    }
    if manifest_extra:
        manifest.update(manifest_extra)

    parent = path.parent
    parent.mkdir(parents=True, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f".{path.name}.tmp", dir=parent)
    try:
        for name, body in files.items():
            with open(os.path.join(tmpdir, name), "wb") as fh:
                fh.write(body)
        with open(os.path.join(tmpdir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if path.exists():
            # replace only something that is itself a bundle; never clobber
            # arbitrary directories
            if not (path / MANIFEST_NAME).exists():
                raise SchemaError(f"bundle path already exists and is not a bundle: {path}")
            import shutil

            shutil.rmtree(path)
        os.rename(tmpdir, path)
    except Exception:
        for name in list(files) + [MANIFEST_NAME]:
            try:
                os.unlink(os.path.join(tmpdir, name))
            except OSError:
                pass
        try:
            os.rmdir(tmpdir)
        except OSError:
            pass
        raise
    return bundle_hash


def write_files_atomic(files: Mapping[str | os.PathLike, str]) -> None:
    """Write each UTF-8 text to a temp file beside its target, then rename
    the temps into place, so a failed or killed write never leaves a
    truncated target. On an exception the temps are removed and every target
    not yet renamed keeps its previous bytes."""
    temps: dict[str, Path] = {}  # temp path -> target, until renamed
    try:
        for target, text in files.items():
            target = Path(target)
            # not mkstemp: its files are mode 0600, and outputs keep the umask's mode
            tmp = str(target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp"))
            with open(tmp, "x", encoding="utf-8") as fh:
                temps[tmp] = target
                fh.write(text)
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
    with open(Path(path) / MANIFEST_NAME, encoding="utf-8") as fh:
        return json.load(fh)


def _read_files(path: Path) -> dict[str, bytes]:
    files = {}
    for entry in sorted(os.listdir(path)):
        if entry == MANIFEST_NAME:
            continue
        with open(path / entry, "rb") as fh:
            files[entry] = fh.read()
    return files


def verify_bundle(path: str | os.PathLike) -> dict:
    """Recompute the digest and line counts; IntegrityError on any mismatch."""
    path = Path(path)
    manifest = read_manifest(path)
    files = _read_files(path)
    actual_hash = _digest_files(files)
    if actual_hash != manifest.get("bundle_hash"):
        raise IntegrityError(f"bundle hash mismatch: {actual_hash} != {manifest.get('bundle_hash')}")
    for name, info in manifest.get("files", {}).items():
        body = files.get(name)
        if body is None:
            raise IntegrityError(f"missing bundle file: {name}")
        lines = body.decode("utf-8").count("\n")
        if info.get("lines") is not None and lines != info["lines"]:
            raise IntegrityError(f"{name}: {lines} lines, manifest says {info['lines']}")
    return manifest


def read_examples(path: str | os.PathLike, name: str) -> list[PromptedExample]:
    out = []
    with open(Path(path) / name, encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(example_from_record(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{name}:{i}: not a JSON record") from exc
    return out


def stats_report(path: str | os.PathLike) -> str:
    """Statistics rows recomputed from the bundle's actual files."""
    path = Path(path)
    verify_bundle(path)
    manifest = read_manifest(path)
    per_signal: dict[str, int] = {}
    for name in manifest.get("files", {}):
        for ex in read_examples(path, name):
            per_signal[ex.signal_type] = per_signal.get(ex.signal_type, 0) + 1
    return render_stats_table(per_signal)
