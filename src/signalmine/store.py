"""Tuple files read once and kept as line offsets and keys, not as tuples.

`mix` and `restructure` read their `--tuples` files through a `TupleStore`.
`scan` reads each file once, line by line, decodes each line as
`load_tuples` does, with the same errors, and hands each tuple to its
caller, which keeps what it needs of it and drops it. The store keeps 21
bytes per tuple in `array`s: where its line lies, its signal type and its
`tuple_key` as a 64-bit integer; and 4 bytes more for each key the caller
names, such as the keys a mix spec caps on, whose value is read as
`SignalTuple.get` reads it: the field of that name, else the
`extraction_meta` value. A render shard
reads back the line of each tuple it renders with `os.pread`, through the
descriptor the scan opened, and decodes it again (`tuple`). The command
owns the store: leaving its `with` block closes every file the scan opened.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_right
from typing import BinaryIO, Iterable, Iterator, Sequence

from .dataset_io import IntegrityError
from .restructurer.render import tuple_key
from .signal_model import CATALOG, SchemaError, SignalTuple, json_line, tuple_from_record

SIGNALS = tuple(CATALOG)  # a tuple's signal type is kept as its position here
_CODE = {signal_type: code for code, signal_type in enumerate(SIGNALS)}


class TupleStore:
    """The tuples of the files at `paths`, numbered from 0 in file order."""

    def __init__(self, paths: Sequence[str | os.PathLike]):
        self.paths = [str(path) for path in paths]
        self.files: list[BinaryIO] = []
        self.first: list[int] = []  # per file opened, the number of its first tuple
        self.offset = array("Q")  # per tuple, where its line starts in its file
        self.size = array("I")  # per tuple, its line's length with its newline
        self.signal = array("B")  # per tuple, its signal type's position in SIGNALS
        self.key = array("Q")  # per tuple, its `tuple_key` as an integer
        # per key `scan` keeps, its distinct values, and per tuple its
        # value's position there
        self.values: dict[str, list[str]] = {}
        self.codes: dict[str, array] = {}

    def __enter__(self) -> "TupleStore":
        return self

    def __exit__(self, *exc_info) -> None:
        for file in self.files:
            file.close()

    def __len__(self) -> int:
        return len(self.key)

    def scan(self, keys: Iterable[str] = ()) -> Iterator[SignalTuple]:
        """Open and read each file once: each tuple in file order, after its
        line, signal type, key and values for `keys` are kept. A line that
        does not decode is the `SchemaError` `load_tuples` raises for it."""
        self.values = {key: [] for key in keys}
        self.codes = {key: array("I") for key in keys}
        positions: dict[str, dict[str, int]] = {key: {} for key in keys}
        for path in self.paths:
            file = open(path, "rb")
            self.files.append(file)
            self.first.append(len(self))
            offset = 0
            for number, line in enumerate(file, 1):
                tup = json_line(line.removesuffix(b"\n"), path, number, tuple_from_record)
                if tup is not None:
                    self.offset.append(offset)
                    self.size.append(len(line))
                    self.signal.append(_CODE[tup.signal_type])
                    self.key.append(int(tuple_key(tup), 16))
                    if self.values:  # each key read as `SignalTuple.get` reads it, field first
                        view = {**tup.extraction_meta, **tup.named_fields()}
                    for key, values in self.values.items():
                        value = view.get(key, "")
                        if value not in positions[key]:
                            positions[key][value] = len(values)
                            values.append(value)
                        self.codes[key].append(positions[key][value])
                    yield tup
                offset += len(line)

    def signal_of(self, number: int) -> str:
        return SIGNALS[self.signal[number]]

    def meta(self, key: str, number: int) -> str:
        """Tuple `number`'s value for `key`, one of the `keys` it was scanned
        with: its field of that name, else its `extraction_meta` value, else
        ""."""
        return self.values[key][self.codes[key][number]]

    def key_of(self, number: int) -> str:
        """Tuple `number`'s `tuple_key`."""
        return f"{self.key[number]:016x}"

    def tuple(self, number: int) -> SignalTuple:
        """Tuple `number`, read from its file again. A line that is cut
        short or no longer decodes to a tuple of the signal type scanned
        there is an `IntegrityError` naming the file."""
        file = bisect_right(self.first, number) - 1
        size, offset = self.size[number], self.offset[number]
        line = os.pread(self.files[file].fileno(), size, offset)
        try:
            tup = json_line(line, self.paths[file], 0, tuple_from_record) if len(line) == size else None
        except SchemaError:
            tup = None
        if tup is None or tup.signal_type != self.signal_of(number):
            raise IntegrityError(
                f"{self.paths[file]}: changed since it was read: the {size} bytes at offset {offset} "
                f"no longer hold its {self.signal_of(number)} tuple"
            )
        return tup
