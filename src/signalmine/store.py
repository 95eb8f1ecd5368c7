"""Tuple files read once and kept as line offsets and keys, not as tuples.

`mix` and `restructure` read their `--tuples` files through a `TupleStore`:
a `shards.Lines` index of every tuple line, plus per tuple its signal type
and its `tuple_key` as a 64-bit integer, and 4 bytes more for each key the
caller names, such as the keys a mix spec caps on, whose value is read as
`SignalTuple.get` reads it: the field of that name, else the
`extraction_meta` value.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

from .restructurer.render import tuple_key
from .shards import Lines
from .signal_model import CATALOG, SignalTuple, tuple_from_record

SIGNALS = tuple(CATALOG)  # a tuple's signal type is kept as its position here
_CODE = {signal_type: code for code, signal_type in enumerate(SIGNALS)}


class TupleStore(Lines):
    """The tuples of the files at `paths`, numbered from 0 in file order."""

    def __init__(self, paths):
        super().__init__(paths)
        self.signal = array("B")  # per tuple, its signal type's position in SIGNALS
        self.key = array("Q")  # per tuple, its `tuple_key` as an integer
        # per key `scan` keeps, its distinct values, and per tuple its
        # value's position there
        self.values: dict[str, list[str]] = {}
        self.codes: dict[str, array] = {}

    def scan(self, keys: Iterable[str] = ()) -> Iterator[SignalTuple]:
        """Each tuple in file order (`Lines.records`), after its signal
        type, key and values for `keys` are kept. A line that does not
        decode is the `SchemaError` `load_tuples` raises for it."""
        self.values = {key: [] for key in keys}
        self.codes = {key: array("I") for key in keys}
        positions: dict[str, dict[str, int]] = {key: {} for key in keys}
        for tup in self.records(tuple_from_record):
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
        """Tuple `number`, read from its file again (`Lines.read`)."""
        signal = self.signal_of(number)
        return self.read(number, tuple_from_record, lambda tup: tup.signal_type == signal, f"its {signal} tuple")
