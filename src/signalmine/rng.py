"""Deterministic, splittable randomness.

Every random choice in the pipeline flows from a single integer seed plus a
key path (mine id, doc id, stage name, ...). Streams for different keys are
independent, so documents can be processed in any order or in parallel
without changing the output.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(seed: int, *key: object) -> int:
    # UTF-8 encodes piece by piece, so one encode of the joined text gives
    # the bytes of the seed, a 0x1f byte, and the 0x1f-joined key parts
    material = str(int(seed)) + "\x1f" + "\x1f".join(map(str, key))
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big")


def derive_rng(seed: int, *key: object) -> random.Random:
    """A private RNG for the given key path. Same seed + key => same stream."""
    return random.Random(derive_seed(seed, *key))
