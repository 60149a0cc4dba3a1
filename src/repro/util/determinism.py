"""Deterministic pseudo-randomness.

Every stochastic decision in the simulator and the campaign hashes a
stable key instead of consuming a shared RNG stream, so adding or
reordering computations never perturbs unrelated results.  Experiments
are reproducible bit-for-bit across runs and machines.

A key's *text* is its parts stringified and joined by ``"\\x1f"``; the
draw is the first 64 bits of that text's SHA-256.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache


def text_hash(text: str) -> int:
    """The first 64 bits of SHA-256(text), not memoized.

    ``int_hash(*parts) == text_hash("\\x1f".join(map(str, parts)))``.
    For keys that never repeat: a caller that builds such key text
    itself (the fault injector's per-probe and per-hop draws) hashes it
    here, instead of missing the LRU of :func:`int_hash` on every call
    and evicting the keys that do repeat.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@lru_cache(maxsize=1 << 16)
def _digest64(text: str) -> int:
    """:func:`text_hash`, memoized.

    Every :func:`int_hash` and :func:`unit_hash` key goes through it:
    topology keys and flow derivations, which re-hash the same small
    key set many times per campaign, so caching the digest skips the
    SHA-256 on repeats.  Keys that never repeat (anything carrying a
    probe's flow, TTL and attempt) must not go through it: they would
    only miss and evict.
    """
    return text_hash(text)


def int_hash(*parts: object) -> int:
    """A stable 64-bit hash of the stringified parts."""
    return _digest64("\x1f".join(map(str, parts)))


def unit_hash(*parts: object) -> float:
    """A stable uniform [0, 1) draw keyed by the parts."""
    return int_hash(*parts) / 2**64


class DeterministicRng(random.Random):
    """A :class:`random.Random` seeded from a stable key.

    Use one per logical component (e.g. per-AS topology generation) so
    streams stay independent.
    """

    def __init__(self, *key: object) -> None:
        super().__init__(int_hash("rng", *key))
