"""Deterministic seed derivation.

Every random decision in the package draws from a generator derived from a
master seed plus a path of labels, e.g. ``rng_for(seed, "round", 3, "client", 1)``.
A function that hands a seed on derives it with ``derive_seed``; seeds travel
as arguments, never as config fields.
Derivation goes through ``numpy.random.SeedSequence`` so child streams are
independent and the same (seed, path) pair always yields the same stream,
regardless of call order or thread scheduling.

The entropy is one 64-bit integer per path component (the master and each
integer label modulo 2**64, each string label the first 8 bytes of its
SHA-256). ``SeedSequence`` reads an integer list as the uint32 words of each
integer, least significant first, so the words are built here and handed
over as one uint32 array: the same entropy, and so the same stream, without
numpy's per-integer conversion or a hash per string label per call.
"""

from __future__ import annotations

import hashlib
from functools import cache

import numpy as np

_MASK = (1 << 64) - 1
_WORD = (1 << 32) - 1


def _words(value: int) -> tuple[int, ...]:
    """The uint32 words numpy makes of ``value`` modulo 2**64, least significant first."""
    value &= _MASK
    return (value & _WORD, value >> 32) if value >> 32 else (value,)


@cache
def _label_words(label: str) -> tuple[int, ...]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return _words(int.from_bytes(digest[:8], "little"))


def _component(part) -> tuple[int, ...]:
    if isinstance(part, (int, np.integer)):
        return _words(int(part))
    if isinstance(part, str):
        return _label_words(part)
    raise TypeError(f"seed path components must be int or str, got {type(part).__name__}")


def seed_sequence(master: int, *path) -> np.random.SeedSequence:
    words = list(_words(int(master)))
    for part in path:
        words.extend(_component(part))
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def rng_for(master: int, *path) -> np.random.Generator:
    """Generator for the stream named by ``path`` under ``master``."""
    return np.random.default_rng(seed_sequence(master, *path))


def derive_seed(master: int, *path) -> int:
    """A non-negative 63-bit integer seed for the stream named by ``path``."""
    return int(rng_for(master, *path).integers(0, 2**63 - 1))
