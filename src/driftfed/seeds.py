"""Deterministic seed derivation.

Every random decision in the package draws from a generator derived from a
master seed plus a path of labels, e.g. ``rng_for(seed, "round", 3, "client", 1)``.
A function that hands a seed on derives it with ``derive_seed``; seeds travel
as arguments, never as config fields.
Derivation goes through ``numpy.random.SeedSequence`` so child streams are
independent and the same (seed, path) pair always yields the same stream,
regardless of call order or thread scheduling.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK = (1 << 64) - 1


def _component(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"seed path components must be int or str, got {type(part).__name__}")


def seed_sequence(master: int, *path) -> np.random.SeedSequence:
    entropy = [int(master) & _MASK] + [_component(p) for p in path]
    return np.random.SeedSequence(entropy)


def rng_for(master: int, *path) -> np.random.Generator:
    """Generator for the stream named by ``path`` under ``master``."""
    return np.random.default_rng(seed_sequence(master, *path))


def derive_seed(master: int, *path) -> int:
    """A non-negative 63-bit integer seed for the stream named by ``path``."""
    return int(rng_for(master, *path).integers(0, 2**63 - 1))
