"""Seed derivation keeps its streams: each (master, path) names the generator of
``SeedSequence`` over one 64-bit integer per component, as it always has."""

import hashlib

import numpy as np
import pytest

from driftfed.seeds import derive_seed, rng_for, seed_sequence

MASK = (1 << 64) - 1


def _entropy(master, *path):
    """The integer list the streams were first defined by."""
    def component(part):
        if isinstance(part, str):
            return int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "little")
        return int(part) & MASK
    return [int(master) & MASK] + [component(p) for p in path]


PATHS = [
    (0,),
    (2**32 - 1,),
    (2**32,),
    (2**64 - 1,),
    (2**64,),  # wraps to 0
    (-1,),
    (-(2**40), "split", "Benign"),
    (np.int64(7), np.uint64(2**63), np.int32(-3)),
    (5, "round", 3, "client", 1),
    (5, "shuffle", 0),
    (123, "", "ünïcode"),
    (1, "family", "MQTT", "sub", "MQTT-Malformed_Data"),
]


@pytest.mark.parametrize("path", PATHS, ids=[repr(p) for p in PATHS])
def test_streams_are_those_of_the_integer_entropy_list(path):
    expected = np.random.default_rng(np.random.SeedSequence(_entropy(*path)))
    assert rng_for(*path).bit_generator.state == expected.bit_generator.state
    assert (seed_sequence(*path).generate_state(8).tolist()
            == np.random.SeedSequence(_entropy(*path)).generate_state(8).tolist())
    assert derive_seed(*path) == int(expected.integers(0, 2**63 - 1))


def test_a_path_component_must_be_an_int_or_a_string():
    for bad in (1.5, None, b"split"):
        with pytest.raises(TypeError, match="int or str"):
            rng_for(0, bad)
