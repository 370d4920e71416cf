"""Named seed streams: determinism, distinctness, and frozen anchors."""

import numpy as np
import pytest

from fedvra.seeds import derive_seed, make_rng, seed_entropy


def test_derive_seed_deterministic():
    assert derive_seed(42, "init") == derive_seed(42, "init")
    assert derive_seed(1, "a", 2, "b") == derive_seed(1, "a", 2, "b")


def test_derive_seed_distinguishes_parts():
    seen = {
        derive_seed(42, "init"),
        derive_seed(42, "shuffle"),
        derive_seed(43, "init"),
        derive_seed(42),
        derive_seed("init", 42),
    }
    assert len(seen) == 5


def test_string_and_int_parts_are_distinct():
    # "1" must not collide with 1
    assert derive_seed("1") != derive_seed(1)


def test_frozen_values():
    # pinned so a numpy or hashing change cannot silently reseed everything
    assert derive_seed(7, "init") == 8034634809147841204
    assert derive_seed(0) == 15793235383387715774
    assert derive_seed("shuffle") == 8897849489318979497
    assert seed_entropy("init") == [12104134190896141499]


def test_make_rng_streams_are_independent():
    a = make_rng(5, "x").standard_normal(8)
    b = make_rng(5, "y").standard_normal(8)
    a2 = make_rng(5, "x").standard_normal(8)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_rejects_bad_parts():
    with pytest.raises(ValueError):
        seed_entropy(-1)
    with pytest.raises(TypeError):
        seed_entropy(1.5)
    with pytest.raises(TypeError):  # True would otherwise seed as 1
        seed_entropy(1, True)
    with pytest.raises(ValueError):
        seed_entropy()


def test_numpy_integer_parts_accepted():
    assert derive_seed(np.int64(9), "z") == derive_seed(9, "z")
