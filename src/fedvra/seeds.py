"""Deterministic named sub-streams derived from one root seed.

Every random draw in the package goes through these helpers so that a
single integer seed pins down the whole computation, independent of
call order or thread schedule. String parts are hashed with SHA-256,
so stream names are stable across platforms and Python processes.
"""

from __future__ import annotations

import hashlib

import numpy as np


def seed_entropy(*parts: int | str) -> list[int]:
    """Map a mixed tuple of ints and labels to SeedSequence entropy."""
    out = []
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.sha256(part.encode("utf-8")).digest()
            out.append(int.from_bytes(digest[:8], "little"))
        elif isinstance(part, (int, np.integer)) and not isinstance(part, bool):
            if part < 0:
                raise ValueError(f"seed parts must be non-negative, got {part}")
            out.append(int(part))
        else:
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
    if not out:
        raise ValueError("at least one seed part is required")
    return out


def derive_seed(*parts: int | str) -> int:
    """Collapse seed parts into a single unsigned 64-bit integer."""
    seq = np.random.SeedSequence(seed_entropy(*parts))
    return int(seq.generate_state(1, np.uint64)[0])


def make_rng(*parts: int | str) -> np.random.Generator:
    """Generator for the named sub-stream identified by the parts."""
    return np.random.default_rng(np.random.SeedSequence(seed_entropy(*parts)))
