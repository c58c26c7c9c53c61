"""Deterministic seed derivation.

A single root seed reproduces every random choice in the package: module- and
task-level seeds are derived by hashing a text label together with the root,
so independent streams never collide and never depend on call order.

``_uint32_words`` reads a PCG64 stream's 32-bit draws straight from its raw
64-bit words; the Monte Carlo shift walk (``grid.shift_walk_hits``) and the
Monte Carlo sign tables (``randnorms.RademacherSampler``) take their binary
digits from it, the digits ``rng.integers(0, 2, size)`` would give.
"""
from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

__all__ = ["derive_seed", "rng_for"]


def derive_seed(root: int, label: str) -> int:
    """Return a 63-bit seed derived from ``root`` and a text ``label``."""
    digest = hashlib.sha256(f"{root}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rng_for(root: int, label: str) -> np.random.Generator:
    """A numpy Generator seeded by :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(root, label))


def _uint32_words(bitgen: np.random.PCG64, count: int, spare: Optional[np.uint32]):
    """The next ``count`` 32-bit draws of a PCG64 stream, and the spare half left.

    numpy's 32-bit draw on PCG64 returns the low half of a fresh 64-bit word
    and keeps the high half for the next 32-bit draw, which returns it.  So
    with ``spare`` (the kept half, or None) first, the draws are the halves
    of ``random_raw`` words low then high; when ``count`` ends inside a word,
    its high half is returned as the new spare.  ``rng.integers(0, 2, size)``
    makes one such draw per digit (Lemire's method with a bound of 2, which
    never rejects), and the digit is the draw's top bit.
    """
    if spare is None:
        words = np.asarray(bitgen.random_raw((count + 1) // 2), dtype="<u8").view("<u4")
    else:
        raw = np.asarray(bitgen.random_raw(count // 2), dtype="<u8").view("<u4")
        words = np.concatenate(([spare], raw))
    if len(words) > count:
        return words[:count], words[count]
    return words, None
