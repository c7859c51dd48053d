"""Shared randomized-state generators for the test suite."""

from __future__ import annotations

import random

from blindsim.model import TaggedWord


def random_word(rng: random.Random, blind_p: float = 0.4, small_p: float = 0.3) -> TaggedWord:
    """Random tagged word; values biased toward small ones so they double
    as plausible addresses."""
    value = rng.randrange(64) if rng.random() < small_p else rng.getrandbits(64)
    return TaggedWord(value, rng.random() < blind_p)


def twin_word(rng: random.Random, w: TaggedWord) -> TaggedWord:
    """Equivalent word: same tag, fresh payload if blinded."""
    return TaggedWord(rng.getrandbits(64), True) if w.blinded else w
