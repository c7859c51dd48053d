"""Shared randomized-state generators for the test suite."""

from __future__ import annotations

import random

import pytest

from blindsim import machine
from blindsim.model import TaggedWord


def random_word(rng: random.Random, blind_p: float = 0.4, small_p: float = 0.3) -> TaggedWord:
    """Random tagged word; values biased toward small ones so they double
    as plausible addresses."""
    value = rng.randrange(64) if rng.random() < small_p else rng.getrandbits(64)
    return TaggedWord(value, rng.random() < blind_p)


def twin_word(rng: random.Random, w: TaggedWord) -> TaggedWord:
    """Equivalent word: same tag, fresh payload if blinded."""
    return TaggedWord(rng.getrandbits(64), True) if w.blinded else w


@pytest.fixture
def decode_calls(monkeypatch) -> list[int]:
    """Every word the machine decodes from now on, in call order."""
    calls: list[int] = []
    real = machine.decode

    def counting(word: int):
        calls.append(word)
        return real(word)

    monkeypatch.setattr(machine, "decode", counting)
    return calls
